"""Spans around latclass's public functions, recorded from outside the
program.

``Tracer.install`` replaces every public function of every latclass module
(and the public classmethods of its classes, such as
``FiniteLattice.from_order``) with a wrapper that records one span per
call: name, start, end, parent span and operation.  The wrapper replaces the
function both in its own module and wherever another module imported it by
name, so calls inside the program are caught too.  ``uninstall`` puts the
originals back.  Spans stay in memory until ``write``.

``layer_metrics`` turns spans into the per-layer figures: a span's self time
(its duration minus its children's) is charged to the nearest enclosing span,
itself included, whose function names a layer in ``LAYERS``.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import time

# span name -> layer metric prefix; the other public functions are charged
# to the layer that called them
LAYERS = {
    "spectra.classify_element": "spectra.classify",
    "classifying.verify_classification": "classifying.verify",
    "classifying.hat": "classifying.hat",
    "classifying.build_space": "classifying.build_space",
    "classifying.pointfree_map": "classifying.pointfree",
    "lattice.is_distributive": "lattice.distributive",
    "lattice.find_forbidden_sublattice": "lattice.forbidden",
    "lattice.check_hom": "lattice.check_hom",
    "lattice.load_lattice": "lattice.load",
    "lattice.FiniteLattice.from_order": "lattice.from_order",
    "catlab.enumerate_subcategory_lattice": "catlab.enumerate",
    "catlab.close": "catlab.close",
    "finspace.load_space": "finspace.load_space",
    "finspace.t0_quotient": "finspace.quotient",
    "cli.emit": "cli.emit",
    "cli.run": "cli.self",
}

# (metric, unit, better); "_ms" is self time and "_calls" a call count, both
# per operation
LAYER_METRICS = [
    ("spectra.classify_ms", "ms", "lower"),
    ("spectra.classify_calls", "count", "lower"),
    ("spectra.classify_per_element", "count", "lower"),
    ("classifying.verify_ms", "ms", "lower"),
    ("classifying.hat_ms", "ms", "lower"),
    ("classifying.hat_calls", "count", "lower"),
    ("classifying.build_space_ms", "ms", "lower"),
    ("classifying.build_space_calls", "count", "lower"),
    ("classifying.pointfree_ms", "ms", "lower"),
    ("lattice.distributive_ms", "ms", "lower"),
    ("lattice.distributive_calls", "count", "lower"),
    ("lattice.forbidden_ms", "ms", "lower"),
    ("lattice.forbidden_calls", "count", "lower"),
    ("lattice.check_hom_ms", "ms", "lower"),
    ("lattice.check_hom_calls", "count", "lower"),
    ("lattice.load_ms", "ms", "lower"),
    ("lattice.load_calls", "count", "lower"),
    ("lattice.from_order_ms", "ms", "lower"),
    ("lattice.from_order_calls", "count", "lower"),
    ("catlab.enumerate_ms", "ms", "lower"),
    ("catlab.close_ms", "ms", "lower"),
    ("catlab.close_calls", "count", "lower"),
    ("catlab.close_yield", "ratio", "higher"),
    ("finspace.load_space_ms", "ms", "lower"),
    ("finspace.quotient_ms", "ms", "lower"),
    ("cli.emit_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    def __init__(self, package):
        self.spans = []  # (name, start_ns, end_ns, parent, op, size)
        self._stack = [-1]
        self._op = -1
        self._patches = []  # (owner, attribute, original, replacement)
        lattice_cls = package.lattice.FiniteLattice
        wrapped = {}
        modules = [importlib.import_module(f"{package.__name__}.{m.name}")
                   for m in pkgutil.iter_modules(package.__path__)]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj, lattice_cls)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for name, member in vars(obj).items():
                        if isinstance(member, classmethod) and not name.startswith("_"):
                            fn = self._wrap(f"{short}.{obj.__name__}.{name}",
                                            member.__func__, lattice_cls)
                            self._patches.append(
                                (obj, name, member, classmethod(fn)))
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj, wrapped[obj]))

    def _wrap(self, name, fn, lattice_cls):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                size = result.n if type(result) is lattice_cls else -1
                spans[index] = (name, start, end, parent, self._op, size)
            return result

        return traced

    def begin_op(self):
        self._op += 1

    def install(self):
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def layer_metrics(spans, n_ops):
    """Per-operation layer figures from the spans of ``n_ops`` operations."""
    layer_of = []
    ms = {}
    calls = {}
    sizes = {}
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, start, end, parent, _, size) in enumerate(spans):
        # parents are recorded before their children
        layer = LAYERS.get(name) or (layer_of[parent] if parent >= 0 else "other")
        layer_of.append(layer)
        ms[layer] = ms.get(layer, 0) + (end - start - child_ns[i]) / 1e6
        if name in LAYERS:
            calls[layer] = calls.get(layer, 0) + 1
        if name in LAYERS and size >= 0:
            sizes[layer] = sizes.get(layer, 0) + size
    out = {}
    for metric, _, _ in LAYER_METRICS:
        layer, _, kind = metric.rpartition("_")
        if kind == "ms":
            out[metric] = ms.get(layer, 0.0) / n_ops
        elif kind == "calls":
            out[metric] = calls.get(layer, 0) / n_ops
    loaded = sizes.get("lattice.load", 0)
    out["spectra.classify_per_element"] = (
        calls.get("spectra.classify", 0) / loaded if loaded else 0.0)
    closes = calls.get("catlab.close", 0)
    out["catlab.close_yield"] = (
        sizes.get("catlab.enumerate", 0) / closes if closes else 0.0)
    return out
