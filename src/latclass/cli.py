"""Command-line front end.

Exit codes: 0 success, 1 failed verification/assertion, 2 malformed input.
All JSON output is canonically ordered so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catlab, corpus
from .classifying import (
    GeneratorClass,
    SpaceKind,
    build_space,
    pointfree_map,
    space_to_dot,
    space_to_json,
    verify_classification,
)
from .errors import DocumentError, LatClassError
from .finspace import load_space, quotient_to_json, t0_quotient
from .lattice import (
    check_hom,
    compose_hom,
    is_distributive,
    lattice_to_doc,
    lattice_to_dot,
    load_lattice,
    find_forbidden_sublattice,
)
from .spectra import report_to_json, spectrum_report


def emit(obj, stream=None) -> None:
    print(json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2),
          file=stream or sys.stdout)


def read_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DocumentError("document is not a JSON object")
    return doc


def detect_and_load(doc: dict):
    if "covers" in doc:
        return "lattice", load_lattice(doc)
    if "closed_sets" in doc:
        return "space", load_space(doc)
    if "ses" in doc:
        return "table", catlab.validate_table(doc)
    raise LatClassError("unrecognized document type")


def cmd_validate(args) -> int:
    kind, value = detect_and_load(read_doc(args.file))
    info = {"type": kind, "ok": True}
    if kind == "lattice":
        info["n_elements"] = value.n
    elif kind == "space":
        info["n_points"] = value.n
        info["n_closed_sets"] = len(value.closed_sets)
    else:
        info["n_objects"] = len(value.objects)
        info["n_ses"] = len(value.ses)
    emit(info)
    return 0


def cmd_analyze(args) -> int:
    L = load_lattice(read_doc(args.file))
    report = spectrum_report(L)
    if args.text:
        for e in report.classifications:
            flags = ",".join(k for k, v in sorted(e.as_flags().items()) if v)
            print(f"{L.elements[e.element]}: c_circle={L.elements[e.c_circle]} "
                  f"[{flags}]")
    else:
        emit(report_to_json(L, report))
    return 0


def cmd_space(args) -> int:
    L = load_lattice(read_doc(args.file))
    space = build_space(L, SpaceKind(args.kind))
    emit(space_to_json(space))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(space_to_dot(space))
    return 0


def cmd_quotient(args) -> int:
    X = load_space(read_doc(args.file))
    emit(quotient_to_json(t0_quotient(X)))
    return 0


def cmd_catlab(args) -> int:
    T = catlab.validate_table(read_doc(args.file))
    L = catlab.enumerate_subcategory_lattice(T, catlab.SubcategoryKind(args.type))
    emit(lattice_to_doc(L))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(lattice_to_dot(L))
    return 0


def _check_distributive(L, checks):
    verdict = is_distributive(L)
    forbidden = find_forbidden_sublattice(L)
    agree = verdict.distributive == (forbidden is None)
    checks.append({
        "name": "distributivity-two-routes-agree",
        "ok": agree,
        "detail": {
            "distributive": verdict.distributive,
            "witness": list(verdict.witness) if verdict.witness else None,
            "forbidden": forbidden.kind if forbidden else None,
        },
    })
    return verdict


def _check_t0(L, verdict, checks):
    for kind in (SpaceKind.K, SpaceKind.KP, SpaceKind.KGP):
        space = build_space(L, kind)
        must_be_topology = kind is not SpaceKind.K or verdict.distributive
        if must_be_topology:
            checks.append({"name": f"topology[{kind.value}]",
                           "ok": space.topology_ok,
                           "detail": _topology_detail(space)})
            checks.append({"name": f"t0[{kind.value}]", "ok": space.t0,
                           "detail": {}})
        else:
            # expected-negative: report the counterexample, never fail on it
            checks.append({"name": f"topology[{kind.value}] (not required)",
                           "ok": True,
                           "detail": _topology_detail(space)})


def _topology_detail(space):
    detail = {"topology_ok": space.topology_ok,
              "closed_sets": len(space.closed_sets)}
    ce = space.topology_check.counterexample
    if ce is not None:
        op, ga, gb, res = ce
        L = space.lattice
        detail["counterexample"] = {
            "operation": op,
            "generators": [L.elements[ga] if ga >= 0 else None,
                           L.elements[gb] if gb >= 0 else None],
            "point_set": sorted(L.elements[p] for p in res),
        }
    return detail


def _check_bijection(L, cls, checks):
    report = verify_classification(L, cls)
    checks.append({
        "name": f"bijection[{cls.value}]",
        "ok": report.round_trip_ok,
        "detail": {
            "closed_sets": len(report.closed_sets),
            "fixed_elements": sorted(L.elements[c] for c in report.fixed_elements),
        },
    })


def _check_functor(L, homfile_doc, checks):
    lattice_docs = homfile_doc.get("lattices", {})
    hom_docs = homfile_doc.get("homs", [])
    if not (isinstance(lattice_docs, dict) and isinstance(hom_docs, list)
            and all(isinstance(h, dict) for h in hom_docs)):
        raise DocumentError(
            "homfile needs 'lattices' as an object and 'homs' as a list of objects")
    lattices = {"main": L}
    for name, doc in lattice_docs.items():
        lattices[name] = load_lattice(doc)
    homs = []
    for i, h in enumerate(hom_docs):
        ends = (h.get("source", "main"), h.get("target", "main"))
        if not all(isinstance(e, str) and e in lattices for e in ends):
            raise DocumentError(f"hom {i} names an unknown lattice: {ends}")
        hom = check_hom(h["map"], lattices[ends[0]], lattices[ends[1]])
        name = h.get("name", f"hom{i}")
        pf = pointfree_map(hom)
        checks.append({
            "name": f"pointfree[{name}]",
            "ok": pf.well_defined and pf.continuity_ok,
            "detail": {"well_defined": pf.well_defined,
                       "continuity": pf.continuity_ok},
        })
        homs.append((name, hom, pf))
    for fname, f, pf_f in homs:
        for gname, g, pf_g in homs:
            if f.target != g.source:
                continue
            comp = pointfree_map(compose_hom(f, g))
            composed = {c: pf_f.mapping[pf_g.mapping[c]]
                        for c in pf_g.source_primes}
            checks.append({
                "name": f"contravariant-composition[{gname}.{fname}]",
                "ok": comp.mapping == composed,
                "detail": {},
            })


def cmd_check(args) -> int:
    L = load_lattice(read_doc(args.file))
    checks: list[dict] = []
    run_all = args.all or not (args.distributive or args.t0 or args.bijection
                               or args.functor)
    verdict = None
    if run_all or args.distributive:
        verdict = _check_distributive(L, checks)
    if run_all or args.t0:
        _check_t0(L, verdict or is_distributive(L), checks)
    if run_all:
        for cls in GeneratorClass:
            _check_bijection(L, cls, checks)
    elif args.bijection:
        _check_bijection(L, GeneratorClass(args.bijection), checks)
    if args.functor:
        _check_functor(L, read_doc(args.functor), checks)
    ok = all(c["ok"] for c in checks)
    emit({"lattice": L.name, "ok": ok, "checks": checks})
    return 0 if ok else 1


def cmd_corpus(args) -> int:
    all_entries = corpus.entries()
    if args.action == "list":
        emit([{"name": e.name, "kind": e.kind} for e in all_entries])
        return 0
    selected = all_entries
    if args.name:
        selected = [e for e in all_entries if e.name == args.name]
        if not selected:
            raise LatClassError(f"no corpus entry named {args.name!r}")
    report = []
    ok = True
    for entry in selected:
        results = corpus.check_entry(entry)
        entry_ok = all(r[1] for r in results)
        ok = ok and entry_ok
        report.append({
            "name": entry.name,
            "ok": entry_ok,
            "checks": [{"name": n, "ok": o, "detail": d}
                       for n, o, d in results],
        })
    emit({"ok": ok, "entries": report})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latclass",
        description="Finite-lattice classifying spaces: analysis and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a document and report its type")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="per-element spectrum report")
    p.add_argument("file")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--text", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("space", help="build a classifying space")
    p.add_argument("file")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in SpaceKind])
    p.add_argument("--dot", metavar="OUT")
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("check", help="run theorem verifications")
    p.add_argument("file")
    p.add_argument("--all", action="store_true")
    p.add_argument("--distributive", action="store_true")
    p.add_argument("--t0", action="store_true")
    p.add_argument("--bijection", choices=[c.value for c in GeneratorClass])
    p.add_argument("--functor", metavar="HOMFILE")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("quotient", help="Kolmogorov quotient of a space")
    p.add_argument("file")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("catlab", help="subcategory lattice from a table")
    p.add_argument("file")
    p.add_argument("--type", required=True,
                   choices=[k.value for k in catlab.SubcategoryKind])
    p.add_argument("--dot", metavar="OUT")
    p.set_defaults(func=cmd_catlab)

    p = sub.add_parser("corpus", help="bundled examples")
    p.add_argument("action", choices=["list", "run"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_corpus)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LatClassError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
