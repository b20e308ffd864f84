"""Tests of the benchmark's own parts: seeded documents repeat byte for
byte, and each oracle accepts hand-known outputs and rejects corrupted ones.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import io
import json
import os
import random
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import latclass  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
from latclass import cli  # noqa: E402

N5 = {"name": "N5", "elements": ["0", "a", "b", "c", "1"],
      "covers": [[0, 1], [1, 2], [0, 3], [2, 4], [3, 4]]}
M3 = {"name": "M3", "elements": ["0", "a", "b", "c", "1"],
      "covers": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]}
QUIVER = {"objects": ["0", "a", "b", "c"], "zero": 0, "ses": [[1, 2, 3]]}


class Case:
    """One operation on hand-built documents, run through latclass."""

    def __init__(self, directory, op):
        self.op = gen.materialize(op, directory)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            self.code = cli.run(self.op["argv"])
        self.out = out.getvalue()
        self.doc = json.loads(self.out)

    def verdict(self, doc=None, code=None):
        out = self.out if doc is None else json.dumps(doc)
        return oracles.check(self.op, self.code if code is None else code, out)


def lattice_check(op_id, doc, distributive, downsets, functor=None, files=None):
    argv = ["check", "{doc}", "--all"]
    if functor:
        argv += ["--functor", "{hom}"]
    return {"id": op_id, "argv": argv, "oracle": "check",
            "files": dict(files or {}, doc=doc),
            "expect": {"n": len(doc["elements"]), "distributive": distributive,
                       "downsets": downsets, "functor": functor}}


def catlab(op_id, table, kind):
    return {"id": op_id, "argv": ["catlab", "{doc}", "--type", kind],
            "oracle": "catlab", "files": {"doc": table},
            "expect": gen.catlab_expect(table, kind)}


class Documents(unittest.TestCase):
    def test_seed_repeats_byte_for_byte(self):
        for workload in gen.WORKLOADS:
            first = gen.dump(gen.round_ops(workload, 7, "r", 3))
            again = gen.dump(gen.round_ops(workload, 7, "r", 3))
            other = gen.dump(gen.round_ops(workload, 8, "r", 3))
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)

    def test_written_files_repeat(self):
        op = gen.round_ops("check-all", 3, "r", 0)[1]
        contents = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as d:
                m = gen.materialize(op, d)
                paths = [a for a in m["argv"] if a.startswith(d)]
                contents.append([open(p, "rb").read() for p in paths])
        self.assertEqual(contents[0], contents[1])

    def test_closure_systems_know_their_distributivity(self):
        # the powerset of 2 is distributive; {∅, {0}, {1}, {2}, full} is M3
        self.assertTrue(gen.is_distributive_family([0, 1, 2, 3]))
        self.assertFalse(gen.is_distributive_family([0, 1, 2, 4, 7]))


class Oracles(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.dir = self._dir.name

    def tearDown(self):
        self._dir.cleanup()

    def assertAccepts(self, case):
        self.assertIsNone(case.verdict(), case.out[:500])

    def assertRejects(self, case, doc=None, code=None):
        self.assertIsNotNone(case.verdict(doc, code))

    def test_chain(self):
        doc, _ = gen.chain_doc(random.Random(1), "chain-6", 6)
        case = Case(self.dir, lattice_check("chain", doc, True, True))
        self.assertAccepts(case)
        self.assertRejects(case, code=1)
        bad = copy.deepcopy(case.doc)
        bad["checks"][0]["detail"]["distributive"] = False
        self.assertRejects(case, bad)
        validate = Case(self.dir, {"id": "v", "argv": ["validate", "{doc}"],
                                   "oracle": "validate", "expect": {"n": 6},
                                   "files": {"doc": doc}})
        self.assertAccepts(validate)
        self.assertRejects(validate, dict(validate.doc, n_elements=5))

    def test_powerset_with_functor(self):
        rng = random.Random(2)
        doc, pos = gen.powerset_doc(rng, "powerset-3", 3, ["a", "b", "c"])
        homfile, functor = gen.powerset_homfile(rng, 3, pos)
        case = Case(self.dir, lattice_check("ps", doc, True, True, functor,
                                            {"hom": homfile}))
        self.assertAccepts(case)
        dropped = copy.deepcopy(case.doc)
        dropped["checks"] = [c for c in dropped["checks"]
                             if not c["name"].startswith("contravariant")]
        self.assertRejects(case, dropped)
        short = copy.deepcopy(case.doc)
        for c in short["checks"]:
            if c["name"] == "bijection[g_prime]":
                c["detail"]["closed_sets"] -= 1
                c["detail"]["fixed_elements"].pop()
        self.assertRejects(case, short)

    def test_pentagon_and_diamond(self):
        for name, doc in (("n5", N5), ("m3", M3)):
            case = Case(self.dir, lattice_check(name, doc, False, False))
            self.assertAccepts(case)
            bad = copy.deepcopy(case.doc)
            bad["checks"][0]["detail"]["forbidden"] = None
            self.assertRejects(case, bad)
            failing = copy.deepcopy(case.doc)
            failing["checks"][-1]["ok"] = False
            self.assertRejects(case, failing)
            # a lattice built distributive must not come back pentagonal
            wrong = lattice_check(name, doc, True, False)
            self.assertIsNotNone(oracles.check(wrong, 0, case.out))

    def test_quiver_table(self):
        sizes = {}
        for kind in ("serre", "nullity"):
            case = Case(self.dir, catlab(f"q-{kind}", QUIVER, kind))
            self.assertAccepts(case)
            sizes[kind] = len(case.doc["elements"])
            missing = dict(case.doc, elements=case.doc["elements"][:-1])
            self.assertRejects(case, missing)
            flat = dict(case.doc, covers=case.doc["covers"][1:])
            self.assertRejects(case, flat)
        self.assertEqual(sizes, {"serre": 5, "nullity": 6})

    def test_quotient(self):
        # x and y share their closure; z lies above both
        space = {"points": ["x", "y", "z"], "closed_sets": [[], [0, 1], [0, 1, 2]]}
        case = Case(self.dir, {
            "id": "kq", "argv": ["quotient", "{doc}"], "oracle": "quotient",
            "files": {"doc": space},
            "expect": {"classes": [["x", "y"], ["z"]], "n_closed_sets": 3}})
        self.assertAccepts(case)
        split = copy.deepcopy(case.doc)
        split["classes"] = [["x"], ["y"], ["z"]]
        self.assertRejects(case, split)
        extra = copy.deepcopy(case.doc)
        extra["quotient"]["closed_sets"].append([0])
        self.assertRejects(case, extra)

    def test_generated_operations_pass(self):
        # the cheapest slot of each operation kind
        ops = [gen.round_ops("check-all", 5, "r", 0)[0],
               gen.round_ops("catlab-quotient", 5, "r", 0)[0],
               gen.round_ops("catlab-quotient", 5, "r", 0)[1]]
        for op in ops:
            case = Case(self.dir, op)
            self.assertAccepts(case)
            self.assertRejects(case, code=2)


class Tracing(unittest.TestCase):
    def test_self_time_goes_to_the_nearest_layer(self):
        # cli.run > hat > class_members (no layer) > classify_element
        spans = [("cli.run", 0, 10_000_000, -1, 0, -1),
                 ("classifying.hat", 1_000_000, 9_000_000, 0, 0, -1),
                 ("classifying.class_members", 2_000_000, 8_000_000, 1, 0, -1),
                 ("spectra.classify_element", 3_000_000, 7_000_000, 2, 0, -1),
                 ("lattice.load_lattice", 0, 0, 0, 0, 5)]
        m = tracer.layer_metrics(spans, 2)
        self.assertEqual(m["cli.self_ms"], 1.0)
        self.assertEqual(m["classifying.hat_ms"], 2.0)
        self.assertEqual(m["spectra.classify_ms"], 2.0)
        self.assertEqual(m["classifying.hat_calls"], 0.5)
        self.assertEqual(m["spectra.classify_per_element"], 0.2)
        self.assertEqual(m["catlab.close_yield"], 0.0)

    def test_wraps_and_restores(self):
        original = latclass.lattice.load_lattice
        t = tracer.Tracer(latclass)
        t.install()
        try:
            self.assertIsNot(latclass.lattice.load_lattice, original)
            self.assertIs(latclass.cli.load_lattice, latclass.lattice.load_lattice)
            with tempfile.TemporaryDirectory() as d:
                Case(d, lattice_check("n5", N5, False, False))
        finally:
            t.uninstall()
        self.assertIs(latclass.lattice.load_lattice, original)
        self.assertIs(latclass.cli.load_lattice, original)
        names = {span[0] for span in t.spans}
        self.assertIn("lattice.FiniteLattice.from_order", names)
        self.assertIn("spectra.classify_element", names)
        self.assertEqual(t.spans[0][0], "cli.run")


if __name__ == "__main__":
    unittest.main()
