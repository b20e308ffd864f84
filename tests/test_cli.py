import json
import sys

import pytest

from latclass import corpus
from latclass.cli import run
from conftest import A2_DOC


@pytest.fixture()
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(A2_DOC), encoding="utf-8")
    return str(path)


@pytest.fixture()
def sierpinski_file(tmp_path):
    doc = {"points": ["x", "y"], "closed_sets": [[], [0], [0, 1]]}
    path = tmp_path / "sier.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def table_file(tmp_path):
    doc = {"objects": ["0", "a", "b", "c"], "zero": 0, "ses": [[1, 2, 3]]}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_lattice(self, a2_file, capsys):
        assert run(["validate", a2_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"type": "lattice", "ok": True, "n_elements": 6}

    def test_space(self, sierpinski_file, capsys):
        assert run(["validate", sierpinski_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["type"] == "space" and out["n_closed_sets"] == 3

    def test_table(self, table_file, capsys):
        assert run(["validate", table_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["type"] == "table" and out["n_ses"] == 8

    def test_chain_longer_than_recursion_limit(self, tmp_path, capsys):
        k = 1200
        assert k > sys.getrecursionlimit()
        doc = {"elements": [str(i) for i in range(k)],
               "covers": [[i, i + 1] for i in range(k - 1)]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["validate", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"type": "lattice", "ok": True, "n_elements": k}

    def test_unrecognized(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{\"stuff\": 1}", encoding="utf-8")
        assert run(["validate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestMalformedEntries:
    @pytest.mark.parametrize("doc,argv", [
        ({"elements": ["a", "b"], "covers": [[0]]}, ["validate"]),
        ({"elements": ["a", "b"], "covers": [[0, 1, 1]]}, ["validate"]),
        ({"elements": ["a", "b"], "covers": [0]}, ["validate"]),
        ({"elements": ["a", "b"], "covers": 5}, ["validate"]),
        ({"objects": ["0", "a"], "zero": 0, "ses": 5}, ["validate"]),
        ({"elements": ["a", "b"], "covers": ["ab"]}, ["check", "--all"]),
        ({"objects": ["0", "a"], "zero": 0, "ses": [[0, 1]]}, ["validate"]),
        ({"objects": ["0", "a"], "zero": 0, "ses": [7]},
         ["catlab", "--type", "serre"]),
        # a string is not a list of labels, and a bool is not an index
        ({"elements": "ab", "covers": [[0, 1]]}, ["validate"]),
        ({"elements": ["a", "b"], "covers": [[False, True]]}, ["validate"]),
        ({"points": ["x", "y"], "closed_sets": [[], [True], [0, 1]]},
         ["validate"]),
        ({"points": "xy", "closed_sets": [[], [0], [0, 1]]}, ["validate"]),
        ({"points": ["x", "y"], "closed_sets": [[], [0], 5]}, ["quotient"]),
        ({"objects": ["0", "a"], "zero": True, "ses": []}, ["validate"]),
        ({"objects": "0a", "zero": 0, "ses": []}, ["validate"]),
        ({"objects": ["0", "a"], "zero": 0, "ses": [[0, True, 1]]},
         ["validate"]),
        (5, ["validate"]),
    ])
    def test_exit_2(self, tmp_path, capsys, doc, argv):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run([argv[0], str(path)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


class TestAnalyze:
    def test_json(self, a2_file, capsys):
        assert run(["analyze", a2_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["point_sets"]["kgp"] == ["{0}", "{0,a}", "{0,c}"]

    def test_text(self, a2_file, capsys):
        assert run(["analyze", "--text", a2_file]) == 0
        out = capsys.readouterr().out
        assert "{0,b,c}: c_circle={0,c}" in out

    def test_missing_file(self, capsys):
        assert run(["analyze", "/nonexistent/x.json"]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        assert run(["analyze", str(path)]) == 2

    def test_bad_lattice(self, tmp_path, capsys):
        doc = {"elements": ["a", "b", "c", "d"],
               "covers": [[0, 2], [0, 3], [1, 2], [1, 3]]}
        path = tmp_path / "bowtie.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["analyze", str(path)]) == 2


class TestSpace:
    def test_kgp(self, a2_file, capsys):
        assert run(["space", a2_file, "--kind", "kgp"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["points"] == ["{0}", "{0,a}", "{0,c}"]
        assert len(out["closed_sets"]) == 5
        assert out["topology_ok"] and out["t0"]

    def test_k_reports_failed_topology(self, a2_file, capsys):
        assert run(["space", a2_file, "--kind", "k"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["topology_ok"] is False

    def test_dot_output(self, a2_file, tmp_path, capsys):
        dot = tmp_path / "space.dot"
        assert run(["space", a2_file, "--kind", "kgp", "--dot", str(dot)]) == 0
        assert "->" in dot.read_text(encoding="utf-8")


class TestCheck:
    def test_all_passes(self, a2_file, capsys):
        assert run(["check", a2_file, "--all"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"]
        names = [c["name"] for c in out["checks"]]
        assert "bijection[g_prime]" in names
        assert any(n.startswith("topology[k] (not required)") for n in names)

    def test_bijection_fixed_set(self, a2_file, capsys):
        assert run(["check", a2_file, "--bijection", "g_prime"]) == 0
        out = json.loads(capsys.readouterr().out)
        (check,) = out["checks"]
        assert check["detail"]["fixed_elements"] == \
            sorted(["∅", "{0}", "{0,a}", "{0,c}", "{0,a,b,c}"])

    def test_functor(self, a2_file, tmp_path, capsys):
        homdoc = {
            "lattices": {"c2": {"name": "c2", "elements": ["0", "1"],
                                "covers": [[0, 1]]}},
            "homs": [
                {"name": "id", "source": "main", "target": "main",
                 "map": [0, 1, 2, 3, 4, 5]},
                {"name": "collapse", "source": "main", "target": "c2",
                 "map": [0, 1, 1, 1, 1, 1]},
            ],
        }
        path = tmp_path / "homs.json"
        path.write_text(json.dumps(homdoc), encoding="utf-8")
        assert run(["check", a2_file, "--functor", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in out["checks"]]
        assert "pointfree[collapse]" in names
        assert "contravariant-composition[collapse.id]" in names
        assert out["ok"]

    @pytest.mark.parametrize("homdoc", [
        [],
        {"lattices": [1], "homs": []},
        {"homs": [{"map": 5}]},
        {"homs": [{"map": [False, True, 2, 3, 4, 5]}]},
        {"homs": [{"source": ["main"], "map": [0, 1, 2, 3, 4, 5]}]},
    ])
    def test_functor_malformed_homfile_exit_2(self, a2_file, tmp_path, capsys,
                                              homdoc):
        path = tmp_path / "homs.json"
        path.write_text(json.dumps(homdoc), encoding="utf-8")
        assert run(["check", a2_file, "--functor", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_all_runs_forbidden_search_twice_on_pentagon(
            self, tmp_path, capsys, monkeypatch):
        # once as the second distributivity route, once for the witness;
        # the topology checks reuse the verdict
        from latclass import cli, lattice
        calls = []
        search = lattice.find_forbidden_sublattice

        def counted(L):
            calls.append(L.name)
            return search(L)

        monkeypatch.setattr(lattice, "find_forbidden_sublattice", counted)
        monkeypatch.setattr(cli, "find_forbidden_sublattice", counted)
        path = tmp_path / "n5.json"
        path.write_text(json.dumps(lattice.lattice_to_doc(
            lattice.pentagon_n5())), encoding="utf-8")
        assert run(["check", str(path), "--all"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["checks"][0]["detail"]["forbidden"] == "pentagon"
        assert len(calls) == 2


class TestQuotient:
    def test_sierpinski(self, sierpinski_file, capsys):
        assert run(["quotient", sierpinski_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["classes"]) == 2


class TestCatlab:
    def test_nullity(self, table_file, capsys):
        assert run(["catlab", table_file, "--type", "nullity"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["elements"]) == 6

    def test_serre(self, table_file, capsys):
        assert run(["catlab", table_file, "--type", "serre"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["elements"]) == 5


class TestCorpus:
    def test_list(self, capsys):
        assert run(["corpus", "list"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert {"name": "a2-nullity", "kind": "lattice"} in out

    def test_run_one(self, capsys):
        assert run(["corpus", "run", "a2-nullity"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"]

    def test_run_all(self, capsys):
        assert run(["corpus", "run"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_unknown_name(self, capsys):
        assert run(["corpus", "run", "zzz"]) == 2


class TestDeterminism:
    def test_analyze_and_space_byte_identical(self, tmp_path, capsys):
        for entry in corpus.entries():
            if entry.kind != "lattice":
                continue
            path = tmp_path / f"{entry.name}.json"
            path.write_text(json.dumps(entry.doc), encoding="utf-8")
            for argv in (["analyze", str(path)],
                         ["space", str(path), "--kind", "kgp"],
                         ["space", str(path), "--kind", "k"]):
                assert run(argv) == 0
                first = capsys.readouterr().out
                assert run(argv) == 0
                assert capsys.readouterr().out == first, (entry.name, argv)
