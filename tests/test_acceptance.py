"""End-to-end acceptance checks.

Each test covers one headline guarantee and records a single PASS/FAIL
line, printed in the terminal summary (see conftest).
"""

import functools
import itertools
import json
import random

from latclass import catlab, corpus
from latclass.classifying import (
    GeneratorClass,
    SpaceKind,
    build_space,
    meet_primes,
    pointfree_map,
    verify_classification,
)
from latclass.cli import run
from latclass.finspace import kq_vs_K_check, make_space, t0_quotient
from latclass.lattice import compose_hom, is_distributive, PENTAGON, set_label
from latclass.spectra import (
    CompletelyClass,
    classify_element,
    oracle_completely,
    spectrum_report,
)

RESULTS: list[tuple[str, bool]] = []


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append((label, False))
                raise
            RESULTS.append((label, True))
        return wrapper
    return deco


@criterion("01 end-to-end pipeline on the two-object quiver category")
def test_01_a2_pipeline():
    L = corpus.a2_nullity_lattice()
    assert L.n == 6
    rep = spectrum_report(L)
    names = lambda key: [L.elements[c] for c in rep.point_sets[key]]
    assert names("k") == ["{0}", "{0,a}", "{0,c}", "{0,b,c}"]
    assert names("kgp") == names("kp") == ["{0}", "{0,a}", "{0,c}"]
    assert len(build_space(L, SpaceKind.KGP).closed_sets) == 5
    assert not classify_element(L, L.index("{0,b,c}")).join_prime
    verdict = is_distributive(L)
    assert not verdict.distributive
    assert verdict.forbidden.kind == PENTAGON
    assert {L.elements[c] for c in verdict.forbidden.elements} == \
        {"{0}", "{0,a}", "{0,c}", "{0,b,c}", "{0,a,b,c}"}


@criterion("02 full point family fails union-closure on the same lattice")
def test_02_a2_k_not_topology():
    L = corpus.a2_nullity_lattice()
    s = build_space(L, SpaceKind.K)
    assert not s.topology_ok
    op, ga, gb, _ = s.topology_check.counterexample
    assert op == "union"
    assert {L.elements[ga], L.elements[gb]} == {"{0,a}", "{0,c}"}
    # oracle: enumerate every pairwise union of the generated family
    family = set(s.closed_sets)
    missing = {(a, b) for a in family for b in family if a | b not in family}
    assert missing


@criterion("03 closed-set bijection round-trips on corpus and 200 random lattices")
def test_03_bijection(named_lattices, random_lattices):
    for L in list(named_lattices.values()) + random_lattices:
        assert verify_classification(L, GeneratorClass.G_PRIME).round_trip_ok, L.name
    A = named_lattices["a2-nullity"]
    rep = verify_classification(A, GeneratorClass.G_PRIME)
    assert {A.elements[c] for c in rep.fixed_elements} == \
        {"∅", "{0}", "{0,a}", "{0,c}", "{0,a,b,c}"}


@criterion("04 four-prime powerset model is generated and discrete")
def test_04_powerset_model():
    P = catlab.powerset_model(4)
    rep = verify_classification(P, GeneratorClass.G_PRIME)
    assert rep.round_trip_ok and len(rep.fixed_elements) == 16
    s = build_space(P, SpaceKind.KGP)
    assert len(s.points) == 4
    assert len(s.closed_sets) == 16
    family = set(s.closed_sets)
    assert all(frozenset(c) in family
               for r in range(5) for c in itertools.combinations(s.points, r))


@criterion("05 prime/irreducible implications, equivalence when distributive")
def test_05_prime_irreducible(random_lattices, downset_lattices):
    for L in random_lattices:
        for c in range(L.n):
            e = classify_element(L, c)
            assert not e.join_prime or e.join_irreducible
            assert not e.meet_prime or e.meet_irreducible
    assert len(downset_lattices) == 200
    for L in downset_lattices:
        for c in range(L.n):
            e = classify_element(L, c)
            assert e.join_prime == e.join_irreducible
            assert e.meet_prime == e.meet_irreducible


@criterion("06 fast classification equals subset-enumeration oracle")
def test_06_oracle_equivalence(named_lattices, small_random_lattices,
                               downset_lattices):
    pool = [L for L in (list(named_lattices.values()) + small_random_lattices
                        + downset_lattices) if L.n <= 12]
    assert len(pool) >= 100
    for L in pool:
        for c in range(L.n):
            e = classify_element(L, c)
            for which in CompletelyClass:
                assert getattr(e, which.value) == oracle_completely(L, c, which)


@criterion("07 Kolmogorov quotient matches the classifying space")
def test_07_quotient(named_spaces, random_spaces):
    assert len(random_spaces) == 200
    for X in list(named_spaces.values()) + random_spaces:
        r = kq_vs_K_check(X)
        assert r.ok, r.reason
        q = t0_quotient(X)
        assert all(len(c) == 1 for c in t0_quotient(q.quotient).classes)


@criterion("08 point-free spectrum is a contravariant functor")
def test_08_functor_laws(hom_fixtures):
    pairs = corpus.composable_pairs(hom_fixtures)
    assert len(pairs) >= 10
    for f in hom_fixtures:
        pf = pointfree_map(f)
        assert pf.well_defined and pf.continuity_ok
        if f.source == f.target and f.map == tuple(range(f.source.n)):
            assert pf.mapping == {c: c for c in meet_primes(f.source)}
    for f, g in pairs:
        pf, pg = pointfree_map(f), pointfree_map(g)
        comp = pointfree_map(compose_hom(f, g))
        assert comp.mapping == {c: pf.mapping[pg.mapping[c]]
                                for c in pg.source_primes}


@criterion("09 replete space is discrete; Serre points come from monoform objects")
def test_09_subcategory_spaces():
    T = catlab.a2_table()
    R = catlab.enumerate_subcategory_lattice(T, catlab.SubcategoryKind.REPLETE)
    s = build_space(R, SpaceKind.KGP)
    assert len(s.points) == 4
    family = set(s.closed_sets)
    for p in s.points:
        assert frozenset({p}) in family
        assert frozenset(s.points) - {p} in family
    S = catlab.enumerate_subcategory_lattice(T, catlab.SubcategoryKind.SERRE)
    points = {S.elements[c] for c in range(S.n)
              if classify_element(S, c).completely_join_prime}
    reps = {set_label(T.objects, catlab.close(T, [x], catlab.SubcategoryKind.SERRE))
            for x in T.objects if catlab.is_monoform(T, x)}
    assert points <= reps
    assert S.elements[S.top] not in points


@criterion("10 command-line reports are byte-identical across runs")
def test_10_cli_determinism(tmp_path, capsys):
    for entry in corpus.entries():
        path = tmp_path / f"{entry.name}.json"
        path.write_text(json.dumps(entry.doc), encoding="utf-8")
        if entry.kind == "lattice":
            commands = [["analyze", str(path)],
                        ["space", str(path), "--kind", "kgp"]]
        elif entry.kind == "space":
            commands = [["validate", str(path)], ["quotient", str(path)]]
        else:
            commands = [["catlab", str(path), "--type", "nullity"]]
        for argv in commands:
            assert run(argv) == 0
            first = capsys.readouterr().out
            assert run(argv) == 0
            assert capsys.readouterr().out == first, (entry.name, argv)
