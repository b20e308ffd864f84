import itertools

import pytest

from latclass.errors import (
    CycleError,
    DuplicateLabel,
    NotALattice,
    NotMonotone,
    UnknownElement,
)
from latclass.lattice import (
    DIAMOND,
    PENTAGON,
    FiniteLattice,
    HomLevel,
    chain,
    check_hom,
    diamond_m3,
    dualize,
    find_forbidden_sublattice,
    find_isomorphism,
    is_distributive,
    lattice_to_doc,
    lattice_to_dot,
    load_lattice,
    pentagon_n5,
    powerset_lattice,
)
from conftest import A2_DOC, EMPTY, ZERO, A, C, BC, ALL


class TestLoadLattice:
    def test_chain_document(self):
        L = load_lattice({"name": "c3", "elements": ["0", "1", "2"],
                          "covers": [[0, 1], [1, 2]]})
        assert L.n == 3
        assert L.bottom == 0 and L.top == 2

    def test_a2_document(self, a2):
        assert a2.n == 6
        assert a2.bottom == EMPTY and a2.top == ALL
        assert a2.join(A, C) == ALL

    def test_covers_by_label(self):
        L = load_lattice({"elements": ["x", "y"], "covers": [["x", "y"]]})
        assert L.le(0, 1)

    def test_bowtie_is_not_a_lattice(self):
        doc = {"elements": ["a", "b", "c", "d"],
               "covers": [[0, 2], [0, 3], [1, 2], [1, 3]]}
        with pytest.raises(NotALattice):
            load_lattice(doc)

    def test_cycle_rejected(self):
        doc = {"elements": ["a", "b"], "covers": [[0, 1], [1, 0]]}
        with pytest.raises(CycleError):
            load_lattice(doc)

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabel):
            load_lattice({"elements": ["a", "a"], "covers": [[0, 1]]})

    def test_doc_round_trip(self, a2):
        assert load_lattice(lattice_to_doc(a2)) == a2

    def test_dot_export(self, a2):
        dot = lattice_to_dot(a2)
        assert dot.count("->") == len(a2.covers)
        assert "⟨" not in dot  # labels come from the document


class TestJoinMeet:
    def test_a2_join(self, a2):
        assert a2.join_set({A, C}) == ALL

    def test_empty_join_is_bottom(self, a2):
        assert a2.join_set(set()) == a2.bottom
        assert a2.meet_set(set()) == a2.top

    def test_powerset_join_is_union(self):
        # oracle: joins in a powerset lattice are plain set unions
        P = powerset_lattice(["x", "y"])
        assert P.join(P.index("{x}"), P.index("{y}")) == P.index("{x,y}")
        for i, j in itertools.product(range(P.n), repeat=2):
            assert P.join(i, j) == i | j and P.meet(i, j) == i & j

    def test_unknown_element(self, a2):
        with pytest.raises(UnknownElement):
            a2.join_set({99})


class TestDistributivity:
    def test_chain_distributive(self):
        assert is_distributive(chain(3)).distributive

    def test_a2_pentagon(self, a2):
        verdict = is_distributive(a2)
        assert not verdict.distributive
        a, b, c = verdict.witness
        assert a2.join(a, a2.meet(b, c)) != a2.meet(a2.join(a, b), a2.join(a, c))
        assert verdict.forbidden.kind == PENTAGON
        assert set(verdict.forbidden.elements) == {ZERO, A, C, BC, ALL}

    def test_m3_diamond(self):
        M = diamond_m3()
        # oracle: direct triple check on the three atoms
        a, b, c = 1, 2, 3
        assert M.meet(a, M.join(b, c)) != M.join(M.meet(a, b), M.meet(a, c))
        verdict = is_distributive(M)
        assert not verdict.distributive
        assert verdict.forbidden.kind == DIAMOND

    def test_agrees_with_forbidden_search(self, named_lattices,
                                          small_random_lattices):
        pool = [L for L in list(named_lattices.values()) + small_random_lattices
                if L.n <= 8]
        for L in pool:
            assert is_distributive(L).distributive == \
                (find_forbidden_sublattice(L) is None), L.name


class TestDualize:
    def test_chain_reversal(self):
        D = dualize(chain(3))
        assert D.bottom == 2 and D.top == 0
        assert D.le(2, 0)

    def test_involution(self, a2, named_lattices):
        for L in [a2] + list(named_lattices.values()):
            assert dualize(dualize(L)) == L

    def test_join_primes_of_dual_are_meet_primes(self, a2):
        from latclass.spectra import classify_element
        D = dualize(a2)
        dual_jp = {c for c in range(D.n) if classify_element(D, c).join_prime}
        orig_mp = {c for c in range(a2.n) if classify_element(a2, c).meet_prime}
        assert dual_jp == orig_mp

    def test_powerset_self_dual(self):
        P = powerset_lattice(["x", "y"])
        assert find_isomorphism(P, dualize(P)) is not None

    def test_down_set_in_dual_is_up_set(self, a2):
        D = dualize(a2)
        for c in range(a2.n):
            assert D.down_set(c) == a2.up_set(c)


class TestDownSet:
    def test_a2_bc(self, a2):
        assert a2.down_set(BC) == {EMPTY, ZERO, C, BC}

    def test_bottom_and_top(self, a2):
        assert a2.down_set(a2.bottom) == {a2.bottom}
        assert a2.down_set(a2.top) == set(range(a2.n))

    def test_unknown(self, a2):
        with pytest.raises(UnknownElement):
            a2.down_set(17)


class TestCheckHom:
    def test_identity_is_complete(self, a2):
        hom = check_hom(list(range(a2.n)), a2, a2)
        assert hom.level is HomLevel.COMPLETE

    def test_constant_bottom_fails_empty_meet(self, a2):
        hom = check_hom([a2.bottom] * a2.n, a2, a2)
        assert hom.level is HomLevel.LATTICE
        assert hom.counterexample == ("meet", ())

    def test_chain_inclusion_into_a2(self, a2):
        # the chain ∅ < {0} < {0,a} < all embeds with all pairs comparable,
        # so binary joins/meets and both bounds are preserved
        hom = check_hom([EMPTY, ZERO, A, ALL], chain(4), a2)
        assert hom.level is HomLevel.COMPLETE

    def test_non_monotone_rejected(self):
        with pytest.raises(NotMonotone):
            check_hom([1, 0], chain(2), chain(2))

    def test_inclusion_missing_top_caps_level(self, a2):
        # {∅, {0}, {0,c}, {0,b,c}} is a chain whose top is not the target top
        hom = check_hom([EMPTY, ZERO, C, BC], chain(4), a2)
        assert hom.level is HomLevel.LATTICE
        assert hom.counterexample == ("meet", ())


class TestFindIsomorphism:
    def test_permuted_labels(self, a2):
        perm = [2, 0, 4, 1, 5, 3]
        relabeled = FiniteLattice.from_covers(
            "perm", [a2.elements[perm.index(i)] for i in range(6)],
            [(perm[lo], perm[hi]) for lo, hi in a2.covers])
        hom = find_isomorphism(a2, relabeled)
        assert hom is not None
        assert hom.level is HomLevel.COMPLETE

    def test_size_mismatch(self):
        assert find_isomorphism(chain(3), diamond_m3()) is None

    def test_n5_vs_m3(self):
        N, M = pentagon_n5(), diamond_m3()
        assert find_isomorphism(N, M) is None
        # oracle: exhaustive search over all 5! maps
        found = False
        for perm in itertools.permutations(range(5)):
            if all(N.le(i, j) == M.le(perm[i], perm[j])
                   for i in range(5) for j in range(5)):
                found = True
        assert not found


class TestAlgebraicLaws:
    def test_order_via_operations(self, named_lattices, small_random_lattices):
        for L in list(named_lattices.values()) + small_random_lattices[:40]:
            for a in range(L.n):
                for b in range(L.n):
                    assert L.le(a, b) == (L.join(a, b) == b) == (L.meet(a, b) == a)

    def test_commutative_idempotent_absorption(self, named_lattices):
        for L in named_lattices.values():
            for a in range(L.n):
                assert L.join(a, a) == a and L.meet(a, a) == a
                for b in range(L.n):
                    assert L.join(a, b) == L.join(b, a)
                    assert L.meet(a, b) == L.meet(b, a)
                    assert L.join(a, L.meet(a, b)) == a
                    assert L.meet(a, L.join(a, b)) == a

    def test_associativity(self, named_lattices):
        for L in named_lattices.values():
            if L.n > 8:
                continue
            for a, b, c in itertools.product(range(L.n), repeat=3):
                assert L.join(L.join(a, b), c) == L.join(a, L.join(b, c))
                assert L.meet(L.meet(a, b), c) == L.meet(a, L.meet(b, c))

    def test_bounds(self, named_lattices, small_random_lattices):
        for L in list(named_lattices.values()) + small_random_lattices[:40]:
            for a in range(L.n):
                assert L.le(L.bottom, a) and L.le(a, L.top)
