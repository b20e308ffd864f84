import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latclass.catlab import (
    SubcategoryKind,
    a2_table,
    close,
    closed_object_sets,
    enumerate_subcategory_lattice,
    is_monoform,
    make_table,
    powerset_model,
    table_doc,
    validate_table,
)
from latclass.classifying import SpaceKind, build_space
from latclass.errors import DocumentError, MissingZero, TooLarge, UnknownObject
from latclass.lattice import chain, find_isomorphism, powerset_lattice, set_label
from latclass.spectra import classify_element


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    triples = draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * 3),
        max_size=8))
    return make_table([f"o{i}" for i in range(n)], 0, triples)


class TestMakeTable:
    def test_a2_triple_count(self):
        T = a2_table()
        # one declared triple plus (x,x,0) and (0,x,x) for four objects,
        # with (0,0,0) counted once
        assert len(T.ses) == 1 + 2 * 4 - 1

    def test_trivial_triples_present(self):
        T = a2_table()
        for x in range(4):
            assert (x, x, 0) in T.ses and (0, x, x) in T.ses

    def test_unknown_object_index(self):
        with pytest.raises(UnknownObject):
            make_table(["0", "a"], 0, [(0, 1, 5)])

    def test_missing_zero(self):
        with pytest.raises(MissingZero):
            make_table(["0", "a"], 7, [])

    def test_validate_document(self):
        doc = table_doc(a2_table())
        T = validate_table(doc)
        assert T == a2_table()
        with pytest.raises(DocumentError):
            validate_table({"objects": ["0"]})
        with pytest.raises(MissingZero):
            validate_table({"objects": ["0"], "ses": []})

    def test_subobjects(self):
        T = a2_table()
        assert T.subobjects(T.object_index("b")) == {0, 1, 2}


class TestClose:
    def test_empty_seed(self):
        assert close(a2_table(), [], SubcategoryKind.NULLITY) == frozenset()

    def test_b_nullity_adds_quotients(self):
        T = a2_table()
        got = close(T, ["b"], SubcategoryKind.NULLITY)
        assert got == {T.object_index(x) for x in "0bc"}

    def test_b_serre_adds_subobjects_too(self):
        T = a2_table()
        assert close(T, ["b"], SubcategoryKind.SERRE) == frozenset(range(4))

    def test_a_c_closed_under_extension(self):
        T = a2_table()
        got = close(T, ["a", "c"], SubcategoryKind.NULLITY)
        assert got == frozenset(range(4))  # extension 0 -> a -> b -> c -> 0

    def test_replete_additive_identity(self):
        T = a2_table()
        for kind in (SubcategoryKind.REPLETE, SubcategoryKind.ADDITIVE):
            for r in range(5):
                for seed in itertools.combinations(range(4), r):
                    assert close(T, seed, kind) == frozenset(seed)

    @settings(max_examples=60, deadline=None)
    @given(tables(), st.data())
    def test_closure_operator_laws(self, T, data):
        n = len(T.objects)
        seed = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        bigger = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        bigger |= seed
        for kind in SubcategoryKind:
            c = close(T, seed, kind)
            assert seed <= c                       # extensive
            assert close(T, c, kind) == c          # idempotent
            assert c <= close(T, bigger, kind)     # monotone

    @settings(max_examples=40, deadline=None)
    @given(tables())
    def test_closed_families_intersection_closed(self, T):
        for kind in SubcategoryKind:
            family = set(closed_object_sets(T, kind))
            for a in family:
                for b in family:
                    assert a & b in family


class TestEnumerate:
    def test_a2_sizes(self):
        T = a2_table()
        sizes = {SubcategoryKind.NULLITY: 6, SubcategoryKind.SERRE: 5,
                 SubcategoryKind.REPLETE: 16, SubcategoryKind.ADDITIVE: 16}
        for kind, n in sizes.items():
            assert enumerate_subcategory_lattice(T, kind).n == n

    def test_a2_nullity_elements(self):
        L = enumerate_subcategory_lattice(a2_table(), SubcategoryKind.NULLITY)
        assert L.elements == ("∅", "{0}", "{0,a}", "{0,c}", "{0,b,c}",
                              "{0,a,b,c}")

    def test_a2_serre_is_distributive_nullity_is_not(self):
        from latclass.lattice import is_distributive
        T = a2_table()
        assert not is_distributive(
            enumerate_subcategory_lattice(T, SubcategoryKind.NULLITY)).distributive
        assert is_distributive(
            enumerate_subcategory_lattice(T, SubcategoryKind.SERRE)).distributive

    def test_replete_is_powerset(self):
        L = enumerate_subcategory_lattice(a2_table(), SubcategoryKind.REPLETE)
        assert find_isomorphism(L, powerset_lattice(list("wxyz"))) is not None

    def test_additive_equals_replete(self):
        T = a2_table()
        rep = enumerate_subcategory_lattice(T, SubcategoryKind.REPLETE)
        add = enumerate_subcategory_lattice(T, SubcategoryKind.ADDITIVE)
        assert rep.elements == add.elements and rep.covers == add.covers

    def test_cap(self):
        T = make_table([f"o{i}" for i in range(13)], 0, [])
        with pytest.raises(TooLarge):
            enumerate_subcategory_lattice(T, SubcategoryKind.NULLITY)

    def test_replete_space_is_discrete(self):
        # every subcategory-point of the replete lattice is closed and open
        L = enumerate_subcategory_lattice(a2_table(), SubcategoryKind.REPLETE)
        s = build_space(L, SpaceKind.KGP)
        assert len(s.points) == 4
        family = set(s.closed_sets)
        for p in s.points:
            assert frozenset({p}) in family
            assert frozenset(s.points) - {p} in family

    def test_serre_points_are_monoform_objects(self):
        # each point of the Serre lattice is generated by one monoform
        # object; the whole category (the top) is not a point
        T = a2_table()
        L = enumerate_subcategory_lattice(T, SubcategoryKind.SERRE)
        points = {L.elements[c] for c in range(L.n)
                  if classify_element(L, c).completely_join_prime}
        reps = {set_label(T.objects, close(T, [x], SubcategoryKind.SERRE))
                for x in T.objects if is_monoform(T, x)}
        assert points <= reps
        assert L.elements[L.top] not in points


class TestMonoform:
    def test_a2_all_monoform(self):
        T = a2_table()
        for x in ("a", "b", "c"):
            assert is_monoform(T, x)

    def test_shared_subobject_breaks_monoform(self):
        # s embeds in x, and the quotient q = x/s contains s again
        T = make_table(["0", "s", "x", "q", "t"], 0, [(1, 2, 3), (1, 3, 4)])
        assert not is_monoform(T, "x")
        assert is_monoform(T, "s")

    def test_unknown_object(self):
        with pytest.raises(UnknownObject):
            is_monoform(a2_table(), "zzz")


class TestPowersetModel:
    def test_n1_is_two_chain(self):
        assert find_isomorphism(powerset_model(1), chain(2)) is not None

    def test_n4(self):
        L = powerset_model(4)
        assert L.n == 16
        points = [c for c in range(L.n)
                  if classify_element(L, c).completely_join_prime]
        assert [L.elements[c] for c in points] == ["{p1}", "{p2}", "{p3}", "{p4}"]

    def test_cap(self):
        with pytest.raises(TooLarge):
            powerset_model(11)
        with pytest.raises(TooLarge):
            powerset_model(0)


class TestSubsetLabel:
    def test_labels(self):
        T = a2_table()
        assert set_label(T.objects, frozenset()) == "∅"
        assert set_label(T.objects, frozenset({0, 1})) == "{0,a}"
