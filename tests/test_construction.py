"""Seeded oracle check of lattice construction.

``FiniteLattice.from_order`` finds each join and meet as the lowest or
highest bit of a mask in a linear-extension numbering.  The oracle below is
the construction it replaced: for every pair, scan the candidate bounds one
by one for the one below (or above) all the others.  Both must give the same
tables, covers, bottom and top, and fail with the same exception and message.

``FiniteLattice.from_sets`` orders sets by one mask test per pair; its oracle
is the pairwise frozenset inclusion loop it replaced.
"""

import itertools
import random
import sys

import pytest

from latclass import corpus
from latclass.errors import CycleError, DocumentError, NotALattice
from latclass.lattice import (
    FiniteLattice,
    _topological_order,
    chain,
    diamond_m3,
    load_lattice,
    pentagon_n5,
    powerset_lattice,
)


def _scan_bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _least(candidates_mask, up, pair, which):
    """Least element of the candidate set (the one below all others),
    or NotALattice."""
    if not candidates_mask:
        raise NotALattice(pair, which)
    for c in _scan_bits(candidates_mask):
        if candidates_mask & ~up[c] == 0:
            return c
    raise NotALattice(pair, which)


def _greatest(candidates_mask, down, pair, which):
    if not candidates_mask:
        raise NotALattice(pair, which)
    for c in _scan_bits(candidates_mask):
        if candidates_mask & ~down[c] == 0:
            return c
    raise NotALattice(pair, which)


def oracle_from_order(down):
    """(join_table, meet_table, covers, bottom, top) by pairwise scans."""
    n = len(down)
    for i in range(n):
        if not down[i] >> i & 1:
            raise DocumentError(f"order not reflexive at {i}")
        for j in _scan_bits(down[i]):
            if i != j and down[j] >> i & 1:
                raise CycleError((i, j))
            if down[j] & ~down[i]:
                raise DocumentError(f"order not transitive at ({j}, {i})")
    up = [0] * n
    for i in range(n):
        for j in _scan_bits(down[i]):
            up[j] |= 1 << i
    full = (1 << n) - 1
    join_table = [[0] * n for _ in range(n)]
    meet_table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            join_table[i][j] = join_table[j][i] = _least(
                up[i] & up[j], up, (i, j), "join")
            meet_table[i][j] = meet_table[j][i] = _greatest(
                down[i] & down[j], down, (i, j), "meet")
    bottom = _least(full, up, (0, 0), "join")
    top = _greatest(full, down, (0, 0), "meet")
    covers = []
    for i in range(n):
        for j in range(n):
            if i != j and down[j] >> i & 1:
                between = down[j] & up[i] & ~(1 << i) & ~(1 << j)
                if not between:
                    covers.append((i, j))
    return (tuple(map(tuple, join_table)), tuple(map(tuple, meet_table)),
            tuple(sorted(covers)), bottom, top)


def _outcome(build):
    try:
        return "ok", build()
    except (NotALattice, CycleError, DocumentError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "pair", None)


def _built(down):
    L = FiniteLattice.from_order("x", [str(i) for i in range(len(down))], down)
    return L.join_table, L.meet_table, L.covers, L.bottom, L.top


def _permuted(rng, down):
    """The same order with its elements renumbered at random, so that the
    index order is not a linear extension."""
    n = len(down)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for i in range(n):
        for j in _scan_bits(down[i]):
            out[perm[i]] |= 1 << perm[j]
    return out


def _intersection_closed(rng, max_size):
    """Down-set masks of a random intersection-closed family of subsets of
    a base of up to six points, with the full set, ordered by inclusion:
    a random lattice of at most max_size elements."""
    while True:
        m = rng.randint(3, 6)
        family = {(1 << m) - 1}
        for _ in range(rng.randint(1, 16)):
            family.add(rng.getrandbits(m))
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(list(family), 2):
                if a & b not in family:
                    family.add(a & b)
                    changed = True
        if len(family) <= max_size:
            break
    sets = sorted(family)
    return [sum(1 << j for j, b in enumerate(sets) if b & a == b)
            for a in sets]


def _cases():
    rng = random.Random(20261018)
    cases = []
    for _ in range(400):
        cases.append(_intersection_closed(rng, 40))
    for k in range(200):
        L = corpus.random_downset_lattice(rng, max_poset=5, name=f"d{k}")
        cases.append(list(L.down))
    for L in corpus.named_lattices().values():
        cases.append(list(L.down))
    for L in (chain(1), chain(7), diamond_m3(), pentagon_n5()):
        cases.append(list(L.down))
    for size in range(1, 13):
        for _ in range(30):
            cases.append(corpus.random_poset(rng, size))
    return rng, cases


def test_from_order_matches_pairwise_scan():
    rng, cases = _cases()
    failures = 0
    for down in cases:
        for candidate in (down, _permuted(rng, down)):
            got = _outcome(lambda: _built(candidate))
            want = _outcome(lambda: oracle_from_order(candidate))
            assert got == want, candidate
            failures += got[0] != "ok"
    # the random posets include many that are not lattices
    assert failures > 100


def oracle_inclusion_order(sets):
    """Down-set masks of the sets ordered by inclusion, pair by pair."""
    down = [0] * len(sets)
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if b <= a:
                down[i] |= 1 << j
    return down


def test_from_sets_matches_pairwise_inclusion():
    rng = random.Random(20261019)
    failures = 0
    for k in range(600):
        m = rng.randint(0, 6)
        family = {frozenset(i for i in range(m) if rng.random() < 0.5)
                  for _ in range(rng.randint(1, 14))}
        if k % 2:  # half of them intersection-closed with the full set
            family.add(frozenset(range(m)))
            while any(a & b not in family
                      for a, b in itertools.combinations(family, 2)):
                family |= {a & b for a, b in itertools.combinations(family, 2)}
        sets = list(family)
        rng.shuffle(sets)
        labels = [f"s{i}" for i in range(len(sets))]
        # members given as sorted lists or as frozensets
        given = [sorted(a) for a in sets] if k % 3 else sets
        got = _outcome(lambda: FiniteLattice.from_sets("x", given, labels))
        want = _outcome(lambda: FiniteLattice.from_order(
            "x", labels, oracle_inclusion_order(sets)))
        assert got == want, sets
        if got[0] == "ok":
            assert got[1].down == tuple(oracle_inclusion_order(sets))
        failures += got[0] != "ok"
    # arbitrary families are often not lattices
    assert 50 < failures < 300


def test_broken_orders_fail_alike():
    rng = random.Random(5)
    broken = [[], [0b10, 0b10], [0b01, 0b11, 0b110], [0b11, 0b11]]
    for _ in range(200):
        down = corpus.random_poset(rng, rng.randint(2, 8))
        i = rng.randrange(len(down))
        down[i] ^= 1 << rng.randrange(len(down))
        broken.append(down)
    for down in broken:
        assert _outcome(lambda: _built(down)) == \
            _outcome(lambda: oracle_from_order(down)), down


def test_powerset_built_directly_agrees():
    # powerset_lattice writes its tables as bitwise or/and, apart from
    # from_order, and its index order is not sorted by down-set size
    for m in range(5):
        P = powerset_lattice([str(b) for b in range(m)])
        assert _built(P.down) == (P.join_table, P.meet_table, P.covers,
                                  P.bottom, P.top)


class TestTopologicalOrder:
    def test_chain_longer_than_recursion_limit(self):
        n = sys.getrecursionlimit() + 500
        succ = [{i + 1} for i in range(n - 1)] + [set()]
        assert _topological_order(succ) == list(range(n))

    def test_long_cycle(self):
        n = sys.getrecursionlimit() + 500
        succ = [{(i + 1) % n} for i in range(n)]
        with pytest.raises(CycleError) as info:
            _topological_order(succ)
        assert info.value.cycle == tuple(range(n))

    def test_cycle_named_is_a_cycle(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 12)
            succ = [{j for j in range(n) if rng.random() < 0.15}
                    for _ in range(n)]
            try:
                order = _topological_order(succ)
            except CycleError as exc:
                cycle = exc.cycle
                assert len(set(cycle)) == len(cycle)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert b in succ[a]
            else:
                position = {v: k for k, v in enumerate(order)}
                assert sorted(order) == list(range(n))
                assert all(position[i] < position[j]
                           for i in range(n) for j in succ[i])

    def test_cycle_behind_a_tail(self):
        doc = {"elements": ["a", "b", "c", "d"],
               "covers": [[0, 1], [1, 2], [2, 1], [2, 3]]}
        with pytest.raises(CycleError) as info:
            load_lattice(doc)
        assert info.value.cycle == (1, 2)

    def test_self_cover(self):
        with pytest.raises(CycleError) as info:
            load_lattice({"elements": ["a", "b"], "covers": [[1, 1]]})
        assert info.value.cycle == (1,)

