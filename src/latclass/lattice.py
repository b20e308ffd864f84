"""Finite bounded lattices: representation, validation, homomorphisms.

Elements are referenced by index; labels are presentation-only.  The order
is stored as per-element bitmasks (``down[i]`` has bit ``j`` set iff
``j <= i``), which keeps the subset folds used elsewhere cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import (
    CycleError,
    DocumentError,
    DuplicateLabel,
    NotALattice,
    NotMonotone,
    UnknownElement,
)


def _mask_bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _is_index(v, n: int) -> bool:
    """v is an int in range(n); a bool is not an index."""
    return type(v) is int and 0 <= v < n


def canonical_sets(sets) -> tuple[frozenset[int], ...]:
    """The distinct sets, smallest first, equal sizes by sorted members."""
    return tuple(sorted(set(sets), key=lambda s: (len(s), sorted(s))))


def set_label(names: Sequence[str], members: Iterable[int]) -> str:
    """'∅', or the names of the members in index order, as '{a,b}'."""
    members = sorted(members)
    if not members:
        return "∅"
    return "{" + ",".join(names[i] for i in members) + "}"


class FiniteLattice:
    """A finite bounded lattice with materialized join/meet tables.

    Finite and bounded implies complete: joins and meets of arbitrary
    subsets are folds of the binary tables, with the empty join being the
    bottom element and the empty meet the top element.
    """

    __slots__ = ("name", "elements", "down", "covers", "join_table", "meet_table",
                 "bottom", "top", "_index")

    def __init__(self, name, elements, down, covers, join_table, meet_table,
                 bottom, top):
        self.name = name
        self.elements = tuple(elements)
        self.down = tuple(down)
        self.covers = tuple(covers)
        self.join_table = tuple(tuple(row) for row in join_table)
        self.meet_table = tuple(tuple(row) for row in meet_table)
        self.bottom = bottom
        self.top = top
        self._index = {lab: i for i, lab in enumerate(self.elements)}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_covers(cls, name: str, elements: Sequence[str],
                    covers: Sequence[tuple[int, int]]) -> "FiniteLattice":
        """Build from covering pairs (lower, upper); order is their
        reflexive-transitive closure."""
        n = len(elements)
        seen = set()
        for lab in elements:
            if lab in seen:
                raise DuplicateLabel(lab)
            seen.add(lab)
        succ = [set() for _ in range(n)]
        for lo, hi in covers:
            if not (0 <= lo < n and 0 <= hi < n):
                raise UnknownElement((lo, hi))
            succ[lo].add(hi)
        # every predecessor of i comes before i, so down[i] is complete
        # by the time it is pushed up to i's successors
        down = [1 << i for i in range(n)]
        for i in _topological_order(succ):
            for j in succ[i]:
                down[j] |= down[i]
        return cls.from_order(name, elements, down)

    @classmethod
    def from_sets(cls, name: str, sets: Sequence[Iterable[int]],
                  labels: Sequence[str]) -> "FiniteLattice":
        """The given sets of indices ordered by inclusion; element i is
        sets[i], so the caller's order is the element order."""
        masks = [sum(1 << b for b in s) for s in sets]
        down = [sum(1 << j for j, b in enumerate(masks) if b & a == b)
                for a in masks]
        return cls.from_order(name, labels, down)

    @classmethod
    def from_order(cls, name: str, elements: Sequence[str],
                   down: Sequence[int]) -> "FiniteLattice":
        """Build from per-element down-set bitmasks; validates the order and
        the existence of unique joins and meets for every pair."""
        n = len(elements)
        seen = set()
        for lab in elements:
            if lab in seen:
                raise DuplicateLabel(lab)
            seen.add(lab)
        down = list(down)
        # Number the elements along a linear extension: j < i makes down[j]
        # a proper subset of down[i], so sorting by down-set size puts every
        # element after all those below it.  In that numbering the least
        # element of a set, if it has one, is its lowest bit and the
        # greatest its highest; one mask test confirms the candidate.
        order = sorted(range(n), key=lambda i: down[i].bit_count())
        rank = [0] * n
        for r, i in enumerate(order):
            rank[i] = r
        ranked_up = [0] * n  # bit rank[j] of ranked_up[i] is set iff i <= j
        ranked_down = [0] * n  # bit rank[j] of ranked_down[i]: j <= i
        for i in range(n):
            if not down[i] >> i & 1:
                raise DocumentError(f"order not reflexive at {i}")
            outside = ~down[i]
            bit = 1 << rank[i]
            for j in _mask_bits(down[i]):
                if i != j and down[j] >> i & 1:
                    raise CycleError((i, j))
                if down[j] & outside:
                    raise DocumentError(f"order not transitive at ({j}, {i})")
                ranked_up[j] |= bit
                ranked_down[i] |= 1 << rank[j]
        # rows are finished one at a time, so only the final tuples are kept
        join_table = []
        meet_table = []
        for i in range(n):
            up_i, down_i = ranked_up[i], ranked_down[i]
            # the pairs (j, i) with j < i were checked in row j
            join_row = [row[i] for row in join_table]
            meet_row = [row[i] for row in meet_table]
            for j in range(i, n):
                above = up_i & ranked_up[j]
                c = order[(above & -above).bit_length() - 1]
                if not above or above & ~ranked_up[c]:
                    raise NotALattice((i, j), "join")
                join_row.append(c)
                below = down_i & ranked_down[j]
                c = order[below.bit_length() - 1]
                if not below or below & ~ranked_down[c]:
                    raise NotALattice((i, j), "meet")
                meet_row.append(c)
            join_table.append(tuple(join_row))
            meet_table.append(tuple(meet_row))
        if not n:
            raise NotALattice((0, 0), "join")
        # all pairwise meets exist, so the meet of everything is the least
        # element, first in the linear extension; dually for the top
        bottom, top = order[0], order[-1]
        # The lower covers of j are the maximal elements of its strict
        # down-set: the highest-ranked element left is one of them, and
        # taking away its down-set leaves the others.
        covers = []
        for j in range(n):
            below = ranked_down[j] & ~(1 << rank[j])
            while below:
                c = order[below.bit_length() - 1]
                covers.append((c, j))
                below &= ~ranked_down[c]
        return cls(name, elements, down, sorted(covers), join_table, meet_table,
                   bottom, top)

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.elements)

    def check_element(self, c: int) -> int:
        if not _is_index(c, self.n):
            raise UnknownElement(c)
        return c

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(label) from None

    def le(self, a: int, b: int) -> bool:
        return bool(self.down[b] >> a & 1)

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.le(a, b)

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def join_set(self, subset: Iterable[int]) -> int:
        out = self.bottom
        for c in subset:
            out = self.join_table[out][self.check_element(c)]
        return out

    def meet_set(self, subset: Iterable[int]) -> int:
        out = self.top
        for c in subset:
            out = self.meet_table[out][self.check_element(c)]
        return out

    def down_set(self, c: int) -> frozenset[int]:
        return frozenset(_mask_bits(self.down[self.check_element(c)]))

    def up_set(self, c: int) -> frozenset[int]:
        self.check_element(c)
        return frozenset(i for i in range(self.n) if self.le(c, i))

    def strict_down_set(self, c: int) -> frozenset[int]:
        return self.down_set(c) - {c}

    def __eq__(self, other):
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return (self.elements == other.elements and self.down == other.down
                and self.join_table == other.join_table
                and self.meet_table == other.meet_table
                and self.bottom == other.bottom and self.top == other.top)

    def __repr__(self):
        return f"FiniteLattice({self.name!r}, {self.n} elements)"


def _topological_order(succ):
    """Kahn's algorithm: the vertices 0..n-1 ordered so that each comes
    before its successors.  Raises CycleError naming one cycle's vertices."""
    n = len(succ)
    indegree = [0] * n
    for targets in succ:
        for j in targets:
            indegree[j] += 1
    order = [i for i in range(n) if not indegree[i]]
    for i in order:  # the loop also visits what it appends
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < n:
        raise CycleError(_find_cycle(succ, indegree))
    return order


def _find_cycle(succ, indegree):
    """One cycle among the vertices a topological sort left unsorted, in
    edge order from its smallest vertex.  Each of them keeps a predecessor
    that is also left, so walking back along predecessors revisits one."""
    left = [i for i in range(len(succ)) if indegree[i]]
    pred = {}
    for i in left:
        for j in succ[i]:
            pred.setdefault(j, i)
    step = {}  # vertex -> its position on the walk
    walk = []
    i = left[0]
    while i not in step:
        step[i] = len(walk)
        walk.append(i)
        i = pred[i]
    cycle = walk[step[i]:][::-1]
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


# -- documents -----------------------------------------------------------


def load_lattice(doc: dict) -> FiniteLattice:
    """Load a lattice document: {"name", "elements", "covers"}.

    Cover entries may reference elements by index or by label.
    """
    if not isinstance(doc, dict) or "elements" not in doc or "covers" not in doc:
        raise DocumentError("lattice document needs 'elements' and 'covers'")
    if not isinstance(doc["elements"], list):
        raise DocumentError("'elements' must be a list")
    elements = doc["elements"]
    index = {lab: i for i, lab in enumerate(elements)}

    def resolve(e):
        if isinstance(e, str):
            if e not in index:
                raise UnknownElement(e)
            return index[e]
        if type(e) is int:
            return e
        raise DocumentError(f"bad cover entry: {e!r}")

    if not isinstance(doc["covers"], list):
        raise DocumentError("'covers' must be a list")
    covers = []
    for entry in doc["covers"]:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise DocumentError(f"cover entry is not a pair: {entry!r}")
        covers.append((resolve(entry[0]), resolve(entry[1])))
    return FiniteLattice.from_covers(doc.get("name", "lattice"), elements, covers)


def lattice_to_doc(L: FiniteLattice) -> dict:
    return {
        "name": L.name,
        "elements": list(L.elements),
        "covers": [list(c) for c in L.covers],
    }


def lattice_to_dot(L: FiniteLattice) -> str:
    """Graphviz DOT of the Hasse diagram, one edge per cover (lower -> upper)."""
    lines = [f'digraph "{L.name}" {{', "  rankdir=BT;"]
    for i, lab in enumerate(L.elements):
        lines.append(f'  n{i} [label="{lab}"];')
    for lo, hi in L.covers:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- lattice operations --------------------------------------------------


def dualize(L: FiniteLattice) -> FiniteLattice:
    """Same elements, reversed order; join/meet and bottom/top swap."""
    n = L.n
    up = [0] * n
    for i in range(n):
        for j in _mask_bits(L.down[i]):
            up[j] |= 1 << i
    return FiniteLattice(
        name=f"{L.name}^op",
        elements=L.elements,
        down=up,
        covers=tuple(sorted((hi, lo) for lo, hi in L.covers)),
        join_table=L.meet_table,
        meet_table=L.join_table,
        bottom=L.top,
        top=L.bottom,
    )


# -- distributivity ------------------------------------------------------

PENTAGON = "pentagon"
DIAMOND = "diamond"


@dataclass(frozen=True)
class ForbiddenSublattice:
    kind: str  # PENTAGON or DIAMOND
    elements: tuple[int, ...]


@dataclass(frozen=True)
class DistributivityVerdict:
    distributive: bool
    witness: Optional[tuple[int, int, int]] = None
    forbidden: Optional[ForbiddenSublattice] = None


def is_distributive(L: FiniteLattice) -> DistributivityVerdict:
    """Exhaustive triple check of a|(b&c) == (a|b)&(a|c); on failure also
    search for an embedded pentagon (N5) or diamond (M3) sublattice."""
    witness = None
    for a in range(L.n):
        for b in range(L.n):
            for c in range(b, L.n):
                if L.join(a, L.meet(b, c)) != L.meet(L.join(a, b), L.join(a, c)):
                    witness = (a, b, c)
                    break
            if witness:
                break
        if witness:
            break
    if witness is None:
        return DistributivityVerdict(True)
    return DistributivityVerdict(False, witness, find_forbidden_sublattice(L))


def find_forbidden_sublattice(L: FiniteLattice) -> Optional[ForbiddenSublattice]:
    """Search all 5-subsets closed under join/meet for the N5/M3 patterns.

    Independent of the triple check: used both as the witness attachment and
    as the second route of the distributivity cross-check.
    """
    for combo in itertools.combinations(range(L.n), 5):
        sub = set(combo)
        if any(L.join(a, b) not in sub or L.meet(a, b) not in sub
               for a, b in itertools.combinations(combo, 2)):
            continue
        shape = _classify_five(L, combo)
        if shape is not None:
            return shape
    return None


def _classify_five(L, combo):
    bot = L.meet_set(combo)
    top = L.join_set(combo)
    mids = [x for x in combo if x != bot and x != top]
    if len(mids) != 3:
        return None
    pairs = [(a, b) for a, b in itertools.combinations(mids, 2)
             if L.le(a, b) or L.le(b, a)]
    if not pairs:
        # all three incomparable: diamond iff pairwise join=top, meet=bot
        if all(L.join(a, b) == top and L.meet(a, b) == bot
               for a, b in itertools.combinations(mids, 2)):
            return ForbiddenSublattice(DIAMOND, tuple(combo))
        return None
    if len(pairs) == 1:
        a, b = pairs[0]
        if L.le(b, a):
            a, b = b, a
        (w,) = [x for x in mids if x not in (a, b)]
        if (L.join(a, w) == top and L.join(b, w) == top
                and L.meet(a, w) == bot and L.meet(b, w) == bot):
            return ForbiddenSublattice(PENTAGON, tuple(combo))
    return None


# -- homomorphisms -------------------------------------------------------


class HomLevel(Enum):
    ORDER = "order"
    LATTICE = "lattice"
    COMPLETE = "complete"


@dataclass(frozen=True)
class LatticeHom:
    source: FiniteLattice
    target: FiniteLattice
    map: tuple[int, ...]
    level: HomLevel
    # first failure of the next stronger level, if any: (operation, operands)
    counterexample: Optional[tuple[str, tuple[int, ...]]] = None

    def __call__(self, c: int) -> int:
        return self.map[self.source.check_element(c)]

    def is_bijective(self) -> bool:
        return (self.source.n == self.target.n
                and len(set(self.map)) == self.source.n)


def check_hom(mapping: Sequence[int], L1: FiniteLattice,
              L2: FiniteLattice) -> LatticeHom:
    """Verify a map exhaustively and record its strongest preservation level.

    Preservation of arbitrary nonempty joins/meets follows from the binary
    case by folding, so the complete level reduces to the binary checks plus
    the empty join (bottom -> bottom) and empty meet (top -> top).
    """
    if not isinstance(mapping, (list, tuple)) or len(mapping) != L1.n:
        raise DocumentError("map must be a list, total on the source elements")
    f = tuple(L2.check_element(v) for v in mapping)
    for a in range(L1.n):
        for b in range(L1.n):
            if L1.le(a, b) and not L2.le(f[a], f[b]):
                raise NotMonotone((a, b))
    for a in range(L1.n):
        for b in range(a, L1.n):
            if f[L1.join(a, b)] != L2.join(f[a], f[b]):
                return LatticeHom(L1, L2, f, HomLevel.ORDER, ("join", (a, b)))
            if f[L1.meet(a, b)] != L2.meet(f[a], f[b]):
                return LatticeHom(L1, L2, f, HomLevel.ORDER, ("meet", (a, b)))
    if f[L1.bottom] != L2.bottom:
        return LatticeHom(L1, L2, f, HomLevel.LATTICE, ("join", ()))
    if f[L1.top] != L2.top:
        return LatticeHom(L1, L2, f, HomLevel.LATTICE, ("meet", ()))
    return LatticeHom(L1, L2, f, HomLevel.COMPLETE)


def identity_hom(L: FiniteLattice) -> LatticeHom:
    return check_hom(tuple(range(L.n)), L, L)


def compose_hom(f: LatticeHom, g: LatticeHom) -> LatticeHom:
    """g after f, re-verified from scratch."""
    if f.target is not g.source and f.target != g.source:
        raise DocumentError("homomorphisms are not composable")
    return check_hom(tuple(g.map[v] for v in f.map), f.source, g.target)


def find_isomorphism(L1: FiniteLattice,
                     L2: FiniteLattice) -> Optional[LatticeHom]:
    """Backtracking search for an order-isomorphism.

    Pruned by per-element invariants (down/up set sizes, cover degrees);
    adequate for the target scale of ~20 elements.  A found map is run
    through check_hom and must verify at the complete level; this is
    asserted rather than assumed.
    """
    n = L1.n
    if n != L2.n:
        return None

    def profile(L, i):
        below = bin(L.down[i]).count("1")
        above = len(L.up_set(i))
        cov_lo = sum(1 for lo, hi in L.covers if hi == i)
        cov_hi = sum(1 for lo, hi in L.covers if lo == i)
        return (below, above, cov_lo, cov_hi)

    prof1 = [profile(L1, i) for i in range(n)]
    prof2 = [profile(L2, i) for i in range(n)]
    if sorted(prof1) != sorted(prof2):
        return None
    order1 = sorted(range(n), key=lambda i: prof1[i])
    candidates = {i: [j for j in range(n) if prof2[j] == prof1[i]]
                  for i in range(n)}
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int) -> bool:
        if k == n:
            return True
        i = order1[k]
        for j in candidates[i]:
            if j in used:
                continue
            ok = all((L1.le(i, i2) == L2.le(j, j2))
                     and (L1.le(i2, i) == L2.le(j2, j))
                     for i2, j2 in assignment.items())
            if ok:
                assignment[i] = j
                used.add(j)
                if extend(k + 1):
                    return True
                del assignment[i]
                used.remove(j)
        return False

    if not extend(0):
        return None
    hom = check_hom(tuple(assignment[i] for i in range(n)), L1, L2)
    if hom.level is not HomLevel.COMPLETE or not hom.is_bijective():
        raise AssertionError(
            "order-isomorphism failed complete-level verification")
    return hom


# -- stock constructions -------------------------------------------------


def chain(k: int, name: Optional[str] = None) -> FiniteLattice:
    """Total order on k elements labeled '0'..'k-1'."""
    return FiniteLattice.from_covers(
        name or f"chain{k}", [str(i) for i in range(k)],
        [(i, i + 1) for i in range(k - 1)])


def diamond_m3() -> FiniteLattice:
    return FiniteLattice.from_covers(
        "M3", ["0", "a", "b", "c", "1"],
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def pentagon_n5() -> FiniteLattice:
    return FiniteLattice.from_covers(
        "N5", ["0", "a", "b", "c", "1"],
        [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)])


def powerset_lattice(base_labels: Sequence[str],
                     name: Optional[str] = None) -> FiniteLattice:
    """Powerset of the given base set, ordered by inclusion.

    Element i is the subset whose members are the set bits of i, so the
    join/meet tables are plain bitwise or/and; built directly, bypassing
    the generic pairwise bound search.
    """
    m = len(base_labels)
    n = 1 << m
    elements = [set_label(base_labels, _mask_bits(i)) for i in range(n)]
    down = [0] * n
    for i in range(n):
        sub = i
        while True:
            down[i] |= 1 << sub
            if sub == 0:
                break
            sub = (sub - 1) & i
    covers = sorted((i & ~(1 << b), i)
                    for i in range(n) for b in _mask_bits(i))
    join_table = [[i | j for j in range(n)] for i in range(n)]
    meet_table = [[i & j for j in range(n)] for i in range(n)]
    return FiniteLattice(name or f"powerset{m}", elements, down, covers,
                         join_table, meet_table, 0, n - 1)
