"""Subcategory lattices of toy abelian categories.

A category is declared as a finite table of indecomposable isomorphism
classes together with short-exact-sequence triples (sub, mid, quot).
Subcategories are sets of indecomposables; direct sums are implicit, so
the replete and additive closures are the identity at this encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DocumentError, MissingZero, TooLarge, UnknownObject
from .lattice import (
    FiniteLattice,
    _is_index,
    canonical_sets,
    powerset_lattice,
    set_label,
)

ENUMERATION_CAP = 12
POWERSET_MODEL_CAP = 10


@dataclass(frozen=True)
class CategoryTable:
    objects: tuple[str, ...]
    zero: int
    ses: frozenset[tuple[int, int, int]]  # (sub, mid, quot)

    def object_index(self, x) -> int:
        if isinstance(x, str):
            try:
                return self.objects.index(x)
            except ValueError:
                raise UnknownObject(x) from None
        if isinstance(x, int) and 0 <= x < len(self.objects):
            return x
        raise UnknownObject(x)

    def subobjects(self, y: int) -> frozenset[int]:
        return frozenset(s for s, m, q in self.ses if m == y)


class SubcategoryKind(Enum):
    REPLETE = "replete"
    ADDITIVE = "additive"
    NULLITY = "nullity"
    SERRE = "serre"


def make_table(objects, zero, ses) -> CategoryTable:
    """Validate indices and add the trivial triples (x, x, 0) and
    (0, x, x) for every object."""
    objects = tuple(objects)
    n = len(objects)
    if not _is_index(zero, n):
        raise MissingZero()
    triples = set()
    for t in ses:
        s, m, q = t
        for v in (s, m, q):
            if not _is_index(v, n):
                raise UnknownObject(v)
        triples.add((s, m, q))
    for x in range(n):
        triples.add((x, x, zero))
        triples.add((zero, x, x))
    return CategoryTable(objects, zero, frozenset(triples))


def validate_table(doc: dict) -> CategoryTable:
    """Load a table document: {"objects", "zero", "ses"}."""
    if not isinstance(doc, dict) or "objects" not in doc or "ses" not in doc:
        raise DocumentError("table document needs 'objects', 'zero' and 'ses'")
    if "zero" not in doc:
        raise MissingZero()
    if not isinstance(doc["objects"], list):
        raise DocumentError("'objects' must be a list")
    if not isinstance(doc["ses"], list):
        raise DocumentError("'ses' must be a list")
    for t in doc["ses"]:
        if not (isinstance(t, (list, tuple)) and len(t) == 3):
            raise DocumentError(f"ses entry is not a triple: {t!r}")
    return make_table(doc["objects"], doc["zero"], [tuple(t) for t in doc["ses"]])


def table_doc(T: CategoryTable) -> dict:
    return {
        "objects": list(T.objects),
        "zero": T.zero,
        "ses": sorted(list(t) for t in T.ses),
    }


def close(T: CategoryTable, seed, kind: SubcategoryKind) -> frozenset[int]:
    """Least fixed point of the kind's closure rules over the seed.

    nullity: quotients of members, and extensions with sub and quot in the
    set; serre: nullity plus subobjects of members.  Replete and additive
    closures are the identity: the objects are iso classes and additive
    closure comes for free from the set-of-indecomposables encoding.
    """
    current = {T.object_index(x) for x in seed}
    if kind in (SubcategoryKind.REPLETE, SubcategoryKind.ADDITIVE):
        return frozenset(current)
    changed = True
    while changed:
        changed = False
        for s, m, q in T.ses:
            if m in current and q not in current:
                current.add(q)
                changed = True
            if s in current and q in current and m not in current:
                current.add(m)
                changed = True
            if kind is SubcategoryKind.SERRE and m in current and s not in current:
                current.add(s)
                changed = True
    return frozenset(current)


def closed_object_sets(T: CategoryTable, kind: SubcategoryKind,
                       cap: int = ENUMERATION_CAP) -> list[frozenset[int]]:
    """All distinct closures of subsets of objects, in the canonical order
    used as element order by enumerate_subcategory_lattice."""
    n = len(T.objects)
    if n > cap:
        raise TooLarge(n, cap)
    closed = set()
    for bits in range(1 << n):
        closed.add(close(T, [i for i in range(n) if bits >> i & 1], kind))
    return list(canonical_sets(closed))


def enumerate_subcategory_lattice(T: CategoryTable, kind: SubcategoryKind,
                                  cap: int = ENUMERATION_CAP) -> FiniteLattice:
    """Close every subset of objects, dedupe, and order by inclusion.

    Joins close the union; meets are intersections (tests assert the
    family is intersection-closed).
    """
    sets = closed_object_sets(T, kind, cap)
    return FiniteLattice.from_sets(
        f"{kind.value}-subcategories", sets,
        [set_label(T.objects, s) for s in sets])


def is_monoform(T: CategoryTable, x) -> bool:
    """True iff no proper nontrivial quotient of x shares a nonzero
    subobject with x.

    The trivial cases excluded are the triples with sub = 0 or sub = x.
    This is the reading under which the projectives and the simple of the
    two-object quiver category all come out monoform.
    """
    x = T.object_index(x)
    subs_x = T.subobjects(x) - {T.zero}
    for s, m, q in T.ses:
        if m != x or s in (T.zero, x):
            continue
        if subs_x & (T.subobjects(q) - {T.zero}):
            return False
    return True


def powerset_model(n: int, cap: int = POWERSET_MODEL_CAP) -> FiniteLattice:
    """Powerset of n synthetic primes: the desk-scale stand-in for a
    localizing-subcategory lattice in which every element is generated by
    the singletons."""
    if not 1 <= n <= cap:
        raise TooLarge(n, cap)
    return powerset_lattice([f"p{i + 1}" for i in range(n)],
                            name=f"prime-powerset{n}")


def a2_table() -> CategoryTable:
    """Representations of the two-object quiver with one arrow: zero, the
    two projectives and the simple at the source of the arrow, with the
    single nontrivial extension 0 -> a -> b -> c -> 0."""
    return make_table(["0", "a", "b", "c"], 0, [(1, 2, 3)])
