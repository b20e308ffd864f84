"""Finite topological spaces given by their closed-set families:
validation, the closed-set lattice, point closures, Kolmogorov quotients,
and the comparison of the quotient with the classifying space of the
closed-set lattice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .classifying import SpaceKind, build_space
from .errors import (
    DocumentError,
    MissingEmpty,
    MissingFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    UnknownPoint,
)
from .lattice import FiniteLattice, _is_index, canonical_sets, set_label


@dataclass(frozen=True)
class FiniteSpace:
    points: tuple[str, ...]
    closed_sets: tuple[frozenset[int], ...]

    def point_index(self, x) -> int:
        if isinstance(x, str):
            try:
                return self.points.index(x)
            except ValueError:
                raise UnknownPoint(x) from None
        if isinstance(x, int) and 0 <= x < len(self.points):
            return x
        raise UnknownPoint(x)

    @property
    def n(self) -> int:
        return len(self.points)


def make_space(points, closed_sets) -> FiniteSpace:
    """Validate and canonicalize a closed-set family.

    Missing empty/full sets and closure failures are rejected, never
    silently repaired.
    """
    points = tuple(points)
    n = len(points)
    family = set()
    for s in closed_sets:
        for i in s:
            if not _is_index(i, n):
                raise UnknownPoint(i)
        family.add(frozenset(s))
    full = frozenset(range(n))
    if frozenset() not in family:
        raise MissingEmpty()
    if full not in family:
        raise MissingFull()
    for a, b in itertools.combinations(sorted(family, key=sorted), 2):
        if a | b not in family:
            raise NotClosedUnderUnion((tuple(sorted(a)), tuple(sorted(b))))
        if a & b not in family:
            raise NotClosedUnderIntersection((tuple(sorted(a)), tuple(sorted(b))))
    return FiniteSpace(points, canonical_sets(family))


def load_space(doc: dict) -> FiniteSpace:
    """Load a space document: {"points": [label], "closed_sets": [[index]]}."""
    if not isinstance(doc, dict) or "points" not in doc or "closed_sets" not in doc:
        raise DocumentError("space document needs 'points' and 'closed_sets'")
    if not (isinstance(doc["points"], list) and isinstance(doc["closed_sets"], list)
            and all(isinstance(s, list) for s in doc["closed_sets"])):
        raise DocumentError("'points' must be a list and 'closed_sets' a list of lists")
    return make_space(doc["points"], doc["closed_sets"])


def space_doc(X: FiniteSpace) -> dict:
    return {
        "points": list(X.points),
        "closed_sets": [sorted(s) for s in X.closed_sets],
    }


def closed_set_lattice(X: FiniteSpace) -> FiniteLattice:
    """The closed sets ordered by inclusion; for a finite space the union
    of closed sets is closed, so joins are plain unions."""
    return FiniteLattice.from_sets(
        f"closed-sets({len(X.points)}pt)", X.closed_sets,
        [set_label(X.points, s) for s in X.closed_sets])


def closure_of_point(X: FiniteSpace, x) -> frozenset[int]:
    """Smallest closed set containing x."""
    i = X.point_index(x)
    out = frozenset(range(X.n))
    for s in X.closed_sets:
        if i in s:
            out &= s
    return out


@dataclass(frozen=True)
class KolmogorovQuotient:
    source: FiniteSpace
    classes: tuple[frozenset[int], ...]
    quotient: FiniteSpace
    projection: tuple[int, ...]  # source point index -> class index


def t0_quotient(X: FiniteSpace) -> KolmogorovQuotient:
    """Identify points with equal closures; quotient closed sets are the
    images of the source closed sets."""
    closures = [closure_of_point(X, i) for i in range(X.n)]
    class_of: dict[frozenset[int], int] = {}
    classes: list[set[int]] = []
    projection = []
    for i, cl in enumerate(closures):
        if cl not in class_of:
            class_of[cl] = len(classes)
            classes.append(set())
        k = class_of[cl]
        classes[k].add(i)
        projection.append(k)
    labels = ["[" + "|".join(X.points[i] for i in sorted(c)) + "]"
              for c in classes]
    quotient_sets = {frozenset(projection[i] for i in s) for s in X.closed_sets}
    quotient = make_space(labels, quotient_sets)
    return KolmogorovQuotient(X, tuple(frozenset(c) for c in classes),
                              quotient, tuple(projection))


def quotient_to_json(q: KolmogorovQuotient) -> dict:
    return {
        "classes": [sorted(q.source.points[i] for i in c) for c in q.classes],
        "projection": {q.source.points[i]: q.quotient.points[k]
                       for i, k in enumerate(q.projection)},
        "quotient": space_doc(q.quotient),
    }


@dataclass(frozen=True)
class QuotientComparison:
    ok: bool
    # quotient class index -> point (element index) of the classifying space
    bijection: dict[int, int]
    reason: str = ""


def kq_vs_K_check(X: FiniteSpace) -> QuotientComparison:
    """Compare the Kolmogorov quotient of X with the classifying space of
    its closed-set lattice via [x] |-> the point of closure{x}.

    Both sides are computed independently; the map must be a bijection
    carrying closed families onto each other.
    """
    L = closed_set_lattice(X)
    space = build_space(L, SpaceKind.K)
    q = t0_quotient(X)
    elem_of_set = {X.closed_sets[i]: i for i in range(len(X.closed_sets))}
    bijection: dict[int, int] = {}
    for k, cls in enumerate(q.classes):
        x = min(cls)
        e = elem_of_set[closure_of_point(X, x)]
        if e not in space.points:
            return QuotientComparison(False, bijection,
                                      f"closure of {X.points[x]} is not a point")
        bijection[k] = e
    if sorted(bijection.values()) != sorted(space.points):
        return QuotientComparison(False, bijection, "not a point bijection")
    image_family = {frozenset(bijection[k] for k in s)
                    for s in q.quotient.closed_sets}
    if image_family != set(space.closed_sets):
        return QuotientComparison(False, bijection, "closed families differ")
    return QuotientComparison(True, bijection)


def homeomorphic(X: FiniteSpace, Y: FiniteSpace) -> Optional[dict[int, int]]:
    """Backtracking search for a bijection carrying closed sets onto closed
    sets; None if there is none."""
    if X.n != Y.n or len(X.closed_sets) != len(Y.closed_sets):
        return None

    def profile(Z, i):
        return tuple(sorted(len(s) for s in Z.closed_sets if i in s))

    px = [profile(X, i) for i in range(X.n)]
    py = [profile(Y, i) for i in range(Y.n)]
    if sorted(px) != sorted(py):
        return None
    target_family = set(Y.closed_sets)
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def extend(i):
        if i == X.n:
            image = {frozenset(assignment[p] for p in s) for s in X.closed_sets}
            return image == target_family
        for j in range(Y.n):
            if j in used or py[j] != px[i]:
                continue
            assignment[i] = j
            used.add(j)
            if extend(i + 1):
                return True
            del assignment[i]
            used.remove(j)
        return False

    if extend(0):
        return dict(assignment)
    return None
