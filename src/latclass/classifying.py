"""Classifying spaces built from a lattice, their topology checks, the
closed-set/element bijection, and the point-free contravariant map.

A space is represented extensionally: an explicit point list (lattice
element indices) and the closed-set family generated by the lattice
elements, deduplicated, with a formal empty set added.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import NotCompleteHom, NotIso
from .lattice import FiniteLattice, HomLevel, LatticeHom, canonical_sets
from .spectra import POINT_SET_PREDICATES, classify_element, spectrum_report


class SpaceKind(Enum):
    K = "k"
    KP = "kp"
    KGP = "kgp"
    MEET_PRIME = "meet_prime"
    COMPLETELY_MEET_PRIME = "completely_meet_prime"
    JOIN_PRIME_DUAL = "join_prime_dual"
    MEET_IRREDUCIBLE = "meet_irreducible"
    COMPLETELY_MEET_IRREDUCIBLE = "completely_meet_irreducible"
    JOIN_IRREDUCIBLE_DUAL = "join_irreducible_dual"
    COMPLETELY_JOIN_IRREDUCIBLE_DUAL = "completely_join_irreducible_dual"


# Kinds whose generated subsets collect the points below the generator;
# the meet-side kinds collect the points above it instead.
JOIN_SIDE_KINDS = frozenset({
    SpaceKind.K, SpaceKind.KP, SpaceKind.KGP, SpaceKind.JOIN_PRIME_DUAL,
    SpaceKind.JOIN_IRREDUCIBLE_DUAL, SpaceKind.COMPLETELY_JOIN_IRREDUCIBLE_DUAL,
})


@dataclass(frozen=True)
class TopologyCheck:
    ok: bool
    # (operation, generator a, generator b, offending point set)
    counterexample: Optional[tuple[str, int, int, frozenset[int]]] = None


@dataclass(frozen=True)
class ClassifyingSpace:
    lattice: FiniteLattice
    kind: SpaceKind
    points: tuple[int, ...]
    closed_sets: tuple[frozenset[int], ...]
    # generators (lattice elements) per distinct closed subset; the formal
    # empty set may have none
    generators: dict[frozenset[int], tuple[int, ...]] = field(repr=False)
    topology_ok: bool = True
    topology_check: TopologyCheck = TopologyCheck(True)
    t0: bool = True


def build_space(L: FiniteLattice, kind: SpaceKind) -> ClassifyingSpace:
    """Point set per kind, generated closed family (deduplicated, with the
    formal empty set), and topology / T0 diagnostics.

    The family may fail to be a topology (the K kind over a
    non-distributive lattice); the space is still returned, with
    topology_ok False and a counterexample attached.
    """
    pred = POINT_SET_PREDICATES[kind.value]
    points = tuple(c for c in range(L.n) if pred(classify_element(L, c)))
    point_set = frozenset(points)
    generators: dict[frozenset[int], list[int]] = {}
    for c in range(L.n):
        if kind in JOIN_SIDE_KINDS:
            subset = frozenset(p for p in points if L.le(p, c))
        else:
            subset = frozenset(p for p in points if L.le(c, p))
        generators.setdefault(subset, []).append(c)
    generators.setdefault(frozenset(), [])  # the formal empty set
    generators.setdefault(point_set, [])
    closed_sets = canonical_sets(generators)
    check = _topology_check(generators)
    return ClassifyingSpace(
        lattice=L,
        kind=kind,
        points=points,
        closed_sets=closed_sets,
        generators={s: tuple(g) for s, g in generators.items()},
        topology_ok=check.ok,
        topology_check=check,
        t0=_is_t0(points, closed_sets),
    )


def _topology_check(generators) -> TopologyCheck:
    family = set(generators)
    members = canonical_sets(family)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            for op, res in (("union", a | b), ("intersection", a & b)):
                if res not in family:
                    ga = min(generators[a], default=-1)
                    gb = min(generators[b], default=-1)
                    return TopologyCheck(False, (op, ga, gb, res))
    return TopologyCheck(True)


def _is_t0(points, closed_sets) -> bool:
    membership = {p: frozenset(i for i, s in enumerate(closed_sets) if p in s)
                  for p in points}
    return len(set(membership.values())) == len(points)


def is_T0(space: ClassifyingSpace) -> bool:
    """Separation check on the family as-is; advisory when the family is
    not actually a topology."""
    return _is_t0(space.points, space.closed_sets)


def space_to_json(space: ClassifyingSpace) -> dict:
    L = space.lattice
    return {
        "lattice": L.name,
        "kind": space.kind.value,
        "points": [L.elements[p] for p in space.points],
        "closed_sets": [sorted(L.elements[p] for p in s)
                        for s in space.closed_sets],
        "topology_ok": space.topology_ok,
        "t0": space.t0,
    }


def space_to_dot(space: ClassifyingSpace) -> str:
    """DOT of the specialization order: P -> Q iff every closed set
    containing Q contains P (edges for covering pairs only)."""
    L = space.lattice
    member = {p: frozenset(i for i, s in enumerate(space.closed_sets) if p in s)
              for p in space.points}
    leq = {(p, q) for p in space.points for q in space.points
           if member[q] <= member[p]}
    lines = [f'digraph "{space.kind.value}({L.name})" {{', "  rankdir=BT;"]
    for p in space.points:
        lines.append(f'  n{p} [label="P_{L.elements[p]}"];')
    for p, q in sorted(leq):
        if p == q:
            continue
        between = any((p, r) in leq and (r, q) in leq
                      for r in space.points if r not in (p, q))
        if not between:
            lines.append(f"  n{p} -> n{q};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- generation classes and the classification bijection -----------------


class GeneratorClass(Enum):
    """Join-side element classes usable as generators; duals are reached by
    dualizing the lattice first."""
    JOIN_PRIME = "join_prime"
    G_PRIME = "g_prime"  # completely join prime
    JOIN_IRREDUCIBLE = "join_irreducible"
    COMPLETELY_JOIN_IRREDUCIBLE = "completely_join_irreducible"


_CLASS_FLAG = {
    GeneratorClass.JOIN_PRIME: "join_prime",
    GeneratorClass.G_PRIME: "completely_join_prime",
    GeneratorClass.JOIN_IRREDUCIBLE: "join_irreducible",
    GeneratorClass.COMPLETELY_JOIN_IRREDUCIBLE: "completely_join_irreducible",
}

_CLASS_KIND = {
    GeneratorClass.JOIN_PRIME: SpaceKind.JOIN_PRIME_DUAL,
    GeneratorClass.G_PRIME: SpaceKind.KGP,
    GeneratorClass.JOIN_IRREDUCIBLE: SpaceKind.JOIN_IRREDUCIBLE_DUAL,
    GeneratorClass.COMPLETELY_JOIN_IRREDUCIBLE:
        SpaceKind.COMPLETELY_JOIN_IRREDUCIBLE_DUAL,
}


def class_members(L: FiniteLattice, cls: GeneratorClass) -> tuple[int, ...]:
    flag = _CLASS_FLAG[cls]
    return tuple(c for c in range(L.n)
                 if getattr(classify_element(L, c), flag))


def hat(L: FiniteLattice, c: int, cls: GeneratorClass) -> int:
    """Join of all class members below c; idempotent."""
    c = L.check_element(c)
    return L.join_set(m for m in class_members(L, cls) if L.le(m, c))


@dataclass(frozen=True)
class ClassificationReport:
    lattice: FiniteLattice
    cls: GeneratorClass
    kind: SpaceKind
    closed_sets: tuple[frozenset[int], ...]
    fixed_elements: tuple[int, ...]
    theta: dict[frozenset[int], int]
    xi: dict[int, frozenset[int]]
    round_trip_ok: bool


def verify_classification(L: FiniteLattice,
                          cls: GeneratorClass) -> ClassificationReport:
    """Check that the generated closed sets biject with the elements fixed
    by the hat operator, theta(S) = join of S and xi(C) = generated set,
    both maps inclusion/order monotone.

    theta is keyed by the canonical point subset, not by generator, since
    distinct generators can generate equal subsets.
    """
    space = build_space(L, _CLASS_KIND[cls])
    xi = {c: frozenset(p for p in space.points if L.le(p, c))
          for c in range(L.n)}
    # The bijection ranges over the generated subsets only; the formal
    # empty set of the topology is not part of it (it is generated anyway
    # whenever no class member sits at the bottom).
    closed_sets = canonical_sets(xi.values())
    theta = {s: L.join_set(s) for s in closed_sets}
    fixed = tuple(c for c in range(L.n) if hat(L, c, cls) == c)

    ok = True
    # theta lands in the fixed set and xi . theta is the identity on sets
    for s in closed_sets:
        d = theta[s]
        ok = ok and hat(L, d, cls) == d and xi[d] == s
    # theta . xi is the identity on fixed elements
    for c in fixed:
        ok = ok and theta[xi[c]] == c
    # bijectivity between the two finite sets
    ok = ok and len(set(theta[s] for s in closed_sets)) == len(closed_sets)
    ok = ok and set(theta[s] for s in closed_sets) == set(fixed)
    # mutual monotonicity
    for s in closed_sets:
        for t in closed_sets:
            if s <= t:
                ok = ok and L.le(theta[s], theta[t])
    for c in fixed:
        for d in fixed:
            if L.le(c, d):
                ok = ok and xi[c] <= xi[d]
    return ClassificationReport(L, cls, space.kind, closed_sets, fixed,
                                theta, xi, ok)


# -- homeomorphisms induced by lattice isomorphisms ----------------------


def induced_homeomorphism(f: LatticeHom, kind: SpaceKind) -> dict[int, int]:
    """Point bijection P_C -> P_f(C) induced by a verified isomorphism;
    checked to carry the source closed family onto the target one."""
    if f.level is not HomLevel.COMPLETE or not f.is_bijective():
        raise NotIso("complete-level bijection required")
    src = build_space(f.source, kind)
    dst = build_space(f.target, kind)
    mapping = {p: f.map[p] for p in src.points}
    if sorted(mapping.values()) != sorted(dst.points):
        raise NotIso("point sets do not correspond under the map")
    image_family = {frozenset(mapping[p] for p in s) for s in src.closed_sets}
    if image_family != set(dst.closed_sets):
        raise NotIso("closed families do not correspond under the map")
    return mapping


# -- the point-free contravariant construction ---------------------------


@dataclass(frozen=True)
class PointfreeMap:
    """Action of a complete hom f: L -> M on meet-prime elements,
    C |-> join of f^{-1}(down-set of C), mapping meet-primes of M to
    meet-primes of L (contravariant)."""
    hom: LatticeHom
    source_primes: tuple[int, ...]  # meet-primes of hom.target
    target_primes: tuple[int, ...]  # meet-primes of hom.source
    mapping: dict[int, int]
    well_defined: bool
    continuity_ok: bool

    def __call__(self, c: int) -> int:
        return self.mapping[c]


def meet_primes(L: FiniteLattice) -> tuple[int, ...]:
    return tuple(c for c in range(L.n)
                 if classify_element(L, c).meet_prime)


def pointfree_map(f: LatticeHom) -> PointfreeMap:
    """For each meet-prime C of the target, the join of the preimage of the
    principal ideal below C.  Verifies the image is meet-prime in the
    source and the continuity identity on every generator."""
    if f.level is not HomLevel.COMPLETE:
        raise NotCompleteHom(f.level.value)
    L, M = f.source, f.target
    mp_M = meet_primes(M)
    mp_L = meet_primes(L)
    mapping = {c: L.join_set(a for a in range(L.n) if M.le(f.map[a], c))
               for c in mp_M}
    well_defined = all(v in mp_L for v in mapping.values())
    # continuity: preimage of the closed set generated by a in the source
    # spectrum equals the closed set generated by f(a) in the target one
    continuity_ok = True
    for a in range(L.n):
        pulled = frozenset(c for c in mp_M if L.le(a, mapping[c]))
        direct = frozenset(c for c in mp_M if M.le(f.map[a], c))
        if pulled != direct:
            continuity_ok = False
            break
    return PointfreeMap(f, mp_M, mp_L, mapping, well_defined, continuity_ok)
