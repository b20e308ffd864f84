"""Built-in corpus: named lattices, spaces and tables with machine-checkable
expectations, plus the randomized generators used by the verification
suites (seeded, so runs are reproducible)."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from . import catlab
from .classifying import SpaceKind, build_space
from .finspace import FiniteSpace, load_space, make_space, space_doc, t0_quotient
from .lattice import (
    FiniteLattice,
    HomLevel,
    LatticeHom,
    canonical_sets,
    chain,
    check_hom,
    diamond_m3,
    identity_hom,
    is_distributive,
    lattice_to_doc,
    load_lattice,
    pentagon_n5,
    powerset_lattice,
    set_label,
)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kind: str  # "lattice" | "space" | "table"
    doc: dict
    expected: dict = field(default_factory=dict)


# -- named lattices ------------------------------------------------------


def a2_nullity_lattice() -> FiniteLattice:
    return catlab.enumerate_subcategory_lattice(
        catlab.a2_table(), catlab.SubcategoryKind.NULLITY)


def a2_serre_lattice() -> FiniteLattice:
    return catlab.enumerate_subcategory_lattice(
        catlab.a2_table(), catlab.SubcategoryKind.SERRE)


def named_lattices() -> dict[str, FiniteLattice]:
    out = {
        "a2-nullity": a2_nullity_lattice(),
        "a2-serre": a2_serre_lattice(),
        "m3": diamond_m3(),
        "n5": pentagon_n5(),
    }
    for k in range(2, 7):
        out[f"chain-{k}"] = chain(k)
    for k in range(1, 5):
        out[f"powerset-{k}"] = powerset_lattice(
            [f"x{i + 1}" for i in range(k)], name=f"powerset-{k}")
    return out


def named_spaces() -> dict[str, FiniteSpace]:
    return {
        "sierpinski": make_space(["x", "y"], [[], [0], [0, 1]]),
        "discrete-3": make_space(
            ["a", "b", "c"],
            [list(s) for r in range(4) for s in itertools.combinations(range(3), r)]),
        "indiscrete-2": make_space(["a", "b"], [[], [0, 1]]),
        "chain-space-3": make_space(["a", "b", "c"], [[], [0], [0, 1], [0, 1, 2]]),
    }


def entries() -> list[CorpusEntry]:
    out = []
    lattice_expected = {
        "a2-nullity": {
            "n_elements": 6,
            "distributive": False,
            "forbidden": "pentagon",
            "points": {"k": 4, "kp": 3, "kgp": 3},
            "closed_set_counts": {"kgp": 5},
            "topology_ok": {"k": False, "kp": True, "kgp": True},
            "t0": {"kgp": True},
        },
        "a2-serre": {
            "n_elements": 5,
            "distributive": True,
            "points": {"k": 3, "kgp": 3},
            "topology_ok": {"k": True, "kgp": True},
        },
        "m3": {
            "n_elements": 5,
            "distributive": False,
            "forbidden": "diamond",
            "points": {"k": 3, "kgp": 0},
            "closed_set_counts": {"kgp": 1},
        },
        "n5": {
            "n_elements": 5,
            "distributive": False,
            "forbidden": "pentagon",
            "points": {"k": 3, "kgp": 2},
        },
        "powerset-4": {
            "n_elements": 16,
            "distributive": True,
            "points": {"k": 4, "kgp": 4},
            "closed_set_counts": {"kgp": 16},
            "topology_ok": {"k": True, "kgp": True},
        },
    }
    for k in range(2, 7):
        lattice_expected[f"chain-{k}"] = {
            "n_elements": k,
            "distributive": True,
            "points": {"k": k - 1, "kgp": k - 1},
        }
    for k in range(1, 4):
        lattice_expected[f"powerset-{k}"] = {
            "n_elements": 1 << k,
            "distributive": True,
            "points": {"k": k, "kgp": k},
        }
    for name, L in sorted(named_lattices().items()):
        out.append(CorpusEntry(name, "lattice", lattice_to_doc(L),
                               lattice_expected.get(name, {})))
    space_expected = {
        "sierpinski": {"n_points": 2, "t0": True, "quotient_points": 2},
        "discrete-3": {"n_points": 3, "t0": True, "quotient_points": 3},
        "indiscrete-2": {"n_points": 2, "t0": False, "quotient_points": 1},
        "chain-space-3": {"n_points": 3, "t0": True, "quotient_points": 3},
    }
    for name, X in sorted(named_spaces().items()):
        out.append(CorpusEntry(name, "space", space_doc(X),
                               space_expected.get(name, {})))
    out.append(CorpusEntry("a2-table", "table", catlab.table_doc(catlab.a2_table()), {
        "lattice_sizes": {"nullity": 6, "serre": 5, "replete": 16, "additive": 16},
        "monoform": {"a": True, "b": True, "c": True},
    }))
    return out


def check_entry(entry: CorpusEntry) -> list[tuple[str, bool, str]]:
    """Evaluate an entry's expectations; (label, ok, detail) per check."""
    results = []

    def expect(label, got, want):
        results.append((label, got == want, f"got {got!r}, want {want!r}"))

    exp = entry.expected
    if entry.kind == "lattice":
        L = load_lattice(entry.doc)
        if "n_elements" in exp:
            expect("n_elements", L.n, exp["n_elements"])
        if "distributive" in exp:
            verdict = is_distributive(L)
            expect("distributive", verdict.distributive, exp["distributive"])
            if "forbidden" in exp:
                got = verdict.forbidden.kind if verdict.forbidden else None
                expect("forbidden", got, exp["forbidden"])
        spaces = {}
        for key in set(exp.get("points", {})) | set(exp.get("closed_set_counts", {})) \
                | set(exp.get("topology_ok", {})) | set(exp.get("t0", {})):
            spaces[key] = build_space(L, SpaceKind(key))
        for key, want in sorted(exp.get("points", {}).items()):
            expect(f"points[{key}]", len(spaces[key].points), want)
        for key, want in sorted(exp.get("closed_set_counts", {}).items()):
            expect(f"closed_sets[{key}]", len(spaces[key].closed_sets), want)
        for key, want in sorted(exp.get("topology_ok", {}).items()):
            expect(f"topology_ok[{key}]", spaces[key].topology_ok, want)
        for key, want in sorted(exp.get("t0", {}).items()):
            expect(f"t0[{key}]", spaces[key].t0, want)
    elif entry.kind == "space":
        X = load_space(entry.doc)
        if "n_points" in exp:
            expect("n_points", X.n, exp["n_points"])
        q = t0_quotient(X)
        if "t0" in exp:
            expect("t0", all(len(c) == 1 for c in q.classes), exp["t0"])
        if "quotient_points" in exp:
            expect("quotient_points", q.quotient.n, exp["quotient_points"])
    elif entry.kind == "table":
        T = catlab.validate_table(entry.doc)
        for key, want in sorted(exp.get("lattice_sizes", {}).items()):
            L = catlab.enumerate_subcategory_lattice(
                T, catlab.SubcategoryKind(key))
            expect(f"lattice_size[{key}]", L.n, want)
        for obj, want in sorted(exp.get("monoform", {}).items()):
            expect(f"monoform[{obj}]", catlab.is_monoform(T, obj), want)
    else:
        results.append(("kind", False, f"unknown corpus kind {entry.kind!r}"))
    return results


# -- randomized generators -----------------------------------------------


def random_lattice(rng: random.Random, max_size: int = 10,
                   name: Optional[str] = None) -> FiniteLattice:
    """A random finite lattice: an intersection-closed family of subsets
    of a small base set (with the full set), ordered by inclusion.  Every
    finite lattice arises this way, so the sample is not biased toward
    distributivity."""
    while True:
        m = rng.randint(2, 5)
        full = frozenset(range(m))
        family = {full}
        for _ in range(rng.randint(1, 7)):
            family.add(frozenset(i for i in range(m) if rng.random() < 0.5))
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(list(family), 2):
                if a & b not in family:
                    family.add(a & b)
                    changed = True
        if len(family) > max_size:
            continue
        sets = canonical_sets(family)
        names = [str(i) for i in range(m)]
        return FiniteLattice.from_sets(name or "random", sets,
                                       [set_label(names, s) for s in sets])


def random_poset(rng: random.Random, size: int) -> list[int]:
    """Down-set bitmasks of a random partial order on `size` elements."""
    down = [1 << i for i in range(size)]
    for j in range(size):
        for i in range(j):
            if rng.random() < 0.4:
                # down[i] is final and down-closed, so down[j] stays so
                down[j] |= down[i]
    return down


def _down_sets(below: list[int]) -> list[int]:
    """The down-sets of a preorder given by its down-set masks: the subsets
    that contain below[i] with each member i, as masks in increasing order."""
    n = len(below)
    return [bits for bits in range(1 << n)
            if all(below[i] & bits == below[i] for i in range(n) if bits >> i & 1)]


def random_downset_lattice(rng: random.Random, max_poset: int = 4,
                           name: Optional[str] = None) -> FiniteLattice:
    """The down-sets of a random poset, ordered by inclusion; distributive
    by construction (Birkhoff-style)."""
    m = rng.randint(1, max_poset)
    downsets = sorted(_down_sets(random_poset(rng, m)),
                      key=lambda b: (b.bit_count(), b))
    sets = [[i for i in range(m) if b >> i & 1] for b in downsets]
    names = [str(i) for i in range(m)]
    return FiniteLattice.from_sets(name or "downsets", sets,
                                   [set_label(names, s) for s in sets])


def random_space(rng: random.Random, max_points: int = 8,
                 name_prefix: str = "p") -> FiniteSpace:
    """A random finite space: the down-sets of a random preorder taken as
    closed sets (every finite topology arises this way)."""
    n = rng.randint(1, max_points)
    below = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                below[i] |= 1 << j
    # Warshall: after step k, below[i] holds all that i reaches via 0..k
    for k in range(n):
        for i in range(n):
            if below[i] >> k & 1:
                below[i] |= below[k]
    closed = [[i for i in range(n) if bits >> i & 1] for bits in _down_sets(below)]
    return make_space([f"{name_prefix}{i}" for i in range(n)], closed)


# -- complete-homomorphism fixtures --------------------------------------


def chain_collapse(k: int) -> LatticeHom:
    """chain(k) onto chain(k-1), folding the top two elements together."""
    return check_hom([min(i, k - 2) for i in range(k)], chain(k), chain(k - 1))


def powerset_preimage_hom(src: FiniteLattice, dst: FiniteLattice,
                          base_map: list[int]) -> LatticeHom:
    """Hom between powerset lattices induced by a base-set map: a subset is
    sent to its preimage.  Preserves arbitrary unions and intersections."""
    src_bits = src.n.bit_length() - 1
    dst_bits = dst.n.bit_length() - 1
    assert len(base_map) == dst_bits and all(0 <= v < src_bits for v in base_map)
    mapping = []
    for s in range(src.n):
        t = 0
        for b, v in enumerate(base_map):
            if s >> v & 1:
                t |= 1 << b
        mapping.append(t)
    return check_hom(mapping, src, dst)


def hom_fixtures() -> list[LatticeHom]:
    """Verified complete homs, including identities, chain collapses and
    powerset preimage maps; adjacent chain/powerset entries compose."""
    p3 = powerset_lattice(["x1", "x2", "x3"], name="powerset-3")
    p2 = powerset_lattice(["x1", "x2"], name="powerset-2")
    p1 = powerset_lattice(["x1"], name="powerset-1")
    homs = [
        identity_hom(a2_nullity_lattice()),
        identity_hom(chain(4)),
        identity_hom(p3),
        chain_collapse(6),
        chain_collapse(5),
        chain_collapse(4),
        chain_collapse(3),
        powerset_preimage_hom(p3, p2, [0, 1]),
        powerset_preimage_hom(p2, p1, [1]),
        powerset_preimage_hom(p3, p3, [2, 0, 1]),
        powerset_preimage_hom(p3, p1, [2]),
        check_hom([0, 0, 1, 1], chain(4), chain(2)),
    ]
    assert all(h.level is HomLevel.COMPLETE for h in homs)
    return homs


def composable_pairs(homs: list[LatticeHom]) -> list[tuple[LatticeHom, LatticeHom]]:
    return [(f, g) for f in homs for g in homs if f.target == g.source]
