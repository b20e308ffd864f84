"""Seeded input documents for the benchmark workloads.

Everything here is computed apart from latclass, which this module never
imports: each generator builds a structure whose answers are known from its
construction (a lattice of sets, a preorder, a closure rule set) and writes
the document latclass will read, together with the expectations the oracles
in ``oracles.py`` hold the output to.

An operation is a dict::

    {"id": str, "argv": [str], "oracle": str, "expect": dict,
     "files": {placeholder: document}}

``argv`` names its files by placeholder (``{doc}``, ``{hom}``); ``materialize``
writes the documents and substitutes the paths.  The same
``(workload, seed)`` always yields byte-identical documents.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations


def stream(workload: str, seed: int, part: str, index: int) -> random.Random:
    """Independent generator per document slot; string seeds hash the same
    way in every process."""
    return random.Random(f"{workload}/{seed}/{part}/{index}")


def popcount(x: int) -> int:
    return bin(x).count("1")


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_label(mask: int, names) -> str:
    if not mask:
        return "∅"
    return "{" + ",".join(names[i] for i in bits(mask)) + "}"


# -- order-theoretic building blocks ----------------------------------------


def random_poset(rng: random.Random, m: int, p: float) -> list[int]:
    """Strict-below bitmasks of a random order on m points: i < j with
    probability p for i < j, then transitively closed."""
    below = [0] * m
    for j in range(m):
        for i in range(j):
            if rng.random() < p:
                below[j] |= (1 << i) | below[i]
    return below


def down_sets(below: list[int]) -> list[int]:
    """Every down-closed subset of a poset given by strict-below masks."""
    m = len(below)
    out = []
    for s in range(1 << m):
        if all(below[i] & s == below[i] for i in bits(s)):
            out.append(s)
    return out


def downset_covers(sets: list[int], below: list[int]) -> list[tuple[int, int]]:
    """Hasse diagram of down-sets under inclusion: D covers D - {x} for each
    maximal x of D."""
    index = {s: k for k, s in enumerate(sets)}
    covers = []
    for k, s in enumerate(sets):
        for x in bits(s):
            if not any(below[y] >> x & 1 for y in bits(s)):
                covers.append((index[s ^ (1 << x)], k))
    return covers


def downset_lattice(rng, lo, hi, points, density):
    """A random poset, redrawn until it has lo-hi down-sets; the point count
    and the relation density are drawn from the ranges given.  Returns the
    point count, the strict-below masks and the down-sets."""
    while True:
        m = rng.randint(*points)
        below = random_poset(rng, m, rng.uniform(*density))
        sets = down_sets(below)
        if lo <= len(sets) <= hi:
            return m, below, sets


def inclusion_covers(sets: list[int]) -> list[tuple[int, int]]:
    """Hasse diagram of a family of sets under inclusion: B covers A when A
    is maximal among the members properly inside B."""
    covers = []
    for j, b in enumerate(sets):
        inside = [i for i, a in enumerate(sets) if a != b and a & b == a]
        for i in inside:
            a = sets[i]
            if not any(sets[k] != a and sets[k] & a == a for k in inside):
                covers.append((i, j))
    return covers


def closure_system(rng: random.Random, base: int, draws: int) -> list[int]:
    """A random intersection-closed family of subsets of range(base) that
    holds the full set: every finite lattice arises this way."""
    full = (1 << base) - 1
    family = {full}
    for _ in range(draws):
        family.add(rng.getrandbits(base))
    grown = True
    while grown:
        grown = False
        for a, b in combinations(list(family), 2):
            if a & b not in family:
                family.add(a & b)
                grown = True
    return sorted(family, key=lambda s: (popcount(s), s))


def is_distributive_family(sets: list[int]) -> bool:
    """Triple check on a closure system: meet is intersection, join is the
    least member holding the union."""
    n = len(sets)
    index = {s: k for k, s in enumerate(sets)}
    # sets are sorted by size, so the first member over the union is least
    join = [[0] * n for _ in range(n)]
    for i, a in enumerate(sets):
        for j in range(i, n):
            u = a | sets[j]
            join[i][j] = join[j][i] = next(
                k for k, c in enumerate(sets) if c & u == u)
    meet = [[index[a & b] for b in sets] for a in sets]
    return all(join[a][meet[b][c]] == meet[join[a][b]][join[a][c]]
               for a in range(n) for b in range(n) for c in range(b, n))


def lattice_doc(rng: random.Random, name: str, labels: list[str],
                covers: list[tuple[int, int]]) -> tuple[dict, list[int]]:
    """The lattice document with its elements in a seeded order.

    Returns the document and ``pos``, the document index of each element.
    """
    n = len(labels)
    order = list(range(n))
    rng.shuffle(order)
    pos = [0] * n
    for k, e in enumerate(order):
        pos[e] = k
    doc_covers = [[pos[lo], pos[hi]] for lo, hi in covers]
    rng.shuffle(doc_covers)
    return ({"name": name, "elements": [labels[e] for e in order],
             "covers": doc_covers}, pos)


def chain_doc(rng, name, k, prefix="c"):
    return lattice_doc(rng, name, [f"{prefix}{i}" for i in range(k)],
                       [(i, i + 1) for i in range(k - 1)])


def powerset_doc(rng, name, m, names):
    sets = list(range(1 << m))
    covers = [(s ^ (1 << b), s) for s in sets for b in bits(s)]
    return lattice_doc(rng, name, [set_label(s, names) for s in sets], covers)


# -- check-all ----------------------------------------------------------------

POINT_NAMES = [chr(ord("a") + i) for i in range(26)]


def _closure_lattice(rng, lo, hi):
    while True:
        base = rng.randint(5, 7)
        sets = closure_system(rng, base, rng.randint(6, 14))
        if lo <= len(sets) <= hi and not is_distributive_family(sets):
            return base, sets


def powerset_homfile(rng, m, pos):
    """Complete homs known from their construction: a preimage map from the
    main powerset onto a smaller one and on down to a third, plus a chain
    collapse pair.  Two composable pairs in all."""
    small = m - 1
    p_small, pos_small = powerset_doc(rng, f"powerset-{small}", small,
                                      [f"y{i}" for i in range(small)])
    p_tiny, pos_tiny = powerset_doc(rng, f"powerset-{small - 1}", small - 1,
                                    [f"z{i}" for i in range(small - 1)])

    def preimage(src_pos, src_bits, dst_pos, dst_bits):
        base_map = [rng.randrange(src_bits) for _ in range(dst_bits)]
        mapping = [0] * (1 << src_bits)
        for s in range(1 << src_bits):
            t = sum(1 << b for b, v in enumerate(base_map) if s >> v & 1)
            mapping[src_pos[s]] = dst_pos[t]
        return mapping

    k = rng.randint(5, 7)
    c_big, pos_big = chain_doc(rng, f"chain-{k}", k, "u")
    c_less, pos_less = chain_doc(rng, f"chain-{k - 1}", k - 1, "v")
    c_least, pos_least = chain_doc(rng, f"chain-{k - 2}", k - 2, "w")

    def collapse(src_pos, src_k, dst_pos):
        mapping = [0] * src_k
        for i in range(src_k):
            mapping[src_pos[i]] = dst_pos[min(i, src_k - 2)]
        return mapping

    homs = [
        {"name": "pre1", "target": "ps", "map": preimage(pos, m, pos_small, small)},
        {"name": "pre2", "source": "ps", "target": "pt",
         "map": preimage(pos_small, small, pos_tiny, small - 1)},
        {"name": "col1", "source": "cb", "target": "cl",
         "map": collapse(pos_big, k, pos_less)},
        {"name": "col2", "source": "cl", "target": "cm",
         "map": collapse(pos_less, k - 1, pos_least)},
    ]
    doc = {"lattices": {"ps": p_small, "pt": p_tiny, "cb": c_big,
                        "cl": c_less, "cm": c_least},
           "homs": homs}
    return doc, {"homs": ["pre1", "pre2", "col1", "col2"],
                 "compositions": ["pre2.pre1", "col2.col1"]}


def check_op(rng, op_id, kind, lo, hi):
    files = {}
    argv = ["check", "{doc}", "--all"]
    expect = {"functor": None}
    if kind == "downset":
        m, below, sets = downset_lattice(rng, lo, hi, (5, 8), (0.15, 0.45))
        names = POINT_NAMES[:m]
        doc, _ = lattice_doc(rng, op_id, [set_label(s, names) for s in sets],
                             downset_covers(sets, below))
        expect.update(n=len(sets), distributive=True, downsets=True)
    elif kind == "powerset":
        m = lo
        doc, pos = powerset_doc(rng, op_id, m, POINT_NAMES[:m])
        files["hom"], expect["functor"] = powerset_homfile(rng, m, pos)
        argv += ["--functor", "{hom}"]
        expect.update(n=1 << m, distributive=True, downsets=True)
    else:
        base, sets = _closure_lattice(rng, lo, hi)
        names = [str(i) for i in range(base)]
        doc, _ = lattice_doc(rng, op_id, [set_label(s, names) for s in sets],
                             inclusion_covers(sets))
        expect.update(n=len(sets), distributive=False, downsets=False)
    files["doc"] = doc
    return {"id": op_id, "argv": argv, "oracle": "check", "expect": expect,
            "files": files}


# -- load-large -------------------------------------------------------------

# a chain is the costliest lattice of its size to build, so it is shorter
LOAD_LO, LOAD_HI = 195, 215
CHAIN_LO, CHAIN_HI = 172, 182


def load_op(rng, op_id, kind):
    if kind == "chain":
        n = rng.randint(CHAIN_LO, CHAIN_HI)
        doc, _ = chain_doc(rng, op_id, n)
    elif kind == "grid":
        while True:
            a = rng.randint(10, 20)
            b = rng.randint(10, 20)
            if LOAD_LO <= a * b <= LOAD_HI:
                break
        n = a * b
        labels = [f"({i},{j})" for i in range(a) for j in range(b)]
        covers = [(i * b + j, (i + 1) * b + j) for i in range(a - 1)
                  for j in range(b)]
        covers += [(i * b + j, i * b + j + 1) for i in range(a)
                   for j in range(b - 1)]
        doc, _ = lattice_doc(rng, op_id, labels, covers)
    else:
        m, below, sets = downset_lattice(rng, LOAD_LO, LOAD_HI, (9, 12),
                                         (0.12, 0.3))
        n = len(sets)
        names = [f"p{i}" for i in range(m)]
        doc, _ = lattice_doc(rng, op_id, [set_label(s, names) for s in sets],
                             downset_covers(sets, below))
    return {"id": op_id, "argv": ["validate", "{doc}"], "oracle": "validate",
            "expect": {"n": n}, "files": {"doc": doc}}


# -- catlab-quotient --------------------------------------------------------


def closed_object_sets(n: int, zero: int, ses, serre: bool) -> list[int]:
    """Object sets closed under the nullity rules (quotients of members,
    extensions of members) and, for Serre, subobjects of members; tested
    rule by rule on every subset, with the trivial triples (x, x, 0) and
    (0, x, x) that every table holds."""
    triples = set(map(tuple, ses))
    for x in range(n):
        triples.add((x, x, zero))
        triples.add((zero, x, x))
    out = []
    for s in range(1 << n):
        ok = True
        for a, m, q in triples:
            has_m = s >> m & 1
            has_q = s >> q & 1
            if (has_m and not has_q) or (s >> a & 1 and has_q and not has_m) \
                    or (serre and has_m and not s >> a & 1):
                ok = False
                break
        if ok:
            out.append(s)
    return out


CLOSED_LO, CLOSED_HI = 40, 100
SPACE_LO, SPACE_HI = 360, 440


def _table(rng, n, kind):
    """A table on n objects with a few random extensions, and its closed
    object sets; Serre closure adds a rule per extension, so it gets fewer."""
    objects = ["0"] + [f"o{i}" for i in range(1, n)]
    lo, hi = (5, 8) if kind == "serre" else (7, 9)
    while True:
        ses = set()
        for _ in range(rng.randint(lo, hi)):
            ses.add(tuple(rng.sample(range(1, n), 3)))
        ses = sorted(ses)
        sets = closed_object_sets(n, 0, ses, kind == "serre")
        if CLOSED_LO <= len(sets) <= CLOSED_HI:
            return {"objects": objects, "zero": 0,
                    "ses": [list(t) for t in ses]}, sets


def catlab_expect(table: dict, kind: str, sets=None) -> dict:
    """The closed object sets as latclass labels them, in its canonical
    order, and the covering pairs of their inclusion order."""
    if sets is None:
        sets = closed_object_sets(len(table["objects"]), table["zero"],
                                  table["ses"], kind == "serre")
    sets = sorted(sets, key=lambda s: (popcount(s), list(bits(s))))
    labels = [set_label(s, table["objects"]) for s in sets]
    covers = sorted([labels[i], labels[j]] for i, j in inclusion_covers(sets))
    return {"elements": labels, "covers": covers}


def catlab_op(rng, op_id, n, kind):
    table, sets = _table(rng, n, kind)
    return {"id": op_id, "argv": ["catlab", "{doc}", "--type", kind],
            "oracle": "catlab", "expect": catlab_expect(table, kind, sets),
            "files": {"doc": table}}


def quotient_op(rng, op_id, lo, hi):
    """A space whose closed sets are the down-sets of a preorder on lo-hi
    points: 9-10 classes under one to three random relations, so that there
    are some 400 closed sets.  Points of one class share their closure."""
    while True:
        c = rng.randint(9, 10)
        below = [0] * c
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(c), 2))
            below[j] |= 1 << i
        for j in range(c):
            for i in bits(below[j]):
                below[j] |= below[i]
        class_sets = down_sets(below)
        if SPACE_LO <= len(class_sets) <= SPACE_HI:
            break
    k = rng.randint(max(lo, c), hi)
    cls_of = list(range(c)) + [rng.randrange(c) for _ in range(k - c)]
    rng.shuffle(cls_of)
    members = [[p for p in range(k) if cls_of[p] == j] for j in range(c)]
    closed = [sorted(p for j in bits(s) for p in members[j])
              for s in class_sets]
    rng.shuffle(closed)
    labels = [f"x{p}" for p in range(k)]
    doc = {"points": labels, "closed_sets": closed}
    return {"id": op_id, "argv": ["quotient", "{doc}"], "oracle": "quotient",
            "expect": {"classes": sorted(sorted(labels[p] for p in ms)
                                         for ms in members),
                       "n_closed_sets": len(class_sets)},
            "files": {"doc": doc}}


# -- rounds -------------------------------------------------------------------


# workload -> slots (maker, arguments).  Every round holds one fresh
# document per slot, so every round costs about the same.  The leading
# WARMUP_SLOTS[workload] slots reach every command of the workload; a
# session's warm-up runs them once on held-out documents.
SLOTS = {
    # 15-24 elements, where the O(n^4) classification does nearly all the
    # work; half distributive (down-sets, a powerset), half not.  The
    # distributive lattices are the smaller, so that every slot costs about
    # the same and the median latency does not jump between slots.
    "check-all": [
        (check_op, ("downset", 15, 17)), (check_op, ("powerset", 4, 4)),
        (check_op, ("closure", 20, 22)), (check_op, ("downset", 16, 18)),
        (check_op, ("closure", 21, 23)), (check_op, ("downset", 15, 17)),
        (check_op, ("closure", 22, 24)), (check_op, ("closure", 21, 23)),
    ],
    # about 200 elements, where the cubic construction does all the work
    "load-large": [
        (load_op, ("downset",)), (load_op, ("grid",)), (load_op, ("chain",)),
    ],
    # the two operations alternate; 12 objects is the enumeration cap
    "catlab-quotient": [
        (catlab_op, (12, "serre")), (quotient_op, (9, 12)),
        (catlab_op, (12, "nullity")), (quotient_op, (9, 12)),
    ] * 2,
}
WARMUP_SLOTS = {"check-all": 3, "load-large": 1, "catlab-quotient": 2}


def round_ops(workload: str, seed: int, part: str, index: int,
              slots: int = None) -> list[dict]:
    """The operations of one round, or of its first ``slots`` slots."""
    ops = []
    for k, (make, args) in enumerate(SLOTS[workload][:slots]):
        rng = stream(workload, seed, part, index * 100 + k)
        ops.append(make(rng, f"{part}{index}-{k}", *args))
    return ops


WORKLOADS = tuple(SLOTS)


def dump(doc) -> str:
    return json.dumps(doc, ensure_ascii=False, sort_keys=True)


def materialize(op: dict, directory: str) -> dict:
    """Write the operation's documents under ``directory`` and return the
    operation with real paths in argv and without the documents."""
    paths = {}
    for key, doc in op["files"].items():
        path = os.path.join(directory, f"{op['id']}.{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump(doc))
        paths["{" + key + "}"] = path
    return {"id": op["id"], "oracle": op["oracle"], "expect": op["expect"],
            "argv": [paths.get(a, a) for a in op["argv"]]}
