"""Output checks for the benchmark operations.

Each check compares latclass's output with what the benchmark knows from
how it built the input (see ``gen.py``), never with a stored copy of an
earlier output.  ``check`` returns None when the output is right and a
one-line reason when it is not; an operation whose output is wrong counts
as failed.
"""

import json

GENERATOR_CLASSES = ("join_prime", "g_prime", "join_irreducible",
                     "completely_join_irreducible")


def check(op: dict, code, out: str):
    if code != 0:
        return f"exit code {code!r}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    try:
        return CHECKS[op["oracle"]](op["expect"], doc)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"output lacks the expected shape: {type(exc).__name__}: {exc}"


def check_all(expect: dict, doc: dict):
    """``check FILE --all [--functor HOMFILE]`` on a lattice of known
    distributivity."""
    if doc.get("ok") is not True:
        return "verdict is not ok"
    checks = {c["name"]: c for c in doc["checks"]}
    if len(checks) != len(doc["checks"]):
        return "duplicate check names"
    bad = sorted(name for name, c in checks.items() if c["ok"] is not True)
    if bad:
        return f"failed checks {bad}"
    dist = expect["distributive"]
    k_name = "topology[k]" if dist else "topology[k] (not required)"
    names = {"distributivity-two-routes-agree", k_name,
             "topology[kp]", "topology[kgp]", "t0[kp]", "t0[kgp]"}
    if dist:
        names.add("t0[k]")
    names |= {f"bijection[{c}]" for c in GENERATOR_CLASSES}
    functor = expect["functor"]
    if functor:
        names |= {f"pointfree[{h}]" for h in functor["homs"]}
        names |= {f"contravariant-composition[{c}]"
                  for c in functor["compositions"]}
    if set(checks) != names:
        return f"checks {sorted(set(checks) ^ names)} missing or unexpected"
    detail = checks["distributivity-two-routes-agree"]["detail"]
    if detail["distributive"] is not dist:
        return f"distributive is {detail['distributive']}, built {dist}"
    if (detail["forbidden"] is None) is not dist:
        return f"forbidden sublattice {detail['forbidden']!r} on a " + (
            "distributive" if dist else "non-distributive") + " lattice"
    if not dist and detail["forbidden"] not in ("pentagon", "diamond"):
        return f"unknown forbidden sublattice {detail['forbidden']!r}"
    if (detail["witness"] is None) is not dist:
        return f"witness {detail['witness']!r} disagrees with distributivity"
    for cls in GENERATOR_CLASSES:
        d = checks[f"bijection[{cls}]"]["detail"]
        if d["closed_sets"] != len(d["fixed_elements"]):
            return (f"bijection[{cls}]: {d['closed_sets']} closed sets, "
                    f"{len(d['fixed_elements'])} fixed elements")
    if expect["downsets"]:
        # the down-sets of a poset: every element is a join of g-primes
        got = checks["bijection[g_prime]"]["detail"]["closed_sets"]
        if got != expect["n"]:
            return f"bijection[g_prime]: {got} closed sets, {expect['n']} elements"
    return None


def check_validate(expect: dict, doc: dict):
    want = {"type": "lattice", "ok": True, "n_elements": expect["n"]}
    if doc != want:
        return f"validate gave {doc}, expected {want}"
    return None


def check_catlab(expect: dict, doc: dict):
    """The closed object sets as elements, ordered by inclusion."""
    elements = doc["elements"]
    if elements != expect["elements"]:
        return (f"{len(elements)} closed object sets, expected "
                f"{len(expect['elements'])} (or a different order)")
    covers = sorted([elements[lo], elements[hi]] for lo, hi in doc["covers"])
    if covers != expect["covers"]:
        return "covering pairs differ from the inclusion order"
    return None


def check_quotient(expect: dict, doc: dict):
    """Classes, quotient points and closed sets of a preorder's down-set
    space."""
    classes = sorted(doc["classes"])
    if classes != expect["classes"]:
        return f"classes {classes}, expected {expect['classes']}"
    points = doc["quotient"]["points"]
    if len(points) != len(expect["classes"]):
        return f"{len(points)} quotient points, expected {len(classes)}"
    n_closed = len(doc["quotient"]["closed_sets"])
    if n_closed != expect["n_closed_sets"]:
        return f"{n_closed} quotient closed sets, expected {expect['n_closed_sets']}"
    projection = doc["projection"]
    for members in expect["classes"]:
        if len({projection.get(p) for p in members}) != 1:
            return f"class {members} is not sent to one point"
    if len(set(projection.values())) != len(points):
        return "projection does not reach every quotient point"
    return None


CHECKS = {
    "check": check_all,
    "validate": check_validate,
    "catlab": check_catlab,
    "quotient": check_quotient,
}
