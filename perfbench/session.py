"""One benchmark session: a fresh interpreter that imports latclass, warms
up on held-out documents, then runs whole rounds of operations until its
time budget is spent.

    python3 perfbench/session.py SRC PLAN RESULT OUTPUTS

SRC is the directory that holds the ``latclass`` package.  PLAN is a JSON
file written by ``run.py``::

    {"budget_s": float, "trace": path or null,
     "warmup": [[id, argv]], "rounds": [[[id, argv]]]}

One operation is one in-process call of ``latclass.cli.run(argv)`` with
stdout and stderr captured; only that call is timed.  Each output goes to
OUTPUTS as one JSON line for the parent to check.  RESULT gets the
per-operation times, the set-up time (import plus warm-up) and the peak
resident set.

With a trace path the session runs every round of the plan whatever the
budget, untraced and traced rounds alternately, and writes the spans of
the traced rounds to that path.
"""

import sys
import time


def main(src, plan_path, result_path, outputs_path):
    sys.path.insert(0, src)
    # json, argparse and the rest of what latclass pulls in count as its
    # import cost, so nothing but sys and time is imported before this.
    t0 = time.perf_counter()
    import latclass.cli
    import_s = time.perf_counter() - t0

    import io
    import json
    import resource
    from contextlib import redirect_stderr, redirect_stdout

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = latclass.cli.run(argv)
            except (Exception, SystemExit) as exc:  # escaped the CLI
                code = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        return code, dt, out.getvalue(), err.getvalue()

    t0 = time.perf_counter()
    for _, argv in plan["warmup"]:
        call(argv)
    setup_s = import_s + time.perf_counter() - t0

    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer(latclass)

    rounds = []
    start = time.perf_counter()
    with open(outputs_path, "w", encoding="utf-8") as outputs:
        for r, ops in enumerate(plan["rounds"]):
            if (tracer is None and r
                    and time.perf_counter() - start >= plan["budget_s"]):
                break
            traced = tracer is not None and r % 2 == 1
            if traced:
                tracer.install()
            times = []
            for op_id, argv in ops:
                if traced:
                    tracer.begin_op()
                code, dt, out, err = call(argv)
                times.append(dt)
                outputs.write(json.dumps({"id": op_id, "code": code,
                                          "out": out, "err": err}) + "\n")
            if traced:
                tracer.uninstall()
            rounds.append({"traced": traced, "times": times})
    measured_s = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(plan["trace"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "measured_s": measured_s,
                   "rss_kb": rss_kb, "rounds": rounds}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:5])
