"""One benchmark process: set-up, timed passes, then the checks.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
With --probe it only imports defectchain, runs the warm-up operation and
prints the time that took.  Otherwise it runs whole passes over the
workload's operations until --seconds have gone by, reads its peak
resident memory, checks the last pass's outputs and prints one JSON
object on its last line of output.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _setup():
    """Time the import of defectchain plus one small warm-up solve, which
    the passes then do not pay.  numpy is first imported here, so nothing
    may import it before this runs."""
    t0 = time.perf_counter()
    import defectchain
    from defectchain import single_defect
    system = single_defect.build_defect_system(defectchain.LatticeSpec(8, 1.0, 0),
                                               defectchain.DefectSpec(3, 0.5))
    single_defect.steady_occupation(system)
    elapsed = time.perf_counter() - t0
    where = Path(defectchain.__file__).resolve().parent
    if where != ROOT / "src" / "defectchain":
        sys.exit(f"defectchain imported from {where}, not from this checkout's src/")
    return elapsed


def _passes(ops, seconds, unexpected):
    """Whole passes over `ops` until `seconds` have elapsed (at least one).

    Returns per-pass wall and slowest-operation times, the last pass's
    outputs, per-operation times and the number of failed operations.
    An operation outside the known faults that fails in any pass is
    recorded in `unexpected` (name -> reason)."""
    from defectchain import DefectChainError
    walls, slowest, outputs, failed = [], [], None, 0
    op_times = {op.name: [] for op in ops}
    start = time.perf_counter()
    while True:
        outs = []
        t_pass = time.perf_counter()
        worst = 0.0
        for op in ops:
            t = time.perf_counter()
            try:
                out = op.run()
            except DefectChainError as exc:
                out = exc
            dt = time.perf_counter() - t
            worst = max(worst, dt)
            op_times[op.name].append(dt)
            outs.append(out)
        walls.append(time.perf_counter() - t_pass)
        slowest.append(worst)
        outputs = outs
        for op, out in zip(ops, outs):
            why = _failure(out)
            if why is not None:
                failed += 1
                if op.fault is None:
                    unexpected.setdefault(op.name, why)
        if time.perf_counter() - start >= seconds:
            return walls, slowest, outputs, op_times, failed


def _failure(out):
    """Why an operation's result counts as failed, or None."""
    import numpy as np
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    if isinstance(out, int):
        return None if out == 0 else f"exit code {out}"
    parts = out if isinstance(out, tuple) else (out,)
    if not all(np.all(np.isfinite(p)) for p in parts):
        return "non-finite result"
    return None


def _versions():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--workdir")
    ap.add_argument("--spans")
    args = ap.parse_args()
    run_args = (args.workload, args.seed, args.seconds, args.trace, args.workdir, args.spans)
    if not args.probe and None in run_args:
        ap.error("--workload, --seed, --seconds, --trace, --workdir and --spans are required "
                 "without --probe")

    setup_s = _setup()
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return

    import resource

    import reference
    import tracing
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    result = {"versions": _versions()}
    unexpected = {}

    if args.trace:
        walls, _, _, _, failed = _passes(ops, args.seconds / 2.0, unexpected)
        tracer = tracing.Tracer()
        tracer.install()
        layer, spans, total_calls = [], [], {}
        traced_walls, outputs = [], None
        start = time.perf_counter()
        while True:
            tracer.reset()
            w, _, outputs, _, f = _passes(ops, 0.0, unexpected)
            traced_walls += w
            failed += f
            summary, calls = tracer.summary()
            layer.append(summary)
            spans.append([s[:4] for s in tracer.spans])
            for k, v in calls.items():
                total_calls[k] = total_calls.get(k, 0) + v
            if time.perf_counter() - start >= args.seconds / 2.0:
                break
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "passes": spans}, fh)
        missing = [p for p, loads in tracing.EXERCISED_BY.items()
                   if args.workload in loads and total_calls[p] == 0]
        if missing:
            sys.exit(f"traced run recorded no calls to {', '.join(missing)} on "
                     f"{args.workload}, which exercises them: a wrapper was bypassed")
        result.update(untraced_walls=walls, walls=traced_walls, layer=layer, calls=total_calls)
        passes = len(walls) + len(traced_walls)
    else:
        walls, slowest, outputs, op_times, failed = _passes(ops, args.seconds, unexpected)
        result.update(walls=walls, slowest=slowest, op_times=op_times,
                      rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        passes = len(walls)

    # Checks run after the timed passes, on the last pass's outputs.  An
    # operation outside the known faults that failed in any pass makes the
    # run incorrect: its skipped work must not pass for a speed-up.
    checks = reference.Checks()
    for msg in reference.self_test():
        checks.failures.append("reference self-test: " + msg)
    for name, why in unexpected.items():
        print(f"operation failed outside the known faults: {name}: {why}", file=sys.stderr)
        checks.failures.append(f"unexpected failure {name}: {why}")
    failed_ops = {}
    for op, out in zip(ops, outputs):
        why = _failure(out)
        if why is None:
            op.check(out, checks)
        else:
            failed_ops[op.name] = {"reason": why, "known_fault": op.fault}
    result.update(passes=passes, attempted=passes * len(ops),
                  failed=failed, failed_ops=failed_ops,
                  checks=checks.count, check_failures=checks.failures,
                  worst_check=checks.worst)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
