"""defectchain benchmark: one workload per call, each in a fresh process.

    python3 bench/run.py --workload steady_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A results file with the samples, quartiles and machine details is written
under bench/results/.  `--self-test` checks the dense references against
the paper's closed forms and exits.

Apart from the self-test, this file uses the standard library only; numpy
and defectchain are imported in the worker processes it starts.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("paper_figures", "steady_sweep", "time_series")
SETUP_SAMPLES = 5          # fresh processes timed for setup_s, after one warm one
DEADLINE_S = 170.0         # the whole call must end well inside 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("DEFECTCHAIN_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args, env, timeout) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.exit(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(samples, unit) -> dict:
    samples = [float(s) for s in samples]
    if len(samples) >= 2:
        q1, med, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = med = q3 = samples[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples), "unit": unit}


def _revision():
    """The commit of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    start = time.monotonic()

    if not (ROOT / "src" / "defectchain" / "__init__.py").is_file():
        sys.exit(f"no defectchain sources under {ROOT / 'src'}")
    if args.self_test:
        import reference
        failures = reference.self_test()
        print("\n".join(failures) or "self-test passed")
        sys.exit(1 if failures else 0)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    env = _env()

    def left():
        return DEADLINE_S - (time.monotonic() - start)

    setup = []
    if not args.trace:
        for i in range(SETUP_SAMPLES + 1):
            probe = _worker(["--probe"], env, left())
            if i:                       # the first one may still be writing bytecode
                setup.append(probe["setup_s"])

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    with tempfile.TemporaryDirectory(dir=results) as workdir:
        res = _worker(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--workdir", workdir, "--spans", str(results / f"{stamp}-spans.json")],
                      env, left())

    if args.trace:
        traced = statistics.median(res["walls"])
        untraced = statistics.median(res["untraced_walls"])
        stats = {}
        for name in res["layer"][0]:
            unit = "s" if name.endswith(".s") else "count"
            stats[name] = _stats([layer[name] for layer in res["layer"]], unit)
        stats["trace.overhead_s"] = {"median": traced - untraced, "traced_wall_s": traced,
                                     "untraced_wall_s": untraced, "unit": "s"}
    else:
        stats = {"setup_s": _stats(setup, "s"),
                 "wall_s": _stats(res["walls"], "s"),
                 "slowest_op_s": _stats(res["slowest"], "s"),
                 "peak_rss_mb": _stats([res["rss_mb"]], "MiB")}

    expected = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in expected["per_layer" if args.trace else "end_to_end"]]
    if sorted(names) != sorted(stats):
        sys.exit(f"metrics {sorted(stats)} do not match BENCHMARK.json {sorted(names)}")

    correct = not res["check_failures"]
    for msg in res["check_failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "revision": _revision(),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                    "cpu": _cpu(), **res["versions"]},
        "threads": {**{var: env[var] for var in THREAD_VARS},
                    "DEFECTCHAIN_THREADS": "unset"},
        "passes": res["passes"], "attempted": res["attempted"], "failed": res["failed"],
        "failed_ops": res["failed_ops"], "correct": correct, "checks": res["checks"],
        "check_failures": res["check_failures"],
        "worst_check": {"error_over_allowance": res["worst_check"][0], "where": res["worst_check"][1]},
        "metrics": stats,
    }
    if not args.trace:
        record["op_median_s"] = {k: statistics.median(v) for k, v in res["op_times"].items()}
    (results / f"{stamp}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": {k: {"value": v["median"], "unit": v["unit"]}
                                  for k, v in stats.items()}}))


if __name__ == "__main__":
    main()
