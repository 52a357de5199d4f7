"""Command-line front end: parameter sweeps, figure-data reproduction,
oracle cross-checks, and CSV/JSON output.

Exit codes: 0 success, 1 configuration error, 2 solver error, 3 an
oracle-check difference exceeded its tolerance.  No environment variable
is consulted.  Output is data only; plotting belongs to external tools.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import homogeneous, single_defect, strong_defect
from .errors import ConfigError, DefectChainError, DegeneracyAmbiguity
from .lattice import LatticeSpec, site_index
from .multi_defect import build_two_defect_system, two_defect_occupation_series
from .oracle import (BarrierWalkSpec, SpectralDecomposition, barrier_walk_steady,
                     build_hamiltonian, occupation_exact, time_average_exact)
from .single_defect import DefectSpec, build_defect_system

ORACLE_MAX_N = 128
COLUMNS = ("observable", "N", "gamma", "q", "nd", "n0", "n", "t", "value", "provenance")
SCHEMA_VERSION = 1


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


@dataclass
class ResultTable:
    """Column-oriented records with fixed key order for reproducible output."""

    records: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, observable, value, provenance="analytic", **coords):
        rec = {c: None for c in COLUMNS}
        rec["observable"] = observable
        rec["value"] = float(value)
        rec["provenance"] = provenance
        for k, v in coords.items():
            if k not in rec:
                raise KeyError(f"unknown column {k}")
            rec[k] = v
        self.records.append(rec)

    def extend(self, other: "ResultTable"):
        self.records.extend(other.records)

    def write_csv(self, fh):
        fh.write(",".join(COLUMNS) + "\n")
        for rec in self.records:
            fh.write(",".join(_fmt(rec[c]) for c in COLUMNS) + "\n")

    def write_json(self, fh):
        payload = {"schema_version": SCHEMA_VERSION, "meta": self.meta,
                   "records": self.records}
        json.dump(payload, fh, indent=1, default=float)
        fh.write("\n")

    def write(self, path: str | None, fmt: str):
        if path is None:
            self.write_csv(sys.stdout) if fmt == "csv" else self.write_json(sys.stdout)
            return
        with open(path, "w", newline="\n") as fh:
            self.write_csv(fh) if fmt == "csv" else self.write_json(fh)

    def max_abs_diff(self) -> float:
        worst = 0.0
        for rec in self.records:
            if rec["provenance"] == "abs_diff":
                worst = max(worst, abs(rec["value"]))
        return worst


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError, and reads a negative number in exponent form
    (--q -1e-12) as a value where argparse would take it for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ConfigError(message)


def _parse_qlog(text: str) -> list[float]:
    try:
        lo, hi, count = text.split(":")
        return list(np.geomspace(float(lo), float(hi), int(count)))
    except ValueError as exc:
        raise ConfigError(f"--q-log expects min:max:count, got {text!r}", "q-log") from exc


def _load_config(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line {line!r}", "config")
                key, val = (s.strip() for s in line.split("=", 1))
                values[key.replace("-", "_")] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}", "config") from exc
    if values.get("schema_version") != str(SCHEMA_VERSION):
        raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}", "schema_version")
    return values


def build_parser() -> _Parser:
    p = _Parser(prog="defectchain",
                description="Exact defect dynamics on a periodic tight-binding chain.")
    sub = p.add_subparsers(dest="mode", required=True)

    def common(sp, need_defect=False):
        sp.add_argument("--config", help="key = value file supplying defaults")
        sp.add_argument("--N", type=int, help="chain size")
        sp.add_argument("--gamma", type=float, default=None, help="hopping strength (default 1)")
        sp.add_argument("--n0", type=int, default=None, help="initial site (default 0)")
        sp.add_argument("--out", help="output path (stdout when omitted)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--tolerance", type=float, default=1e-8,
                        help="oracle-check failure threshold")
        sp.add_argument("--tmax", type=float, default=None)
        sp.add_argument("--tsteps", type=int, default=None)
        if need_defect:
            sp.add_argument("--nd", type=int, action="append",
                            help="defect site (repeat for several defects)")
            sp.add_argument("--q", type=float, action="append",
                            help="defect strength (repeatable for sweeps)")
            sp.add_argument("--q-log", dest="q_log",
                            help="geometric strength sweep min:max:count")
        return sp

    common(sub.add_parser("free", help="defect-free moments and spreading"))
    common(sub.add_parser("single", help="one defect: steady profiles and moments"), True)
    common(sub.add_parser("infq", help="infinite-strength defect limit"), True)
    common(sub.add_parser("two", help="two or more defects: time-resolved occupation"), True)
    common(sub.add_parser("oracle-check", help="analytic vs dense diagonalization"), True)
    cl = common(sub.add_parser("classical", help="permeable-barrier walk baseline"))
    cl.add_argument("--F", type=float, default=None, help="bulk hop rate (default 1)")
    cl.add_argument("--f", type=float, action="append", help="barrier rate (repeatable)")
    cl.add_argument("--r", type=int, default=0, help="barrier bond index")
    fig = common(sub.add_parser("figure", help="reproduce a figure panel's data"))
    fig.add_argument("--panel", required=True,
                     choices=("fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b"))
    return p


def _apply_config(args):
    if getattr(args, "config", None):
        conf = _load_config(args.config)
        casts = {"N": int, "gamma": float, "n0": int, "tmax": float, "tsteps": int,
                 "tolerance": float, "F": float, "r": int,
                 "out": str, "format": str, "panel": str}
        for key, raw in conf.items():
            if key == "schema_version":
                continue
            if key in ("q", "f"):
                vals = [float(v) for v in raw.split(",")]
                if getattr(args, key, None) is None:
                    setattr(args, key, vals)
            elif key == "nd":
                if getattr(args, "nd", None) is None:
                    args.nd = [int(v) for v in raw.split(",")]
            elif key in casts:
                if getattr(args, key, None) is None:
                    setattr(args, key, casts[key](raw))
            elif key == "q_log":
                if getattr(args, "q_log", None) is None:
                    args.q_log = raw
            else:
                raise ConfigError(f"unknown config key {key!r}", key)
    return args


def _lattice(args) -> LatticeSpec:
    if args.N is None:
        raise ConfigError("--N is required", "N")
    gamma = 1.0 if args.gamma is None else args.gamma
    n0 = 0 if args.n0 is None else args.n0
    try:
        return LatticeSpec(args.N, gamma, n0)
    except ValueError as exc:
        raise ConfigError(str(exc), "N/gamma/n0") from exc


def _q_values(args) -> list[float]:
    qs = list(args.q or [])
    if getattr(args, "q_log", None):
        qs.extend(_parse_qlog(args.q_log))
    if not qs:
        raise ConfigError("at least one --q (or --q-log) is required", "q")
    return qs


def _single_site(args) -> int:
    if not args.nd or len(args.nd) != 1:
        raise ConfigError("exactly one --nd is required here", "nd")
    return args.nd[0]


def _time_grid(args, spec, default_steps=257):
    tmax = args.tmax if args.tmax is not None else 4.0 * spec.N / spec.gamma
    steps = args.tsteps if args.tsteps is not None else default_steps
    if tmax <= 0 or steps < 2:
        raise ConfigError("need tmax > 0 and tsteps >= 2", "tmax/tsteps")
    return np.linspace(0.0, tmax, steps)


def _notice(msg: str):
    print(msg, file=sys.stderr)


# -- mode implementations ----------------------------------------------------

def run_free(args) -> ResultTable:
    spec = _lattice(args)
    times = _time_grid(args, spec)
    table = ResultTable(meta={"mode": "free", "N": spec.N, "gamma": spec.gamma, "n0": spec.n0})
    for p in (1, 2):
        vals = homogeneous.moment_series(p, times, spec)
        name = "mean_displacement" if p == 1 else "msd"
        for t, v in zip(times, vals):
            table.add(name, v, N=spec.N, gamma=spec.gamma, n0=spec.n0, t=float(t))
        table.add(name + "_steady", homogeneous.steady_moment(p, spec),
                  N=spec.N, gamma=spec.gamma, n0=spec.n0)
    table.add("ballistic_coefficient", homogeneous.fit_ballistic(spec),
              N=spec.N, gamma=spec.gamma, n0=spec.n0)
    table.add("tstar", homogeneous.estimate_tstar(spec),
              N=spec.N, gamma=spec.gamma, n0=spec.n0)
    if spec.N <= ORACLE_MAX_N:
        dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec))
        d2 = homogeneous.distance_powers(spec, 2)
        for t in times[:: max(1, times.size // 16)]:
            v = float(d2 @ occupation_exact(dec, spec.n0, float(t)))
            table.add("msd", v, provenance="oracle",
                      N=spec.N, gamma=spec.gamma, n0=spec.n0, t=float(t))
    else:
        _notice(f"N={spec.N} > {ORACLE_MAX_N}: oracle columns skipped")
    return table


def _single_point(spec, nd, q, with_oracle, tolerance):
    sysq = build_defect_system(spec, DefectSpec(nd, q))
    prof = single_defect.steady_occupation(sysq).values
    out = []
    for n, v in enumerate(prof):
        out.append(("steady_occupation", q, n, None, v, "analytic"))
    out.append(("steady_at_defect", q, nd, None, float(prof[site_index(nd, spec.N)]), "analytic"))
    out.append(("steady_at_start", q, spec.n0, None, float(prof[spec.n0]), "analytic"))
    for p in (1, 2):
        name = "mean_displacement_steady" if p == 1 else "msd_steady"
        out.append((name, q, None, None, single_defect.steady_moment_defect(sysq, p), "analytic"))
    if with_oracle:
        try:
            dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec, [(nd, q)]))
        except DegeneracyAmbiguity as exc:
            # the oracle cannot class the levels split by the defect; the
            # analytic rows do not depend on it
            _notice(f"q={q}: oracle columns skipped ({type(exc).__name__})")
            return out
        oprof = time_average_exact(dec, spec.n0)
        for n, v in enumerate(oprof):
            out.append(("steady_occupation", q, n, None, float(v), "oracle"))
            out.append(("steady_occupation", q, n, None, float(abs(v - prof[n])), "abs_diff"))
    return out


def run_single(args) -> ResultTable:
    spec = _lattice(args)
    nd = site_index(_single_site(args), spec.N)
    qs = _q_values(args)
    with_oracle = spec.N <= ORACLE_MAX_N
    if not with_oracle:
        _notice(f"N={spec.N} > {ORACLE_MAX_N}: oracle columns skipped")
    table = ResultTable(meta={"mode": "single", "N": spec.N, "gamma": spec.gamma,
                              "n0": spec.n0, "nd": nd})
    for q in qs:
        for obs, qv, n, t, v, prov in _single_point(spec, nd, q, with_oracle, args.tolerance):
            table.add(obs, v, provenance=prov, N=spec.N, gamma=spec.gamma,
                      q=float(qv), nd=nd, n0=spec.n0, n=n, t=t)
    return table


def run_infq(args) -> ResultTable:
    spec = _lattice(args)
    nd = site_index(_single_site(args), spec.N)
    table = ResultTable(meta={"mode": "infq", "N": spec.N, "gamma": spec.gamma,
                              "n0": spec.n0, "nd": nd})
    prof = strong_defect.steady_profile_infinite_q(spec, nd)
    for n, v in enumerate(prof.values):
        table.add("steady_occupation_infq", v, N=spec.N, gamma=spec.gamma,
                  nd=nd, n0=spec.n0, n=n)
    if prof.mirror_collision:
        _notice("mirror site coincides with n0 or nd (collision geometry)")
    for p in (1, 2):
        name = "mean_displacement_steady_infq" if p == 1 else "msd_steady_infq"
        value = float(homogeneous.distance_powers(spec, p) @ prof.values)
        table.add(name, value, N=spec.N, gamma=spec.gamma, nd=nd, n0=spec.n0)
    return table


def run_two(args) -> ResultTable:
    spec = _lattice(args)
    if not args.nd or len(args.nd) < 2:
        raise ConfigError("at least two --nd sites are required", "nd")
    qs = args.q or []
    if len(qs) != len(args.nd):
        raise ConfigError(f"one --q per --nd is required ({len(args.nd)} sites, "
                          f"{len(qs)} strengths)", "q")
    defects = [DefectSpec(nd, q) for nd, q in zip(args.nd, qs)]
    system = build_two_defect_system(defects, spec)
    times = _time_grid(args, spec, default_steps=65)
    with_oracle = spec.N <= ORACLE_MAX_N
    if not with_oracle:
        _notice(f"N={spec.N} > {ORACLE_MAX_N}: oracle columns skipped")
    dec = None
    if with_oracle:
        dec = SpectralDecomposition.from_hamiltonian(
            build_hamiltonian(spec, [(d.nd, d.q) for d in defects]))
    table = ResultTable(meta={"mode": "two", "N": spec.N, "gamma": spec.gamma,
                              "n0": spec.n0, "nd": list(args.nd), "q": qs})
    for t, P in zip(times, two_defect_occupation_series(system, times)):
        for n, v in enumerate(P):
            table.add("occupation", v, N=spec.N, gamma=spec.gamma, n0=spec.n0,
                      n=n, t=float(t))
        if dec is not None:
            Po = occupation_exact(dec, spec.n0, float(t))
            table.add("occupation_max_abs_diff", float(np.max(np.abs(P - Po))),
                      provenance="abs_diff", N=spec.N, gamma=spec.gamma,
                      n0=spec.n0, t=float(t))
    return table


def run_oracle_check(args) -> ResultTable:
    spec = _lattice(args)
    if spec.N > ORACLE_MAX_N:
        raise ConfigError(f"oracle-check needs N <= {ORACLE_MAX_N}", "N")
    if not args.nd:
        raise ConfigError("--nd is required", "nd")
    qs = _q_values(args)
    table = ResultTable(meta={"mode": "oracle-check", "N": spec.N, "gamma": spec.gamma,
                              "n0": spec.n0, "nd": list(args.nd), "tolerance": args.tolerance})
    times = _time_grid(args, spec, default_steps=17)[1:]
    for q in qs:
        if len(args.nd) == 1:
            nd = site_index(args.nd[0], spec.N)
            sysq = build_defect_system(spec, DefectSpec(nd, q), validate=True)
            dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec, [(nd, q)]))
            prof = single_defect.steady_occupation(sysq).values
            oprof = time_average_exact(dec, spec.n0)
            table.add("steady_max_abs_diff", float(np.max(np.abs(prof - oprof))),
                      provenance="abs_diff", N=spec.N, gamma=spec.gamma, q=q,
                      nd=nd, n0=spec.n0)
            for t, P in zip(times, single_defect.occupation_defect_series(sysq, times)):
                Po = occupation_exact(dec, spec.n0, float(t))
                table.add("occupation_max_abs_diff", float(np.max(np.abs(P - Po))),
                          provenance="abs_diff", N=spec.N, gamma=spec.gamma, q=q,
                          nd=nd, n0=spec.n0, t=float(t))
        else:
            if len(args.nd) != 2:
                raise ConfigError("oracle-check supports one or two --nd sites", "nd")
            defects = [DefectSpec(args.nd[0], q), DefectSpec(args.nd[1], q)]
            system = build_two_defect_system(defects, spec)
            dec = SpectralDecomposition.from_hamiltonian(
                build_hamiltonian(spec, [(d.nd, d.q) for d in defects]))
            for t, P in zip(times, two_defect_occupation_series(system, times)):
                Po = occupation_exact(dec, spec.n0, float(t))
                table.add("occupation_max_abs_diff", float(np.max(np.abs(P - Po))),
                          provenance="abs_diff", N=spec.N, gamma=spec.gamma, q=q,
                          n0=spec.n0, t=float(t))
    return table


def run_classical(args) -> ResultTable:
    if args.N is None:
        raise ConfigError("--N is required", "N")
    F = 1.0 if getattr(args, "F", None) is None else args.F
    fs = args.f or [0.5 * F]
    n0 = 0 if args.n0 is None else args.n0
    table = ResultTable(meta={"mode": "classical", "N": args.N, "F": F, "r": args.r, "n0": n0})
    for f in fs:
        try:
            bspec = BarrierWalkSpec(args.N, F, f, args.r, n0)
        except ValueError as exc:
            raise ConfigError(str(exc), "f/F") from exc
        res = barrier_walk_steady(bspec)
        table.add("msd_steady_time_integrated", res.msd_time_integrated,
                  N=args.N, gamma=F, q=f, n0=n0)
        table.add("msd_steady_laplace", res.msd_laplace,
                  provenance="analytic", N=args.N, gamma=F, q=f, n0=n0)
        for n, v in enumerate(res.profile):
            table.add("steady_occupation", float(v), N=args.N, gamma=F, q=f, n0=n0, n=n)
    return table


# -- figure bundles ----------------------------------------------------------

def _figure_fig1(args) -> ResultTable:
    table = ResultTable(meta={"mode": "figure", "panel": "fig1"})
    for N, n0 in ((150, 75), (200, 100)):
        spec = LatticeSpec(N, 1.0, n0)
        times = np.linspace(0.0, 2.0 * N, 1025)
        vals = homogeneous.moment_series(2, times, spec)
        for t, v in zip(times, vals):
            table.add("msd", v, N=N, gamma=1.0, n0=n0, t=float(t))
        table.add("msd_steady", homogeneous.steady_moment(2, spec), N=N, gamma=1.0, n0=n0)
    Ns = (50, 100, 150, 200, 300, 400)
    slope, intercept, r2, tstars = homogeneous.fit_tstar_scaling(Ns, 1.0)
    for N, ts in zip(Ns, tstars):
        table.add("tstar", float(ts), N=N, gamma=1.0)
    table.add("tstar_fit_slope", slope)
    table.add("tstar_fit_intercept", intercept)
    table.add("tstar_fit_r2", r2)
    return table


def _figure_fig2(panel: str) -> ResultTable:
    nd = 2 if panel == "fig2a" else 4
    spec = LatticeSpec(50, 1.0, 2)
    table = ResultTable(meta={"mode": "figure", "panel": panel, "N": 50, "n0": 2, "nd": nd})
    for q in (0.3, 0.5, 1.5, 10.0, 20.0):
        sysq = build_defect_system(spec, DefectSpec(nd, q))
        prof = single_defect.steady_occupation(sysq).values
        dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec, [(nd, q)]))
        oprof = time_average_exact(dec, spec.n0)
        for n in range(spec.N):
            table.add("steady_occupation", prof[n], N=50, gamma=1.0, q=q, nd=nd, n0=2, n=n)
            table.add("steady_occupation", float(oprof[n]), provenance="oracle",
                      N=50, gamma=1.0, q=q, nd=nd, n0=2, n=n)
            table.add("steady_occupation", float(abs(prof[n] - oprof[n])),
                      provenance="abs_diff", N=50, gamma=1.0, q=q, nd=nd, n0=2, n=n)
    for q in np.geomspace(0.05, 50.0, 40):
        sysq = build_defect_system(spec, DefectSpec(nd, float(q)))
        prof = single_defect.steady_occupation(sysq).values
        table.add("steady_at_defect", float(prof[nd]), N=50, gamma=1.0, q=float(q), nd=nd, n0=2)
        table.add("steady_at_start", float(prof[2]), N=50, gamma=1.0, q=float(q), nd=nd, n0=2)
    if panel == "fig2b":
        limit = strong_defect.steady_profile_infinite_q(spec, nd).values
        table.add("steady_at_defect_infq", float(limit[nd]), N=50, gamma=1.0, nd=nd, n0=2)
        table.add("steady_at_start_infq", float(limit[2]), N=50, gamma=1.0, nd=nd, n0=2)
    return table


def _figure_fig3(panel: str) -> ResultTable:
    p = 1 if panel == "fig3a" else 2
    name = "mean_displacement_steady" if p == 1 else "msd_steady"
    table = ResultTable(meta={"mode": "figure", "panel": panel, "N": 200, "n0": 2})
    qs = list(np.geomspace(0.01, 100.0, 41))

    spec = LatticeSpec(200, 1.0, 2)
    for nd in (2, 3, 4, 5, 6):
        for q in qs:
            sysq = build_defect_system(spec, DefectSpec(nd, q))
            table.add(name, single_defect.steady_moment_defect(sysq, p),
                      N=200, gamma=1.0, q=float(q), nd=nd, n0=2)
    if panel == "fig3b":
        table.add("msd_steady_infq", strong_defect.steady_moments_infinite_q(2, spec),
                  N=200, gamma=1.0, nd=4, n0=2)
    return table


def _figure_fig4(panel: str) -> ResultTable:
    if panel == "fig4a":
        N, nd, n0s = 50, 25, (22, 15)
    else:
        N, nd, n0s = 55, 25, (30, 40)
    table = ResultTable(meta={"mode": "figure", "panel": panel, "N": N, "nd": nd})
    for n0 in n0s:
        spec = LatticeSpec(N, 1.0, n0)
        prof = strong_defect.steady_profile_infinite_q(spec, nd)
        for n, v in enumerate(prof.values):
            table.add("steady_occupation_infq", v, N=N, gamma=1.0, nd=nd, n0=n0, n=n)
    return table


def run_figure(args) -> ResultTable:
    panel = args.panel
    if panel == "fig1":
        return _figure_fig1(args)
    if panel in ("fig2a", "fig2b"):
        return _figure_fig2(panel)
    if panel in ("fig3a", "fig3b"):
        return _figure_fig3(panel)
    return _figure_fig4(panel)


_RUNNERS = {"free": run_free, "single": run_single, "infq": run_infq, "two": run_two,
            "oracle-check": run_oracle_check, "classical": run_classical,
            "figure": run_figure}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args)
        table = _RUNNERS[args.mode](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DefectChainError as exc:
        print(f"solver error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2

    out = args.out
    if args.mode == "figure" and out is not None:
        ext = "csv" if args.format == "csv" else "json"
        out = f"{out}_{args.panel}.{ext}"
    table.write(out, args.format)

    if args.mode == "oracle-check" and table.max_abs_diff() > args.tolerance:
        print(f"oracle-check: max difference {table.max_abs_diff():.3e} exceeds "
              f"tolerance {args.tolerance:.3e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
