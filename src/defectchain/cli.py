"""Command-line front end: parameter sweeps, figure-data reproduction,
oracle cross-checks (any number of defect sites), and CSV/JSON output.
Each run builds one dense reference per system (`_reference`).

Each subcommand takes --config, --out, --format and the flags its run
reads (`_MODES`).  A config file's `key = value` lines become its flags,
placed before the command line's own, which win; a repeatable flag given
on the command line replaces the file's comma-separated list.

Exit codes: 0 success, 1 configuration error (an --out that cannot be
written included), 2 solver error, 3 an oracle-check difference exceeded
its tolerance.  When the reader closes stdout early (`| head`), output
stops quietly and the exit code stays the one the run would have had: 0,
or 3 for an oracle-check over tolerance.  No environment variable is
consulted.  Output is data only; plotting belongs to external tools.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import json
import os
import re
import sys

import numpy as np

from . import homogeneous, single_defect, strong_defect
from .errors import ConfigError, DefectChainError
from .lattice import LatticeSpec, site_index
from .multi_defect import build_two_defect_system
from .oracle import (BarrierWalkSpec, SpectralDecomposition, barrier_walk_steady,
                     build_hamiltonian, check_defect_roots, defect_decomposition,
                     occupation_exact, time_average_exact)
from .single_defect import DefectSpec, build_defect_system

ORACLE_MAX_N = 128
COLUMNS = ("observable", "N", "gamma", "q", "nd", "n0", "n", "t", "value", "provenance")
SCHEMA_VERSION = 1


class ResultTable:
    """Records as tuples in COLUMNS order; `fixed` holds the coordinates
    shared by every row, which `add` may override.  Coordinates are ints,
    Python floats or None, so CSV fields are their str()."""

    def __init__(self, meta: dict, **fixed):
        self.meta = meta
        self.fixed = fixed
        self.records: list[tuple] = []

    def add(self, observable, value, provenance="analytic", **coords):
        c = {**self.fixed, **coords}
        self.records.append((observable, *map(c.get, COLUMNS[1:8]), float(value), provenance))

    def extend(self, observable, column, keys, values, provenance="analytic", **coords):
        """One record per (key, value), in order, the key in `column`; the
        records `add` would make one by one."""
        c = {**self.fixed, **coords}
        i = COLUMNS.index(column)
        head, tail = tuple(map(c.get, COLUMNS[1:i])), tuple(map(c.get, COLUMNS[i + 1:8]))
        self.records.extend([(observable, *head, k, *tail, v, provenance)
                             for k, v in zip(keys, np.asarray(values, dtype=float).tolist())])

    def write(self, path: str | None, fmt: str):
        with (contextlib.nullcontext(sys.stdout) if path is None
              else open(path, "w", newline="\n")) as fh:
            if fmt == "csv":
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(COLUMNS)
                writer.writerows(self.records)
                return
            payload = {"schema_version": SCHEMA_VERSION, "meta": self.meta,
                       "records": [dict(zip(COLUMNS, rec)) for rec in self.records]}
            json.dump(payload, fh, indent=1, default=float)
            fh.write("\n")

    def max_abs_diff(self) -> float:
        return max((abs(rec[8]) for rec in self.records if rec[9] == "abs_diff"), default=0.0)


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError, and reads a negative number in exponent form
    (--q -1e-12), -inf or -nan as a value where argparse would take it for
    an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")

    def error(self, message):
        raise ConfigError(message)


def _parse_qlog(text: str) -> list[float]:
    try:
        lo, hi, count = text.split(":")
        lo, hi = float(lo), float(hi)
        if np.isinf(lo) or np.isinf(hi):
            raise ValueError("infinite bound")
        return list(np.geomspace(lo, hi, int(count)))
    except ValueError as exc:
        raise ConfigError(f"--q-log expects min:max:count, got {text!r}") from exc


def _config_flags(path: str, mode: str) -> list[str]:
    """The config file's `key = value` lines as `--key=value` flags of `mode`."""
    values = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line {line!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                values[key.replace("-", "_")] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if values.pop("schema_version", None) != str(SCHEMA_VERSION):
        raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}")
    flags = []
    for key, raw in values.items():
        name = key.replace("_", "-")
        if name not in ("out", "format", *_MODES[mode][2].split()):
            raise ConfigError(f"unknown config key {key!r}")
        items = raw.split(",") if name in _REPEATABLE else [raw]
        flags += [f"--{name}={v.strip()}" for v in items]
    return flags


def _lattice(args) -> LatticeSpec:
    try:
        return LatticeSpec(args.N, args.gamma, args.n0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _q_values(args) -> list[float]:
    qs = list(args.q or [])
    if getattr(args, "q_log", None):
        qs.extend(_parse_qlog(args.q_log))
    if not qs:
        raise ConfigError("at least one --q (or --q-log) is required")
    return qs


def _defect(nd, q, spec) -> DefectSpec:
    """DefectSpec(nd, q), a strength it rejects, or whose q / 2 gamma on
    `spec` overflows, reported as a configuration error."""
    try:
        defect = DefectSpec(nd, q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not np.isfinite(q / (2.0 * spec.gamma)):
        raise ConfigError(f"q must be finite in units of 2 gamma, got {q} / {2.0 * spec.gamma}")
    return defect


def _single_site(args) -> int:
    if not args.nd or len(args.nd) != 1:
        raise ConfigError("exactly one --nd is required here")
    return args.nd[0]


def _time_grid(args, spec, default_steps=257, qs=()):
    tmax = args.tmax if args.tmax is not None else 4.0 * spec.N / spec.gamma
    steps = args.tsteps if args.tsteps is not None else default_steps
    if not (np.isfinite(tmax) and tmax > 0) or steps < 2:
        raise ConfigError("need a finite tmax > 0 and tsteps >= 2")
    if not np.isfinite((2.0 * spec.gamma + max(map(abs, qs), default=0.0)) * tmax):
        raise ConfigError(f"tmax {tmax} overflows the phase (2 gamma + max|q|) tmax")
    return np.linspace(0.0, tmax, steps)


def _with_oracle(spec) -> bool:
    if spec.N <= ORACLE_MAX_N:
        return True
    print(f"N={spec.N} > {ORACLE_MAX_N}: oracle columns skipped", file=sys.stderr)
    return False


def _reference(spec, defects=()) -> SpectralDecomposition:
    """The dense reference: the parity split for one defect, the full ring otherwise."""
    if len(defects) == 1:
        return defect_decomposition(spec, defects[0].nd, defects[0].q)
    return SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec, [(d.nd, d.q) for d in defects]))


# -- mode implementations ----------------------------------------------------

def run_free(args) -> ResultTable:
    spec = _lattice(args)
    times = _time_grid(args, spec)
    coords = {"N": spec.N, "gamma": spec.gamma, "n0": spec.n0}
    table = ResultTable({"mode": "free", **coords}, **coords)
    for p, name in ((1, "mean_displacement"), (2, "msd")):
        table.extend(name, "t", times.tolist(), homogeneous.moment_series(p, times, spec))
        table.add(name + "_steady", homogeneous.steady_moment(p, spec))
    table.add("ballistic_coefficient", homogeneous.fit_ballistic(spec))
    table.add("tstar", homogeneous.estimate_tstar(spec))
    if _with_oracle(spec):
        dec = _reference(spec)
        d2 = homogeneous.distance_powers(spec, 2)
        for t in times[:: max(1, times.size // 16)]:
            table.add("msd", d2 @ occupation_exact(dec, spec.n0, float(t)),
                      provenance="oracle", t=float(t))
    return table


def run_single(args) -> ResultTable:
    spec = _lattice(args)
    nd = site_index(_single_site(args), spec.N)
    qs = [float(_defect(nd, q, spec).q) for q in _q_values(args)]
    with_oracle = _with_oracle(spec)
    coords = {"N": spec.N, "gamma": spec.gamma, "n0": spec.n0, "nd": nd}
    table = ResultTable({"mode": "single", **coords}, **coords)
    for q, (sysq,) in zip(qs, single_defect.defect_systems(spec, [nd], qs)):
        prof = single_defect.steady_occupation(sysq).values
        table.extend("steady_occupation", "n", range(spec.N), prof, q=q)
        table.add("steady_at_defect", prof[nd], q=q, n=nd)
        table.add("steady_at_start", prof[spec.n0], q=q, n=spec.n0)
        for p, name in ((1, "mean_displacement_steady"), (2, "msd_steady")):
            table.add(name, single_defect.steady_moment_defect(sysq, p), q=q)
        if not with_oracle:
            continue
        oprof = time_average_exact(_reference(spec, [DefectSpec(nd, q)]), spec.n0)
        for n, v in enumerate(oprof):
            table.add("steady_occupation", v, provenance="oracle", q=q, n=n)
            table.add("steady_occupation", abs(v - prof[n]), provenance="abs_diff", q=q, n=n)
    return table


def run_infq(args) -> ResultTable:
    spec = _lattice(args)
    nd = site_index(_single_site(args), spec.N)
    coords = {"N": spec.N, "gamma": spec.gamma, "n0": spec.n0, "nd": nd}
    table = ResultTable({"mode": "infq", **coords}, **coords)
    prof = strong_defect.steady_profile_infinite_q(spec, nd)
    table.extend("steady_occupation_infq", "n", range(spec.N), prof.values)
    if prof.mirror_collision:
        print("mirror site coincides with n0 or nd (collision geometry)", file=sys.stderr)
    for p, name in ((1, "mean_displacement_steady_infq"), (2, "msd_steady_infq")):
        table.add(name, homogeneous.distance_powers(spec, p) @ prof.values)
    return table


def run_two(args) -> ResultTable:
    spec = _lattice(args)
    if not args.nd or len(args.nd) < 2:
        raise ConfigError("at least two --nd sites are required")
    qs = args.q or []
    if len(qs) != len(args.nd):
        raise ConfigError(f"one --q per --nd is required ({len(args.nd)} sites, "
                          f"{len(qs)} strengths)")
    defects = [_defect(nd, q, spec) for nd, q in zip(args.nd, qs)]
    system = build_two_defect_system(defects, spec)
    times = _time_grid(args, spec, default_steps=65, qs=qs)
    dec = _reference(spec, defects) if _with_oracle(spec) else None
    coords = {"N": spec.N, "gamma": spec.gamma, "n0": spec.n0}
    table = ResultTable({"mode": "two", **coords, "nd": list(args.nd), "q": qs}, **coords)
    for t, P in zip(times, single_defect.occupation_defect_series(system, times)):
        t = float(t)
        table.extend("occupation", "n", range(spec.N), P, t=t)
        if dec is not None:
            Po = occupation_exact(dec, spec.n0, t)
            table.add("occupation_max_abs_diff", np.max(np.abs(P - Po)),
                      provenance="abs_diff", t=t)
    return table


def run_oracle_check(args) -> ResultTable:
    spec = _lattice(args)
    if spec.N > ORACLE_MAX_N:
        raise ConfigError(f"oracle-check needs N <= {ORACLE_MAX_N}")
    if not args.nd:
        raise ConfigError("--nd is required")
    if not (np.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ConfigError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    qs = [_defect(0, q, spec).q for q in _q_values(args)]
    coords = {"N": spec.N, "gamma": spec.gamma, "n0": spec.n0}
    table = ResultTable({"mode": "oracle-check", **coords, "nd": list(args.nd),
                         "tolerance": args.tolerance}, **coords)
    times = _time_grid(args, spec, default_steps=17, qs=qs)[1:]
    for q in qs:
        defects = [_defect(site_index(nd, spec.N), q, spec) for nd in args.nd]
        one = len(defects) == 1
        system = build_two_defect_system(defects, spec)
        dec = _reference(spec, defects)
        point = {"q": float(q), "nd": defects[0].nd if one else None}
        if one:
            check_defect_roots(system, dec)
            prof = single_defect.steady_occupation(system).values
            oprof = time_average_exact(dec, spec.n0)
            table.add("steady_max_abs_diff", np.max(np.abs(prof - oprof)),
                      provenance="abs_diff", **point)
        for t, P in zip(times, single_defect.occupation_defect_series(system, times)):
            Po = occupation_exact(dec, spec.n0, float(t))
            table.add("occupation_max_abs_diff", np.max(np.abs(P - Po)),
                      provenance="abs_diff", t=float(t), **point)
    return table


def run_classical(args) -> ResultTable:
    table = ResultTable({"mode": "classical", "N": args.N, "F": args.F, "r": args.r,
                         "n0": args.n0}, N=args.N, gamma=args.F, n0=args.n0)
    for f in args.f or [0.5 * args.F]:
        try:
            bspec = BarrierWalkSpec(args.N, args.F, f, args.r, args.n0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        res = barrier_walk_steady(bspec)
        table.add("msd_steady_time_integrated", res.msd_time_integrated, q=f)
        table.add("msd_steady_laplace", res.msd_laplace, q=f)
        table.extend("steady_occupation", "n", range(args.N), res.profile, q=f)
    return table


# -- figure bundles ----------------------------------------------------------

def _figure_fig1(panel: str) -> ResultTable:
    table = ResultTable({"mode": "figure", "panel": panel})
    for N, n0 in ((150, 75), (200, 100)):
        spec = LatticeSpec(N, 1.0, n0)
        times = np.linspace(0.0, 2.0 * N, 1025)
        table.extend("msd", "t", times.tolist(), homogeneous.moment_series(2, times, spec),
                     N=N, gamma=1.0, n0=n0)
        table.add("msd_steady", homogeneous.steady_moment(2, spec), N=N, gamma=1.0, n0=n0)
    Ns = (50, 100, 150, 200, 300, 400)
    slope, intercept, r2, tstars = homogeneous.fit_tstar_scaling(Ns, 1.0)
    for N, ts in zip(Ns, tstars):
        table.add("tstar", ts, N=N, gamma=1.0)
    table.add("tstar_fit_slope", slope)
    table.add("tstar_fit_intercept", intercept)
    table.add("tstar_fit_r2", r2)
    return table


def _figure_fig2(panel: str) -> ResultTable:
    nd = 2 if panel == "fig2a" else 4
    spec = LatticeSpec(50, 1.0, 2)
    table = ResultTable({"mode": "figure", "panel": panel, "N": 50, "n0": 2, "nd": nd},
                        N=50, gamma=1.0, nd=nd, n0=2)
    for q in (0.3, 0.5, 1.5, 10.0, 20.0):
        sysq = build_defect_system(spec, DefectSpec(nd, q))
        prof = single_defect.steady_occupation(sysq).values
        oprof = time_average_exact(_reference(spec, [DefectSpec(nd, q)]), spec.n0)
        for n in range(spec.N):
            table.add("steady_occupation", prof[n], q=q, n=n)
            table.add("steady_occupation", oprof[n], provenance="oracle", q=q, n=n)
            table.add("steady_occupation", abs(prof[n] - oprof[n]), provenance="abs_diff", q=q, n=n)
    qs = np.geomspace(0.05, 50.0, 40)
    for q, (sysq,) in zip(qs, single_defect.defect_systems(spec, [nd], qs)):
        prof = single_defect.steady_occupation(sysq).values
        table.add("steady_at_defect", prof[nd], q=float(q))
        table.add("steady_at_start", prof[2], q=float(q))
    if panel == "fig2b":
        limit = strong_defect.steady_profile_infinite_q(spec, nd).values
        table.add("steady_at_defect_infq", limit[nd])
        table.add("steady_at_start_infq", limit[2])
    return table


def _figure_fig3(panel: str) -> ResultTable:
    p = 1 if panel == "fig3a" else 2
    name = "mean_displacement_steady" if p == 1 else "msd_steady"
    table = ResultTable({"mode": "figure", "panel": panel, "N": 200, "n0": 2},
                        N=200, gamma=1.0, n0=2)
    qs, sites = np.geomspace(0.01, 100.0, 41), (2, 3, 4, 5, 6)
    spec = LatticeSpec(200, 1.0, 2)
    values = np.empty((len(sites), qs.size))
    for i, systems in enumerate(single_defect.defect_systems(spec, sites, qs)):
        values[:, i] = [single_defect.steady_moment_defect(sysq, p) for sysq in systems]
    for nd, row in zip(sites, values):
        table.extend(name, "q", qs.tolist(), row, nd=nd)
    if panel == "fig3b":
        table.add("msd_steady_infq", strong_defect.steady_moments_infinite_q(2, spec), nd=4)
    return table


def _figure_fig4(panel: str) -> ResultTable:
    N, nd, n0s = (50, 25, (22, 15)) if panel == "fig4a" else (55, 25, (30, 40))
    table = ResultTable({"mode": "figure", "panel": panel, "N": N, "nd": nd},
                        N=N, gamma=1.0, nd=nd)
    for n0 in n0s:
        prof = strong_defect.steady_profile_infinite_q(LatticeSpec(N, 1.0, n0), nd)
        table.extend("steady_occupation_infq", "n", range(N), prof.values, n0=n0)
    return table


_PANELS = {"fig1": _figure_fig1, "fig2a": _figure_fig2, "fig2b": _figure_fig2,
           "fig3a": _figure_fig3, "fig3b": _figure_fig3, "fig4a": _figure_fig4,
           "fig4b": _figure_fig4}


def run_figure(args) -> ResultTable:
    return _PANELS[args.panel](args.panel)


# -- command line ------------------------------------------------------------

def _check_writable(path: str) -> None:
    """ConfigError, before any solve, unless `path` can be opened for
    writing: its directory exists and is writable, and it is not itself a
    directory.  Nothing is created or truncated here, so a run that fails
    leaves an old output as it was."""
    folder = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif not os.access(folder, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


# every flag once; a subcommand takes `_COMMON` plus the flags its run reads
_FLAGS = {
    "config": dict(help="key = value file of this subcommand's flags (the command line wins)"),
    "out": dict(help="output path (stdout when omitted)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "N": dict(type=int, help="chain size"),
    "gamma": dict(type=float, default=1.0, help="hopping strength (default 1)"),
    "n0": dict(type=int, default=0, help="initial site (default 0)"),
    "nd": dict(type=int, action="append", help="defect site (repeat for several defects)"),
    "q": dict(type=float, action="append", help="defect strength (repeatable for sweeps)"),
    "q-log": dict(help="geometric strength sweep min:max:count"),
    "tmax": dict(type=float),
    "tsteps": dict(type=int),
    "tolerance": dict(type=float, default=1e-8, help="oracle-check failure threshold"),
    "F": dict(type=float, default=1.0, help="bulk hop rate (default 1)"),
    "f": dict(type=float, action="append", help="barrier rate (repeatable)"),
    "r": dict(type=int, default=0, help="barrier bond index"),
    "panel": dict(required=True, choices=tuple(_PANELS)),
}
_COMMON = ("config", "out", "format")
_REPEATABLE = tuple(name for name, kw in _FLAGS.items() if kw.get("action") == "append")

_MODES = {
    "free": (run_free, "defect-free moments and spreading", "N gamma n0 tmax tsteps"),
    "single": (run_single, "one defect: steady profiles and moments", "N gamma n0 nd q q-log"),
    "infq": (run_infq, "infinite-strength defect limit", "N gamma n0 nd"),
    "two": (run_two, "two or more defects: time-resolved occupation",
            "N gamma n0 nd q tmax tsteps"),
    "oracle-check": (run_oracle_check, "analytic vs dense diagonalization",
                     "N gamma n0 nd q q-log tmax tsteps tolerance"),
    "classical": (run_classical, "permeable-barrier walk baseline", "N n0 F f r"),
    "figure": (run_figure, "reproduce a figure panel's data", "panel"),
}


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process; nothing may change it."""
    p = _Parser(prog="defectchain",
                description="Exact defect dynamics on a periodic tight-binding chain.")
    sub = p.add_subparsers(dest="mode", required=True)
    for mode, (_, help_text, flags) in _MODES.items():
        sp = sub.add_parser(mode, help=help_text)
        for name in (*_COMMON, *flags.split()):
            sp.add_argument(f"--{name}", **_FLAGS[name])
    return p


def _parse(argv: list[str]) -> argparse.Namespace:
    """The command line, with the --config file's flags placed before its own."""
    args = build_parser().parse_args(argv)
    if args.config is None:
        return args
    merged = build_parser().parse_args([argv[0], *_config_flags(args.config, args.mode), *argv[1:]])
    for name in _REPEATABLE:
        if getattr(args, name, None) is not None:
            setattr(merged, name, getattr(args, name))
    return merged


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if getattr(args, "N", 0) is None:
            raise ConfigError("--N is required")
        out = args.out
        if args.mode == "figure" and out is not None:
            out = f"{out}_{args.panel}.{args.format}"
        if out is not None:
            _check_writable(out)
        table = _MODES[args.mode][0](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DefectChainError as exc:
        print(f"solver error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2

    try:
        table.write(out, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone; point stdout at devnull so that the
        # flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except OSError as exc:
        print(f"config error: cannot write {out or 'stdout'}: {exc}", file=sys.stderr)
        return 1

    if args.mode == "oracle-check" and table.max_abs_diff() > args.tolerance:
        print(f"oracle-check: max difference {table.max_abs_diff():.3e} exceeds "
              f"tolerance {args.tolerance:.3e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
