"""The benchmark's three workloads, each a fixed list of operations.

An operation is one result a user asks for: a figure panel, a steady
point, a time series.  Its `run` calls defectchain through module
attributes only (`single_defect.build_defect_system`, never a name
imported here), so the traced run's wrappers see every call.  Its
`check` compares the result with a dense reference from `reference.py`
or with a property the exact solution must have.

Inputs come from the seed alone; every pass repeats the same operations.
"""

from __future__ import annotations

import csv
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from defectchain import cli, homogeneous, multi_defect, single_defect, strong_defect
from defectchain.lattice import LatticeSpec
from defectchain.single_defect import DefectSpec

import reference as ref
from reference import PROB_ATOL, Checks

GAMMA = 1.0
PANELS = ("fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b")

SMALL_Q_FAULT = ("q = 1e-7 at N = 50 raises NormalizationDrift: C_k = gamma (c_k - x_j) "
                 "cancels when a pole sits next to its unperturbed level")
TWO_DEFECT_FAULT = ("two defects at N = 800, nd = (0, 400), n0 = 1, q = (1, 1) give NaN: the "
                    "order-2 residue branch overflows and NaN passes the normalization guard")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Checks], None]
    fault: str | None = None        # the known fault this operation is kept for


def _strength(rng: random.Random, top: float = 2.0) -> float:
    """Log-uniform in [1e-2, 10**top] with a random sign."""
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, top)


# -- steady_sweep -------------------------------------------------------------

# (N, points); the odd size exercises the odd-N pole classes.
STEADY_SIZES = ((50, 16), (200, 12), (799, 3), (2000, 1))


def _steady_point(N, n0, nd, q, dense, fault=None) -> Op:
    """What `defectchain single` computes for one strength."""
    spec = LatticeSpec(N, GAMMA, n0)
    name = f"single N={N} n0={n0} nd={nd} q={q:.6g}"

    def run():
        system = single_defect.build_defect_system(spec, DefectSpec(nd, q))
        P = single_defect.steady_occupation(system).values
        return (P, single_defect.steady_moment_defect(system, 1),
                single_defect.steady_moment_defect(system, 2))

    def check(out, c: Checks):
        P, m1, m2 = out
        c.profiles(name, P)
        if dense:
            want = ref.single_defect(N, GAMMA, nd, q).steady(n0)
            c.close(name + " profile vs dense", P, want, PROB_ATOL)
        else:
            want = P          # moments must still be the moments of the profile
        c.moments(name + " p=1", m1, want, N, n0, 1)
        c.moments(name + " p=2", m2, want, N, n0, 2)

    return Op(name, run, check, fault)


def _infq_point(N, n0, nd, dense) -> Op:
    spec = LatticeSpec(N, GAMMA, n0)
    name = f"infq N={N} n0={n0} nd={nd}"

    def run():
        return strong_defect.steady_profile_infinite_q(spec, nd).values

    def check(P, c: Checks):
        c.profiles(name, P)
        c.close(name + " closed form", P, ref.infinite_q_closed_form(N, n0, nd), 1e-14)
        if dense:
            c.close(name + " vs dense", P, ref.infinite_q_steady(N, GAMMA, n0, nd), PROB_ATOL)

    return Op(name, run, check)


def steady_sweep(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for N, count in STEADY_SIZES:
        for i in range(count):
            n0, nd, q = rng.randrange(N), rng.randrange(N), _strength(rng)
            dense = N <= 200 or i == 0
            ops.append(_steady_point(N, n0, nd, q, dense))
            ops.append(_infq_point(N, n0, nd, dense))
    ops.append(_steady_point(50, 2, 4, 1e-7, True, fault=SMALL_Q_FAULT))
    return ops


# -- time_series --------------------------------------------------------------

def _defect_series(N, n0, nd, q, steps) -> Op:
    spec = LatticeSpec(N, GAMMA, n0)
    times = np.linspace(0.0, 2.0 * N / GAMMA, steps)
    name = f"series N={N} n0={n0} nd={nd} q={q:.6g} T={steps}"

    def run():
        system = single_defect.build_defect_system(spec, DefectSpec(nd, q))
        return (single_defect.occupation_defect_series(system, times),
                single_defect.moment_defect_series(system, 1, times),
                single_defect.moment_defect_series(system, 2, times))

    def check(out, c: Checks):
        P, m1, m2 = out
        c.profiles(name, P)
        want = ref.single_defect(N, GAMMA, nd, q).occupation(n0, times)
        c.close(name + " P_n(t) vs dense", P, want, PROB_ATOL)
        c.moments(name + " p=1", m1, want, N, n0, 1)
        c.moments(name + " p=2", m2, want, N, n0, 2)

    return Op(name, run, check)


def _free_msd(N, n0, steps) -> Op:
    spec = LatticeSpec(N, GAMMA, n0)
    times = np.linspace(0.0, 2.0 * N / GAMMA, steps)
    name = f"free msd N={N} T={steps}"

    def run():
        return homogeneous.moment_series(2, times, spec)

    def check(msd, c: Checks):
        want = ref.Dense(ref.ring_hamiltonian(N, GAMMA), GAMMA).occupation(n0, times)
        c.moments(name + " vs dense", msd, want, N, n0, 2)
        c.ballistic(name + " ballistic", times, msd, GAMMA, N)

    return Op(name, run, check)


def _check_tstar(name, N, n0, ts, c: Checks, threshold=0.01):
    """t* is where the dense MSD first leaves 2 gamma^2 t^2 by `threshold`."""
    dense = ref.Dense(ref.ring_hamiltonian(N, GAMMA), GAMMA)
    c.close(name + " deviation at t*", ref.tstar_deviation(dense, n0, ts), threshold, 1e-6)
    before = np.linspace(0.0, ts, 65)[1:-1]
    msd = dense.occupation(n0, before) @ ref.distances(N, n0) ** 2
    dev = np.abs(msd - 2.0 * GAMMA ** 2 * before ** 2) / (2.0 * GAMMA ** 2 * before ** 2)
    c.true(name + " no earlier crossing", bool(np.all(dev <= threshold + 1e-6)),
           f"deviation {dev.max():.4g} before t*")


def _tstar(N, n0) -> Op:
    spec = LatticeSpec(N, GAMMA, n0)
    name = f"tstar N={N}"

    def run():
        return homogeneous.estimate_tstar(spec)

    def check(ts, c: Checks):
        _check_tstar(name, N, n0, ts, c)

    return Op(name, run, check)


def _two_defects(N, n0, sites, qs, times, fault=None) -> Op:
    spec = LatticeSpec(N, GAMMA, n0)
    defects = [DefectSpec(nd, q) for nd, q in zip(sites, qs)]
    name = f"two N={N} n0={n0} nd={sites} q=({qs[0]:.6g}, {qs[1]:.6g}) T={len(times)}"

    def run():
        system = multi_defect.build_two_defect_system(defects, spec)
        return np.array([multi_defect.two_defect_occupation(system, float(t)) for t in times])

    def check(P, c: Checks):
        c.profiles(name, P)
        dense = ref.Dense(ref.ring_hamiltonian(N, GAMMA, list(zip(sites, qs))), GAMMA)
        c.close(name + " vs dense", P, dense.occupation(n0, times), PROB_ATOL)

    return Op(name, run, check, fault)


def time_series(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for N, steps in ((200, 257), (800, 17)):
        ops.append(_defect_series(N, rng.randrange(N), rng.randrange(N), _strength(rng), steps))
    ops.append(_free_msd(800, rng.randrange(800), 257))
    ops.append(_tstar(200, rng.randrange(200)))
    # Two-defect strengths stop at 10: from |q| ~ 35 at N = 200 the Chebyshev
    # series overflow and return NaN on some seeds (a fault left out here).
    N = 200
    ops.append(_two_defects(N, rng.randrange(N), tuple(rng.sample(range(N), 2)),
                            (_strength(rng, 1.0), _strength(rng, 1.0)),
                            np.linspace(0.0, 4.0 * N / GAMMA, 65)))
    ops.append(_two_defects(800, 1, (0, 400), (1.0, 1.0), np.array([10.0, 100.0]),
                            fault=TWO_DEFECT_FAULT))
    return ops


# -- paper_figures ------------------------------------------------------------

def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rows(rows, observable, provenance="analytic"):
    return [r for r in rows if r["observable"] == observable and r["provenance"] == provenance]


def _f(r, key):
    return float(r[key])


def _i(r, key):
    return int(r[key])


class _SteadyCache:
    """Dense steady profiles keyed by geometry, shared by a run's checks."""

    def __init__(self):
        self._data = {}

    def single(self, N, n0, nd, q):
        key = (N, n0, nd, q)
        if key not in self._data:
            self._data[key] = ref.single_defect(N, GAMMA, nd, q).steady(n0)
        return self._data[key]

    def infq(self, N, n0, nd):
        key = (N, n0, nd, None)
        if key not in self._data:
            self._data[key] = ref.infinite_q_steady(N, GAMMA, n0, nd)
        return self._data[key]


def _check_fig1(rows, c: Checks, cache, panel):
    by_n = defaultdict(list)
    for r in _rows(rows, "msd"):
        by_n[(_i(r, "N"), _i(r, "n0"))].append((_f(r, "t"), _f(r, "value")))
    c.true("fig1 msd series present", len(by_n) == 2)
    for (N, n0), pts in by_n.items():
        t, msd = np.array(pts).T
        dense = ref.Dense(ref.ring_hamiltonian(N, GAMMA), GAMMA)
        c.moments(f"fig1 msd N={N} vs dense", msd, dense.occupation(n0, t), N, n0, 2)
        c.ballistic(f"fig1 msd N={N} ballistic", t, msd, GAMMA, N)
        steady = [_f(r, "value") for r in _rows(rows, "msd_steady") if _i(r, "N") == N]
        c.moments(f"fig1 msd_steady N={N}", steady, dense.steady(n0)[None, :], N, n0, 2)
    tstar = [(_i(r, "N"), _f(r, "value")) for r in _rows(rows, "tstar")]
    c.true("fig1 t* rows present", len(tstar) >= 3)
    for N, ts in tstar:
        _check_tstar(f"fig1 tstar N={N}", N, N // 2, ts, c)
    Ns, ts = np.array(tstar).T
    c.linear("fig1 t* linear in N", Ns, ts)
    slope, intercept = np.polyfit(Ns, ts, 1)
    for obs, want in (("tstar_fit_slope", slope), ("tstar_fit_intercept", intercept)):
        got = [_f(r, "value") for r in _rows(rows, obs)]
        c.close(f"fig1 {obs} refit from the t* rows", got, [want], 1e-9 * max(1.0, abs(want)))
    got = [_f(r, "value") for r in _rows(rows, "tstar_fit_r2")]
    c.true("fig1 tstar_fit_r2 >= 0.999", len(got) == 1 and got[0] >= 0.999, f"r^2 rows {got}")


def _check_fig2(rows, c: Checks, cache, panel):
    profiles = defaultdict(dict)
    for prov in ("analytic", "oracle", "abs_diff"):
        for r in _rows(rows, "steady_occupation", prov):
            profiles[(_i(r, "N"), _i(r, "n0"), _i(r, "nd"), _f(r, "q"), prov)][_i(r, "n")] = _f(r, "value")
    c.true(f"{panel} profiles present", len(profiles) > 0)
    for (N, n0, nd, q, prov), vals in profiles.items():
        got = np.array([vals[n] for n in range(N)])
        if prov == "abs_diff":
            a = profiles[(N, n0, nd, q, "analytic")]
            o = profiles[(N, n0, nd, q, "oracle")]
            c.close(f"{panel} abs_diff q={q}", got, [abs(a[n] - o[n]) for n in range(N)], 1e-15)
            continue
        c.profiles(f"{panel} {prov} q={q}", got)
        c.close(f"{panel} {prov} q={q} vs dense", got, cache.single(N, n0, nd, q), PROB_ATOL)
    for obs, site in (("steady_at_defect", "nd"), ("steady_at_start", "n0")):
        pts = _rows(rows, obs)
        c.true(f"{panel} {obs} present", len(pts) > 0)
        for r in pts:
            N, n0, nd, q = _i(r, "N"), _i(r, "n0"), _i(r, "nd"), _f(r, "q")
            want = cache.single(N, n0, nd, q)[nd if site == "nd" else n0]
            c.close(f"{panel} {obs} q={q}", _f(r, "value"), want, PROB_ATOL)
    for obs, site in (("steady_at_defect_infq", "nd"), ("steady_at_start_infq", "n0")):
        for r in _rows(rows, obs):
            N, n0, nd = _i(r, "N"), _i(r, "n0"), _i(r, "nd")
            want = cache.infq(N, n0, nd)[nd if site == "nd" else n0]
            c.close(f"{panel} {obs}", _f(r, "value"), want, PROB_ATOL)
    if panel == "fig2b":
        c.true("fig2b infq rows present", len(_rows(rows, "steady_at_start_infq")) == 1)


def _check_fig3(rows, c: Checks, cache, panel):
    p, name = (1, "mean_displacement_steady") if panel == "fig3a" else (2, "msd_steady")
    pts = _rows(rows, name)
    c.true(f"{panel} points present", len(pts) > 0)
    for r in pts:
        N, n0, nd, q = _i(r, "N"), _i(r, "n0"), _i(r, "nd"), _f(r, "q")
        c.moments(f"{panel} nd={nd} q={q}", _f(r, "value"), cache.single(N, n0, nd, q), N, n0, p)
    for r in _rows(rows, "msd_steady_infq"):
        # This row is the leading closed form, which by its documentation
        # drops the d^2 / N that the mirror site adds to the exact MSD.
        N, n0, nd = _i(r, "N"), _i(r, "n0"), _i(r, "nd")
        d = ref.distances(N, n0)[nd]
        dp = ref.distances(N, n0) ** 2
        c.close(f"{panel} msd_steady_infq", _f(r, "value"),
                cache.infq(N, n0, nd) @ dp - d * d / N, PROB_ATOL * dp.sum())


def _check_fig4(rows, c: Checks, cache, panel):
    profiles = defaultdict(dict)
    for r in _rows(rows, "steady_occupation_infq"):
        profiles[(_i(r, "N"), _i(r, "n0"), _i(r, "nd"))][_i(r, "n")] = _f(r, "value")
    c.true(f"{panel} profiles present", len(profiles) == 2)
    for (N, n0, nd), vals in profiles.items():
        got = np.array([vals[n] for n in range(N)])
        c.profiles(f"{panel} n0={n0}", got)
        c.close(f"{panel} n0={n0} closed form", got, ref.infinite_q_closed_form(N, n0, nd), 1e-14)
        c.close(f"{panel} n0={n0} vs dense", got, cache.infq(N, n0, nd), PROB_ATOL)


_FIGURE_CHECKS = {"fig1": _check_fig1, "fig2": _check_fig2, "fig3": _check_fig3, "fig4": _check_fig4}


def _panel(panel, workdir: Path, cache) -> Op:
    prefix = workdir / "data"
    path = workdir / f"data_{panel}.csv"

    def run():
        return cli.main(["figure", "--panel", panel, "--out", str(prefix)])

    def check(code, c: Checks):
        _FIGURE_CHECKS[panel[:4]](_read_csv(path), c, cache, panel)

    return Op(f"figure {panel}", run, check)


def paper_figures(seed: int, workdir: Path) -> list[Op]:
    """The seven panels; the paper fixes every input, so the seed is unused."""
    cache = _SteadyCache()
    return [_panel(p, workdir, cache) for p in PANELS]


WORKLOADS = {"paper_figures": paper_figures, "steady_sweep": steady_sweep,
             "time_series": time_series}
