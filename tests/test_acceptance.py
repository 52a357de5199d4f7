"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime (run pytest -s to see them on success).

Normalization and positivity (criterion 10) are asserted inside every
probability evaluation here and summarized at the end.
"""

import time

import numpy as np

from defectchain.homogeneous import (distance_powers, fit_ballistic,
                                     fit_tstar_scaling, steady_moment,
                                     steady_profile)
from defectchain.lattice import LatticeSpec, periodic_distance, periodic_distances
from defectchain.multi_defect import build_two_defect_system
from defectchain.oracle import (BarrierWalkSpec, SpectralDecomposition,
                                barrier_walk_steady, build_hamiltonian,
                                defect_decomposition, occupation_exact,
                                time_average_exact)
from defectchain.single_defect import (DefectSpec, build_defect_system,
                                       occupation_defect, occupation_defect_series,
                                       steady_corrections, steady_moment_defect,
                                       steady_occupation)
from defectchain.strong_defect import (mirror_site, steady_moments_infinite_q,
                                       steady_profile_infinite_q)

_NORM_WORST = {"sum": 0.0, "neg": 0.0}


def _track(P, K=None):
    _NORM_WORST["sum"] = max(_NORM_WORST["sum"], float(abs(P.sum() - 1.0)))
    if K is not None:
        _NORM_WORST["neg"] = max(_NORM_WORST["neg"], float(max(0.0, -K.min())))
    assert abs(P.sum() - 1.0) < 1e-10
    if K is not None:
        assert np.all(K >= 0.0)


def _report(num, ok, elapsed, budget, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status} ({elapsed:6.2f}s / {budget:.0f}s budget): {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_criterion_01_time_resolved_single_defect_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        N = int(rng.integers(4, 65))
        gamma = float(rng.uniform(0.5, 2.0))
        q = float(rng.uniform(-10.0, 10.0)) or 1.0
        n0, nd = int(rng.integers(0, N)), int(rng.integers(0, N))
        spec = LatticeSpec(N, gamma, n0)
        system = build_defect_system(spec, DefectSpec(nd, q))
        dec = defect_decomposition(spec, nd, q)
        times = rng.uniform(0.0, 50.0 / gamma, size=20)
        rows = occupation_defect_series(system, times)
        for i, t in enumerate(times):
            _track(rows[i])
            worst = max(worst, float(np.max(np.abs(rows[i] - occupation_exact(dec, n0, float(t))))))
    elapsed = time.time() - t0
    _report(1, worst < 1e-8, elapsed, 30.0,
            f"50 tuples x 20 times, max per-site |P - oracle| = {worst:.2e} (< 1e-8)")


def test_criterion_02_steady_single_defect_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(25):
        N = int(rng.integers(4, 65))
        gamma = float(rng.uniform(0.5, 2.0))
        q = float(rng.uniform(-10.0, 10.0)) or 1.0
        n0, nd = int(rng.integers(0, N)), int(rng.integers(0, N))
        spec = LatticeSpec(N, gamma, n0)
        system = build_defect_system(spec, DefectSpec(nd, q))
        prof = steady_occupation(system)
        _, Kbar = steady_corrections(system)
        _track(prof.values, Kbar)
        dec = defect_decomposition(spec, nd, q)
        worst = max(worst, float(np.max(np.abs(prof.values - time_average_exact(dec, n0)))))
    elapsed = time.time() - t0
    _report(2, worst < 1e-8, elapsed, 30.0,
            f"25 tuples, steady profile vs eigenbasis average, max diff = {worst:.2e} (< 1e-8)")


def test_criterion_03_closed_form_identities():
    t0 = time.time()
    worst = 0.0
    for N in range(3, 201):
        spec = LatticeSpec(N, 1.0, N // 3)
        prof = steady_profile(spec).values
        worst = max(worst, abs(prof.sum() - 1.0))
        for p in (1, 2):
            two_route = float(distance_powers(spec, p) @ prof)
            worst = max(worst, abs(two_route - steady_moment(p, spec))
                        / max(1.0, abs(two_route)))
        nd = (spec.n0 + max(1, N // 5)) % N
        sprof = steady_profile_infinite_q(spec, nd).values
        worst = max(worst, abs(sprof.sum() - 1.0))
        worst = max(worst, abs(sprof[nd]))
        m = mirror_site(spec, nd)
        if not (m in (spec.n0, nd)):
            worst = max(worst, abs(sprof[spec.n0] - 1.5 / N))
            worst = max(worst, abs(sprof[m] - 1.5 / N))
        d = periodic_distance(nd, spec.n0, N)
        if d <= N // 4:
            m1 = float(distance_powers(spec, 1) @ sprof)
            m2 = float(distance_powers(spec, 2) @ sprof)
            worst = max(worst, abs(m1 - steady_moments_infinite_q(1, spec)) / max(1.0, m1))
            worst = max(worst, abs(m2 - (steady_moments_infinite_q(2, spec) + d * d / N))
                        / max(1.0, m2))
    spots = (abs(steady_profile(LatticeSpec(50, 1.0, 2)).values[2] - 0.0392),
             abs(steady_profile(LatticeSpec(50, 1.0, 2)).values[10] - 0.0192),
             abs(steady_moments_infinite_q(2, LatticeSpec(50, 1.0, 0)) - 208.5),
             abs(steady_moment(2, LatticeSpec(4, 1.0, 0)) - 1.75))
    worst = max(worst, *spots)
    elapsed = time.time() - t0
    _report(3, worst < 1e-12, elapsed, 5.0,
            f"closed forms over N in [3, 200], worst identity error = {worst:.2e} (< 1e-12)")


def test_criterion_04_ballistic_law():
    t0 = time.time()
    worst = 0.0
    for N in (50, 200):
        for gamma in (0.5, 1.0, 2.0):
            D = fit_ballistic(LatticeSpec(N, gamma, N // 2))
            worst = max(worst, abs(D - 2.0 * gamma ** 2) / (2.0 * gamma ** 2))
    elapsed = time.time() - t0
    _report(4, worst < 0.01, elapsed, 5.0,
            f"least-squares D vs 2 gamma^2, worst relative error = {worst:.2e} (< 1%)")


def test_criterion_05_tstar_scaling():
    t0 = time.time()
    Ns = (50, 100, 150, 200, 300, 400)
    slope, intercept, r2, tstars = fit_tstar_scaling(Ns, 1.0)
    doubling = [tstars[Ns.index(2 * n)] / tstars[Ns.index(n)] for n in (50, 100, 150, 200)]
    dbl_err = max(abs(r / 2.0 - 1.0) for r in doubling)
    elapsed = time.time() - t0
    _report(5, r2 > 0.99 and dbl_err < 0.05, elapsed, 60.0,
            f"t* = a N fit: R^2 = {r2:.6f} (> 0.99), worst N->2N doubling error = "
            f"{100 * dbl_err:.1f}% (< 5%)")


def test_criterion_06_non_monotonic_transport():
    t0 = time.time()
    spec = LatticeSpec(50, 1.0, 2)
    qs = np.geomspace(0.05, 50.0, 40)
    p_def, msd = [], []
    for q in qs:
        system = build_defect_system(spec, DefectSpec(4, float(q)))
        prof = steady_occupation(system)
        _, Kbar = steady_corrections(system)
        _track(prof.values, Kbar)
        p_def.append(prof.values[4])
        msd.append(steady_moment_defect(system, 2))
    p_def, msd = np.asarray(p_def), np.asarray(msd)
    imax, imin = int(np.argmax(p_def)), int(np.argmin(msd))
    rise_fall = 0 < imax < qs.size - 1
    interior_min = 0 < imin < qs.size - 1
    p_same, msd_same = [], []
    for q in qs:
        system = build_defect_system(spec, DefectSpec(2, float(q)))
        p_same.append(steady_occupation(system).values[2])
        msd_same.append(steady_moment_defect(system, 2))
    monotone = bool(np.all(np.diff(p_same) > 0) and np.all(np.diff(msd_same) < 0))
    elapsed = time.time() - t0
    _report(6, rise_fall and interior_min and monotone, elapsed, 120.0,
            f"nd != n0: P(nd) peaks at sweep index {imax}, MSD dips at {imin}; "
            f"nd = n0 monotone: {monotone}")


def test_criterion_07_large_strength_convergence():
    t0 = time.time()
    spec = LatticeSpec(50, 1.0, 2)
    target = steady_profile_infinite_q(spec, 4).values
    errs = []
    for q in (1e2, 1e3, 1e4):
        prof = steady_occupation(build_defect_system(spec, DefectSpec(4, float(q))))
        _track(prof.values)
        errs.append(float(np.max(np.abs(prof.values - target))))
    elapsed = time.time() - t0
    ok = errs[0] > errs[1] > errs[2] and errs[2] < 1e-2
    _report(7, ok, elapsed, 60.0,
            f"per-site gap to the limit profile: {errs[0]:.2e} > {errs[1]:.2e} > "
            f"{errs[2]:.2e} (< 1e-2 at q = 1e4)")


def test_criterion_08_two_defect_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(25):
        N = int(rng.integers(4, 33))
        gamma = float(rng.uniform(0.5, 2.0))
        n0 = int(rng.integers(0, N))
        d1 = int(rng.integers(0, N))
        d2 = (d1 + int(rng.integers(1, N))) % N
        q1, q2 = float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10))
        spec = LatticeSpec(N, gamma, n0)
        system = build_two_defect_system([DefectSpec(d1, q1), DefectSpec(d2, q2)], spec)
        dec = SpectralDecomposition.from_hamiltonian(
            build_hamiltonian(spec, [(d1, q1), (d2, q2)]))
        for t in rng.uniform(0.0, 20.0 / gamma, size=3):
            P = occupation_defect(system, float(t))
            _track(P)
            worst = max(worst, float(np.max(np.abs(P - occupation_exact(dec, n0, float(t))))))
    # q2 = 0 reduction to the single-defect path
    spec = LatticeSpec(16, 1.0, 3)
    system = build_two_defect_system([DefectSpec(7, 1.9), DefectSpec(11, 0.0)], spec)
    single = build_defect_system(spec, DefectSpec(7, 1.9))
    red = 0.0
    for t in (0.7, 3.0, 9.0):
        P1 = occupation_defect_series(single, [t])[0]
        red = max(red, float(np.max(np.abs(occupation_defect(system, t) - P1))))
    elapsed = time.time() - t0
    _report(8, worst < 1e-8 and red < 1e-10, elapsed, 60.0,
            f"25 tuples, max |P - oracle| = {worst:.2e} (< 1e-8); "
            f"q2 = 0 reduction gap = {red:.2e} (< 1e-10)")


def test_criterion_09_classical_indifference():
    t0 = time.time()
    vals = []
    for f in (0.1, 0.3, 0.5, 0.7, 0.9):
        for n0 in (0, 4, 13):
            res = barrier_walk_steady(BarrierWalkSpec(20, 1.0, f, 5, n0))
            _track(res.profile)
            vals.extend([res.msd_time_integrated, res.msd_laplace])
    spread = float(np.ptp(vals))
    expect = float(np.mean(periodic_distances(20, 0).astype(float) ** 2))
    bias = abs(float(np.mean(vals)) - expect)
    elapsed = time.time() - t0
    _report(9, spread < 1e-8 and bias < 1e-8, elapsed, 10.0,
            f"steady MSD spread over barrier strengths and starts = {spread:.2e} (< 1e-8)")


def test_criterion_10_normalization_and_positivity():
    t0 = time.time()
    ok = _NORM_WORST["sum"] < 1e-10 and _NORM_WORST["neg"] == 0.0
    _report(10, ok, time.time() - t0, 5.0,
            f"across all runs: worst |sum P - 1| = {_NORM_WORST['sum']:.2e} (< 1e-10), "
            f"worst negative K = {_NORM_WORST['neg']:.2e}")
