import re
import tracemalloc

import numpy as np
import pytest

from defectchain import homogeneous
from defectchain.errors import NotReached
from defectchain.homogeneous import (_levels, distance_powers, estimate_tstar,
                                     fit_ballistic, fit_tstar_scaling, green_profiles,
                                     moment_series, steady_moment,
                                     steady_profile)
from defectchain.lattice import LatticeSpec, periodic_distances
from defectchain.oracle import build_hamiltonian


def _occupation(spec, t):
    """|G(n, n0, t)|^2 at one time."""
    g = green_profiles(spec, [t])[0]
    return g.real ** 2 + g.imag ** 2


def test_green_delta_initial_condition():
    spec = LatticeSpec(11, 1.0, 4)
    g = green_profiles(spec, [0.0])[0]
    expect = np.zeros(11)
    expect[4] = 1.0
    assert np.max(np.abs(g - expect)) < 1e-14


def test_green_three_site_closed_form():
    spec = LatticeSpec(3, 1.0, 0)
    for t in (0.0, 0.37, 1.9, 12.3):
        assert abs(_occupation(spec, t)[0] - (5 + 4 * np.cos(3 * t)) / 9) < 1e-13
        g = green_profiles(spec, [t])[0][0]
        expect = (np.exp(2j * t) + 2 * np.exp(-1j * t)) / 3
        assert abs(g - expect) < 1e-13


def test_green_unitarity_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        N = int(rng.integers(3, 80))
        spec = LatticeSpec(N, float(rng.uniform(0.5, 2.0)), int(rng.integers(0, N)))
        t = float(rng.uniform(0.0, 100.0))
        assert abs(_occupation(spec, t).sum() - 1.0) < 1e-12


def test_green_translation_invariance_exact():
    spec_a = LatticeSpec(12, 1.0, 3)
    spec_b = LatticeSpec(12, 1.0, 8)
    t = 2.7
    ga, gb = green_profiles(spec_a, [t])[0], green_profiles(spec_b, [t])[0]
    # same amplitudes, shifted: G(n+s, n0+s) == G(n, n0)
    assert np.all(np.roll(ga, 5) == gb)
    assert ga[7] == gb[0]                         # G(7, 3) == G(12, 8), site 12 = 0


@pytest.mark.parametrize("N", range(3, 13))
def test_green_profiles_match_dense_propagation(N):
    # both parities, every start site, times up to the wrap-around N / gamma
    for gamma in (0.7, 1.0, 1.9):
        for n0 in range(N):
            spec = LatticeSpec(N, gamma, n0)
            times = np.linspace(0.0, N / gamma, 33)
            E, V = np.linalg.eigh(build_hamiltonian(spec))
            dense = (V @ (np.exp(-1j * np.outer(E, times)) * V[n0, :, None])).T
            assert np.max(np.abs(green_profiles(spec, times) - dense)) < 1e-14


@pytest.mark.parametrize("N, n0", [(3, 1), (8, 0), (51, 17), (200, 100), (401, 3)])
def test_moment_series_rows_do_not_depend_on_the_batch(N, n0):
    # the t* scan and its bisection evaluate slices and single times of a
    # grid; each row must have the bits it gets alone
    spec = LatticeSpec(N, 1.3, n0)
    times = np.linspace(0.0, 2.0 * N / spec.gamma, 97)
    for p in (1, 2):
        rows = moment_series(p, times, spec)
        for i in range(times.size):
            assert moment_series(p, times[i:i + 1], spec)[0] == rows[i]


@pytest.mark.parametrize("N", [3, 4, 7, 200, 800])
@pytest.mark.parametrize("T", [1, 2, 17, 1025])
def test_time_blocks_keep_each_rows_bits(N, T):
    # moments and G run over cache-sized blocks of times (163 times a block
    # for the moments at N = 200, 40 at N = 800); each row keeps the bits it
    # gets alone
    spec = LatticeSpec(N, 1.0, N // 3)
    times = np.linspace(0.0, 2.0 * N, T)
    alone = np.array([moment_series(2, [t], spec)[0] for t in times])
    assert np.array_equal(moment_series(2, times, spec), alone)
    alone = np.concatenate([green_profiles(spec, [t]) for t in times])
    assert np.array_equal(green_profiles(spec, times), alone)


@pytest.mark.parametrize("N", [*range(4, 41, 2), 200, 800, 802])
def test_levels_pair_up_exactly_for_even_N(N):
    # the half-band kernel rests on c_{N/2-k} = -c_k to the bit, and on a
    # zero level c_{N/4} = 0.0 where N = 0 mod 4; below N/4 the levels are
    # cos(2 pi k / N) as computed
    c, K, Q = _levels(N), N // 2, N // 4
    assert np.array_equal(c[K - np.arange(K + 1)], -c)
    if N % 4 == 0:
        assert c[Q] == 0.0
    assert np.array_equal(c[:Q], np.cos(2.0 * np.pi * np.arange(Q) / N))


def _two_frame_kernel(spec, times):
    """Re G and Im G in the frame m = n - n0 as two inverse real FFTs, of
    cos and sin of 2 gamma t c_k over all N//2 + 1 levels c_k = cos(2 pi k / N)."""
    N = spec.N
    phase = 2.0 * spec.gamma * times[:, None] * np.cos(2.0 * np.pi * np.arange(N // 2 + 1) / N)
    return np.fft.irfft(np.cos(phase), N), np.fft.irfft(np.sin(phase), N)


@pytest.mark.parametrize("N", [4, 6, 8, 10, 50, 52, 200, 800])
def test_half_band_kernel_matches_dense(N):
    # even N takes one frame h = Re G + Im G.  Bounds measured on both the
    # one-frame and the two-frame kernel at these sizes: moments within
    # 2e-12 relative where |Delta_p| > 1e-8 (the worst, 1.7e-12, at N = 6
    # near a return to n0), G within 2e-15 (1 + gamma t) of the dense
    # propagator, whose own phase error grows with t (worst 1.0e-15 (1 + gamma t)
    # on both kernels)
    for n0 in (0, N // 3):
        spec = LatticeSpec(N, 1.0, n0)
        times = np.linspace(0.0, 2.0 * N, 257)
        E, V = np.linalg.eigh(build_hamiltonian(spec))
        dense = (V @ (np.exp(-1j * np.outer(E, times)) * V[n0, :, None])).T
        G = green_profiles(spec, times)
        assert np.all(np.max(np.abs(G - dense), axis=1) <= 2e-15 * (1.0 + times))
        P = dense.real ** 2 + dense.imag ** 2
        for p in (1, 2):
            want = P @ distance_powers(spec, p)
            got = moment_series(p, times, spec)
            big = np.abs(want) > 1e-8
            assert np.all(np.abs(got - want)[big] <= 2e-12 * np.abs(want[big]))


@pytest.mark.parametrize("N", [3, 5, 7, 51, 201])
def test_odd_N_keeps_the_two_frame_kernel(N):
    # odd N has no pairing of levels: G and the moments are the two-FFT
    # formula's, bit for bit
    for n0 in (0, N // 3):
        spec = LatticeSpec(N, 1.3, n0)
        times = np.linspace(0.0, 2.0 * N, 257)
        re, im = _two_frame_kernel(spec, times)
        G = green_profiles(spec, times)
        assert np.array_equal(G.real, np.roll(re, n0, axis=1))
        assert np.array_equal(G.imag, np.roll(im, n0, axis=1))
        for p in (1, 2):
            want = np.einsum("tm,m->t", re * re + im * im, periodic_distances(N).astype(float) ** p)
            assert np.array_equal(moment_series(p, times, spec), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308, -1e308])
def test_free_chain_rejects_non_finite_times(bad):
    # at t = 1e308 the phase 2 gamma t overflowed and the rows were NaN
    spec = LatticeSpec(12, 1.0, 3)
    with pytest.raises(ValueError, match="finite"):
        green_profiles(spec, [0.5, bad])
    with pytest.raises(ValueError, match="finite"):
        moment_series(2, [bad, 1.0], spec)


def test_steady_profile_values():
    p50 = steady_profile(LatticeSpec(50, 1.0, 2)).values
    assert abs(p50[2] - 0.0392) < 1e-15
    assert abs(p50[27] - 0.0392) < 1e-15
    assert abs(p50[10] - 0.0192) < 1e-15
    p5 = steady_profile(LatticeSpec(5, 1.0, 0)).values
    assert abs(p5[0] - 0.36) < 1e-15
    assert np.allclose(p5[1:], 0.16)
    for N in (3, 8, 13, 20):
        assert abs(steady_profile(LatticeSpec(N, 1.0, 1)).values.sum() - 1.0) < 1e-13


def test_steady_profile_is_long_time_average():
    spec = LatticeSpec(6, 1.0, 1)
    T = 500 * spec.N / spec.gamma
    times = np.linspace(0.0, T, 120001)
    P = np.abs(green_profiles(spec, times)) ** 2
    avg = np.trapezoid(P, times, axis=0) / T
    assert np.max(np.abs(avg - steady_profile(spec).values)) < 5e-3


@pytest.mark.parametrize("N", range(3, 33))
def test_moment_matches_naive_triple_sum(N):
    spec = LatticeSpec(N, 0.9, N // 3)
    d = periodic_distances(N, spec.n0).astype(float)
    k = np.arange(N)
    c = np.cos(2 * np.pi * k / N)
    beta = 2.0 * spec.gamma * (c[None, :] - c[:, None])        # beta(k1, k2)
    chi = np.cos(2 * np.pi * np.multiply.outer(k - k[:, None], np.arange(N) - spec.n0) / N)
    for t in (0.3, 1.7):
        osc = np.cos(beta * t)
        for p in (1, 2):
            naive = float(np.einsum("ab,abn,n->", osc, chi, d ** p)) / N ** 2
            fast = moment_series(p, [t], spec)[0]
            assert abs(naive - fast) <= 1e-10 * max(1.0, abs(naive))


def test_moment_series_matches_dense_msd_large_N():
    spec = LatticeSpec(800, 1.0, 311)
    times = np.linspace(0.0, 2.0 * spec.N / spec.gamma, 257)
    E, V = np.linalg.eigh(build_hamiltonian(spec))
    psi = V @ (np.exp(-1j * np.outer(E, times)) * V[spec.n0, :, None])
    dense = distance_powers(spec, 2) @ (psi.real ** 2 + psi.imag ** 2)
    fast = moment_series(2, times, spec)
    assert abs(fast[0]) < 1e-12
    assert np.all(np.abs(fast[1:] - dense[1:]) <= 1e-12 * dense[1:])


def test_moment_series_memory_stays_small():
    # one cache-sized block of times, not the grid: 7.1 MiB as one block of
    # 257 times
    spec = LatticeSpec(800, 1.0, 5)
    times = np.linspace(0.0, 2.0 * spec.N / spec.gamma, 257)
    tracemalloc.start()
    try:
        moment_series(2, times, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_moment_zero_at_t0_and_ballistic():
    spec = LatticeSpec(24, 1.0, 5)
    assert abs(moment_series(2, [0.0], spec)[0]) < 1e-12
    t = 0.02
    assert abs(moment_series(2, [t], spec)[0] - 2 * t * t) < 1e-7


def test_steady_moment_values():
    assert abs(steady_moment(2, LatticeSpec(4, 1.0, 0)) - 1.75) < 1e-14
    assert abs(steady_moment(1, LatticeSpec(5, 1.0, 0)) - 0.96) < 1e-14
    assert abs(steady_moment(2, LatticeSpec(5, 1.0, 0)) - 1.6) < 1e-14


@pytest.mark.parametrize("N", [4, 5, 9, 12, 31, 50])
def test_steady_moment_matches_profile(N):
    spec = LatticeSpec(N, 1.0, N // 4)
    prof = steady_profile(spec).values
    for p in (1, 2):
        direct = float(distance_powers(spec, p) @ prof)
        assert abs(direct - steady_moment(p, spec)) < 1e-12 * max(1.0, direct)


def test_steady_moment_is_long_time_average():
    spec = LatticeSpec(8, 1.0, 2)
    T = 500 * spec.N / spec.gamma
    times = np.linspace(0.0, T, 160001)
    vals = moment_series(2, times, spec)
    avg = float(np.trapezoid(vals, times) / T)
    assert abs(avg - steady_moment(2, spec)) < 1e-2 * steady_moment(2, spec)


def test_fit_ballistic():
    for N in (50, 200):
        for gamma in (0.5, 1.0, 2.0):
            D = fit_ballistic(LatticeSpec(N, gamma, N // 2))
            assert abs(D - 2 * gamma ** 2) < 0.01 * 2 * gamma ** 2


def test_tstar_gamma_rescaling():
    # gamma t is the only time dependence, so t* scales as 1/gamma
    t1 = estimate_tstar(LatticeSpec(60, 1.0, 30))
    t2 = estimate_tstar(LatticeSpec(60, 2.0, 30))
    assert abs(t1 / t2 - 2.0) < 1e-3


def test_tstar_doubles_with_N():
    t150 = estimate_tstar(LatticeSpec(150, 1.0, 75))
    t300 = estimate_tstar(LatticeSpec(300, 1.0, 150))
    assert abs(t300 / t150 - 2.0) < 0.1


def test_tstar_regression_fixture():
    # frozen output of the bisection search on the implemented Delta_2(t)
    ts = estimate_tstar(LatticeSpec(100, 1.0, 50), 0.01)
    assert abs(ts - 25.139800919987465) < 1e-6


def _tstar_full_grid_scan(spec, threshold, grid_points):
    """The t* search evaluating Delta_2 on the whole grid before taking its
    first crossing; estimate_tstar must give the same bits."""
    N, gamma = spec.N, spec.gamma
    tmax = 2.0 * N / gamma
    times = np.linspace(0.0, tmax, grid_points + 1)[1:]
    d2 = moment_series(2, times, spec)
    ball = 2.0 * gamma ** 2 * times ** 2
    above = np.nonzero(np.abs(d2 - ball) / ball > threshold)[0]
    if above.size == 0:
        raise NotReached(f"no deviation above {threshold} up to t = {tmax}")
    i = int(above[0])
    lo = times[i - 1] if i > 0 else times[0] * 1e-6
    hi = times[i]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        b = 2.0 * gamma ** 2 * mid * mid
        if abs(moment_series(2, [mid], spec)[0] - b) / b > threshold:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * tmax:
            break
    return 0.5 * (lo + hi)


# grid_points 0: an empty grid never crosses (NotReached); 4: the crossing
# is the first grid time; 100: the last slice of the scan is partial
@pytest.mark.parametrize("N, gamma, threshold, grid_points",
                         [(N, gamma, threshold, 2048) for N in (7, 51, 256)
                          for gamma in (0.5, 2.0) for threshold in (0.001, 0.01, 0.49)]
                         + [(51, 1.0, 0.01, g) for g in (0, 4, 100)])
def test_tstar_equals_full_grid_scan(monkeypatch, N, gamma, threshold, grid_points):
    monkeypatch.setattr(homogeneous, "TSTAR_GRID", grid_points)
    for n0 in (0, N // 3):
        spec = LatticeSpec(N, gamma, n0)
        try:
            want = _tstar_full_grid_scan(spec, threshold, grid_points)
        except NotReached as exc:
            with pytest.raises(NotReached, match=re.escape(str(exc))):
                estimate_tstar(spec, threshold)
        else:
            assert estimate_tstar(spec, threshold) == want


def test_tstar_memory_stays_small():
    # the scan stops at the first crossing and holds one slice of times;
    # the whole 2048-time grid at N=2000 would take 64 MiB
    spec = LatticeSpec(2000, 1.0, 1000)
    tracemalloc.start()
    try:
        estimate_tstar(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_tstar_validation():
    with pytest.raises(ValueError):
        estimate_tstar(LatticeSpec(20, 1.0, 0), threshold=0.7)
    with pytest.raises(ValueError):
        estimate_tstar(LatticeSpec(20, 1.0, 0), threshold=0.0)



def test_tstar_scaling_needs_two_sizes():
    # one distinct size fixes no line; r^2 divided by a zero spread
    for Ns in ([50, 50], [50], []):
        with pytest.raises(ValueError, match="two distinct sizes for a line"):
            fit_tstar_scaling(Ns)
