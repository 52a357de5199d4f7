import numpy as np
import pytest

from defectchain.homogeneous import distance_powers, steady_moment
from defectchain.lattice import (LatticeSpec, periodic_distance,
                                 periodic_distances, site_index)


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(2, 1.0, 0)
    for gamma in (-1.0, 0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            LatticeSpec(10, gamma, 0)
    spec = LatticeSpec(10, 1.0, 13)
    assert spec.n0 == 3          # reduced at the boundary


def test_periodic_distance_examples():
    assert periodic_distance(0, 0, 50) == 0
    assert periodic_distance(2, 27, 50) == 25
    assert periodic_distance(1, 48, 50) == 3


def test_periodic_distance_symmetry_and_translation():
    rng = np.random.default_rng(1)
    for _ in range(200):
        N = int(rng.integers(3, 100))
        a, b, s = (int(v) for v in rng.integers(-200, 200, size=3))
        a, b = site_index(a, N), site_index(b, N)
        assert periodic_distance(a, b, N) == periodic_distance(b, a, N)
        assert periodic_distance(a + s, b + s, N) == periodic_distance(a, b, N)
        assert 0 <= periodic_distance(a, b, N) <= N // 2


def _distance_power_sum(p, N):
    """Closed form of sum_n [n - n0]^p over one ring period, p = 1 or 2."""
    if p == 1:
        return N * N / 4.0 if N % 2 == 0 else (N * N - 1) / 4.0
    return N * (N * N + 2) / 12.0 if N % 2 == 0 else N * (N * N - 1) / 12.0


@pytest.mark.parametrize("N", list(range(3, 66)) + [128, 501, 1000])
def test_distance_power_sum_exact(N):
    # the moment weights [n - n0]^p sum to their closed forms exactly, from any start site
    for n0 in (0, N // 3):
        for p in (1, 2):
            assert distance_powers(LatticeSpec(N, 1.0, n0), p).sum() == _distance_power_sum(p, N)


def test_distance_power_sum_examples_and_errors():
    assert distance_powers(LatticeSpec(4, 1.0, 0), 1).sum() == 4.0
    assert distance_powers(LatticeSpec(5, 1.0, 2), 2).sum() == 10.0
    assert np.array_equal(distance_powers(LatticeSpec(4, 1.0, 1), 2), [1.0, 0.0, 1.0, 4.0])
    with pytest.raises(ValueError):
        steady_moment(3, LatticeSpec(10, 1.0, 0))    # only p = 1, 2 have closed forms


# The free steady moment is the time average over the level pairs {k, N - k}:
# Dbar_p = (N S_p + 2 sum_{0<k<N/2} C_p(2k)) / N^2, with S_p = sum_n [n]^p and the
# cosine-weighted sums C_p(y) = sum_n [n]^p cos(2 pi y n / N).

def test_cosine_weighted_sum_examples():
    # N = 4: S_2 = 6, C_2(2) = 2 and S_1 = 4, C_1(2) = 0
    assert steady_moment(2, LatticeSpec(4, 1.0, 0)) == (4 * 6 + 2 * 2) / 16
    assert steady_moment(1, LatticeSpec(4, 1.0, 3)) == 1.0
    # N = 5: S_2 = 10, C_2(2) + C_2(4) = -5
    assert abs(steady_moment(2, LatticeSpec(5, 1.0, 0)) - (5 * 10 - 2 * 5) / 25) < 1e-15


@pytest.mark.parametrize("N", range(3, 65))
def test_cosine_weighted_sum_matches_direct(N):
    # the sums run in extended precision with exactly reduced angles:
    # in float64 their own cancellation noise would exceed the 1e-12 target
    d = periodic_distances(N).astype(np.longdouble)
    n = np.arange(N)
    two_pi = 8 * np.arctan(np.longdouble(1))
    y = 2 * np.arange(1, (N - 1) // 2 + 1)
    cos = np.cos(two_pi * ((y[:, None] * n) % N) / N)
    for p in (1, 2):
        direct = float((N * (d ** p).sum() + 2 * (cos @ d ** p).sum()) / N ** 2)
        closed = steady_moment(p, LatticeSpec(N, 1.0, N // 2))
        assert abs(direct - closed) <= 1e-12 * direct
