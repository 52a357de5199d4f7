"""Property tests of the single-defect pole set and steady profile against a
dense diagonalization of the defected ring, over N in [3, 300], either sign
of q, and any start and defect sites: |q| in [1e-12, 1e8] for the poles and
[1e-3, 1e4] for the steady profile."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from defectchain.lattice import LatticeSpec
from defectchain.single_defect import DefectSpec, build_defect_system, steady_occupation

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def rings(draw, log_q=(-3.0, 4.0)):
    N = draw(st.integers(3, 300))
    n0 = draw(st.integers(0, N - 1))
    nd = draw(st.integers(0, N - 1))
    q = draw(st.sampled_from((1.0, -1.0))) * 10.0 ** draw(st.floats(*log_q))
    gamma = draw(st.sampled_from((1.0, 0.7, 1.3)))
    return LatticeSpec(N, gamma, n0), nd, q


def _ring_x(spec, nd, q):
    """-H / (2 gamma) for the ring with -gamma on every bond and -q on site
    nd: its eigenvalues are the levels in the pole variable x = -E / (2 gamma)."""
    N = spec.N
    i = np.arange(N)
    Hx = np.zeros((N, N))
    Hx[i, (i + 1) % N] = Hx[(i + 1) % N, i] = 0.5
    Hx[nd, nd] = q / (2.0 * spec.gamma)
    return Hx


def _classes(x, scale):
    """Index groups of numerically degenerate levels (x ascending)."""
    return np.split(np.arange(x.size), np.nonzero(np.diff(x) > 1e-9 * scale)[0] + 1)


@SETTINGS
@given(rings(log_q=(-12.0, 8.0)))
def test_retained_poles_are_dense_levels(ring):
    spec, nd, q = ring
    system = build_defect_system(spec, DefectSpec(nd, q))
    scale = 1.0 + abs(q) / (2.0 * spec.gamma)
    # every retained pole is a level of the defected ring ...
    levels = np.linalg.eigvalsh(_ring_x(spec, nd, q))
    assert np.all(np.min(np.abs(system.x[:, None] - levels[None, :]), axis=1) <= 1e-10 * scale)
    # ... and every level class that couples nd to n0 well above the
    # residue cut is a retained pole
    x, V = np.linalg.eigh(_ring_x(spec, nd, q))
    for c in _classes(x, scale):
        if abs(V[nd, c] @ V[spec.n0, c]) > 1e-6:
            assert np.min(np.abs(system.x - x[c].mean())) <= 1e-10 * scale


@SETTINGS
@given(rings())
def test_steady_occupation_is_dense_time_average(ring):
    """|q| stays in [1e-3, 1e4]: at smaller |q| the defect splits levels by
    less than the 1e-9 class tolerance, and the dense time average merges
    pairs that the exact average keeps apart."""
    spec, nd, q = ring
    x, V = np.linalg.eigh(_ring_x(spec, nd, q))
    # only pairs of levels inside one degenerate class survive the average
    want = np.zeros(spec.N)
    for c in _classes(x, 1.0 + abs(q) / (2.0 * spec.gamma)):
        want += (V[:, c] @ V[spec.n0, c]) ** 2
    got = steady_occupation(build_defect_system(spec, DefectSpec(nd, q))).values
    assert np.max(np.abs(got - want)) < 1e-8
