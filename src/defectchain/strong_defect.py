"""Infinite defect strength: the order-2 residue limit of the response
series, the exact steady profile with its mirror-site enhancement, the
limit corrections, and the limit moments.

With the particle started on the defect site the limit is complete
localization.  Otherwise the response becomes a q-independent series over
the odd Chebyshev angles theta_k = pi (2k - 1) / N, and the steady profile
collapses to

    Pbar_n = 3/(2N) at n0 and at the mirror site (2 nd - n0) mod N,
             0      at nd,
             1/N    elsewhere,

whose Kronecker algebra is self-normalizing even when the mirror collides
with n0 (separation N/2 on an even ring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .homogeneous import SiteProfile
from .lattice import LatticeSpec, periodic_distance, site_index
from .single_defect import _steady_pole_sums
from .spectral import strong_defect_nodes


@dataclass(frozen=True)
class StrongDefectSeries:
    """Phi(t) = -i gamma_tilde sum_k F_k exp(2 i gamma t cos theta_k)."""

    theta: np.ndarray
    x: np.ndarray
    F: np.ndarray
    gamma_tilde: float
    gamma: float

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        ph = np.exp(2j * self.gamma * np.multiply.outer(t, self.x))
        out = -1j * self.gamma_tilde * (ph @ self.F)
        return out if out.ndim else out[()]


def mirror_site(spec: LatticeSpec, nd: int) -> int:
    """Reflection of the start site through the defect: (2 nd - n0) mod N."""
    return site_index(2 * site_index(nd, spec.N) - spec.n0, spec.N)


def phi_infinite_q(spec: LatticeSpec, nd: int) -> StrongDefectSeries:
    """Limit response series; identically zero when nd = n0 (full localization)."""
    nd = site_index(nd, spec.N)
    d = periodic_distance(nd, spec.n0, spec.N)
    theta, x = strong_defect_nodes(spec.N)
    F = np.sin(d * theta) * np.sin(theta)
    return StrongDefectSeries(theta, x, F, 4.0 * spec.gamma / spec.N, spec.gamma)


def steady_profile_infinite_q(spec: LatticeSpec, nd: int) -> SiteProfile:
    """Exact steady profile in the infinite-strength limit.

    The Kronecker terms are applied literally; when the mirror site lands
    on n0 the two enhancements stack on one site and the profile stays
    normalized without adjustment (flagged mirror_collision).
    """
    N = spec.N
    nd = site_index(nd, N)
    if nd == spec.n0:
        values = np.zeros(N)
        values[nd] = 1.0
        return SiteProfile(values, "steady")
    m = mirror_site(spec, nd)
    values = np.full(N, 1.0 / N)
    values[m] += 0.5 / N
    values[spec.n0] += 0.5 / N
    values[nd] -= 1.0 / N
    return SiteProfile(values, "steady", mirror_collision=(m in (spec.n0, nd)))


def steady_corrections_infinite_q(spec: LatticeSpec, nd: int) -> tuple[np.ndarray, np.ndarray]:
    """Limit corrections (Ibar_n, Kbar_n) from the node sums.

    These are the q -> infinity limits of the finite-strength pole sums
    under q f_j -> -gamma_tilde F_k, x_j -> cos theta_k:

    Ibar_n = -(gamma_tilde / N^2) sum_l F_l [ sum_k cos(2 pi k (n0-nd)/N) / C_k(x_l)
                                              + sum_k' cos(2 pi k (2n-n0-nd)/N) / C_k(x_l) ]
    Kbar_n = (4 gamma^2 / N^4) [ sum_l F_l^2 |Z_l(n)|^2 + sum_k R_k^2
                                 + sum_k' R_k^2 cos(4 pi k (n-nd)/N) ]
    with R_k = sum_l F_l / C_k(x_l) and the same half-band mode range k'
    as in the finite-q steady state.  Pbar + Ibar + Kbar reproduces
    steady_profile_infinite_q exactly, for every geometry.
    """
    N, gamma = spec.N, spec.gamma
    nd = site_index(nd, N)
    if nd == spec.n0:
        raise ValueError("nd = n0 is the full-localization branch; no correction sums")
    d = periodic_distance(nd, spec.n0, N)
    theta, xl = strong_defect_nodes(N)
    F = np.sin(d * theta) * np.sin(theta)
    gt = 4.0 * gamma / N

    ck = np.cos(2.0 * np.pi * np.arange(N) / N)
    C = gamma * (ck[:, None] - xl[None, :])        # (N, L)
    I, K = _steady_pole_sums(C, F, spec.n0, nd)
    return -(gt / N ** 2) * I, (4.0 * gamma ** 2 / N ** 4) * K


def interference_closed_form_infinite_q(spec: LatticeSpec, nd: int) -> np.ndarray:
    """Kronecker-delta closed form of the limit Ibar, valid away from mirror
    collisions: a flat offset plus -1/N at n0 and nd (odd N) or at those two
    sites and their antipodes (even N)."""
    N = spec.N
    nd = site_index(nd, N)
    if N % 2 == 0:
        I = np.full(N, -(N - 4.0) / N ** 2)
        sites = (spec.n0, nd, (spec.n0 + N // 2) % N, (nd + N // 2) % N)
    else:
        I = np.full(N, -(N - 2.0) / N ** 2)
        sites = (spec.n0, nd)
    for s in sites:
        I[s] -= 1.0 / N
    return I


def steady_moments_infinite_q(p: int, spec: LatticeSpec) -> float:
    """Limit moments about the start site, closed form.

    Valid whenever the mirror site sits at ring distance 2|nd - n0| from
    n0, i.e. |nd - n0| <= N/4; for wrapped mirrors recompute from the
    profile instead.
    """
    N = float(spec.N)
    if spec.N % 2 == 0:
        if p == 1:
            return N / 4.0
        if p == 2:
            return (N * N + 2.0) / 12.0
    else:
        if p == 1:
            return N / 4.0 - 1.0 / (4.0 * N)
        if p == 2:
            return (N * N - 1.0) / 12.0
    raise ValueError(f"p must be 1 or 2, got {p}")
