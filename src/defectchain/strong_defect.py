"""Infinite defect strength: the limit of the response series over the odd
nodes, the exact steady profile with its mirror-site enhancement, and the
leading-order limit moments.

With the particle started on the defect site the limit is complete
localization.  Otherwise the response becomes a q-independent series over
the odd Chebyshev angles theta_k = pi (2k - 1) / N, and the steady profile
collapses to

    Pbar_n = 3/(2N) at n0 and at the mirror site (2 nd - n0) mod N,
             0      at nd,
             1/N    elsewhere,

whose Kronecker algebra is self-normalizing even when the mirror collides
with n0 (separation N/2 on an even ring).  It is the time average of the
open chain of N - 1 sites left when site nd is cut out of the ring.
"""

from __future__ import annotations

import numpy as np

from .homogeneous import SiteProfile
from .lattice import LatticeSpec, periodic_distance, site_index
from .single_defect import PhiSeries


def mirror_site(spec: LatticeSpec, nd: int) -> int:
    """Reflection of the start site through the defect: (2 nd - n0) mod N."""
    return site_index(2 * site_index(nd, spec.N) - spec.n0, spec.N)


def phi_infinite_q(spec: LatticeSpec, nd: int) -> PhiSeries:
    """Limit response series Phi(t) = -i (4 gamma / N) sum_k F_k exp(2 i gamma t x_k)
    over the nodes x_k = cos(theta_k), theta_k = pi (2k - 1) / N (k <= N/2),
    with F_k = sin(d theta_k) sin(theta_k) for the ring distance d between nd
    and n0; identically zero when nd = n0 (full localization)."""
    nd = site_index(nd, spec.N)
    d = periodic_distance(nd, spec.n0, spec.N)
    theta = np.pi * (2 * np.arange(1, spec.N // 2 + 1) - 1) / spec.N
    F = np.sin(d * theta) * np.sin(theta)
    return PhiSeries(np.cos(theta), -1j * (4.0 * spec.gamma / spec.N) * F, spec.gamma)


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
        return SiteProfile(values)
    m = mirror_site(spec, nd)
    values = np.full(N, 1.0 / N)
    values[m] += 0.5 / N
    values[spec.n0] += 0.5 / N
    values[nd] -= 1.0 / N
    return SiteProfile(values, mirror_collision=(m in (spec.n0, nd)))


def steady_moments_infinite_q(p: int, spec: LatticeSpec) -> float:
    """Limit moments about the start site, leading-order closed form.

    This is the leading, N-only term: it takes no nd.  For a defect at
    ring distance 0 < d <= N/4 from n0 (mirror site at distance 2d) the
    mean is exact, since the mirror's +d/N cancels the defect's -d/N, but
    the MSD drops the d^2/N the two add; nd = n0 (full localization) has
    both moments 0.  The exact moments of any geometry are those of
    steady_profile_infinite_q, which `defectchain infq` prints.
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
