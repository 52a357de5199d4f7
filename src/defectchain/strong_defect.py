"""Infinite defect strength: the exact steady profile with its mirror-site
enhancement, and the leading-order limit moments.

With the particle started on the defect site the limit is complete
localization.  Otherwise the steady profile collapses to

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
from .lattice import LatticeSpec, periodic_distances, site_index


def mirror_site(spec: LatticeSpec, nd: int) -> int:
    """Reflection of the start site through the defect: (2 nd - n0) mod N."""
    return site_index(2 * site_index(nd, spec.N) - spec.n0, spec.N)


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
    """Limit moments about the start site, leading order: the flat profile's
    sum_n [n - n0]^p / N (p = 1 or 2), i.e. steady_profile_infinite_q without
    its three Kronecker terms, so it takes no nd.  For a defect at ring
    distance 0 < d <= N/4 from n0 the mean is exact, as the mirror's +d/N
    cancels the defect's -d/N, but the MSD drops the d^2/N the two add;
    nd = n0 (full localization) has both moments 0.  The exact moments of any
    geometry are those of steady_profile_infinite_q (`defectchain infq`)."""
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    return int(np.sum(periodic_distances(spec.N, spec.n0) ** p)) / spec.N
