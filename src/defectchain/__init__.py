"""Exact dynamics of a quantum particle on a periodic tight-binding chain
with one or more on-site energy defects, solved in closed form from the
roots of a secular equation and their eigenvectors, together with a
dense-diagonalization oracle and a classical barrier-walk baseline."""

from .errors import (ConfigError, DefectChainError, DegeneracyAmbiguity,
                     DuplicateDefectSite, NonSimplePole, NormalizationDrift,
                     NotConverged, NotReached, PoleCountMismatch)
from .homogeneous import (SiteProfile, estimate_tstar, fit_ballistic,
                          fit_tstar_scaling, green_profiles, moment_series,
                          steady_moment, steady_profile)
from .lattice import (LatticeSpec, periodic_distance, periodic_distances,
                      site_index)
from .multi_defect import build_two_defect_system
from .oracle import (BarrierWalkSpec, SpectralDecomposition,
                     barrier_walk_steady, bromwich_occupation,
                     build_hamiltonian, check_defect_roots,
                     defect_decomposition, evolve_exact, green_laplace,
                     occupation_exact, time_average_exact)
from .single_defect import (DefectSpec, DefectSystem, PhiSeries,
                            amplitude_profiles, build_defect_system,
                            defect_systems, moment_defect_series,
                            occupation_defect, occupation_defect_series,
                            phi_series, steady_corrections,
                            steady_moment_defect, steady_occupation)
from .spectral import PoleSet, find_poles
from .strong_defect import (mirror_site, phi_infinite_q,
                            steady_moments_infinite_q,
                            steady_profile_infinite_q)

__version__ = "0.1.0"
