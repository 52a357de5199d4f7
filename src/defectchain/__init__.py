"""Exact dynamics of a quantum particle on a periodic tight-binding chain
with one or more on-site energy defects, solved in closed form by pole and
residue calculus, together with a dense-diagonalization oracle and a
classical barrier-walk baseline."""

from .errors import (ConfigError, DefectChainError, DegeneracyAmbiguity,
                     DuplicateDefectSite, NonSimplePole, NormalizationDrift,
                     NotConverged, NotReached, PoleCountMismatch)
from .homogeneous import (SiteProfile, default_time_grid, estimate_tstar,
                          fit_ballistic, fit_tstar_scaling, green_profile,
                          green_time, moment_series, moment_time, occupation,
                          steady_moment, steady_profile)
from .lattice import (LatticeSpec, cosine_weighted_sum, distance_power_sum,
                      periodic_distance, periodic_distances, site_index)
from .multi_defect import (MultiDefectSystem, bromwich_occupation,
                           build_two_defect_system, two_defect_occupation,
                           two_defect_occupation_series)
from .oracle import (BarrierWalkSpec, SpectralDecomposition,
                     barrier_walk_steady, build_hamiltonian, evolve_exact,
                     occupation_exact, time_average_exact)
from .single_defect import (DefectSpec, DefectSystem, PhiSeries,
                            amplitude_profile, build_defect_system,
                            corrections, moment_defect_series,
                            moment_defect_time, occupation_defect,
                            occupation_defect_series, phi_series,
                            steady_corrections, steady_moment_defect,
                            steady_occupation)
from .spectral import PoleClass, PoleSet, find_poles, green_laplace
from .strong_defect import (StrongDefectSeries, mirror_site, phi_infinite_q,
                            steady_corrections_infinite_q,
                            steady_moments_infinite_q,
                            steady_profile_infinite_q, strong_defect_nodes)

__version__ = "0.1.0"
