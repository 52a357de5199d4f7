"""Exception types shared across the solver modules."""


class DefectChainError(Exception):
    """Base class for all solver errors."""


class ConfigError(DefectChainError):
    """Invalid run configuration."""


class PoleCountMismatch(DefectChainError):
    """Root search disagrees with the spectrum: a negative root count in an
    interval (M defects), or one defect's roots off the dense even levels
    (oracle.check_defect_roots)."""


class NonSimplePole(DefectChainError):
    """The M-defect engine could not tell whether a free level is a root of
    its secular equation (one defect has only simple poles and never raises it)."""


class NormalizationDrift(DefectChainError):
    """A probability profile drifted away from unit total."""


class NotReached(DefectChainError):
    """No deviation from ballistic growth found within the search horizon."""


class DuplicateDefectSite(DefectChainError):
    """Two defects were placed on the same lattice site."""


class DegeneracyAmbiguity(DefectChainError):
    """An eigenvalue gap fell inside the unreliable classification band."""


class NotConverged(DefectChainError):
    """An iteration hit its cap or missed its target: time integration, or
    the root finder's sweeps."""
