"""Exception types shared across the solver modules."""


class DefectChainError(Exception):
    """Base class for all solver errors."""


class ConfigError(DefectChainError):
    """Invalid run configuration; carries a field-level diagnostic."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class PoleCountMismatch(DefectChainError):
    """Root search found a different pole count than the spectrum implies."""


class NonSimplePole(DefectChainError):
    """A retained pole failed the simple-pole derivative threshold."""


class NormalizationDrift(DefectChainError):
    """A probability profile drifted away from unit total."""


class NotReached(DefectChainError):
    """No deviation from ballistic growth found within the search horizon."""


class DuplicateDefectSite(DefectChainError):
    """Two defects were placed on the same lattice site."""


class DegeneracyAmbiguity(DefectChainError):
    """An eigenvalue gap fell inside the unreliable classification band."""


class NotConverged(DefectChainError):
    """Time integration hit its cap before reaching the stationary state."""
