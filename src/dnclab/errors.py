"""Exception types shared across the laboratory."""


class LabError(Exception):
    """Base class for all dnclab errors."""


class StabilizationFailure(LabError):
    """Kernel/cokernel counts disagree between truncation levels, or the
    linear-algebra index contradicts the structural one."""


class NotRepresentable(LabError):
    """Requested operation leaves the shift-plus-finite-window operator class."""


class NotGLK(LabError):
    """Operator is not an invertible compact (finite-rank) perturbation of the identity."""


class NotTransversal(LabError):
    """Image plus subspace does not span the codomain."""


class ComplementFailure(NotTransversal):
    """A preimage's constructed complement fails its rank verification."""


# Filtration pullbacks raise the same condition under the name the module uses.
NotTransverse = NotTransversal


class DomainError(LabError):
    """Argument outside the operation's domain (e.g. retraction parameter not in [0,1])."""


class DepthMismatch(LabError):
    """Flags or filtrations of unequal depth combined."""


class OffManifold(LabError):
    """Point does not satisfy the manifold constraints to tolerance."""


class NoConvergence(LabError):
    """Newton/Gauss-Newton projection failed to converge."""


class RadiusExceeded(LabError):
    """Normal vector longer than the tubular map's validity radius."""


class OutsideChart(LabError):
    """Point not in the image of the requested chart."""


class FiberMismatch(LabError):
    """Elements over different scalar fiber coordinates combined."""


class NotComposable(LabError):
    """Groupoid elements whose source/target do not match."""


class EmptyFirstLevel(LabError):
    """Open subset misses the first flag level."""


class DimensionTooSmall(LabError):
    """Dimension sequence too small for the requested construction."""


class MissingWitness(LabError):
    """Construction requires normality witnesses that were not supplied."""


class NotCovering(LabError):
    """Map fails the local-diffeomorphism or constant-fiber test."""


class PreconditionFailed(LabError):
    """A named hypothesis of a verification suite does not hold."""


class UnknownSuite(LabError):
    """Suite name not present in the registry."""


class ConfigError(LabError):
    """Invalid harness configuration."""
