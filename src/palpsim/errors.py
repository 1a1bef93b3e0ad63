"""Exception types shared across the package."""


class PalpSimError(Exception):
    """Base class for all palpsim errors."""


class ConfigInvalid(PalpSimError, ValueError):
    """Phantom/tumor configuration violates an invariant."""


class EmptyRegion(PalpSimError, ValueError):
    """Sampling region is empty or degenerate."""


class NoTumor(PalpSimError, ValueError):
    """Operation requires a tumor but the phantom has none."""


class EmptyAfterFilter(PalpSimError, ValueError):
    """Point-cloud filtering removed every point."""


class DegenerateCloud(PalpSimError, ValueError):
    """Cloud is collinear/coincident; no triangulation exists."""


class EmptyRoi(PalpSimError, ValueError):
    """ROI crop left no triangles."""


class ResolutionTooCoarse(PalpSimError, ValueError):
    """Grid resolution yields fewer than 2x2 valid cells."""


class InvalidCell(PalpSimError, KeyError):
    """Grid cell is out of range or masked invalid."""


class SingularKernel(PalpSimError, RuntimeError):
    """GP kernel matrix not positive definite even after jitter."""


class Exhausted(PalpSimError, RuntimeError):
    """No unvisited valid grid cell remains."""


class FrameMismatch(PalpSimError, ValueError):
    """Force reading is expressed in the wrong frame for this operation."""


class OutOfRange(PalpSimError, ValueError):
    """Scalar argument outside its documented domain."""


class NumericalBlowup(PalpSimError, RuntimeError):
    """Plant velocity exceeded the safety bound (misconfigured gains)."""


class NoContact(PalpSimError, RuntimeError):
    """Probe descended its full travel without touching the surface."""


class EmptyReconstruction(PalpSimError, ValueError):
    """No waypoint/probe qualified as a reconstruction point."""


class MalformedPly(PalpSimError, ValueError):
    """File cannot be read, or is not an ASCII PLY with an x, y, z vertex element."""


class EmptyCloud(PalpSimError, ValueError):
    """Metric requires nonempty point clouds."""


class Empty(PalpSimError, ValueError):
    """Aggregate over an empty collection."""


class AdmissibleForceExceeded(PalpSimError, RuntimeError):
    """Commanded force left the admissible bound (should never happen)."""
