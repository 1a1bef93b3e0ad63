"""Exception types shared across the package, and ``check_ranges``, the one
range check of the config dataclasses, whose fields declare their bounds
with ``above`` and ``at_least``."""

import math
from dataclasses import MISSING, field, fields


class PalpSimError(Exception):
    """Base class for all palpsim errors."""


class ConfigInvalid(PalpSimError, ValueError):
    """Configuration names an unknown choice, breaks a rule across fields, or
    a config file cannot be read or parsed."""


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
    """Grid cell is out of range, masked invalid or already sampled."""

    __str__ = Exception.__str__  # the message as given, not KeyError's quoted repr


class SingularKernel(PalpSimError, RuntimeError):
    """GP kernel matrix not positive definite even after jitter."""


class Exhausted(PalpSimError, RuntimeError):
    """No unvisited valid grid cell remains."""


class FrameMismatch(PalpSimError, ValueError):
    """Force reading is expressed in the wrong frame for this operation."""


class OutOfRange(PalpSimError, ValueError):
    """Number outside its own domain: a config field that breaks its declared
    bound or is not finite, or an argument outside its documented range."""


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


def above(lo, default=MISSING):
    """Dataclass field whose value, or each component of a tuple value, must be > ``lo``."""
    return field(default=default, metadata={"bound": (">", lo)})


def at_least(lo, default=MISSING):
    """Dataclass field whose value, or each component of a tuple value, must be >= ``lo``."""
    return field(default=default, metadata={"bound": (">=", lo)})


def check_ranges(obj) -> None:
    """Raise ``OutOfRange`` naming the field if a float of dataclass ``obj``
    (tuple components included) is not finite, or if a value breaks the
    bound its field declares.  The bound test is ``not (lo < x)``, so NaN
    fails it too."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        op, lo = f.metadata.get("bound", ("", None))
        for i, x in enumerate(value if isinstance(value, tuple) else (value,)):
            name = f"{f.name}[{i}]" if isinstance(value, tuple) else f.name
            if isinstance(x, float) and not math.isfinite(x):
                raise OutOfRange(f"{name} must be finite, got {x}")
            if op and not (lo < x if op == ">" else lo <= x):
                raise OutOfRange(f"{name} must be {op} {lo}, got {x}")
