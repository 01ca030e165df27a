"""Exception hierarchy shared across the package, and its one option rule."""

import math
import numbers


class SynthweaveError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SynthweaveError):
    """Malformed tabular data: bad CSV cells, schema mismatches, empty columns."""


class PlanError(SynthweaveError):
    """A synthesis plan violates its invariants against the data."""


class MethodError(SynthweaveError):
    """A conditional model cannot be fit or sampled as requested."""


class UtilityError(SynthweaveError):
    """A utility statistic cannot be computed from the given inputs."""


def check_option(
    error: type[SynthweaveError], name: str, value, minimum=None, *, whole=False, above=False
) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a finite number
    (numpy's too, never a bool), a whole one if ``whole``, and at least
    ``minimum`` (above it if ``above``) when one is given."""
    kind = numbers.Integral if whole else numbers.Real
    # a whole number is finite; math.isfinite would overflow on a huge int
    if isinstance(value, bool) or not isinstance(value, kind) or not (whole or math.isfinite(value)):
        raise error(f"{name} must be {'a whole' if whole else 'a finite'} number, got {value!r}")
    if minimum is not None and not (value > minimum if above else value >= minimum):
        raise error(f"{name} must be {'>' if above else '>='} {minimum}, got {value!r}")
