"""Exception types shared across the package, the strict-key checks of specs,
and the one reader of each kind of parameter: counts and rows of numbers."""

import numpy as np


class ParameterError(ValueError):
    """An argument is outside its documented domain."""


def _check_spec(obj, required, optional, context: str):
    """Raise unless obj is an object with every required key and no key besides
    the required and optional ones; optional=None allows any other key."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{context}: expected an object")
    if optional is not None:
        unknown = set(obj) - set(required) - set(optional)
        if unknown:
            raise ParameterError(f"{context}: unknown key(s) {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ParameterError(f"{context}: missing required key(s) {missing}")


def _spec_tag(spec, tag: str, keys: dict, context: str) -> str:
    """spec[tag], such as a source's family, once spec is checked against
    keys[spec[tag]]: its (required, optional) keys besides the tag."""
    _check_spec(spec, (tag,), None, context)
    value = spec[tag]
    if not isinstance(value, str) or value not in keys:
        raise ParameterError(f"{context}: unknown {tag} {value!r}")
    _check_spec(spec, keys[value][0], (tag, *keys[value][1]), context)
    return value


def _check_count(value, what: str, minimum: int) -> int:
    """value as an int, checked to be an integer >= minimum; a bool or a float
    such as 2.5 raises."""
    if isinstance(value, bool) or not hasattr(value, "__index__") or value < minimum:
        raise ParameterError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _param_rows(rows, what: str, symmetric: bool = False) -> np.ndarray:
    """rows as a read-only 2-d float array: nonempty, rectangular and finite, and
    with symmetric=True a symmetric square matrix."""
    try:
        a = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        raise ParameterError(f"{what} must be equal-length rows of numbers") from None
    if a.ndim != 2 or a.size == 0:
        raise ParameterError(f"{what} must be a nonempty list of equal-length rows")
    if not np.isfinite(a).all():
        raise ParameterError(f"{what} entries must be finite")
    if symmetric and (a.shape[0] != a.shape[1] or not np.allclose(a, a.T, atol=1e-10)):
        raise ParameterError(f"{what} must be a symmetric square matrix")
    a.setflags(write=False)
    return a


class CapacityError(RuntimeError):
    """An exact computation would exceed a configured size cap."""


class PreconditionError(RuntimeError):
    """A certified precondition of an experiment failed when re-checked."""
