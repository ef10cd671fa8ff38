"""Exception types shared across the package, the strict-key checks of specs,
and the one reader of each kind of parameter: counts, real numbers, lists and
rows of numbers."""

import math

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


def _in_spec(context: str, build, *args, **kwargs):
    """build(*args, **kwargs), a ParameterError from it prefixed with context, the
    path of the spec that holds the arguments; nested specs are built, and named, first."""
    try:
        return build(*args, **kwargs)
    except ParameterError as e:
        raise ParameterError(f"{context}: {e}") from None


def _check_count(value, what: str, minimum: int) -> int:
    """value as an int, checked to be an integer >= minimum; a bool or a float
    such as 2.5 raises."""
    if isinstance(value, bool) or not hasattr(value, "__index__") or value < minimum:
        raise ParameterError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_real(value, what: str, interval: str = "") -> float:
    """value as a float, checked to be a finite real number, and to lie in
    interval when one is given, such as "(0, 1]" or "[1, inf)"; a bool, a string
    such as "1.0", None, a container, NaN and +-inf raise."""
    x = math.nan
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    ok = math.isfinite(x)
    if ok and interval:
        low, high = (float(end) for end in interval[1:-1].split(","))
        ok = ((low < x if interval[0] == "(" else low <= x)
              and (x < high if interval[-1] == ")" else x <= high))
    if not ok:
        where = f" in {interval}" if interval else ""
        raise ParameterError(f"{what} must be a finite number{where}, got {value!r}")
    return x


def _check_list(value, what: str) -> list:
    """value as a nonempty list; a list, tuple or array of one or more dimensions
    passes, and a string, an object, a number, a 0-d array or None raises."""
    if isinstance(value, (list, tuple, np.ndarray)) and getattr(value, "ndim", 1) and len(value):
        return list(value)
    raise ParameterError(f"{what} must be a nonempty list, got {value!r}")


def _param_rows(rows, what: str, symmetric: bool = False) -> np.ndarray:
    """rows as a read-only 2-d float array: a nonempty list of equal-length rows of
    finite numbers, each entry read by _check_real, and with symmetric=True a
    square matrix symmetric to 1e-10 of its largest |entry|."""
    rows = [[_check_real(v, f"{what}[{i}][{j}]") for j, v in
             enumerate(_check_list(row, f"{what}[{i}]"))]
            for i, row in enumerate(_check_list(rows, what))]
    if len(set(map(len, rows))) > 1:
        raise ParameterError(f"{what} must be equal-length rows")
    a = np.array(rows, dtype=float)
    if symmetric and (a.shape[0] != a.shape[1]
                      or np.abs(a - a.T).max() > 1e-10 * np.abs(a).max()):
        raise ParameterError(f"{what} must be a symmetric square matrix")
    a.setflags(write=False)
    return a


class CapacityError(RuntimeError):
    """An exact computation would exceed a configured size cap."""


class PreconditionError(RuntimeError):
    """A certified precondition of an experiment failed when re-checked."""
