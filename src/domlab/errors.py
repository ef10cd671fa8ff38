"""Exception types shared across the package, and the strict-key checks of specs."""


class ParameterError(ValueError):
    """An argument is outside its documented domain."""


def _check_keys(obj: dict, allowed, context: str):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ParameterError(f"{context}: unknown key(s) {sorted(unknown)}")


def _require(obj: dict, keys, context: str):
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ParameterError(f"{context}: missing required key(s) {missing}")


class CapacityError(RuntimeError):
    """An exact computation would exceed a configured size cap."""


class PreconditionError(RuntimeError):
    """A certified precondition of an experiment failed when re-checked."""
