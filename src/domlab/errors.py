"""Exception types shared across the package, and the strict-key checks of specs."""


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


def _spec_int(spec, key: str, context: str) -> int:
    """spec[key], checked to be an integer; a bool or a float such as 2.5 raises."""
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{context}: {key} must be an integer, got {value!r}")
    return value


class CapacityError(RuntimeError):
    """An exact computation would exceed a configured size cap."""


class PreconditionError(RuntimeError):
    """A certified precondition of an experiment failed when re-checked."""
