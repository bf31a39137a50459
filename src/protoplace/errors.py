"""Exception types shared across the package, and the integer and real-number
checks of the config dataclasses."""
import numbers


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class ParameterError(ValueError):
    """A numeric parameter is outside its valid range."""


class ValidationError(ValueError):
    """A dataset or model invariant does not hold."""


class FormatError(ValueError):
    """A file does not match the expected on-disk format."""


class CapacityError(ValueError):
    """A sampling request exceeds what the dataset can supply."""


class ConfigError(ValueError):
    """A run configuration is malformed or names unknown keys."""


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss)."""


def require_ints(obj, *names: str) -> None:
    """ParameterError unless each named field of `obj` is an integer or None;
    a float (even 2.0) or a bool is rejected, not truncated."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, numbers.Integral)):
            raise ParameterError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """ParameterError unless `value` is a real number: an int or a float, NaN
    and the infinities included, since each caller states its own range.  A
    bool is rejected, though Python counts it as an int, and so is a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")


def require_trace(name: str, value) -> None:
    """ParameterError unless `value` is a list of real numbers (require_real),
    as model.json and refiner.json record a loss trace."""
    if not isinstance(value, list):
        raise ParameterError(f"{name} must be a list, got {value!r}")
    for x in value:
        require_real(f"{name} entry", x)
