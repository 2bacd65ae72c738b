"""Shared exception types, the range check every input goes through and
the base of the checked records."""

import math
import operator
import sys
from typing import List, Union


class ConfigurationError(ValueError):
    """A run configuration or scenario wiring problem (bad parameter values,
    missing universe laws, parameter mismatch between scenario and laws)."""


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of panels before reaching tolerance.

    Carries the partial estimate (a float from ``quadrature.integrate``, or
    ``laws.k_integrals``' [k4u, k7u, k8u]) and the relative tolerance
    actually achieved.
    """

    def __init__(self, message: str, estimate: Union[float, List[float]], achieved_rel_tol: float):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_rel_tol = achieved_rel_tol


def check_range(name, value, low=0.0, high=math.inf, *, low_inclusive=False):
    """Raise a ConfigurationError naming `name` unless value is a finite real
    with low < value <= high (low <= value when low_inclusive), or a numpy
    array of them (empty passes; the message names the first that fails).

    Integers too large for a double count as non-finite. An array is only
    looked for once numpy is loaded: without numpy there can be none.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.ndarray):
        ok = np.isfinite(value) & (value <= high) & (value >= low if low_inclusive else value > low)
        if ok.all():
            return
        value = value[~ok].flat[0].item()
    try:
        ok = math.isfinite(value) and value <= high
        ok = ok and (low <= value if low_inclusive else low < value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        interval = f"{'[' if low_inclusive else '('}{low:g}, {high:g}{']' if high < math.inf else ')'}"
        raise ConfigurationError(f"{name} must be a finite number in {interval}, got {value!r}")


def check_integer(name, value, low, high=math.inf):
    """check_range for a count, low <= value <= high, that must also be an
    integer (``operator.index``: 4096.0 is refused); returns it as an int."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
    check_range(name, value, low, high, low_inclusive=True)
    return value


class _Record:
    """The base of the package's checked, immutable records: a frozen
    dataclass's behaviour at a small share of its import cost.

    A subclass lists its constructor's fields in ``_fields`` (defaults in
    ``_defaults``) and every attribute in ``__slots__``; its ``_check``
    checks the fields and sets the derived ones with ``object.__setattr__``.
    Equality, hash and repr read ``_fields`` and then ``_shown``, the derived
    fields they cover. ``_replace``, copies and pickles build a new record,
    so the checks and derivations run again.
    """

    __slots__ = ()
    _fields = _shown = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args))
        clash = len(args) > len(self._fields) or not values.keys().isdisjoint(kwargs)
        values = {**self._defaults, **values, **kwargs}
        if clash or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__}{self._fields} cannot take {args!r}, {kwargs!r}")
        for name in self._fields:
            object.__setattr__(self, name, values[name])
        self._check()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name} cannot be set or deleted")

    __delattr__ = __setattr__

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields + self._shown)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields + self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})
