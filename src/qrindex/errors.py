"""Error types shared across the package, and the base of its records.

Every error derives from ValueError, so callers that do not care about the
exact failure mode can catch one builtin type.
"""

__all__ = ["FactorizationError", "IndexRangeError", "NotAResidueError", "NotCoprimeError"]


def _format_int(n: int) -> str:
    """n in decimal for an error message, or its bit length past the
    interpreter's int/str digit limit, where ``str(n)`` itself would raise."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit {'negative ' if n < 0 else ''}integer>"


def _wrong_type(noun: str, value, expected: type) -> TypeError:
    """The error for a noun of the wrong type, such as ``modulus must be a
    FactoredModulus, got str``; built only once an isinstance check fails."""
    return TypeError(f"{noun} must be a {expected.__name__}, got {type(value).__name__}")


def _pairs(items, noun: str, fields: str, error=ValueError):
    """Yield the entries of items as pairs, else raise error worded by noun
    and fields, such as ``part`` and ``(residue, modulus)``."""
    try:
        entries = enumerate(items)
    except TypeError:
        raise error(f"{noun}s must be an iterable of {fields} pairs") from None
    for position, entry in entries:
        try:
            a, b = entry
        except (TypeError, ValueError):
            # Named by position: the repr of a huge integer fails past the int/str limit.
            raise error(f"{noun} at position {position} is not a {fields} pair") from None
        yield a, b


class _Record:
    """Base of the package's records, whose ``__slots__`` and
    ``__match_args__`` name their fields in order.  As a dataclass, a
    record shows its fields in its repr, equals only a record of its own
    class with equal fields, is unhashable, and copies and pickles by its
    fields.  Plain classes keep ``dataclasses`` and the modules it imports
    out of ``import qrindex``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self):
        return type(self), self._values()


class _FrozenRecord(_Record):
    """A record whose fields are set once, through ``_set``, and then refuse
    assignment and deletion with AttributeError; hashed by its fields."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class NotCoprimeError(ValueError):
    """Two values that must be coprime share a nontrivial factor."""

    def __init__(self, message: str, gcd: int | None = None):
        super().__init__(message)
        self.gcd = gcd


class NotAResidueError(ValueError):
    """The value is not a quadratic residue for the requested modulus."""


class IndexRangeError(ValueError):
    """An index or digit lies outside its allowed range."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class FactorizationError(ValueError):
    """A claimed factorization is malformed or inconsistent."""
