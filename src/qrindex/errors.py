"""Error types shared across the package.

Everything derives from ValueError, so callers that do not care about the
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
