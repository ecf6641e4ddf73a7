"""Little-endian mixed-radix packing of digit tuples into one integer.

The first digit is the least significant: ``pack((d0, d1, d2), (r0, r1, r2))``
equals ``d0 + r0*(d1 + r1*d2)``.  Radix-1 positions are legal and their
digit is always 0.  The empty schedule addresses exactly one codeword, 0.
Radix order is whatever the caller fixes; nothing here assumes sorting.
"""

from .errors import IndexRangeError, _format_int


def schedule_size(radices) -> int:
    """Number of codewords the schedule addresses (the product of radices)."""
    size = 1
    for position, radix in enumerate(radices):
        if radix < 1:
            raise ValueError(f"radix at position {position} must be >= 1, got {_format_int(radix)}")
        size *= radix
    return size


def pack(digits, radices) -> int:
    """Pack digits into their little-endian mixed-radix value."""
    if len(digits) != len(radices):
        raise ValueError(f"{len(digits)} digits against {len(radices)} radices")
    for position, (digit, radix) in enumerate(zip(digits, radices)):
        if not 0 <= digit < radix:
            raise IndexRangeError(
                f"digit {_format_int(digit)} at position {position}"
                f" out of range for radix {_format_int(radix)}"
            )
    value = 0
    for digit, radix in zip(reversed(digits), reversed(radices)):
        value = value * radix + digit
    return value


def unpack(value: int, radices) -> tuple[int, ...]:
    """Recover the digit tuple from a packed value, by successive divmod."""
    size = schedule_size(radices)
    if not 0 <= value < size:
        raise IndexRangeError(
            f"value {_format_int(value)} out of range for schedule of size {_format_int(size)}"
        )
    digits = []
    for radix in radices:
        value, digit = divmod(value, radix)
        digits.append(digit)
    return tuple(digits)
