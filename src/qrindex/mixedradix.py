"""Little-endian mixed-radix packing of digit tuples into one integer.

The first digit is the least significant: ``pack((d0, d1, d2), (r0, r1, r2))``
equals ``d0 + r0*(d1 + r1*d2)``.  Radix-1 positions are legal and their
digit is always 0.  The empty schedule addresses exactly one codeword, 0.
Radix order is whatever the caller fixes; nothing here assumes sorting.

``pack`` is the one checker of a digit tuple, the ``RootProfile`` functions'
included; it, ``unpack`` and ``schedule_size`` raise TypeError for a
non-integer digit, value or radix, as ``range`` does.
"""

import operator

from .errors import IndexRangeError, _format_int


def schedule_size(radices) -> int:
    """Number of codewords the schedule addresses (the product of radices)."""
    size = 1
    for position, radix in enumerate(radices):
        size *= _radix(position, radix)
    return size


def _radix(position: int, radix) -> int:
    radix = operator.index(radix)
    if radix < 1:
        raise ValueError(f"radix at position {position} must be >= 1, got {_format_int(radix)}")
    return radix


def pack(digits, radices) -> int:
    """Pack digits into their little-endian mixed-radix value.

    Raises ValueError when the digit and radix counts differ, TypeError
    for a non-integer digit or radix, ValueError naming a radix below 1,
    as ``unpack`` does, and IndexRangeError naming the first digit
    outside ``0 <= digit < radix``, with its ``position`` set.  Each
    position is checked in that order before the next is read.
    """
    if len(digits) != len(radices):
        raise ValueError(f"{len(digits)} digits against {len(radices)} radices")
    value, place = 0, 1
    for position, (digit, radix) in enumerate(zip(digits, radices)):
        digit, radix = operator.index(digit), _radix(position, radix)
        if not 0 <= digit < radix:
            raise IndexRangeError(
                f"digit {_format_int(digit)} at position {position}"
                f" out of range for radix {_format_int(radix)}",
                position=position,
            )
        value += digit * place
        place *= radix
    return value


def unpack(value: int, radices) -> tuple[int, ...]:
    """Recover the digit tuple from a packed value, by successive divmod.

    Raises TypeError for a non-integer value or radix, ValueError naming
    the first radix below 1, then IndexRangeError past the schedule, in
    that order.  Each radix is checked as its digit is peeled.  A value
    past the schedule leaves a quotient above 0 and a negative one a
    quotient below 0, so the schedule's size is computed only to word
    that error, from radices read once into a tuple.
    """
    value = operator.index(value)
    radices = tuple(radices)
    rest, digits = value, []
    for position, radix in enumerate(radices):
        rest, digit = divmod(rest, _radix(position, radix))
        digits.append(digit)
    if rest:
        raise IndexRangeError(
            f"value {_format_int(value)} out of range for schedule of size"
            f" {_format_int(schedule_size(radices))}"
        )
    return tuple(digits)
