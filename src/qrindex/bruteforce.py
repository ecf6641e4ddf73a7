"""Exhaustive ground truth for small moduli.

Nothing here is clever and nothing here shares code with the codec under
test: the module's own trial division finds the prime divisors of n,
the units up to n/2 are what is left when their multiples are struck
out, and residues come from literally squaring those units.  The
certifier decodes every index and encodes the image in one batch call
each, and checks both against that enumeration; only when that batch
pass fails does it replay the indices one at a time, to name each
violation.  Kept separate so a bug in the fast path cannot hide itself.
"""

from __future__ import annotations

import itertools
import operator

from .errors import FactorizationError, _Record, _format_int
from .indexing import FactoredModulus, decode_indices, encode_residues, index_space_size

__all__ = ["CertificationReport", "certify_bijection", "enumerate_qr", "factor_trial_division"]

_ENUMERATION_CAP = 10**6


def enumerate_qr(n: int) -> list[int]:
    """All quadratic residues modulo n, sorted, by squaring every unit.

    The units are found first: the module's own trial division gives the
    prime divisors of n, and their multiples are struck out.  x and n - x
    have the same square, so only the units in [1, n // 2] are squared,
    and the square of a unit is a unit, so every square is kept.  Capped
    at n <= 10**6 to keep the scan and its memory bounded.
    """
    n = operator.index(n)  # a float or string raises TypeError, as an index does
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {_format_int(n)}")
    if n > _ENUMERATION_CAP:
        raise ValueError(f"modulus {_format_int(n)} exceeds the enumeration cap {_ENUMERATION_CAP}")
    half = n // 2
    units = bytearray(b"\x01") * (half + 1)
    for p, _ in _trial_division(n):
        units[::p] = bytes(half // p + 1)
    step = 2 - n % 2  # an even n has only odd units, so no even x is read
    survivors = itertools.compress(range(1, half + 1, step), units[1::step])
    return sorted({x * x % n for x in survivors})


def _trial_division(n: int) -> list[tuple[int, int]]:
    """The pairs (p, k), p ascending, with p**k exactly dividing n >= 2."""
    parts = []
    p, step = 2, 1
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                k += 1
                n //= p
            parts.append((p, k))
        p += step
        step = 2
    if n > 1:
        parts.append((n, 1))
    return parts


def factor_trial_division(n: int) -> FactoredModulus:
    """Factor n by trial division; small-modulus use only."""
    n = operator.index(n)  # a float or string raises TypeError, as an index does
    if n < 2:
        raise FactorizationError(f"modulus must be >= 2, got {_format_int(n)}")
    if n > _ENUMERATION_CAP:
        raise FactorizationError(
            f"refusing trial division above {_ENUMERATION_CAP}, got {_format_int(n)}"
        )
    parts = _trial_division(n)
    two_exponent = parts.pop(0)[1] if parts[0][0] == 2 else 0
    return FactoredModulus(two_exponent, parts)


class CertificationReport(_Record):
    """Outcome of one full-bijection check; passed means no failures, and
    ``failures`` defaults to a fresh empty list."""

    __slots__ = __match_args__ = ("n", "indices_checked", "failures")

    def __init__(self, n: int, indices_checked: int, failures: list[str] | None = None):
        self.n = n
        self.indices_checked = indices_checked
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures


def certify_bijection(m: FactoredModulus) -> CertificationReport:
    """Prove decode is a bijection onto the enumerated residues for one N.

    One batch pass decodes every index and encodes the decoded image; N
    passes when the index space size matches the enumeration, the sorted
    image equals it and encoding the image gives back ``1..size`` in
    order.  Otherwise every index is replayed alone to diagnose, in
    order: every index decodes without error; no two indices collide;
    encode inverts decode on every index; the decoded image equals the
    enumeration as a set.  Every violation lands in the report instead
    of raising, so a sweep over many moduli reports all offenders at
    once.
    """
    size = index_space_size(m)
    report = CertificationReport(n=m.n, indices_checked=size)
    expected = enumerate_qr(m.n)
    if size != len(expected):
        report.failures.append(
            f"index space size {size} but enumeration found {len(expected)} residues"
        )
    elif _batch_passes(m, size, expected):
        return report
    _diagnose(m, size, expected, report)
    return report


def _batch_passes(m: FactoredModulus, size: int, expected: list[int]) -> bool:
    """One batch decode of ``1..size`` and one batch encode of its image:
    the sorted image is ``expected`` and the encode gives ``1..size``."""
    try:
        image = decode_indices(m, range(1, size + 1))
        back = encode_residues(m, image)
        image.sort()
        return (
            image == expected
            and len(back) == size
            and all(map(operator.eq, back, range(1, size + 1)))
        )
    except Exception:
        return False


def _diagnose(m: FactoredModulus, size: int, expected: list[int], report: CertificationReport):
    """Replay every index alone, recording each violation in ``report``."""
    seen: dict[int, int] = {}
    for index in range(1, size + 1):
        try:
            z = decode_indices(m, (index,))[0]
        except Exception as exc:
            report.failures.append(f"decode({index}) raised {exc!r}")
            continue
        if z in seen:
            report.failures.append(
                f"decode collision: indices {seen[z]} and {index} both give {z}"
            )
            continue
        seen[z] = index
        try:
            back = encode_residues(m, (z,))[0]
        except Exception as exc:
            report.failures.append(f"encode({z}) raised {exc!r}")
            continue
        if back != index:
            report.failures.append(
                f"roundtrip broke: index {index} decodes to {z} but encodes to {back}"
            )
    image = sorted(seen)
    if image != expected:
        missing = sorted(set(expected) - set(image))[:5]
        extra = sorted(set(image) - set(expected))[:5]
        report.failures.append(
            f"image mismatch: missing {missing}, extraneous {extra}"
        )
