"""Exhaustive ground truth for small moduli.

Nothing here is clever and nothing here shares code with the codec under
test: residues come from literally squaring every x up to n/2 and
keeping the squares that are units, and the certifier replays every
index against that enumeration.  Kept separate so a bug in the fast
path cannot hide itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .errors import FactorizationError, _format_int
from .indexing import FactoredModulus, decode_index, encode_residue, index_space_size

__all__ = ["CertificationReport", "certify_bijection", "enumerate_qr", "factor_trial_division"]

_ENUMERATION_CAP = 10**6


def enumerate_qr(n: int) -> list[int]:
    """All quadratic residues modulo n, sorted, by squaring every unit.

    x and n - x have the same square, so only x in [1, n // 2] is
    squared; a square is a unit exactly when x is, so the units are
    picked from the distinct squares.  Capped at n <= 10**6 to keep the
    scan and its memory bounded.
    """
    n = operator.index(n)  # a float or string raises TypeError, as an index does
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {_format_int(n)}")
    if n > _ENUMERATION_CAP:
        raise ValueError(f"modulus {_format_int(n)} exceeds the enumeration cap {_ENUMERATION_CAP}")
    squares = {x * x % n for x in range(1, n // 2 + 1)}
    return sorted(z for z in squares if math.gcd(z, n) == 1)


def factor_trial_division(n: int) -> FactoredModulus:
    """Factor n by trial division; small-modulus use only."""
    n = operator.index(n)  # a float or string raises TypeError, as an index does
    if n < 2:
        raise FactorizationError(f"modulus must be >= 2, got {_format_int(n)}")
    if n > _ENUMERATION_CAP:
        raise FactorizationError(
            f"refusing trial division above {_ENUMERATION_CAP}, got {_format_int(n)}"
        )
    two_exponent = 0
    while n % 2 == 0:
        two_exponent += 1
        n //= 2
    odd_parts = []
    p = 3
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                k += 1
                n //= p
            odd_parts.append((p, k))
        p += 2
    if n > 1:
        odd_parts.append((n, 1))
    return FactoredModulus(two_exponent, odd_parts)


@dataclass
class CertificationReport:
    """Outcome of one full-bijection check; passed means no failures."""

    n: int
    indices_checked: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def certify_bijection(m: FactoredModulus) -> CertificationReport:
    """Prove decode is a bijection onto the enumerated residues for one N.

    Checks, in order: every index decodes without error; no two indices
    collide; the decoded image equals the brute-force enumeration as a
    set; encode inverts decode on every index.  Every violation lands in
    the report instead of raising, so a sweep over many moduli reports
    all offenders at once.
    """
    size = index_space_size(m)
    report = CertificationReport(n=m.n, indices_checked=size)
    expected = enumerate_qr(m.n)
    if size != len(expected):
        report.failures.append(
            f"index space size {size} but enumeration found {len(expected)} residues"
        )
    seen: dict[int, int] = {}
    for index in range(1, size + 1):
        try:
            z = decode_index(m, index)
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
            back = encode_residue(m, z)
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
    return report
