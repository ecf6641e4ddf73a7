"""Exhaustive ground truth for small moduli.

Nothing here is clever and nothing here shares code with the codec under
test: the module's own trial division finds the prime divisors of n,
the units up to n/2 are what is left when their multiples are struck
out, and residues come from literally squaring those units.  The
certifier decodes every index in one call and encodes the image in one
call, whether the modulus passes or fails, and reads every violation
off those two result lists, reported grouped by kind.  A clean decode,
distinct residues with nothing raised, is the image as it stands; only
another outcome is searched index by index for collisions.  The image
and the squares are compared as sets, and neither is sorted; only the
public ``enumerate_qr`` sorts its residues.  Kept separate so a bug in
the fast path cannot hide itself.
"""

from __future__ import annotations

import itertools
import operator

from .errors import FactorizationError, _Record, _format_int
from .indexing import FactoredModulus, decode_indices, encode_residues, index_space_size

__all__ = ["CertificationReport", "certify_bijection", "enumerate_qr", "factor_trial_division"]

_ENUMERATION_CAP = 10**6
_RAISED = object()  # the result of a value whose call raised: equals no result


def enumerate_qr(n: int) -> list[int]:
    """All quadratic residues modulo n, sorted, by squaring every unit.

    The units are found first: the module's own trial division gives the
    prime divisors of n, and their multiples are struck out.  x and n - x
    have the same square, so only the units in [1, n // 2] are squared,
    and the square of a unit is a unit, so every square is kept.  The
    squares form a set, which is sorted here.  Capped at n <= 10**6 to
    keep the scan and its memory bounded.
    """
    return sorted(_unit_squares(n))


def _unit_squares(n: int) -> set[int]:
    """The set of quadratic residues modulo n, as ``enumerate_qr`` finds
    them, unsorted: the certifier compares it with the decoded image as
    a set."""
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
    return {x * x % n for x in survivors}


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

    One call decodes every index and one call encodes the distinct
    residues decoded, whether N passes or fails.  The decode call takes
    ``range(1, size + 1)``, and reads what every decode on the modulus
    reads, the sampler's included: the core that ``decode_index`` runs,
    so that core is what is certified.  When the decode call raises
    nothing and gives ``size`` distinct residues, that list, in decode
    order, is what is encoded, each residue owned by its own index; any
    other outcome is read index by index, keeping the
    first index of each residue and naming every collision.  Every
    violation is read off those two result lists and reported grouped
    by kind, in this order: the index space size disagrees with the
    enumeration; an index fails to decode; two indices collide; a
    residue fails to encode; encode does not invert decode; the decoded
    image differs from the set of squared units.  Both sides of that
    last check are sets, compared without sorting either; a failure
    names the first five missing and extraneous residues in ascending
    order.  A result list of the wrong length is a violation too.  Only
    a call that raises is run again, one value at a time, to name each
    value that raises.  Every violation lands in the report instead of
    raising, so a sweep over many moduli reports all offenders at once.
    """
    size = index_space_size(m)
    report = CertificationReport(n=m.n, indices_checked=size)
    failures = report.failures
    expected = _unit_squares(m.n)
    if size != len(expected):
        failures.append(f"index space size {size} but enumeration found {len(expected)} residues")
    indices = range(1, size + 1)
    named = len(failures)
    decoded = _results(decode_indices, m, indices, "decode", failures)
    if len(failures) == named and len(image := set(decoded)) == size:
        # A clean decode: size distinct residues, each owned by its index.
        residues, owners = decoded, list(indices)
    else:
        first = {}  # each residue, in decode order, and the first index giving it
        for index, z in zip(indices, decoded):
            if z is not _RAISED and first.setdefault(z, index) != index:
                failures.append(f"decode collision: indices {first[z]} and {index} both give {z}")
        residues, owners = list(first), list(first.values())
        image = set(residues)
    back = _results(encode_residues, m, residues, "encode", failures)
    if back != owners:
        for z, index, got in zip(residues, owners, back):
            if got is not _RAISED and got != index:
                failures.append(
                    f"roundtrip broke: index {index} decodes to {z} but encodes to {got}"
                )
    if image != expected:
        missing = sorted(expected - image)[:5]
        extra = sorted(image - expected)[:5]
        failures.append(f"image mismatch: missing {missing}, extraneous {extra}")
    return report


def _results(batch, m: FactoredModulus, values, name: str, failures: list[str]) -> list:
    """``batch(m, values)``; if that raises, each value alone, with each
    value that raises named in ``failures`` and its result ``_RAISED``.
    A call that raises on the whole list but on no single value, and a
    result list whose length is not ``len(values)``, are named too."""
    try:
        results = batch(m, values)
    except Exception as batch_exc:
        results, named = [], len(failures)
        for value in values:
            try:
                results.append(batch(m, (value,))[0])
            except Exception as exc:
                failures.append(f"{name}({value}) raised {exc!r}")
                results.append(_RAISED)
        if len(failures) == named:
            failures.append(
                f"{name} raised {batch_exc!r} on {len(values)} values but on no single value"
            )
    if len(results) != len(values):
        failures.append(f"{name} gave {len(results)} results for {len(values)} values")
    return results
