"""A bijection between [1, |QR(N)|] and the quadratic residues modulo N.

Everything is driven by N's prime factorization ``2^k * p1^k1 * ... * pr^kr``,
which the caller must supply; nothing in this package ever factors.

A unit square z modulo N is pinned down by one square root modulo each
prime-power factor.  Choosing a canonical representative per factor turns
z into a tuple of bounded digits, and a fixed mixed-radix schedule packs
that tuple into a single integer:

* odd factor ``p**e``: the root x of z mod p with ``1 <= x <= (p-1)/2``,
  plus the lift digit ``c < p**(e-1)`` selecting ``y = x + c*p`` mod p**e
  (``c = 0`` when e = 1, kept as an explicit radix-1 digit);
* factor ``2**e`` with e > 3: the digit ``c < 2**(e-3)`` selecting the odd
  root ``y = 1 + 2*c`` below ``2**(e-2)``;
* factor ``2**e`` with e <= 3: the only residue is 1, the root is pinned
  to y = 1 and contributes no digit.

The schedule lists, in ascending-prime order, the pair ``(p-1)/2`` and
``p**(e-1)`` per odd factor, then ``2**(e-3)`` when e > 3; digits are
``x - 1``, ``c`` per odd factor, then the 2-part digit.  Indices are
1-based at the public boundary and 0-based inside the codec.

``decode_index`` maps an index to its residue in O(log^3 N) bit work,
over a CRT basis prepared with the modulus; ``encode_residue`` inverts
it via Tonelli-Shanks and Hensel lifting.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

from . import mixedradix
from .errors import (
    FactorizationError,
    IndexRangeError,
    NotAResidueError,
    NotCoprimeError,
    _format_int,
)
from .numbertheory import hensel_lift_sqrt, is_prime, sqrt_mod_2k, sqrt_mod_prime

# Largest modulus accepted, in bits: tens of thousands of bits are in
# scope, while a larger claimed factorization is refused before any work.
_MAX_MODULUS_BITS = 1 << 16


class PrimePower(NamedTuple):
    p: int
    k: int


@dataclass(frozen=True)
class RootProfile:
    """Canonical per-factor square-root choices for one residue.

    ``odd_roots`` holds one ``(x, c)`` pair per odd prime power, aligned
    with the modulus' ascending odd parts; ``two_part_digit`` is the c of
    ``y = 1 + 2*c`` and is present exactly when the 2-exponent exceeds 3.
    """

    odd_roots: tuple[tuple[int, int], ...]
    two_part_digit: int | None = None


class FactoredModulus:
    """A modulus N >= 2 together with its complete prime factorization.

    The single validator of a factorization: ``parse_factorization`` and
    ``factor_trial_division`` hand their ``(p, k)`` pairs here.  Each base
    is primality-tested once, after the ``_MAX_MODULUS_BITS`` size check.
    Raises FactorizationError on any invalid factorization.

    Attributes: ``two_exponent`` (exponent of 2), ``odd_parts`` (tuple of
    PrimePower, strictly ascending p), ``n`` (the product), ``r`` (count
    of distinct odd primes) and ``phi`` (Euler's totient).  The CRT basis
    is built here once.  Immutable and freely shareable across threads.
    """

    def __init__(self, two_exponent: int = 0, odd_parts=()):
        if two_exponent < 0:
            raise FactorizationError(f"exponent of 2 must be >= 0, got {_format_int(two_exponent)}")
        parts: dict[int, int] = {}
        for p, k in odd_parts:
            p, k = int(p), int(k)
            if k < 1:
                raise FactorizationError(f"zero exponent on base {_format_int(p)}")
            if p in parts:
                raise FactorizationError(f"repeated base {_format_int(p)}")
            parts[p] = k
        # Checked before any primality test or power is computed, so a
        # hostile exponent is refused at once.
        bits = two_exponent + sum(k * p.bit_length() for p, k in parts.items())
        if bits > _MAX_MODULUS_BITS:
            raise FactorizationError(
                f"modulus too large: its factors total {_format_int(bits)} bits,"
                f" over the bound of {_MAX_MODULUS_BITS}"
            )
        for p in parts:
            if not is_prime(p):
                raise FactorizationError(f"base {_format_int(p)} is not prime")
            if p == 2:
                raise FactorizationError(f"base {p} belongs in the 2-part, not the odd parts")

        self.two_exponent = int(two_exponent)
        self.odd_parts = tuple(sorted(PrimePower(p, k) for p, k in parts.items()))
        self.r = len(self.odd_parts)

        n = 1 << self.two_exponent
        phi = 1 << max(self.two_exponent - 1, 0)
        size = 1 << max(self.two_exponent - 3, 0)
        radices: list[int] = []
        part_moduli: list[int] = []
        for p, k in self.odd_parts:
            q = p ** k
            lower = q // p
            n *= q
            phi *= (p - 1) * lower
            size *= (p - 1) // 2 * lower
            radices += [(p - 1) // 2, lower]
            part_moduli.append(q)
        if self.two_exponent > 3:
            radices.append(1 << (self.two_exponent - 3))
        if self.two_exponent >= 1:
            part_moduli.append(1 << self.two_exponent)
        if n < 2:
            raise FactorizationError("empty factorization: the modulus must be at least 2")

        self.n = n
        self.phi = phi
        self._size = size
        self._radices = tuple(radices)
        self._part_moduli = tuple(part_moduli)
        # E_i is 1 mod q_i and 0 mod every other part: decode is one linear sum.
        self._crt_basis = tuple((n // q) * pow(n // q, -1, q) for q in part_moduli)

    def factor_string(self) -> str:
        terms = []
        if self.two_exponent == 1:
            terms.append("2")
        elif self.two_exponent > 1:
            terms.append(f"2^{self.two_exponent}")
        for p, k in self.odd_parts:
            terms.append(str(p) if k == 1 else f"{p}^{k}")
        return " * ".join(terms)

    def __repr__(self):
        return f"FactoredModulus({self.factor_string()!r})"

    def __eq__(self, other):
        if not isinstance(other, FactoredModulus):
            return NotImplemented
        return (self.two_exponent, self.odd_parts) == (other.two_exponent, other.odd_parts)

    def __hash__(self):
        return hash((self.two_exponent, self.odd_parts))


_TERM_RE = re.compile(r"\s*(\d+)\s*(?:\^\s*(\d+)\s*)?")


def parse_factorization(text: str) -> FactoredModulus:
    """Parse ``"2^5 * 3^2 * 7"`` style factor strings.

    Grammar: terms joined by ``*``, each ``base`` or ``base^exponent``,
    decimal digits, optional whitespace around ``*`` and ``^``.  Bases may
    arrive in any order.  This function only parses: it routes base 2
    into the 2-exponent and rejects the two faults only the text shows,
    a repeated or zero-exponent base 2; every other check is left to
    FactoredModulus.  Raises FactorizationError.
    """
    two_exponent = 0
    odd_parts = []
    for term in text.split("*"):
        match = _TERM_RE.fullmatch(term)
        if not match or not term.strip():
            raise FactorizationError(f"bad factor term {term.strip()!r}")
        try:
            base, exponent = int(match.group(1)), int(match.group(2) or 1)
        except ValueError:  # only the interpreter's int/str digit limit
            raise FactorizationError(
                f"numeral longer than the int/str limit of {sys.get_int_max_str_digits()} digits"
            ) from None
        if base != 2:
            odd_parts.append((base, exponent))
        elif exponent < 1:
            raise FactorizationError(f"zero exponent on base {base}")
        elif two_exponent:
            raise FactorizationError(f"repeated base {base}")
        else:
            two_exponent = exponent
    return FactoredModulus(two_exponent, odd_parts)


def index_space_size(m: FactoredModulus) -> int:
    """|QR(N)|, the number of valid indices.

    Equals ``2**max(k-3, 0)`` times the product of ``(p-1)/2 * p**(e-1)``
    over the odd parts, which for odd N is phi(N) / 2**r.
    """
    return m._size


def radix_schedule(m: FactoredModulus) -> tuple[int, ...]:
    """The ordered radix list the index codec packs against."""
    return m._radices


def index_to_profile(m: FactoredModulus, index: int) -> RootProfile:
    """Unpack a 1-based index into its per-factor root choices."""
    if not 1 <= index <= m._size:
        raise IndexRangeError(
            f"index {_format_int(index)} out of range for modulus {_format_int(m.n)}:"
            f" index space is 1..{_format_int(m._size)}"
        )
    digits = mixedradix.unpack(index - 1, m._radices)
    odd_roots = tuple(
        (digits[2 * i] + 1, digits[2 * i + 1]) for i in range(m.r)
    )
    two_part_digit = digits[-1] if m.two_exponent > 3 else None
    return RootProfile(odd_roots, two_part_digit)


def profile_to_index(m: FactoredModulus, profile: RootProfile) -> int:
    """Pack per-factor root choices back into their 1-based index."""
    _check_shape(m, profile)
    digits = []
    for x, c in profile.odd_roots:
        digits += [x - 1, c]
    if profile.two_part_digit is not None:
        digits.append(profile.two_part_digit)
    return mixedradix.pack(digits, m._radices) + 1


def profile_to_residue(m: FactoredModulus, profile: RootProfile) -> int:
    """Rebuild the residue: lift roots per factor, sum y_i*E_i mod N, square."""
    _check_shape(m, profile)
    root = 0
    for (p, k), q, e, (x, c) in zip(m.odd_parts, m._part_moduli, m._crt_basis, profile.odd_roots):
        if not 1 <= x <= (p - 1) // 2:
            raise IndexRangeError(f"root {_format_int(x)} not canonical for prime {_format_int(p)}")
        if not 0 <= c < q // p:
            raise IndexRangeError(
                f"lift digit {_format_int(c)} out of range for {_format_int(p)}**{k}"
            )
        root += (x + c * p) * e
    d = profile.two_part_digit
    if d is not None and not 0 <= d < 1 << (m.two_exponent - 3):
        raise IndexRangeError(f"2-part digit {_format_int(d)} out of range")
    if m.two_exponent >= 1:
        root += (1 + 2 * (d or 0)) * m._crt_basis[-1]
    root %= m.n
    return root * root % m.n


def residue_to_profile(m: FactoredModulus, z: int) -> RootProfile:
    """Extract canonical per-factor roots of a residue.

    z is reduced modulo N first.  Raises NotCoprimeError when z is not a
    unit and NotAResidueError when some local square root does not exist.
    """
    if z < 0:
        raise ValueError(f"residue must be a natural, got {_format_int(z)}")
    z %= m.n
    g = math.gcd(z, m.n)
    if g != 1:
        raise NotCoprimeError(
            f"{_format_int(z)} is not a unit modulo {_format_int(m.n)} (gcd {_format_int(g)})",
            gcd=g,
        )
    odd_roots = []
    for (p, k), q in zip(m.odd_parts, m._part_moduli):
        x = sqrt_mod_prime(z % p, p)
        # The lift keeps y = x (mod p), so x stays the canonical root.
        y = x if k == 1 else hensel_lift_sqrt(x, z % q, p, k)
        c, x = divmod(y, p)
        odd_roots.append((x, c))
    two_part_digit = None
    k2 = m.two_exponent
    # A unit is a square modulo 2**k2 exactly when it is 1 modulo 2**min(k2, 3).
    if k2 >= 2 and z % (4 if k2 == 2 else 8) != 1:
        raise NotAResidueError(f"{_format_int(z)} is not a quadratic residue modulo 2**{k2}")
    if k2 > 3:
        y2 = sqrt_mod_2k(z % (1 << k2), k2)
        two_part_digit = (y2 - 1) // 2
    return RootProfile(tuple(odd_roots), two_part_digit)


def decode_index(m: FactoredModulus, index: int) -> int:
    """Map an index in [1, |QR(N)|] to its quadratic residue modulo N."""
    return profile_to_residue(m, index_to_profile(m, index))


def encode_residue(m: FactoredModulus, z: int) -> int:
    """Map a quadratic residue modulo N to its index; inverse of decode_index."""
    return profile_to_index(m, residue_to_profile(m, z))


def is_quadratic_residue(m: FactoredModulus, z: int) -> bool:
    """Membership test via Euler's criterion per odd prime plus the 2-part
    congruence class (1 mod 4 for k = 2, 1 mod 8 for k >= 3)."""
    if z < 0:
        return False
    z %= m.n
    if math.gcd(z, m.n) != 1:
        return False
    for p, _ in m.odd_parts:
        if pow(z, (p - 1) // 2, p) != 1:
            return False
    return m.two_exponent < 2 or z % (4 if m.two_exponent == 2 else 8) == 1


def _check_shape(m: FactoredModulus, profile: RootProfile):
    if len(profile.odd_roots) != m.r:
        raise ValueError(
            f"profile has {len(profile.odd_roots)} odd roots, modulus has {m.r} odd parts"
        )
    if (profile.two_part_digit is not None) != (m.two_exponent > 3):
        raise ValueError("profile 2-part digit does not match the modulus shape")
