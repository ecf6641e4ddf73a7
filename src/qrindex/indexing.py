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

``decode_index`` maps an index to its residue in O(log^3 N) bit work.
The CRT basis ``E_i`` sums to 1 modulo N, so the root at 0-based value
v is the linear form ``1 + sum(digit * scale * E)`` mod N over one step
``(radix, scale, E)`` per digit, prepared with the modulus: scale 1 for
the x digit, p for the c digit and 2 for the 2-part digit; radix-1
digits take no step.  ``encode_residue`` inverts it in one pass over
one prepared root step per odd part, in ascending-prime order: a
Tonelli-Shanks root that also yields its inverse, which starts the
Newton lift to ``p**e`` over the step's prepared precision ladder, each
digit added at its place value as it comes, then the 2-part digit at
the top place.  No digit list is built and no modular inverse is
taken.  The unit test, a gcd with N, runs only on the error path and
is the only one: z = 0 mod p fails that prime's Tonelli-Shanks step,
an even z fails the 2-part congruence class, and the gcd then names
either one not a unit.  The ``RootProfile`` functions are views over
the same digits.
"""

from __future__ import annotations

import math
import operator
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
    _pairs,
)
from .numbertheory import (
    _lift_inverse_root, _precision_ladder, _tonelli_shanks, _two_adic_split, is_prime,
    sqrt_mod_2k,
)

__all__ = [
    "FactoredModulus", "PrimePower", "RootProfile", "decode_index", "encode_residue",
    "index_space_size", "index_to_profile", "is_quadratic_residue", "parse_factorization",
    "profile_to_index", "profile_to_residue", "radix_schedule", "residue_to_profile",
]

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
    of distinct odd primes) and ``phi`` (Euler's totient).  Built here
    once: ``|QR(N)|``, the radix schedule, the decode steps, one
    ``(radix, scale, E)`` per radix above 1 with ``E`` the CRT basis
    element of its part (1 modulo that part, 0 modulo the others, one
    integer per part), and the encode root steps, one ``(p, p**k,
    (p-1)/2, p**(k-1), s, e, ladder)`` per odd part with ``p - 1 =
    (2e+1) * 2**s`` and ``ladder`` the Newton precisions ``p**2, p**4,
    ...`` capped at p**k, whose top rung is the step's p**k itself
    (empty when k = 1).  Both hold the schedule's own radix integers.
    Immutable and freely shareable across threads.
    """

    def __init__(self, two_exponent: int = 0, odd_parts=()):
        two_exponent = _integer(two_exponent)
        if two_exponent < 0:
            raise FactorizationError(f"exponent of 2 must be >= 0, got {_format_int(two_exponent)}")
        parts: dict[int, int] = {}
        for p, k in _pairs(odd_parts, "odd part", "(base, exponent)", FactorizationError):
            p, k = _integer(p), _integer(k)
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

        self.two_exponent = two_exponent
        self.odd_parts = tuple(sorted(PrimePower(p, k) for p, k in parts.items()))
        self.r = len(self.odd_parts)

        n = 1 << self.two_exponent
        phi = 1 << max(self.two_exponent - 1, 0)
        size = 1 << max(self.two_exponent - 3, 0)
        radices: list[int] = []
        root_steps = []
        two_part = []
        for p, k in self.odd_parts:
            q = p ** k
            half, lower = (p - 1) // 2, q // p
            n *= q
            phi *= (p - 1) * lower
            size *= half * lower
            radices += [half, lower]
            ladder = _precision_ladder(p, k, q)
            root_steps.append((p, q, half, lower, *_two_adic_split(p), ladder))
        if self.two_exponent > 3:
            radices.append(1 << (self.two_exponent - 3))
            # The 2-part root 1 + 2c is an odd part's x + cp with x fixed at 1.
            two_part.append((2, 1 << self.two_exponent, 1, radices[-1]))
        if n < 2:
            raise FactorizationError("empty factorization: the modulus must be at least 2")

        self.n = n
        self.phi = phi
        self._size = size
        self._radices = tuple(radices)
        # E is 1 mod its part q and 0 mod every other part: decode is one
        # linear sum.  The steps of a part share its E and keep the scale
        # apart, as storing p*E would add a modulus-sized integer per part.
        steps = []
        for p, q, half, lower, *_ in root_steps + two_part:
            if half * lower > 1:  # the part has a digit
                e = (c := n // q) * pow(c, -1, q)
                steps += [(r, scale, e) for r, scale in ((half, 1), (lower, p)) if r > 1]
        self._decode_steps = tuple(steps)
        self._root_steps = tuple(root_steps)

    def factor_string(self) -> str:
        """The factorization as ``parse_factorization`` reads it, bases
        ascending, such as ``"2^6 * 3 * 5"``.  A base with more decimal
        digits than the interpreter's int/str limit raises
        FactorizationError, as ``parse_factorization`` does for it."""
        try:
            return self._terms(str)
        except ValueError:  # only the interpreter's int/str digit limit
            raise FactorizationError(
                f"base longer than the int/str limit of {sys.get_int_max_str_digits()} digits"
            ) from None

    def __repr__(self):
        return f"FactoredModulus({self._terms(_format_int)!r})"

    def _terms(self, fmt) -> str:
        terms = [_power(2, self.two_exponent, fmt)] if self.two_exponent else []
        terms += [_power(p, k, fmt) for p, k in self.odd_parts]
        return " * ".join(terms)

    def __eq__(self, other):
        if not isinstance(other, FactoredModulus):
            return NotImplemented
        return (self.two_exponent, self.odd_parts) == (other.two_exponent, other.odd_parts)

    def __hash__(self):
        return hash((self.two_exponent, self.odd_parts))


def _power(p: int, k: int, fmt) -> str:
    return fmt(p) if k == 1 else f"{fmt(p)}^{k}"


def _integer(value) -> int:
    # operator.index refuses floats and strings that int() would round or parse.
    try:
        return operator.index(value)
    except TypeError:
        raise FactorizationError(f"factorization entries must be integers, got {value!r}") from None


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
        if not match:
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
    return _profile(m, mixedradix._digits(_zero_based(m, index), m._radices))


def profile_to_index(m: FactoredModulus, profile: RootProfile) -> int:
    """Pack per-factor root choices back into their 1-based index.

    Validates through ``mixedradix.pack``: ValueError when the profile's
    shape does not match the modulus, TypeError for a non-integer entry,
    IndexRangeError naming a root or digit out of range and its part.
    """
    return _pack_profile(m, profile) + 1


def profile_to_residue(m: FactoredModulus, profile: RootProfile) -> int:
    """Rebuild the residue the profile's roots square to.

    Raises exactly as ``profile_to_index`` does, through the same pack.
    """
    return _decode(m, _pack_profile(m, profile))


def residue_to_profile(m: FactoredModulus, z: int) -> RootProfile:
    """Extract canonical per-factor roots of a residue.

    z is reduced modulo N first.  Raises NotCoprimeError when z is not a
    unit, NotAResidueError when some local square root does not exist and
    TypeError when z is not an integer, as ``decode_index`` does for its
    index.
    """
    return _profile(m, mixedradix._digits(_residue_value(m, z), m._radices))


def decode_index(m: FactoredModulus, index: int) -> int:
    """Map an index in [1, |QR(N)|] to its quadratic residue modulo N.

    Evaluates the linear form ``1 + sum(digit * scale * E)`` mod N over
    the modulus' prepared decode steps, then squares: no profile is built.
    """
    return _decode(m, _zero_based(m, index))


def encode_residue(m: FactoredModulus, z: int) -> int:
    """Map a quadratic residue modulo N to its index; inverse of decode_index.

    One pass over the modulus' prepared root steps adds each digit at its
    place value: no digit list, no modular inverse, and the gcd with N,
    the only unit test, only when a step or the 2-part congruence class
    fails.  Raises as ``residue_to_profile`` does.
    """
    return _residue_value(m, z) + 1


def _zero_based(m: FactoredModulus, index: int) -> int:
    index = operator.index(index)  # a float raises TypeError, as range(2.0) does
    if not 1 <= index <= m._size:
        raise IndexRangeError(
            f"index {_format_int(index)} out of range for modulus {_format_int(m.n)}:"
            f" index space is 1..{_format_int(m._size)}"
        )
    return index - 1


def _decode(m: FactoredModulus, value: int) -> int:
    # The roots are 1 + digit*scale per part and the basis sums to 1 mod N.
    root = 1
    for radix, scale, e in m._decode_steps:
        value, digit = divmod(value, radix)
        root += digit * scale * e
    root %= m.n
    return root * root % m.n


def _residue_value(m: FactoredModulus, z: int) -> int:
    # The 0-based index of z, each digit in range by construction:
    # x <= (p-1)/2, c < p**(k-1) as y < p**k, and the 2-adic root is below
    # 2**(k2-2).  Ascending steps make the first failing prime the one named.
    z = operator.index(z)  # a float or string raises TypeError, as an index does
    if z < 0:
        raise ValueError(f"residue must be a natural, got {_format_int(z)}")
    n = m.n
    z %= n
    k2 = m.two_exponent
    value, place = 0, 1
    try:
        for p, q, x_radix, c_radix, s, e, ladder in m._root_steps:
            # One full-width reduction per part: z mod p comes from z mod p**k.
            # Tonelli-Shanks refuses z = 0 mod p as a non-residue too.
            zq = z % q
            x, r = _tonelli_shanks(zq % p, p, s, e)
            value += (x - 1) * place
            place *= x_radix
            if c_radix > 1:
                # The lift keeps y = x (mod p), so x stays the canonical root.
                value += _lift_inverse_root(r, zq, q, ladder) // p * place
                place *= c_radix
        if not _two_part_is_square(k2, z):
            raise NotAResidueError(f"{_format_int(z)} is not a quadratic residue modulo 2**{k2}")
    except NotAResidueError:
        # The one unit test: a non-unit outranks a non-residue at any prime.
        g = math.gcd(z, n)
        if g != 1:
            raise NotCoprimeError(
                f"{_format_int(z)} is not a unit modulo {_format_int(n)} (gcd {_format_int(g)})",
                gcd=g,
            ) from None
        raise
    if k2 > 3:
        value += (sqrt_mod_2k(z, k2) - 1) // 2 * place
    return value


def is_quadratic_residue(m: FactoredModulus, z: int) -> bool:
    """Membership test via Euler's criterion per odd prime plus the 2-part
    congruence class (odd for k = 1, 1 mod 4 for k = 2, 1 mod 8 for
    k >= 3).  A non-integer z raises TypeError."""
    z = operator.index(z)
    if z < 0:
        return False
    z %= m.n
    # Euler's criterion also refuses z = 0 mod p, as 0**((p-1)/2) = 0.
    for p, _, half, *_ in m._root_steps:
        if pow(z % p, half, p) != 1:
            return False
    return _two_part_is_square(m.two_exponent, z)


def _two_part_is_square(k2: int, z: int) -> bool:
    # A unit square modulo 2**k2 is exactly z = 1 modulo 2**min(k2, 3); for
    # k2 = 1 that means odd, and an even z, not a unit, is never one.
    return not k2 or z % (1 << min(k2, 3)) == 1


def _profile(m: FactoredModulus, digits) -> RootProfile:
    odd_roots = tuple((digits[2 * i] + 1, digits[2 * i + 1]) for i in range(m.r))
    return RootProfile(odd_roots, digits[-1] if m.two_exponent > 3 else None)


def _pack_profile(m: FactoredModulus, profile: RootProfile) -> int:
    # The profile's 0-based index, checked by pack; a digit out of range is
    # re-raised naming the value the caller passed (x, not x - 1).
    digits = []
    for x, c in _pairs(profile.odd_roots, "odd root", "(x, c)"):
        digits += [x - 1, c]
    if profile.two_part_digit is not None:
        digits.append(profile.two_part_digit)
    try:
        return mixedradix.pack(digits, m._radices)
    except IndexRangeError as exc:
        position = exc.position
    i, lift = divmod(position, 2)
    p, k = m.odd_parts[i] if i < m.r else (2, m.two_exponent)
    name = ("root x", "lift digit c")[lift] if i < m.r else "2-part digit"
    low = 1 if name == "root x" else 0
    raise IndexRangeError(
        f"{name} = {_format_int(digits[position] + low)} out of range"
        f" {low}..{_format_int(m._radices[position] - 1 + low)}"
        f" for prime power {_power(p, k, _format_int)}"
    )
