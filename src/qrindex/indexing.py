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

Each direction of the codec is one batch loop, ``decode_indices`` and
``encode_residues``: it checks the modulus once, loads its prepared
steps once, then checks and maps each value in turn, raising at the
first bad one.  ``decode_index`` and ``encode_residue`` are their
one-element case.  Decoding an index to its residue takes
O(log^3 N) bit work.  ``FactoredModulus`` says how a modulus lays out
its parts and which tables it keeps; the two batch functions say how
each direction reads them.  The ``RootProfile`` views are
``decode_index`` and ``encode_residue`` composed with
``mixedradix.pack``/``unpack``.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from collections import namedtuple

from . import mixedradix
from .errors import (
    FactorizationError,
    IndexRangeError,
    NotAResidueError,
    NotCoprimeError,
    _FrozenRecord,
    _format_int,
    _pairs,
    _wrong_type,
)
from .numbertheory import (
    _MAX_BASE_BITS, _MAX_MODULUS_BITS, _lift_inverse_root, _nonresidue_power, _power,
    _precision_ladder, _tonelli_shanks, _two_adic_split, is_prime, sqrt_mod_2k,
)

__all__ = [
    "FactoredModulus", "PrimePower", "RootProfile", "decode_index", "decode_indices",
    "encode_residue", "encode_residues", "index_space_size", "index_to_profile",
    "is_quadratic_residue", "parse_factorization", "profile_to_index", "profile_to_residue",
    "radix_schedule", "residue_to_profile",
]


PrimePower = namedtuple("PrimePower", "p k")


class RootProfile(_FrozenRecord):
    """Canonical per-factor square-root choices for one residue.

    ``odd_roots`` holds one ``(x, c)`` pair per odd prime power, aligned
    with the modulus' ascending odd parts; ``two_part_digit`` is the c of
    ``y = 1 + 2*c`` and is present exactly when the 2-exponent exceeds 3.
    """

    __slots__ = __match_args__ = ("odd_roots", "two_part_digit")

    def __init__(
        self, odd_roots: tuple[tuple[int, int], ...], two_part_digit: int | None = None
    ):
        self._set(odd_roots, two_part_digit)


class FactoredModulus:
    """A modulus N >= 2 together with its complete prime factorization.

    The single validator of a factorization: ``parse_factorization`` and
    ``factor_trial_division`` hand their ``(p, k)`` pairs here.  Each base
    is primality-tested once, after the ``_MAX_MODULUS_BITS`` size check
    and the ``_MAX_BASE_BITS`` bound on each base.
    Raises FactorizationError on any invalid factorization.

    Attributes: ``two_exponent`` (exponent of 2), ``odd_parts`` (tuple of
    PrimePower, strictly ascending p), ``n`` (the product), ``r`` (count
    of distinct odd primes) and ``phi`` (Euler's totient).

    The constructor lays the parts out once, in one loop, as one record
    ``(p, q, half, count, place, k, E)`` per prime power ``q = p**k``:
    the odd parts ascending, then the 2-part when k2 >= 1, as the part
    with p = 2 and half = 1, whose root ``1 + 2*c`` is an odd part's
    ``x + c*p`` with x fixed at 1.  An odd part has ``half = (p-1)/2``
    and ``count = half * p**(k-1)`` residues, the 2-part ``count =
    2**max(k2-3, 0)``; ``place`` is the product of the counts before it
    and ``E`` the CRT basis element, 1 modulo q and 0 modulo the other
    parts, so the basis sums to 1 modulo N.  ``|QR(N)|``, the radix
    schedule, the profile views and both directions of the codec are
    read off these records.

    Each table is built by its first reader and kept in a plain
    attribute, set once, never by the constructor:

    * the residues of every index, in order, as a tuple, when ``|QR(N)|
      <= _BLOCK`` = 4096: one square modulo N per canonical root, walked
      in index order;
    * the root steps, one ``(p, q, half, count, place, table, root)`` per
      record.  An odd part's ``root = (s, e, c, ladder)``: ``p - 1 =
      (2e+1) * 2**s``, ``c`` the Tonelli-Shanks non-residue power of
      order 2**s and ``ladder`` the Newton precisions of the lift to q
      (``numbertheory._precision_ladder``); the 2-part's ``root = k2``.
      ``table`` maps each unit square modulo q to the part's digits ``x -
      1 + c*half``: ``{1: 0}`` when count is 1, else the part's own table
      of residues inverted while the tables, in record order, hold at
      most ``_TABLE_ENTRIES`` = 16384 entries in all, and None past that.

    Equality and hashing compare the factorization alone, and a pickle
    carries no table: a loaded copy builds its own on its first read.
    No state changes a result, so a modulus is freely shareable across
    threads.
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
        widest = max((p.bit_length() for p in parts), default=0)
        if widest > _MAX_BASE_BITS:
            raise FactorizationError(
                f"base too large: {widest} bits, over the per-base bound of {_MAX_BASE_BITS}"
            )
        for p in parts:
            if not is_prime(p):
                raise FactorizationError(f"base {_format_int(p)} is not prime")
            if p == 2:
                raise FactorizationError(f"base {p} belongs in the 2-part, not the odd parts")

        self.two_exponent = two_exponent
        self.odd_parts = tuple(sorted(PrimePower(p, k) for p, k in parts.items()))
        self.r = len(self.odd_parts)
        # The 2-part comes last, as p = 2: half = p >> 1 = 1 fixes its x at 1.
        powers = [(p, p**k, k) for p, k in self.odd_parts]
        if two_exponent:
            powers.append((2, 1 << two_exponent, two_exponent))
        self.n = n = math.prod([q for _, q, _ in powers])
        if n < 2:
            raise FactorizationError("empty factorization: the modulus must be at least 2")
        self.phi = math.prod([q - q // p for p, q, _ in powers])

        # Tuples of lists: a tuple of a generator is allocated oversized and
        # shrunk, so each modulus would park one more block on the
        # interpreter's tuple free lists.
        place, records = 1, []
        for p, q, k in powers:
            half = p >> 1
            count = half * (q // p) if p > 2 else max(q >> 3, 1)
            records.append((p, q, half, count, place, k, (cofactor := n // q) * pow(cofactor, -1, q)))
            place *= count
        self._size = place
        self._parts = tuple(records)
        self._digit_parts = tuple([part for part in records if part[3] > 1])
        self._root_steps = self._residues = None

    def __getstate__(self):
        # The tables are rebuilt by their first reader, so they stay out of a
        # pickle, which keeps its size whatever the modulus has decoded.
        return {**self.__dict__, "_root_steps": None, "_residues": None}

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
        terms = [_power_text(2, self.two_exponent, fmt)] if self.two_exponent else []
        terms += [_power_text(p, k, fmt) for p, k in self.odd_parts]
        return " * ".join(terms)

    def __eq__(self, other):
        if not isinstance(other, FactoredModulus):
            return NotImplemented
        return (self.two_exponent, self.odd_parts) == (other.two_exponent, other.odd_parts)

    def __hash__(self):
        return hash((self.two_exponent, self.odd_parts))


def _power_text(p: int, k: int, fmt) -> str:
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
    if not isinstance(m, FactoredModulus):
        raise _wrong_type("modulus", m, FactoredModulus)
    return m._size


def radix_schedule(m: FactoredModulus) -> tuple[int, ...]:
    """The ordered radix list the index codec packs against: ``(p-1)/2``
    and ``p**(k-1)`` per odd part, then the 2-part's count when above 1."""
    if not isinstance(m, FactoredModulus):
        raise _wrong_type("modulus", m, FactoredModulus)
    radices = []
    for p, q, half, count, *_ in m._parts:
        radices += (half, q // p) if p > 2 else [count] * (count > 1)
    return tuple(radices)


def index_to_profile(m: FactoredModulus, index: int) -> RootProfile:
    """Unpack a 1-based index into its per-factor root choices."""
    return _profile(m, mixedradix.unpack(_zero_based(m, index), radix_schedule(m)))


def profile_to_index(m: FactoredModulus, profile: RootProfile) -> int:
    """Pack per-factor root choices back into their 1-based index.

    Validates through ``mixedradix.pack``: ValueError when the profile's
    shape does not match the modulus, TypeError for a non-integer entry,
    IndexRangeError naming a root or digit out of range and its part.
    """
    if not isinstance(m, FactoredModulus):
        raise _wrong_type("modulus", m, FactoredModulus)
    if not isinstance(profile, RootProfile):
        raise _wrong_type("profile", profile, RootProfile)
    digits = []
    for x, c in _pairs(profile.odd_roots, "odd root", "(x, c)"):
        digits += [x - 1, c]
    if profile.two_part_digit is not None:
        digits.append(profile.two_part_digit)
    try:
        return mixedradix.pack(digits, radix_schedule(m)) + 1
    except IndexRangeError as exc:
        position = exc.position
    # Re-raised naming the value the caller passed (x, not x - 1) and its
    # part: an odd part's digits are x - 1 and c, the 2-part's c alone.
    p, k, name, low = [
        (p, k, *slot) for p, _, _, count, _, k, _ in m._parts
        for slot in ((("root x", 1), ("lift digit c", 0)) if p > 2 else [("2-part digit", 0)] * (count > 1))
    ][position]
    raise IndexRangeError(
        f"{name} = {_format_int(digits[position] + low)} out of range"
        f" {low}..{_format_int(radix_schedule(m)[position] - 1 + low)}"
        f" for prime power {_power_text(p, k, _format_int)}"
    )


def profile_to_residue(m: FactoredModulus, profile: RootProfile) -> int:
    """Rebuild the residue the profile's roots square to.

    Raises exactly as ``profile_to_index`` does, through the same pack.
    """
    return decode_index(m, profile_to_index(m, profile))


def residue_to_profile(m: FactoredModulus, z: int) -> RootProfile:
    """Extract canonical per-factor roots of a residue.

    Raises as ``encode_residue`` does.
    """
    return _profile(m, mixedradix.unpack(encode_residue(m, z) - 1, radix_schedule(m)))


def decode_index(m: FactoredModulus, index: int) -> int:
    """Map an index in [1, |QR(N)|] to its quadratic residue modulo N.

    The one-element case of ``decode_indices``, which raises as it does.
    """
    return decode_indices(m, (index,))[0]


def encode_residue(m: FactoredModulus, z: int) -> int:
    """Map a quadratic residue modulo N to its index; inverse of decode_index.

    The one-element case of ``encode_residues``, which raises as it does.
    """
    return encode_residues(m, (z,))[0]


def decode_indices(m: FactoredModulus, indices) -> list[int]:
    """Map each index in [1, |QR(N)|] to its quadratic residue modulo N.

    Checks the modulus once, then each index in turn: a non-integer
    raises TypeError, as ``range(2.0)`` does, and one outside the index
    space IndexRangeError, at the first bad index.  A modulus with at
    most ``_BLOCK`` residues looks each one up in its table of them.
    A larger one squares each part's canonical root modulo that part
    alone, the 2-part by a mask, and recombines the squares as ``1 +
    sum((y*y mod q - 1) * E)`` mod N over the records of its parts with
    a digit: no root modulo N is built or squared.  No profile is built.

    On a modulus with at most ``_BLOCK`` residues, a non-empty step-1
    ``range`` inside ``1..|QR(N)|`` is a slice of the table, copied into
    a new list.  Any other iterable, every other range included, takes
    the per-index path, with the same results; an empty range gives
    ``[]`` and walks no table:

    >>> from qrindex import index_space_size, parse_factorization
    >>> m = parse_factorization("2^5 * 3^2 * 5")
    >>> indices = range(1, index_space_size(m) + 1)
    >>> decode_indices(m, indices) == decode_indices(m, list(indices))
    True
    """
    if not isinstance(m, FactoredModulus):
        raise _wrong_type("modulus", m, FactoredModulus)
    size = m._size
    if (
        size <= _BLOCK and type(indices) is range and indices.step == 1
        and 1 <= indices.start < indices.stop <= size + 1
    ):
        return list((m._residues or _decode_all(m))[indices.start - 1:indices.stop - 1])
    residues = []
    for index in indices:
        index = operator.index(index)
        if not 1 <= index <= size:
            raise _out_of_range(m, index)
        residues.append(_decode(m, index - 1))
    return residues


def encode_residues(m: FactoredModulus, residues) -> list[int]:
    """Map each quadratic residue modulo N to its index; inverse of
    ``decode_indices``.

    Checks the modulus once and loads its root steps once, building them
    on its first encode.  Per residue, one pass over those steps, one per
    prime power with the 2-part last, adds each part's digits at its
    prepared place value: a lookup in a tabulated part, else
    Tonelli-Shanks and the lift, or the 2-adic root.  No digit list, no
    modular inverse, and the gcd with N, the only unit test, only when a
    step fails.  z is reduced modulo N first.  At the first bad residue,
    raises NotCoprimeError when z is not a unit, NotAResidueError when
    some local square root does not exist, ValueError for a negative z
    and TypeError when z is not an integer, as ``decode_indices`` does
    for an index.

    When every part has a table and ``operator.length_hint(residues)`` is
    at least ``_COLUMN_MIN`` = 16, the batch is encoded column by column,
    in chunks of at most ``_COLUMN`` = 4096 values: each chunk is read
    into a list once, and one list comprehension per part looks up every
    value's ``z mod p**k`` and adds its digits at the part's place.  The
    one-entry parts are looked up too; their miss is how an even z, or z
    = 2 mod 3, fails.  When any value of a chunk is not a natural or
    misses a table, that chunk is replayed through the per-value loop,
    which raises as the single call does, so a bad value is read at most
    one chunk ahead.  An iterator is read once either way.  Results and
    errors are the single calls':

    >>> from qrindex import decode_indices, index_space_size, parse_factorization
    >>> m = parse_factorization("2^5 * 3^2 * 5")
    >>> residues = decode_indices(m, range(1, index_space_size(m) + 1))
    >>> encode_residues(m, residues) == [encode_residue(m, z) for z in residues]
    True
    >>> encode_residues(m, residues) == list(range(1, 25))
    True
    """
    if not isinstance(m, FactoredModulus):
        raise _wrong_type("modulus", m, FactoredModulus)
    steps = m._root_steps or _build_root_steps(m)
    # Below _COLUMN_MIN values, the column pass costs more than it saves.
    if operator.length_hint(residues) >= _COLUMN_MIN and all(step[5] is not None for step in steps):
        return _encode_columns(m, steps, residues)
    return _encode_each(m, steps, residues)


def _encode_columns(m: FactoredModulus, steps, residues) -> list[int]:
    # encode_residues' column pass: every part has a table.
    (_, q0, _, _, _, table0, _), *rest = steps
    residues = iter(residues)
    indices = []
    while chunk := list(itertools.islice(residues, _COLUMN)):
        try:
            zs = list(map(operator.index, chunk))
            if min(zs) < 0:
                raise ValueError  # z % q would hide the sign
            # Every q divides N, so z mod q needs no z mod N first.  The
            # first part's place is 1.
            column = [table0[z % q0] + 1 for z in zs]
            for _, q, _, _, place, table, _ in rest:
                column = [i + table[z % q] * place for i, z in zip(column, zs)]
        except (TypeError, ValueError, KeyError):
            # A non-integer, a negative value or a miss in some table.
            column = _encode_each(m, steps, chunk)
        indices += column
    return indices


def _encode_each(m: FactoredModulus, steps, residues) -> list[int]:
    # Digits are in range by construction (x <= (p-1)/2, c < p**(k-1), the
    # 2-adic root below 2**(k2-2)); ascending steps, the 2-part last, name
    # the first bad prime.
    n = m.n
    indices = []
    for z in residues:
        z = operator.index(z)  # a float or string raises TypeError, as an index does
        if z < 0:
            raise ValueError(f"residue must be a natural, got {_format_int(z)}")
        z %= n
        value = 0
        try:
            for p, q, half, _, place, table, root in steps:
                # One full-width reduction per part: z mod p comes from z mod p**k.
                zq = z & (q - 1) if p == 2 else z % q
                digit = table.get(zq) if table is not None else None
                if digit is None:
                    # No table, or a miss: the part's root step, which raises.
                    if p == 2:
                        # is_quadratic_residue's 2-part class test: zq is below 8
                        # when k2 <= 3, so a miss of its table {1: 0} fails here.
                        if zq & 7 != 1:
                            raise NotAResidueError(
                                f"{_format_int(z)} is not a quadratic residue modulo 2**{root}"
                            )
                        digit = (sqrt_mod_2k(zq, root) - 1) // 2
                    else:
                        # Tonelli-Shanks refuses z mod p, a non-residue or 0.
                        s, e, c, ladder = root
                        x, r = _tonelli_shanks(zq % p, p, s, e, c)
                        digit = x - 1
                        if q != p:
                            # The lift keeps y = x (mod p), so x stays the canonical root.
                            digit += _lift_inverse_root(x, r, zq, q, ladder) // p * half
                value += digit * place
        except NotAResidueError:
            # The one unit test: a non-unit outranks a non-residue at any prime.
            g = math.gcd(z, n)
            if g != 1:
                raise NotCoprimeError(
                    f"{_format_int(z)} is not a unit modulo {_format_int(n)} (gcd {_format_int(g)})",
                    gcd=g,
                ) from None
            raise
        indices.append(value + 1)
    return indices


def _build_root_steps(m: FactoredModulus) -> tuple:
    # Built on the first encode, so a decode-only modulus scans for no
    # non-residue.  A plain attribute, set once: writing a cached_property
    # would turn the modulus' inline attributes into a dict and slow every
    # later load, _decode's too.  Two threads racing here build equal steps,
    # and either may be kept.
    steps, entries = [], _TABLE_ENTRIES
    for p, q, half, count, place, k, _ in m._parts:
        root = k
        if p > 2:  # p is proven prime, so the non-residue scan ends
            root = (*_two_adic_split(p), _nonresidue_power(p), _precision_ladder(p, k))
        table = None
        if count == 1:  # 3, or 2**k2 with k2 <= 3: a miss is how z fails here
            table = {1: 0}
        elif count <= entries:
            table, entries = _square_table(p, q, half, count), entries - count
        steps.append((p, q, half, count, place, table, root))
    m._root_steps = steps = tuple(steps)
    return steps


def _square_table(p: int, q: int, half: int, count: int) -> dict[int, int]:
    """Each unit square modulo the part q mapped to its 0-based digit
    ``x - 1 + c*half``.  The part alone is a modulus whose basis element
    is 1, so this is its table of residues, inverted."""
    return dict(zip(_walk(q, ((half, 1), (count // half, p))), range(count)))


def _zero_based(m: FactoredModulus, index: int) -> int:
    if not isinstance(m, FactoredModulus):
        raise _wrong_type("modulus", m, FactoredModulus)
    index = operator.index(index)  # a float raises TypeError, as range(2.0) does
    if not 1 <= index <= m._size:
        raise _out_of_range(m, index)
    return index - 1


def _out_of_range(m: FactoredModulus, index: int) -> IndexRangeError:
    return IndexRangeError(
        f"index {_format_int(index)} out of range for modulus {_format_int(m.n)}:"
        f" index space is 1..{_format_int(m._size)}"
    )


def _decode(m: FactoredModulus, value: int) -> int:
    # The residue at 0-based value, which must be below |QR(N)|.
    table = m._residues
    if table is not None:
        return table[value]
    # One comparison before the sum: a table-less modulus pays no call here.
    if m._size > _BLOCK:
        return _decode_sum(m, value)
    return _decode_all(m)[value]


def _decode_sum(m: FactoredModulus, value: int) -> int:
    # Each part's canonical root y = 1 + x + c*p, 0-based x, is squared modulo
    # its own q, the 2-part's by a mask: CRT is a ring isomorphism and the
    # basis sums to 1 mod N, so z = 1 + sum((y*y mod q - 1) * E) mod N.
    z = 1
    for p, q, half, count, _, _, e in m._digit_parts:
        value, digit = divmod(value, count)
        c, x = divmod(digit, half)
        y = 1 + x + c * p
        z += ((y * y & (q - 1) if p == 2 else y * y % q) - 1) * e
    return z % m.n


_BLOCK = 1 << 12  # the largest index space whose residues the modulus holds
_COLUMN = 1 << 12  # the most values a column encode reads before it checks them
_COLUMN_MIN = 16  # the shortest batch a column encode is faster on
_TABLE_ENTRIES = 1 << 14  # the most entries the square tables of one modulus hold


def _decode_all(m: FactoredModulus) -> tuple[int, ...]:
    # Walked by the first decode that reads the table and kept in a plain
    # attribute, set once, as _root_steps is; a tuple, so no caller can change
    # what later decodes return.  Two threads racing here build equal tables.
    n = m.n
    m._residues = table = tuple(_walk(n, [
        digit for p, _, half, count, _, _, e in m._digit_parts
        for digit in ((half, e), (count // half, p * e % n))
    ]))
    return table


def _walk(n: int, digits) -> list[int]:
    # The squares modulo n of the roots 1 + sum(digit * t), one (radix, t) per
    # digit, in index order: each digit's terms are added to every root so far,
    # the newer, more significant digit outermost.  A radix-1 digit adds
    # nothing, and the first other digit's roots are a range.
    roots = None
    for radix, t in digits:
        if radix == 1:
            continue
        if roots is None:
            roots = range(1, 1 + radix * t, t)
        else:
            roots = [u + r for u in range(0, radix * t, t) for r in roots]
    return [r * r % n for r in roots or (1,)]


def is_quadratic_residue(m: FactoredModulus, z: int) -> bool:
    """Membership test via Euler's criterion per odd prime plus the 2-part
    congruence class (odd for k = 1, 1 mod 4 for k = 2, 1 mod 8 for
    k >= 3).  A non-integer z raises TypeError."""
    if not isinstance(m, FactoredModulus):
        raise _wrong_type("modulus", m, FactoredModulus)
    z = operator.index(z)
    if z < 0:
        return False
    z %= m.n
    # Euler's criterion also refuses z = 0 mod p, as 0**((p-1)/2) = 0.
    for p, _ in m.odd_parts:
        if _power(z % p, p >> 1, p) != 1:
            return False
    # A unit square modulo 2**k2 is exactly z = 1 modulo 2**min(k2, 3); for
    # k2 = 1 that means odd, and an even z, not a unit, is never one.
    k2 = m.two_exponent
    return not k2 or z % (1 << min(k2, 3)) == 1


def _profile(m: FactoredModulus, digits) -> RootProfile:
    # Each part's schedule digits, back at the values the profile holds: an
    # odd part's (x, c), two digits each, then the 2-part's digit when the
    # 2-part has one.
    digits = iter(digits)
    odd_roots = tuple([(next(digits) + 1, next(digits)) for _ in m.odd_parts])
    return RootProfile(odd_roots, next(digits, None))
