"""Uniform residue sampling with exact random-bit accounting.

All randomness flows through a BitSource as k-bit words, one per
next_bits call, so consumers can count precisely how much entropy each
strategy spends.  Every built-in source serves its words through the
one buffered BitSource.next_bits, refilled in blocks: the stream is the
same bits in the same order for any word sizes, ledgers count the bits
served, never the bits fetched ahead, and a finite source runs dry
through the same call.  A ledger is a slotted record that
draw_uniform settles once per call, exact on every exit path.  Two
strategies are implemented on top of the same rejection primitive:

* index sampling: draw a uniform index in [1, |QR(N)|] and decode it
  with the core decode_index uses, spending ceil(log2 |QR(N)|) bits per
  attempt;
* classical sampling: draw x in [1, N-1], retry until gcd(x, N) = 1,
  and square it, spending ceil(log2 (N-1)) bits per attempt, for at
  most 128 * ceil((N-1)/phi(N)) rounds.

Both are exactly uniform over QR(N); they differ only in bit cost and
retry behaviour, which compare_bit_budgets measures.  Every integer an
error message names goes through ``_format_int``, so one past the
interpreter's int/str digit limit appears by its bit length.
"""

from __future__ import annotations

import math
import operator
import os
import random

from .errors import _FrozenRecord, _Record, _format_int, _wrong_type
from .indexing import FactoredModulus, _decode, index_space_size

__all__ = [
    "BitSource", "BitSourceExhaustedError", "RandomBitLedger", "RejectionLimitError",
    "SampleReport", "ScriptedBitSource", "SeededBitSource", "SystemBitSource",
    "compare_bit_budgets", "draw_uniform", "sample_residue_by_index", "sample_residue_classical",
]

_MAX_REJECTIONS = 128

# Seeds are 64-bit unsigned integers, here and on the command line.
_SEED_BOUND = 1 << 64

# Fresh bits a source asks _fresh_bits for per refill, at least.  The
# per-call cost of next_bits(8) and next_bits(2048) on either source is
# flat from 256 to 8192 (BENCH_11.json, "refill_sweep"); at 2048 one refill
# costs about one next_bits(2048) call, spread over 256 eight-bit words.
_REFILL_BITS = 2048

# Maps a byte to the ASCII digit of its top bit.
_TOP_BIT_DIGIT = bytes.maketrans(bytes(range(256)), b"0" * 128 + b"1" * 128)


class BitSourceExhaustedError(RuntimeError):
    """A finite bit source was asked for more bits than it holds; ``served``
    counts the bits the failing ``next_bits`` call took before it ran dry."""

    served = 0


class RejectionLimitError(RuntimeError):
    """A rejection loop failed to accept within the retry cap."""


class BitSource:
    """A bit stream served in words: next_bits(k) returns the next k bits
    as one integer, the first bit most significant; k = 0 returns 0 and
    takes nothing, and k < 0 raises ValueError.

    The built-in sources share this buffered next_bits, which tops the
    buffer up with one _fresh_bits(count) call when a word needs more bits
    than it holds, count being the shortfall rounded up to whole bytes or
    _REFILL_BITS, whichever is larger; a custom source may implement
    next_bits alone.  A refill that leaves the word short ends a finite
    stream: next_bits empties the buffer and raises
    BitSourceExhaustedError, ``served`` being the bits that were left.
    """

    # _buffer holds the _remaining unserved bits: it is below 2**_remaining.
    _buffer = 0
    _remaining = 0

    def _fresh_bits(self, count: int) -> tuple[int, int]:
        """(bits, n): the next n <= count bits of the stream, first bit most
        significant; count is a positive multiple of 8, and n < count only
        at the end of a finite stream."""
        raise NotImplementedError

    def next_bits(self, k: int) -> int:
        if k < 0:
            raise ValueError(f"bit count must be >= 0, got {_format_int(k)}")
        if k > self._remaining:
            bits, n = self._fresh_bits(max((k - self._remaining + 7) // 8 * 8, _REFILL_BITS))
            self._buffer = self._buffer << n | bits
            self._remaining += n
            if k > self._remaining:
                exc = BitSourceExhaustedError(f"source ran dry inside a {_format_int(k)}-bit word")
                exc.served, self._buffer, self._remaining = self._remaining, 0, 0
                raise exc
        # Stored only once the word is cut: a float k fails with the stream intact.
        remaining = self._remaining - k
        value = self._buffer >> remaining
        self._buffer ^= value << remaining
        self._remaining = remaining
        return value


class SystemBitSource(BitSource):
    """Bits from os.urandom, delivered most significant first per byte.

    The bytes are read a block at a time, one os.urandom call per refill
    of at least _REFILL_BITS bits; the stream is the bytes in the order
    read, whatever the word sizes asked for.
    """

    def _fresh_bits(self, count: int) -> tuple[int, int]:
        return int.from_bytes(os.urandom(count // 8), "big"), count


class SeededBitSource(BitSource):
    """Deterministic bits from a Mersenne Twister keyed by a 64-bit seed.

    The stream is that of getrandbits(1) calls, the top bit of each 32-bit
    output.  Identical seeds yield identical bit streams across runs and
    platforms, which pins down every sampling record in the test suite.
    A seed that is not an integer, a float included, raises TypeError.
    Bits are drawn in blocks of at least _REFILL_BITS outputs, so the
    generator's state runs up to one block ahead of the bits served; the
    served stream, and every ledger, is the same for any word sizes.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)  # a float or string raises TypeError
        if not 0 <= seed < _SEED_BOUND:
            raise ValueError(f"seed must fit in 64 bits, got {_format_int(seed)}")
        self._rng = random.Random(seed)

    def _fresh_bits(self, count: int) -> tuple[int, int]:
        # getrandbits(32*count) packs count outputs little-endian: the
        # stream's bits are the top bits of every fourth byte, first output
        # first.
        words = self._rng.getrandbits(32 * count)
        return int(words.to_bytes(4 * count, "little")[3::4].translate(_TOP_BIT_DIGIT), 2), count


class ScriptedBitSource(BitSource):
    """Replays a fixed bit string, for worked examples and tests.

    Whitespace in the script is ignored.  ``position`` is how many bits
    have been served; running past the end serves what is left and
    raises BitSourceExhaustedError.
    """

    def __init__(self, script: str):
        bits = "".join(script.split())
        if bits.strip("01"):
            raise ValueError("script must contain only 0, 1 and whitespace")
        self._bits = bits
        self._fetched = 0

    @property
    def position(self) -> int:
        return self._fetched - self._remaining

    def _fresh_bits(self, count: int) -> tuple[int, int]:
        # A slice per refill: one int of the whole script would make every
        # word shift all of the bits left, quadratic in the script's length.
        bits = self._bits[self._fetched:self._fetched + count]
        self._fetched += len(bits)
        return int("0" + bits, 2), len(bits)


class RandomBitLedger(_Record):
    """Running totals a sampling call adds to: bits drawn, attempts made.

    A slotted record: each draw builds one, so it carries no instance
    dict, and an unknown attribute raises AttributeError.
    """

    __slots__ = __match_args__ = ("bits_consumed", "attempts")

    def __init__(self, bits_consumed: int = 0, attempts: int = 0):
        self.bits_consumed = bits_consumed
        self.attempts = attempts


def draw_uniform(n: int, source: BitSource, ledger: RandomBitLedger) -> int:
    """Uniform integer in [0, n) by rejection on ceil(log2 n)-bit words.

    Each attempt is one ``next_bits(b)`` word, most significant bit first,
    and counts one attempt and exactly b bits; values >= n are rejected.
    The totals are added to the ledger once, as the call returns or
    raises, and are exact on every exit: a source running dry mid-word
    adds the bits it served, and an attempt whose ``next_bits`` raises
    anything else counts, without its bits.  n = 1 draws zero bits and
    accepts immediately.  A non-integer n, or a ledger without the two
    totals, raises TypeError before any bit is drawn.  Gives up
    after 128 rejections, which a fair source reaches with probability
    < 2**-128.
    """
    try:
        b = (n - 1).bit_length()
    except AttributeError:  # a float or other non-integer range
        raise TypeError(f"range must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError(f"range must be positive, got {_format_int(n)}")
    # Totals stay in locals until the finally.  A while loop and a plain
    # source.next_bits call measured faster than a range loop or a method
    # bound before the loop (CPython 3.11).
    try:
        attempts_before, bits_before = ledger.attempts, ledger.bits_consumed
    except AttributeError:
        raise _wrong_type("ledger", ledger, RandomBitLedger) from None
    attempts = bits = 0
    try:
        while attempts < _MAX_REJECTIONS:
            attempts += 1
            value = source.next_bits(b)
            bits += b
            if value < n:
                return value
    except BitSourceExhaustedError as exc:
        bits += exc.served
        raise
    finally:
        ledger.attempts = attempts_before + attempts
        ledger.bits_consumed = bits_before + bits
    raise RejectionLimitError(f"no draw below {_format_int(n)} within {_MAX_REJECTIONS} attempts")


def sample_residue_by_index(
    m: FactoredModulus, source: BitSource
) -> tuple[int, RandomBitLedger]:
    """Uniform quadratic residue modulo N via a uniform index draw.

    The drawn value is the 0-based index, decoded by the core that
    ``decode_index`` runs after its range check, which a value below
    |QR(N)| cannot fail.  Returns the residue and a fresh ledger
    holding this call's bit and attempt counts.
    """
    if not isinstance(m, FactoredModulus):
        raise _wrong_type("modulus", m, FactoredModulus)
    ledger = RandomBitLedger()
    return _decode(m, draw_uniform(m._size, source, ledger)), ledger


def sample_residue_classical(
    m: FactoredModulus, source: BitSource
) -> tuple[int, RandomBitLedger]:
    """Uniform quadratic residue modulo N by squaring a uniform unit.

    Draws x in [1, N-1], retries until x is coprime to N (each such
    round counts as a ledger attempt too), then returns x**2 mod N with
    the fresh ledger.  Uniform because squaring is a constant-to-one map
    on the unit group; the cost is the bigger draw range and the
    coprimality retries.  Gives up after ``128 * ceil((N-1)/phi(N))``
    rounds: a round finds a unit with probability at least
    ``1/ceil((N-1)/phi(N))``, so a fair source exhausts the budget with
    probability below ``e**-128``, however wide N is.
    """
    if not isinstance(m, FactoredModulus):
        raise _wrong_type("modulus", m, FactoredModulus)
    ledger = RandomBitLedger()
    n = m.n
    rounds = _MAX_REJECTIONS * -(-(n - 1) // m.phi)
    for _ in range(rounds):
        x = 1 + draw_uniform(n - 1, source, ledger)
        if math.gcd(x, n) == 1:
            return x * x % n, ledger
        # Not a unit: the attempt stays on the ledger and we redraw.
    raise RejectionLimitError(f"no unit modulo {_format_int(n)} within {rounds} attempts")


# The one table of sampler names: it gives `sample --method` its choices
# and its default (the first entry), and _sample_run, the one loop over
# draws that `sample` and compare_bit_budgets share, its sampler by name.
_SAMPLERS = {"index": sample_residue_by_index, "classical": sample_residue_classical}


class SampleReport(_FrozenRecord):
    """Aggregate cost statistics for one sampling run."""

    __slots__ = __match_args__ = (
        "method", "samples", "total_bits", "total_attempts", "mean_bits_per_sample",
        "theoretical_floor",
    )

    def __init__(
        self, method: str, samples: int, total_bits: int, total_attempts: int,
        mean_bits_per_sample: float, theoretical_floor: float,
    ):
        self._set(
            method, samples, total_bits, total_attempts, mean_bits_per_sample, theoretical_floor
        )


def _log2(n: int) -> float:
    # Not math.log2(n), which takes big ints but above 2**53 differs in the last
    # bits on about 2% of inputs, which would change bench's theoretical_floor.
    shift = max(n.bit_length() - 53, 0)
    return math.log2(n >> shift) + shift


def _sample_run(
    m: FactoredModulus, method: str, source: BitSource, count: int, values: list | None = None
) -> SampleReport:
    """Draw count residues with sampler method from the one source and
    report the totals, appending each residue to values if given a list."""
    sample = _SAMPLERS[method]
    bits = attempts = 0
    for _ in range(count):
        value, ledger = sample(m, source)
        if values is not None:
            values.append(value)
        bits += ledger.bits_consumed
        attempts += ledger.attempts
    return SampleReport(method, count, bits, attempts, bits / count, _log2(index_space_size(m)))


def compare_bit_budgets(
    m: FactoredModulus, n_samples: int, seed: int
) -> tuple[SampleReport, SampleReport]:
    """Run both strategies for n_samples draws each and report costs.

    Each is the run ``sample`` makes, keeping no residue: the index
    strategy streams bits from seed; the classical strategy from seed + 1
    (mod 2**64) so the two runs are independent but both reproducible.
    theoretical_floor is log2 |QR(N)| for both, the entropy of the target
    distribution.
    """
    seed = operator.index(seed)  # before seed + 1, so a string fails as in SeededBitSource
    n_samples = operator.index(n_samples)
    if n_samples < 1:
        raise ValueError(f"sample count must be positive, got {_format_int(n_samples)}")
    return (
        _sample_run(m, "index", SeededBitSource(seed), n_samples),
        _sample_run(m, "classical", SeededBitSource((seed + 1) % _SEED_BOUND), n_samples),
    )
