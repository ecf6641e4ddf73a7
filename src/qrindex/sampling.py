"""Uniform residue sampling with exact random-bit accounting.

All randomness flows through a BitSource as k-bit words, one per
next_bits call, so consumers can count precisely how much entropy each
strategy spends.  Two strategies are implemented on top of the same
rejection primitive:

* index sampling: draw a uniform index in [1, |QR(N)|] and decode it,
  spending ceil(log2 |QR(N)|) bits per attempt;
* classical sampling: draw x in [1, N-1], retry until gcd(x, N) = 1,
  and square it, spending ceil(log2 (N-1)) bits per attempt.

Both are exactly uniform over QR(N); they differ only in bit cost and
retry behaviour, which compare_bit_budgets measures.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

from .indexing import FactoredModulus, decode_index, index_space_size

_MAX_REJECTIONS = 128

# Maps a byte to the ASCII digit of its top bit.
_TOP_BIT_DIGIT = bytes.maketrans(bytes(range(256)), b"0" * 128 + b"1" * 128)


class BitSourceExhaustedError(RuntimeError):
    """A finite bit source was asked for more bits than it holds.

    ``served`` counts the bits the failing ``next_bits`` call had already
    taken from the source before it ran dry.
    """

    served = 0


class RejectionLimitError(RuntimeError):
    """A rejection loop failed to accept within the retry cap."""


class BitSource:
    """Interface: next_bits(k) returns the next k bits of the stream as
    one integer, the first bit most significant; k = 0 returns 0 and
    takes nothing, and k < 0 raises ValueError.

    next_bits is the one method a source implements; next_bit() is
    next_bits(1).  A finite source that runs dry raises
    BitSourceExhaustedError with ``served`` set to the bits already taken.
    """

    def next_bits(self, k: int) -> int:
        raise NotImplementedError

    def next_bit(self) -> int:
        return self.next_bits(1)


class SystemBitSource(BitSource):
    """Bits from os.urandom, delivered most significant first per byte.

    next_bits(k) serves the buffered bits first, then reads the bytes the
    rest of the word needs with one os.urandom call and keeps the unused
    low bits of the last byte for the next call.
    """

    def __init__(self):
        # _buffer holds the _remaining unserved bits: it is below 2**_remaining.
        self._buffer = 0
        self._remaining = 0

    def next_bits(self, k: int) -> int:
        if k < 0:
            raise ValueError(f"bit count must be >= 0, got {k}")
        if k > self._remaining:
            nbytes = (k - self._remaining + 7) // 8
            self._buffer = self._buffer << 8 * nbytes | int.from_bytes(os.urandom(nbytes), "big")
            self._remaining += 8 * nbytes
        self._remaining -= k
        value, self._buffer = divmod(self._buffer, 1 << self._remaining)
        return value


class SeededBitSource(BitSource):
    """Deterministic bits from a Mersenne Twister keyed by a 64-bit seed.

    The stream is that of getrandbits(1) calls, the top bit of each 32-bit
    output.  Identical seeds yield identical bit streams across runs and
    platforms, which pins down every sampling record in the test suite.
    """

    def __init__(self, seed: int):
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self._rng = random.Random(seed)

    def next_bits(self, k: int) -> int:
        # getrandbits(32*k) packs k outputs little-endian: the stream's bits
        # are the top bits of every fourth byte, first output first.
        if k == 0:
            return 0
        words = self._rng.getrandbits(32 * k)
        return int(words.to_bytes(4 * k, "little")[3::4].translate(_TOP_BIT_DIGIT), 2)


class ScriptedBitSource(BitSource):
    """Replays a fixed bit string, for worked examples and tests.

    Whitespace in the script is ignored.  ``position`` exposes how many
    bits have been served; running past the end serves what is left and
    raises BitSourceExhaustedError.
    """

    def __init__(self, script: str):
        bits = "".join(script.split())
        if bits.strip("01"):
            raise ValueError("script must contain only 0, 1 and whitespace")
        self._bits = bits
        self.position = 0

    def next_bits(self, k: int) -> int:
        if k < 0:
            raise ValueError(f"bit count must be >= 0, got {k}")
        word = self._bits[self.position:self.position + k]
        self.position += len(word)
        if len(word) < k:
            exc = BitSourceExhaustedError(f"script of {len(self._bits)} bits exhausted")
            exc.served = len(word)
            raise exc
        return int("0" + word, 2)


@dataclass
class RandomBitLedger:
    """Running totals a sampling call adds to: bits drawn, attempts made."""

    bits_consumed: int = 0
    attempts: int = 0


def draw_uniform(n: int, source: BitSource, ledger: RandomBitLedger) -> int:
    """Uniform integer in [0, n) by rejection on ceil(log2 n)-bit words.

    Each attempt is one ``next_bits(b)`` word, most significant bit first,
    and counts one ledger attempt and exactly b bits; values >= n are
    rejected.  A source running dry mid-word leaves the bits it served on
    the ledger.  n = 1 draws zero bits and accepts immediately.  Gives up
    after 128 rejections, which a fair source reaches with probability
    < 2**-128.
    """
    if n < 1:
        raise ValueError(f"range must be positive, got {n}")
    b = (n - 1).bit_length()
    for _ in range(_MAX_REJECTIONS):
        ledger.attempts += 1
        try:
            value = source.next_bits(b)
        except BitSourceExhaustedError as exc:
            ledger.bits_consumed += exc.served
            raise
        ledger.bits_consumed += b
        if value < n:
            return value
    raise RejectionLimitError(f"no draw below {n} within {_MAX_REJECTIONS} attempts")


def sample_residue_by_index(
    m: FactoredModulus, source: BitSource
) -> tuple[int, RandomBitLedger]:
    """Uniform quadratic residue modulo N via a uniform index draw.

    Returns the residue and a fresh ledger holding this call's bit and
    attempt counts.
    """
    ledger = RandomBitLedger()
    index = 1 + draw_uniform(index_space_size(m), source, ledger)
    return decode_index(m, index), ledger


def sample_residue_classical(
    m: FactoredModulus, source: BitSource
) -> tuple[int, RandomBitLedger]:
    """Uniform quadratic residue modulo N by squaring a uniform unit.

    Draws x in [1, N-1], retries until x is coprime to N (each such
    round counts as a ledger attempt too), then returns x**2 mod N with
    the fresh ledger.  Uniform because squaring is a constant-to-one map
    on the unit group; the cost is the bigger draw range and the
    coprimality retries.
    """
    ledger = RandomBitLedger()
    for _ in range(_MAX_REJECTIONS):
        x = 1 + draw_uniform(m.n - 1, source, ledger)
        if math.gcd(x, m.n) == 1:
            return x * x % m.n, ledger
        # Not a unit: the attempt stays on the ledger and we redraw.
    raise RejectionLimitError(
        f"no unit modulo {m.n} within {_MAX_REJECTIONS} attempts"
    )


@dataclass(frozen=True)
class SampleReport:
    """Aggregate cost statistics for one sampling run."""

    method: str
    samples: int
    total_bits: int
    total_attempts: int
    mean_bits_per_sample: float
    theoretical_floor: float


def _log2(n: int) -> float:
    # Not math.log2, which takes big ints but above 2**53 differs in the last
    # bits on about 2% of inputs, which would change bench's theoretical_floor.
    if n < 1 << 53:
        return math.log2(n)
    shift = n.bit_length() - 53
    return math.log2(n >> shift) + shift


def compare_bit_budgets(
    m: FactoredModulus, n_samples: int, seed: int
) -> tuple[SampleReport, SampleReport]:
    """Run both strategies for n_samples draws each and report costs.

    The index strategy streams bits from seed; the classical strategy
    from seed + 1 (mod 2**64) so the two runs are independent but both
    reproducible.  theoretical_floor is log2 |QR(N)| for both, the
    entropy of the target distribution.
    """
    if n_samples < 1:
        raise ValueError(f"sample count must be positive, got {n_samples}")
    floor = _log2(index_space_size(m))
    reports = []
    for method, seed_i, sample in (
        ("index", seed, sample_residue_by_index),
        ("classical", (seed + 1) % (1 << 64), sample_residue_classical),
    ):
        source = SeededBitSource(seed_i)
        total_bits = 0
        total_attempts = 0
        for _ in range(n_samples):
            _, ledger = sample(m, source)
            total_bits += ledger.bits_consumed
            total_attempts += ledger.attempts
        reports.append(
            SampleReport(
                method=method,
                samples=n_samples,
                total_bits=total_bits,
                total_attempts=total_attempts,
                mean_bits_per_sample=total_bits / n_samples,
                theoretical_floor=floor,
            )
        )
    return reports[0], reports[1]
