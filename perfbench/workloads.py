"""The four benchmark workloads: inputs, the timed op and its checks.

Each workload calls the library through module attributes looked up at
call time (``self.qr.indexing.decode_index``), so wrappers installed by
the tracer, or by a test, sit on the path of every call.  An op returns
the nanoseconds of each timed library call, its output and the number of
units it completed; the checks run afterwards, outside the timed calls.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from types import SimpleNamespace

from inputs import factor_string, is_residue, qr_count, random_prime, rng_for, trial_factor

_clock = time.perf_counter_ns

DEFAULT_SEED = 1

# sha256 of the first ``digest_ops`` outputs at DEFAULT_SEED.  A change to
# the index convention, the canonical roots or the seeded bit stream
# changes these, and the run at the default seed then fails.
PINNED_DIGESTS = {
    "codec-2048": "cc810da1677a1fb9fbbc04610a295406fa11db433d8f8b3922c93c549c550836",
    "codec-powers": "6b762a218b64312e493ba93fb7d289e6fcc7c3d08cbffd3e3b40023d0bd02afe",
    "sample-15015": "68c7e8d714af0e524d737324810c74eef749fa910e039668dccdb18e8d9ab363",
    "certify-sweep": "b063ea38ea8f8f929368da6a579c2851d4f68f68c0316cf73b4ce1b3b481d5ff",
}


class Workload:
    name = ""
    why = ""
    stages: tuple[str, ...] = ()
    unit_name = "op"
    setup_repeats = 5
    warmup = 0          # ops run and checked before timing starts
    digest_ops = 0      # leading ops whose outputs are pinned
    trace_ops = 0       # ops in each pass of the traced run
    capacity = 1 << 16  # most timed ops one run records
    block_ops = 0       # a run times whole blocks of this many ops, and
                        # reports each statistic as its median over blocks

    def __init__(self, seed: int):
        self.seed = seed
        self.factors: dict[int, int] = {}
        self.qr = None
        self.m = None

    def factor_strings(self) -> list[str]:
        """What a user hands to ``parse_factorization`` for this workload."""
        return [factor_string(self.factors)] if self.factors else []

    def prepare(self, qr: SimpleNamespace):
        self.qr = qr
        texts = self.factor_strings()
        if texts:
            self.m = qr.indexing.parse_factorization(texts[0])
        self.reset()

    def reset(self):
        """Restart any stateful stream so ``inputs`` replays from the start."""

    def inputs(self):
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def check(self, x, out) -> str | None:
        raise NotImplementedError

    def digest_line(self, x, out) -> str:
        raise NotImplementedError

    def context(self) -> dict:
        if not self.factors:
            return {}
        n = math.prod(p**k for p, k in self.factors.items())
        return {"modulus_bits": n.bit_length(), "log2_qr": log2(qr_count(self.factors))}


class Codec(Workload):
    stages = ("decode", "encode")
    unit_name = "roundtrip"
    warmup = 2
    digest_ops = 8

    def inputs(self):
        rng = rng_for(self.name, self.seed, "indices")
        size = qr_count(self.factors)
        while True:
            yield rng.randrange(1, size + 1)

    def op(self, index):
        indexing = self.qr.indexing
        t0 = _clock()
        z = indexing.decode_index(self.m, index)
        t1 = _clock()
        back = indexing.encode_residue(self.m, z)
        t2 = _clock()
        return (t1 - t0, t2 - t1), (z, back), 1

    def check(self, index, out):
        z, back = out
        if not 0 < z < self.m.n or not is_residue(z, self.factors):
            return f"decode({index}) = {z} is not a quadratic residue"
        if back != index:
            return f"encode(decode({index})) = {back}"
        return None

    def digest_line(self, index, out):
        return f"{index}:{out[0]}:{out[1]}"


class Codec2048(Codec):
    name = "codec-2048"
    why = "2048-bit semiprime: validation dominates set-up, Tonelli-Shanks encode and CRT decode the op"
    setup_repeats = 3
    block_ops = 100
    trace_ops = 30

    def __init__(self, seed):
        super().__init__(seed)
        rng = rng_for(self.name, seed, "primes")
        self.factors = {random_prime(1024, 3, rng): 1, random_prime(1024, 1, rng): 1}


class CodecPowers(Codec):
    name = "codec-powers"
    why = "2^1024 * 3^256 * p^8 * q^4: the 2-adic root and Hensel lifts do the work, validation is cheap"
    block_ops = 250
    trace_ops = 400
    digest_ops = 32

    def __init__(self, seed):
        super().__init__(seed)
        rng = rng_for(self.name, seed, "primes")
        p = random_prime(64, 3, rng)
        q = random_prime(128, 1, rng)
        self.factors = {2: 1024, 3: 256, p: 8, q: 4}


class Sample15015(Workload):
    name = "sample-15015"
    why = "N = 3*5*7*11*13: small-int codec overhead and the one-bit-per-call rejection loop"
    stages = ("draw",)
    unit_name = "draw"
    warmup = 100
    digest_ops = 1000
    block_ops = 50000
    trace_ops = 20000
    capacity = 1 << 20

    def __init__(self, seed):
        super().__init__(seed)
        self.factors = {3: 1, 5: 1, 7: 1, 11: 1, 13: 1}

    def reset(self):
        self.source = self.qr.sampling.SeededBitSource(self.seed)
        self.ledger_bits = 0
        self.ledger_draws = 0

    def inputs(self):
        """The bits each draw must spend, from an independent replay of the
        documented stream: one Mersenne Twister ``getrandbits(1)`` per bit,
        MSB-first words of ceil(log2 n) bits, rejected while >= n."""
        rng = random.Random(self.seed)
        n = qr_count(self.factors)
        width = (n - 1).bit_length()
        while True:
            bits = 0
            while True:
                value = 0
                for _ in range(width):
                    value = value << 1 | rng.getrandbits(1)
                bits += width
                if value < n:
                    break
            yield bits

    def op(self, bits):
        t0 = _clock()
        z, ledger = self.qr.sampling.sample_residue_by_index(self.m, self.source)
        t1 = _clock()
        return (t1 - t0,), (z, ledger.bits_consumed), 1

    def check(self, bits, out):
        z, spent = out
        if not 0 < z < self.m.n or not is_residue(z, self.factors):
            return f"sampled {z} is not a quadratic residue"
        self.ledger_bits += spent
        self.ledger_draws += 1
        if spent != bits:
            return f"ledger says {spent} bits, the stream needs {bits}"
        return None

    def digest_line(self, bits, out):
        return f"{out[0]}:{out[1]}"


class CertifySweep(Workload):
    name = "certify-sweep"
    why = "certify_bijection over a seeded sample of n in [2, 3000]: brute-force enumeration plus tiny codec calls"
    stages = ("certify",)
    unit_name = "index"
    warmup = 3
    digest_ops = 16
    trace_ops = 60
    stride = 10
    top = 3000

    def __init__(self, seed):
        super().__init__(seed)
        rng = rng_for(self.name, seed, "moduli")
        # One n from each run of ten keeps every seed's mix of small and
        # large moduli alike, so runs with different seeds stay comparable.
        self.moduli = [
            rng.randrange(lo, min(lo + self.stride, self.top + 1))
            for lo in range(2, self.top + 1, self.stride)
        ]
        rng.shuffle(self.moduli)
        # A block is one pass, so every block has the same mix of moduli.
        self.block_ops = len(self.moduli)

    def inputs(self):
        return itertools.cycle(self.moduli)

    def op(self, n):
        bruteforce = self.qr.bruteforce
        t0 = _clock()
        m = bruteforce.factor_trial_division(n)
        report = bruteforce.certify_bijection(m)
        t1 = _clock()
        return (t1 - t0,), (m.n, report.indices_checked, report.passed, m.factor_string()), report.indices_checked

    def check(self, n, out):
        got_n, checked, passed, _ = out
        if got_n != n:
            return f"factor_trial_division({n}) gave modulus {got_n}"
        if not passed:
            return f"certify_bijection({n}) failed"
        expected = qr_count(trial_factor(n))
        if checked != expected:
            return f"certify_bijection({n}) checked {checked} indices, |QR| is {expected}"
        return None

    def digest_line(self, n, out):
        return f"{n}:{out[3]}:{out[1]}:{out[2]}"


WORKLOADS = {w.name: w for w in (Codec2048, CodecPowers, Sample15015, CertifySweep)}


def log2(n: int) -> float:
    shift = max(n.bit_length() - 53, 0)
    return math.log2(n >> shift) + shift


class Digest:
    """sha256 over the first ``limit`` output lines."""

    def __init__(self, limit: int):
        self.limit = limit
        self.count = 0
        self._h = hashlib.sha256()

    def add(self, line: str):
        if self.count < self.limit:
            self._h.update(line.encode() + b"\n")
            self.count += 1

    def hexdigest(self) -> str | None:
        return self._h.hexdigest() if self.count == self.limit else None
