"""Seeded workload inputs, built without calling the code under test.

Primes come from this file's own Miller-Rabin test, so a defect in
``qrindex.is_prime`` cannot shape the moduli it is then asked to
validate.  The same (workload, seed) pair always yields the same inputs.
"""

from __future__ import annotations

import random

_SIEVE = [p for p in range(3, 2000) if all(p % q for q in range(2, int(p**0.5) + 1))]
_MR_ROUNDS = 32


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    # String seeds are hashed with SHA-512, so streams are stable across
    # runs and platforms and independent of each other.
    return random.Random(f"qrindex-bench/{workload}/{seed}/{stream}")


def probable_prime(n: int, rng: random.Random) -> bool:
    """Miller-Rabin with random bases; error below 4**-32 per composite."""
    if n < 2:
        return False
    for p in [2] + _SIEVE:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(_MR_ROUNDS):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, mod4: int, rng: random.Random) -> int:
    """A prime of exactly ``bits`` bits that is ``mod4`` modulo 4."""
    while True:
        c = rng.getrandbits(bits) | (1 << (bits - 1))
        c += mod4 - c % 4
        if c.bit_length() == bits and probable_prime(c, rng):
            return c


def trial_factor(n: int) -> dict[int, int]:
    """{prime: exponent} of a small n, by trial division."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def qr_count(factors: dict[int, int]) -> int:
    """|QR(N)| from N's factorization, by the unit-group structure."""
    size = 1
    for p, k in factors.items():
        if p == 2:
            size *= 1 << max(k - 3, 0)
        else:
            size *= (p - 1) // 2 * p ** (k - 1)
    return size


def is_residue(z: int, factors: dict[int, int]) -> bool:
    """Euler's criterion per odd prime, plus the 2-part congruence class.

    A unit is a square modulo p**k exactly when it is one modulo p, and
    modulo 2**k exactly when it is 1 mod 2, 4 or 8 for k = 1, 2, >= 3.
    """
    for p, k in factors.items():
        if p == 2:
            if z % (1 << min(k, 3)) != 1:
                return False
        elif pow(z, (p - 1) // 2, p) != 1:
            return False
    return True


def factor_string(factors: dict[int, int]) -> str:
    return " * ".join(str(p) if k == 1 else f"{p}^{k}" for p, k in factors.items())
