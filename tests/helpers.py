"""Brute-force oracles and generators shared across the test modules.

Everything here is deliberately naive: exhaustive scans, no shortcuts
borrowed from the code under test.
"""

import random

from qrindex import is_prime

# Enough odd primes to build every small test modulus from.
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def all_roots(a, m):
    """Every x in [0, m) with x*x = a mod m, by scanning."""
    a %= m
    return [x for x in range(m) if x * x % m == a]


def canonical_root_table(p):
    """Map each residue mod p to its root in [1, (p-1)/2], by squaring."""
    return {x * x % p: x for x in range(1, (p - 1) // 2 + 1)}


def sieve_primes(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


def miller_rabin_reference(n):
    """Miller-Rabin with 64 bases drawn from an RNG seeded by n itself.

    The reference for ``is_prime`` above its deterministic bound: slow,
    and independent of the strong Lucas test the library runs there.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    rng = random.Random(n)
    for _ in range(64):
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


def random_prime(bits, rng: random.Random, test=is_prime):
    """Uniform odd prime with the top bit set, by rejection on ``test``."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if test(candidate):
            return candidate


def hostile_factor_strings():
    """Strings of digits, ``*``, ``^`` and whitespace, with valid terms mixed in.

    Digit runs stay short, so bases stay cheap to primality-test; huge
    exponents still arrive when runs meet after a ``^``.
    """
    from hypothesis import strategies as st

    piece = st.one_of(
        st.text("0123456789", min_size=1, max_size=8),
        st.sampled_from(["*", "^", " ", "\t", "\n", " * "]),
        st.sampled_from(["2", "2^5", "3", "3^2", "5", "7^3", "11", "13^2", "65537"]),
    )
    return st.lists(piece, max_size=10).map("".join)


def squarefree_semiprime_modulus(bits, rng: random.Random):
    """A FactoredModulus P*Q with distinct primes of bits/2 each."""
    from qrindex import FactoredModulus

    half = bits // 2
    p = random_prime(half, rng)
    q = random_prime(half, rng)
    while q == p:
        q = random_prime(half, rng)
    return FactoredModulus(0, [(min(p, q), 1), (max(p, q), 1)])
