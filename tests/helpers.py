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


def random_prime(bits, rng: random.Random):
    """Uniform odd prime with the top bit set, by rejection on is_prime."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate):
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
