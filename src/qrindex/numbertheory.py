"""Modular arithmetic primitives on Python's unbounded integers.

Everything here operates on plain ``int`` values with no fixed word size,
so moduli of thousands of bits behave exactly like small ones.  All public
results are reduced, non-negative representatives.

Every function is safe to call from any number of threads, and every one
is pure but ``_nonresidue_power``, which keeps a per-process cache keyed
by the prime.  Every public function reads its integer arguments through
``operator.index``, so a float or a string raises TypeError.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from .errors import NotAResidueError, NotCoprimeError, _format_int, _pairs

__all__ = ["crt_combine", "hensel_lift_sqrt", "is_prime", "sqrt_mod_2k", "sqrt_mod_prime"]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

# Miller-Rabin with the first 13 primes as bases is a proven deterministic
# primality test below this bound (Sorenson and Webster, 2015).  From the
# bound up, Baillie-PSW (strong base 2 plus strong Lucas) decides.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_DETERMINISTIC_BASES = _SMALL_PRIMES[:13]

# An inverse square root modulo 2**8 of each z = 1 (mod 8), keyed by
# z mod 2**8: the 2-adic Newton iteration starts 8 bits in.  Each such z
# has four, two of them below 128.
_INVERSE_ROOTS_MOD_256 = {pow(r, -2, 256): r for r in range(1, 128, 2)}


def crt_combine(parts) -> int:
    """Solve a system of congruences over pairwise coprime moduli.

    ``parts`` is a non-empty sequence of ``(residue, modulus)`` pairs with
    ``0 <= residue < modulus``.  Returns the unique x in [0, prod moduli)
    congruent to every residue.  A non-coprime pair raises NotCoprimeError
    naming the offenders.  The general-purpose primitive, and the tests'
    reference for the CRT basis a FactoredModulus prepares for the codec.
    An entry that is not a pair raises ValueError naming its position.
    """
    pairs = _pairs(parts, "part", "(residue, modulus)")
    parts = [(operator.index(residue), operator.index(modulus)) for residue, modulus in pairs]
    if not parts:
        raise ValueError("crt_combine needs at least one congruence")
    for residue, modulus in parts:
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {_format_int(modulus)}")
        if not 0 <= residue < modulus:
            raise ValueError(
                f"residue {_format_int(residue)} not reduced modulo {_format_int(modulus)}"
            )
    x = 0
    combined = 1
    for residue, modulus in parts:
        if math.gcd(combined, modulus) != 1:
            # A prime shared with the product of earlier moduli is shared
            # with one of them, so some pair is found.
            g, a, b = next(
                (math.gcd(a, b), a, b)
                for (_, a), (_, b) in itertools.combinations(parts, 2)
                if math.gcd(a, b) != 1
            )
            raise NotCoprimeError(
                f"moduli {_format_int(a)} and {_format_int(b)}"
                f" are not coprime (gcd {_format_int(g)})",
                gcd=g,
            )
        x += combined * ((residue - x) * pow(combined, -1, modulus) % modulus)
        combined *= modulus
    return x


def is_prime(n: int) -> bool:
    """Primality test with no randomness: the same n always gets the same verdict.

    Below ~3.3e24 it is Miller-Rabin with the first 13 primes as bases,
    proven deterministic there.  From that bound up it is Baillie-PSW: a
    strong Miller-Rabin test to base 2, then a strong Lucas test with
    Selfridge's parameters.  No composite is known to pass Baillie-PSW,
    and it costs one full-size exponentiation plus a Lucas ladder of a
    few multiplications per bit of n.
    """
    n = operator.index(n)  # a float or string raises TypeError, as an index does
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    s, e = _two_adic_split(n)
    d = 2 * e + 1
    baillie_psw = n >= _MR_DETERMINISTIC_BOUND
    for a in (2,) if baillie_psw else _MR_DETERMINISTIC_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return not baillie_psw or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 2 (Selfridge's method A).

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d * 2**s, d odd, n passes when U_d = 0
    or V_{d*2**r} = 0 (mod n) for some 0 <= r < s.
    """
    # A square has no D with (D/n) = -1, so the search would never end.
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) < n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4 % n
    D %= n
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # Binary ladder over the bits of d from k = 1: U_2k = U_k*V_k,
    # V_2k = V_k**2 - 2*Q**k, and with P = 1, U_k+1 = (U_k + V_k)/2,
    # V_k+1 = (D*U_k + V_k)/2; halving mod odd n adds n to odd values.
    U, V, Qk = 1, 1, Q
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            if U & 1:
                U += n
            if V & 1:
                V += n
            U, V, Qk = U >> 1, V >> 1, Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
    return False


@lru_cache(maxsize=None)
def _nonresidue_power(p: int) -> int:
    """``c = b**q mod p`` for the smallest non-residue b, where
    ``p - 1 = q*2**s`` with q odd: an element of order exactly 2**s."""
    # Quadratic residues are closed under multiplication, so the smallest
    # non-residue is prime; even candidates above 2 can never win.  Euler
    # values other than 1 and p - 1 prove p composite, by its least factor.
    b = 2
    while (euler := pow(b, (p - 1) // 2, p)) == 1:
        b += 1 if b == 2 else 2
    if euler != p - 1:
        raise ValueError(f"p must be an odd prime, got {_format_int(p)}")
    _, e = _two_adic_split(p)
    return pow(b, 2 * e + 1, p)


def sqrt_mod_prime(a: int, p: int) -> int:
    """Canonical square root of a unit modulo an odd prime.

    Returns the root x with ``x*x % p == a`` and ``1 <= x <= (p-1)//2``.
    The checked wrapper of ``_tonelli_shanks``, the core that encoding
    calls with the constants its modulus prepared: one Tonelli-Shanks
    path for every odd prime ``p = q*2**s + 1``.  One exponentiation
    yields ``x = a**((q+1)/2)`` and ``t = a**q`` (for p = 3 mod 4 that is
    the ``a**((p+1)/4)`` shortcut); when t != 1 the loop also needs
    ``c = b**q`` for a non-residue b (scan 2, 3, 5, ...), which a
    per-process cache keyed by p holds, unbounded.  Once p has been seen,
    every call costs exactly one full-size exponentiation: the loop's
    other powers have exponents below ``2**s``.

    Raises NotAResidueError for non-residues.  The caller must pass a
    prime: a composite p raises ValueError once the scan proves it so.
    """
    a, p = operator.index(a), operator.index(p)
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {_format_int(p)}")
    a %= p
    if a == 0:
        raise NotAResidueError(f"0 is not a unit modulo {_format_int(p)}")
    return _tonelli_shanks(a, p, *_two_adic_split(p))[0]


def _two_adic_split(p: int) -> tuple[int, int]:
    """The Tonelli-Shanks constants ``(s, e)`` with ``p - 1 = (2e+1) * 2**s``."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    return s, (p - 1) >> (s + 1)


def _tonelli_shanks(a: int, p: int, s: int, e: int) -> tuple[int, int]:
    """The canonical root x of the unit ``a < p`` and ``r = x**-1 mod p``,
    where ``p - 1 = q*2**s`` with q odd and ``e = (q-1)/2``.

    r starts at ``w = a**e`` and takes every factor x takes, so
    ``x*r = t`` throughout and the loop exits at t = 1 with r the inverse.
    Raises NotAResidueError for a non-residue.
    """
    w = pow(a, e, p)
    x = a * w % p
    t = x * w % p
    r = w
    if t != 1:
        c = _nonresidue_power(p)
    m = s
    while t != 1:
        # A residue's t has order 2**i with i < m; reaching m bounds the loop.
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == m:
                raise NotAResidueError(
                    f"{_format_int(a)} is not a quadratic residue modulo {_format_int(p)}"
                )
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return (x, r) if x <= p - x else (p - x, p - r)


def hensel_lift_sqrt(x: int, z: int, p: int, k: int) -> int:
    """Lift a square root modulo an odd prime p to one modulo p**k.

    Given ``x*x = z (mod p)`` with z a unit, returns the unique y with
    ``y*y = z (mod p**k)`` and ``y = x (mod p)``, ``0 < y < p**k``.  The
    checked wrapper of ``_lift_inverse_root``, the core that encoding
    calls with the inverse root Tonelli-Shanks already returns and the
    precision ladder its modulus prepared; here the start ``1/x`` mod p
    costs one modular inverse and the ladder is built per call.
    """
    x, z, p, k = map(operator.index, (x, z, p, k))
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {_format_int(p)}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {_format_int(k)}")
    pk = p ** k
    z %= pk
    if z % p == 0:
        raise ValueError(f"z must be a unit modulo {_format_int(p)}")
    x %= p
    if (x * x - z) % p:
        raise ValueError(
            f"{_format_int(x)} is not a square root of {_format_int(z)}"
            f" modulo {_format_int(p)}"
        )
    return _lift_inverse_root(pow(x, -1, p), z, pk, _precision_ladder(p, k, pk))


def _precision_ladder(p: int, k: int, pk: int) -> tuple[int, ...]:
    """The Newton precisions ``p**2, p**4, ...`` below ``pk = p**k``, then
    pk itself (the same object); empty when k = 1."""
    ladder, j, q = [], 1, p
    while 2 * j < k:
        j, q = 2 * j, q * q
        ladder.append(q)
    return (*ladder, pk) if k > 1 else ()


def _lift_inverse_root(r: int, z: int, pk: int, ladder) -> int:
    """The root ``z*r`` modulo ``pk = p**k`` of the unit ``z < pk``, where
    ``r*r*z = 1 (mod p)``; it is congruent to ``1/r`` modulo p.

    Newton's iteration ``r <- r*(3 - z*r*r)/2`` on ``r = z**(-1/2)``
    doubles the correct p-adic digits per step, one step per rung q of
    ``ladder = _precision_ladder(p, k, pk)``.  Each step reads z reduced
    to its rung (a no-op on the top rung pk), so only the last one works
    at full width, and halves ``u = r*(3 - z*r*r) mod q`` modulo the odd
    q by parity: ``u >> 1``, or ``(u + q) >> 1`` when u is odd.  Then z*r.
    """
    for q in ladder:
        u = r * (3 - z % q * r * r % q) % q
        r = (u + q if u & 1 else u) >> 1
    return z * r % pk


def sqrt_mod_2k(z: int, k: int) -> int:
    """Canonical square root modulo 2**k for k >= 4.

    Residues modulo 2**k (k >= 3) are exactly the classes 1 mod 8, and
    each has exactly one odd root below 2**(k-2); that root is returned.
    Newton's iteration ``r <- r*(3 - z*r*r)/2`` (an exact halving, as
    z*r*r is odd) on ``r = z**(-1/2)``, from a table entry correct
    modulo 2**8, goes from 2**j to 2**(2j-2) per step: O(log k) steps,
    none for k <= 8.  An inverse root modulo 2**j is fixed by its value
    modulo 2**(j-1), so step j works modulo 2**j with masks, z included,
    and halves by a right shift; no step divides.  ``y = z*r`` mod
    2**(k-1), by a mask, gives the roots y, -y, y + 2**(k-1) and
    -y + 2**(k-1); ``min(y, 2**(k-1) - y)`` is the one below 2**(k-2),
    whichever inverse root r is.
    """
    z, k = operator.index(z), operator.index(k)
    if k < 4:
        raise ValueError(f"k must be >= 4, got {_format_int(k)}")
    z &= (1 << k) - 1  # z mod 2**k, negative z included
    if z & 7 != 1:
        raise NotAResidueError(f"{_format_int(z)} is not a quadratic residue modulo 2**{k}")
    r, j = _INVERSE_ROOTS_MOD_256[z & 255], 8
    while j < k:
        j = min(2 * j - 2, k)
        mask = (1 << j) - 1
        t = 3 - (z & mask) * r * r & mask
        r = (r * t & mask) >> 1
    half = 1 << (k - 1)
    y = z * r & half - 1
    return min(y, half - y)
