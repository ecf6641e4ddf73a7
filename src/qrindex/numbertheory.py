"""Modular arithmetic primitives on Python's unbounded integers.

Everything here operates on plain ``int`` values with no fixed word size,
so moduli of thousands of bits behave exactly like small ones.  All public
results are reduced, non-negative representatives.

Every function is pure and safe to call from any number of threads.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import NotAResidueError, NotCoprimeError, _format_int

# Miller-Rabin with the first 13 primes as bases is a proven deterministic
# primality test below this bound (Sorenson and Webster, 2015).  From the
# bound up, Baillie-PSW (strong base 2 plus strong Lucas) decides.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


def crt_combine(parts) -> int:
    """Solve a system of congruences over pairwise coprime moduli.

    ``parts`` is a non-empty sequence of ``(residue, modulus)`` pairs with
    ``0 <= residue < modulus``.  Returns the unique x in [0, prod moduli)
    congruent to every residue.  A non-coprime pair raises NotCoprimeError
    naming the offenders.  The general-purpose primitive, and the tests'
    reference for the CRT basis a FactoredModulus prepares for the codec.
    """
    parts = list(parts)
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
            pair, g = _noncoprime_pair(parts)
            raise NotCoprimeError(
                f"moduli {_format_int(pair[0])} and {_format_int(pair[1])}"
                f" are not coprime (gcd {_format_int(g)})",
                gcd=g,
            )
        x += combined * ((residue - x) * pow(combined, -1, modulus) % modulus)
        combined *= modulus
    return x


def _noncoprime_pair(parts):
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            g = math.gcd(parts[i][1], parts[j][1])
            if g != 1:
                return (parts[i][1], parts[j][1]), g
    raise AssertionError("no offending pair found")


def is_prime(n: int) -> bool:
    """Primality test with no randomness: the same n always gets the same verdict.

    Below ~3.3e24 it is Miller-Rabin with the first 13 primes as bases,
    proven deterministic there.  From that bound up it is Baillie-PSW: a
    strong Miller-Rabin test to base 2, then a strong Lucas test with
    Selfridge's parameters.  No composite is known to pass Baillie-PSW,
    and it costs one full-size exponentiation plus a Lucas ladder of a
    few multiplications per bit of n.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
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
def _smallest_nonresidue(p: int) -> int:
    # Quadratic residues are closed under multiplication, so the smallest
    # non-residue is prime; even candidates above 2 can never win.  Euler
    # values other than 1 and p - 1 prove p composite, by its least factor.
    b = 2
    while (euler := pow(b, (p - 1) // 2, p)) == 1:
        b += 1 if b == 2 else 2
    if euler != p - 1:
        raise ValueError(f"p must be an odd prime, got {_format_int(p)}")
    return b


def sqrt_mod_prime(a: int, p: int) -> int:
    """Canonical square root of a unit modulo an odd prime.

    Returns the root x with ``x*x % p == a`` and ``1 <= x <= (p-1)//2``.
    One Tonelli-Shanks path for every odd prime ``p = q*2**s + 1``: one
    exponentiation yields ``x = a**((q+1)/2)`` and ``t = a**q`` (for
    p = 3 mod 4 that is the ``a**((p+1)/4)`` shortcut); the non-residue
    (scan 2, 3, 5, ...) is only needed when t != 1.

    Raises NotAResidueError for non-residues.  The caller must pass a
    prime: a composite p raises ValueError once the scan proves it so.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {_format_int(p)}")
    a %= p
    if a == 0:
        raise NotAResidueError(f"0 is not a unit modulo {_format_int(p)}")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2**s with q odd
    q = (p - 1) >> s
    w = pow(a, (q - 1) // 2, p)
    x = a * w % p
    t = x * w % p
    if t != 1:
        c = pow(_smallest_nonresidue(p), q, p)
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
        c = b * b % p
        t = t * c % p
        m = i
    if x * x % p != a:
        raise NotAResidueError(
            f"{_format_int(a)} is not a quadratic residue modulo {_format_int(p)}"
        )
    return min(x, p - x)


def hensel_lift_sqrt(x: int, z: int, p: int, k: int) -> int:
    """Lift a square root modulo an odd prime p to one modulo p**k.

    Given ``x*x = z (mod p)`` with z a unit, returns the unique y with
    ``y*y = z (mod p**k)`` and ``y = x (mod p)``, ``0 < y < p**k``.  One
    Newton-style correction per power step; k = 1 returns x unchanged.
    """
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
    y = x
    inv2x = pow(2 * x % p, -1, p)
    pj = p
    while pj < pk:
        pj_next = pj * p
        d = (z - y * y) % pj_next
        # d is divisible by pj because y*y = z (mod pj) held at the
        # previous step; the correction is unique modulo p.
        y += (d // pj) * inv2x % p * pj
        pj = pj_next
    return y


def sqrt_mod_2k(z: int, k: int) -> int:
    """Canonical square root modulo 2**k for k >= 4.

    Residues modulo 2**k (k >= 3) are exactly the classes 1 mod 8, and
    each has exactly one odd root below 2**(k-2); that root is returned.
    Starts from the root 1 modulo 8 and fixes one bit per power of two,
    then folds the four-root orbit {y, -y, y + 2**(k-1), -y + 2**(k-1)}
    into the canonical window.
    """
    if k < 4:
        raise ValueError(f"k must be >= 4, got {_format_int(k)}")
    z %= 1 << k
    if z % 8 != 1:
        raise NotAResidueError(f"{_format_int(z)} is not a quadratic residue modulo 2**{k}")
    y = 1
    for j in range(3, k):
        if (y * y - z) % (1 << (j + 1)):
            y += 1 << (j - 1)
    n = 1 << k
    half = 1 << (k - 1)
    window = 1 << (k - 2)
    for candidate in (y, n - y, (y + half) % n, (n - y + half) % n):
        if candidate < window:
            return candidate
    raise AssertionError(f"no canonical root for {_format_int(z)} mod 2**{k}")
