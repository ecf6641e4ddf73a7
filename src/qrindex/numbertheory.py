"""Modular arithmetic primitives on Python's unbounded integers.

Everything here operates on plain ``int`` values with no fixed word size,
so moduli of thousands of bits behave exactly like small ones.  All public
results are reduced, non-negative representatives.

Every function is pure and safe to call from any number of threads; the
module keeps no state.  Every public function reads its integer arguments
through ``operator.index``, so a float or a string raises TypeError.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import NotAResidueError, NotCoprimeError, _format_int, _pairs

__all__ = ["hensel_lift_sqrt", "is_prime", "sqrt_mod_2k", "sqrt_mod_prime"]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

# Miller-Rabin with the first 13 primes as bases is a proven deterministic
# primality test below this bound (Sorenson and Webster, 2015).  From the
# bound up, Baillie-PSW (strong base 2 plus extra strong Lucas) decides.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_DETERMINISTIC_BASES = _SMALL_PRIMES[:13]

# Largest modulus a root is taken modulo, in bits: tens of thousands of
# bits are in scope, while a larger factorization or power is refused
# before any work.
_MAX_MODULUS_BITS = 1 << 16

# Largest prime base accepted, in bits.  Proving a base prime costs about
# 8x more per doubling of its length: some 8 s at 8,192 bits, and about an
# hour at 65,536.  A larger base is refused before any primality test.
_MAX_BASE_BITS = 1 << 13


def crt_combine(parts) -> int:
    """Solve a system of congruences over pairwise coprime moduli.

    ``parts`` is a non-empty sequence of ``(residue, modulus)`` pairs with
    ``0 <= residue < modulus``.  Returns the unique x in [0, prod moduli)
    congruent to every residue.  A non-coprime pair raises NotCoprimeError
    naming the offenders.  An entry that is not a pair raises ValueError
    naming its position.  Not in ``__all__``, so the package does not
    export it: the codec uses the CRT basis a FactoredModulus prepares,
    and this is the tests' reference for that basis.
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
    strong Miller-Rabin test to base 2, then an extra strong Lucas test
    with Q = 1.  It costs one full-size exponentiation plus a Lucas ladder
    of two multiplications per bit of n.  No composite is known to pass
    Baillie-PSW with either this Lucas test or the strong one with
    Selfridge's parameters, so the two could give different verdicts
    only on such an unknown counterexample.
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
    return not baillie_psw or _extra_strong_lucas(n)


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


def _extra_strong_lucas(n: int) -> bool:
    """Extra strong Lucas probable-prime test for odd n > 2 (Grantham, 2001).

    Q = 1 and P is the first of 3, 4, 5, ... with ((P**2 - 4)/n) = -1, as
    Baillie, Fiori and Wagstaff (2021) choose it.  With n + 1 = d * 2**s,
    d odd, n passes when U_d = 0 and V_d = +-2, or V_{d*2**r} = 0 (mod n)
    for some 0 <= r < s - 1.
    """
    # A square has no P with ((P**2 - 4)/n) = -1, so the search would never end.
    if math.isqrt(n) ** 2 == n:
        return False
    P = 3
    while (j := _jacobi(P * P - 4, n)) != -1:
        if j == 0 and (P * P - 4) % n:
            return False
        P += 1
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # Montgomery ladder on (V_k, V_k+1) over the bits of d from k = 1:
    # with Q = 1, V_2k = V_k**2 - 2 and V_2k+1 = V_k*V_k+1 - P.
    V, W = P % n, (P * P - 2) % n
    for bit in bin(d)[3:]:
        if bit == "1":
            V, W = (V * W - P) % n, (W * W - 2) % n
        else:
            V, W = (V * V - 2) % n, (V * W - P) % n
    # D*U_d = 2*V_d+1 - P*V_d, and D = P**2 - 4 is a unit mod n.
    if (2 * W - P * V) % n == 0 and V in (2, n - 2):
        return True
    for _ in range(s - 1):
        if V == 0:
            return True
        V = (V * V - 2) % n
    return False


def _nonresidue_power(p: int) -> int:
    """``c = b**q mod p`` for the smallest non-residue b modulo the odd
    prime p, where ``p - 1 = q*2**s`` with q odd: an element of order
    exactly 2**s, which is ``p - 1`` when s = 1.  The caller proves p
    prime first: the scan may not end for a composite p, a square one."""
    s, e = _two_adic_split(p)
    if s == 1:
        return p - 1
    # Quadratic residues are closed under multiplication, so the smallest
    # non-residue is prime; even candidates above 2 can never win.
    b = 2
    while _jacobi(b, p) != -1:
        b += 1 if b == 2 else 2
    return pow(b, 2 * e + 1, p)


def sqrt_mod_prime(a: int, p: int) -> int:
    """Canonical square root of a unit modulo an odd prime.

    Returns the root x with ``x*x % p == a`` and ``1 <= x <= (p-1)//2``.
    The checked wrapper of ``_tonelli_shanks``, the core that encoding
    calls with the constants its modulus prepared; here they are built
    per call.  ``is_prime`` proves p first, as ``FactoredModulus`` proves
    a base, so a p over ``_MAX_BASE_BITS`` bits raises ValueError before
    that test and a composite p raises ValueError before a is read
    (``sqrt_mod_prime(0, 15)`` names p).  A non-residue raises
    NotAResidueError.
    """
    a, p = operator.index(a), operator.index(p)
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {_format_int(p)}")
    if p.bit_length() > _MAX_BASE_BITS:
        raise ValueError(f"p too large: {p.bit_length()} bits, over the bound of {_MAX_BASE_BITS}")
    if not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {_format_int(p)}")
    a %= p
    if a == 0:
        raise NotAResidueError(f"0 is not a unit modulo {_format_int(p)}")
    s, e = _two_adic_split(p)
    return _tonelli_shanks(a, p, s, e, _nonresidue_power(p))[0]


def _two_adic_split(p: int) -> tuple[int, int]:
    """The Tonelli-Shanks constants ``(s, e)`` with ``p - 1 = (2e+1) * 2**s``."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    return s, (p - 1) >> (s + 1)


def _tonelli_shanks(a: int, p: int, s: int, e: int, c: int) -> tuple[int, int]:
    """The canonical root x of the unit ``a < p`` and ``r = x**-1 mod p``,
    for the odd prime ``p = q*2**s + 1``, q odd, ``e = (q-1)/2`` and ``c =
    _nonresidue_power(p)``.

    The one full-size exponentiation is ``w = a**e``; the loop's other
    exponents are below 2**s.  r starts at w and takes every factor x
    takes, so ``x*r = t`` throughout and the loop exits at t = 1 with r
    the inverse.  Raises NotAResidueError for a non-residue.
    """
    w = pow(a, e, p)
    x = a * w % p
    t = x * w % p
    r, m = w, s
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
    calls with the root and inverse root Tonelli-Shanks already returns
    and the precision ladder its modulus prepared; here the inverse
    ``1/x`` mod p costs one modular inverse and the ladder is planned per
    call.  A p**k over ``_MAX_MODULUS_BITS``, counted as ``k * bitlen(p)``
    as a modulus is, raises ValueError before any power is built.  p is
    not proven prime: an x that shares a factor with a composite p
    raises ValueError naming both.
    """
    x, z, p, k = map(operator.index, (x, z, p, k))
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {_format_int(p)}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {_format_int(k)}")
    if (bits := k * p.bit_length()) > _MAX_MODULUS_BITS:
        raise ValueError(
            f"p**k too large: {_format_int(bits)} bits, over the bound of {_MAX_MODULUS_BITS}"
        )
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
    try:
        x_inverse = pow(x, -1, p)
    except ValueError:  # z % p != 0 makes z, and so x, a unit only for a prime p
        raise ValueError(f"{_format_int(x)} is not a unit modulo {_format_int(p)}") from None
    return _lift_inverse_root(x, x_inverse, z, pk, _precision_ladder(p, k))


def _precision_ladder(p: int, k: int) -> tuple[int, ...]:
    """The Newton precisions ``p**j`` of the lift to ``p**k``, ascending,
    one per exponent of ``_lift_exponents(k)``: none for k <= 2, where
    the Tonelli-Shanks root is exact enough."""
    return tuple(p ** j for j in _lift_exponents(k))


def _lift_exponents(k: int) -> list[int]:
    """The exponents j of a Newton lift's rungs to precision k, ascending.

    The lift's final Karp-Markstein step needs the root exact to
    ``ceil(k/2)``, and a Newton step to j needs the inverse root exact to
    ``ceil(j/2)``, so the plan runs top-down from ``ceil(k/2)``, ``j ->
    ceil(j/2)``, down to the exponent 1 its starting root is exact at: no
    rung overshoots what the next one needs.  Empty for k <= 2.  An odd
    lift's rungs are ``p**j``; ``sqrt_mod_2k``'s are ``2**(j+2)``.
    """
    exponents, j = [], (k + 1) // 2
    while j > 1:
        exponents.append(j)
        j = (j + 1) // 2
    exponents.reverse()
    return exponents


def _lift_inverse_root(x: int, r: int, z: int, pk: int, ladder) -> int:
    """The root modulo ``pk = p**k`` of the unit ``z < pk`` congruent to
    x modulo p, where ``x*x = z (mod p)`` and ``r*x = 1 (mod p)``.

    Newton's iteration ``r <- r*(3 - z*r*r)/2`` on ``r = z**(-1/2)``
    doubles the correct p-adic digits per step, one step per rung q of
    ``ladder = _precision_ladder(p, k)``.  Each step reads z reduced to
    its rung and halves ``u = r*(3 - z*r*r) mod q`` modulo the odd q by
    parity: ``u >> 1``, or ``(u + q) >> 1`` when u is odd.  Then ``y =
    z*r mod q`` is the root modulo the top rung ``q = p**ceil(k/2)``; with
    no rung, y is x itself.  One Karp-Markstein step makes it a root
    modulo ``q*q``, a multiple of pk: with ``y = s + d``, s the root and
    d = 0 (mod q), ``z - y*y = -2*s*d - d*d`` and ``r*s = 1 (mod q)``, so
    ``y + r*(z - y*y)/2 = s (mod q*q)``.  The sum is taken modulo pk and
    halved by parity, as a Newton step halves: the only full-width
    reduction, on operands of half width and full width (Karp and
    Markstein, ACM TOMS 23(4), 1997).
    """
    y = x
    for q in ladder:
        zq = z % q
        u = r * (3 - zq * r * r % q) % q
        r = (u + q if u & 1 else u) >> 1
    if ladder:
        y = zq * r % q
    u = (2 * y + r * (z - y * y)) % pk
    return (u + pk if u & 1 else u) >> 1


def sqrt_mod_2k(z: int, k: int) -> int:
    """Canonical square root modulo 2**k for 4 <= k <= 2**16.

    Residues modulo 2**k (k >= 3) are exactly the classes 1 mod 8, and
    each has exactly one odd root below 2**(k-2); that root is returned.
    Newton's iteration ``r <- r*(3 - z*r*r)/2`` (an exact halving, as
    z*r*r is odd) on ``r = z**(-1/2)`` starts from r = 1, exact modulo
    2**3 as the Tonelli-Shanks root is modulo p.  An inverse root modulo
    2**(j+2) is fixed by its value modulo 2**(j+1) and a step doubles j,
    as a step modulo p**j does, so the rungs are ``2**(j+2)`` for j in
    ``_lift_exponents(k - 2)``.  A step works modulo its rung with masks,
    z included, and halves by a right shift; nothing divides.  ``y =
    z*r`` modulo the top rung 2**(j+2) is a root modulo 2**(j+1), and
    one Karp-Markstein step ``y + (r*(z - y*y) >> 1)`` makes it one
    modulo 2**(2j+1), at least 2**(k-1).  The roots of z are y, -y,
    y + 2**(k-1) and -y + 2**(k-1) for y taken mod 2**(k-1), and
    ``min(y, 2**(k-1) - y)`` is the one below 2**(k-2), whichever
    inverse root r is.  A k over ``_MAX_MODULUS_BITS`` raises ValueError
    before any mask is built.
    """
    z, k = operator.index(z), operator.index(k)
    if k < 4:
        raise ValueError(f"k must be >= 4, got {_format_int(k)}")
    if k > _MAX_MODULUS_BITS:
        raise ValueError(f"k must be <= {_MAX_MODULUS_BITS}, got {_format_int(k)}")
    z &= (1 << k) - 1  # z mod 2**k, negative z included
    if z & 7 != 1:
        raise NotAResidueError(f"{_format_int(z)} is not a quadratic residue modulo 2**{k}")
    r, mask = 1, 7
    for j in _lift_exponents(k - 2):
        mask = (1 << (j + 2)) - 1
        t = 3 - (z & mask) * r * r & mask
        r = (r * t & mask) >> 1
    y = (z & mask) * r & mask
    y += r * (z - y * y) >> 1
    half = 1 << (k - 1)
    y &= half - 1
    return min(y, half - y)
