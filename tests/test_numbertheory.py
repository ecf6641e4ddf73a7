import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrindex.numbertheory as numbertheory
from helpers import (
    all_roots,
    canonical_root_table,
    lift_inverse_root_reference,
    miller_rabin_reference,
    random_prime,
    sieve_primes,
    sqrt_mod_2k_reference,
)
from qrindex import (
    FactoredModulus,
    NotAResidueError,
    NotCoprimeError,
    crt_combine,
    hensel_lift_sqrt,
    is_prime,
    sqrt_mod_2k,
    sqrt_mod_prime,
)


class TestCrtCombine:
    def test_pairs_exhaustive(self):
        for m1, m2 in [(3, 5), (4, 9), (8, 15), (7, 11), (1, 9)]:
            for r1 in range(m1):
                for r2 in range(m2):
                    x = crt_combine([(r1, m1), (r2, m2)])
                    assert 0 <= x < m1 * m2
                    assert x % m1 == r1 and x % m2 == r2

    def test_triple(self):
        x = crt_combine([(1, 8), (2, 9), (3, 5)])
        assert x % 8 == 1 and x % 9 == 2 and x % 5 == 3

    def test_single_part_is_identity(self):
        assert crt_combine([(4, 9)]) == 4

    def test_rejects_noncoprime_naming_the_pair(self):
        with pytest.raises(NotCoprimeError) as excinfo:
            crt_combine([(1, 6), (2, 35), (3, 10)])
        assert str(excinfo.value) == "moduli 6 and 10 are not coprime (gcd 2)"
        assert excinfo.value.gcd == 2

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            crt_combine([])
        with pytest.raises(ValueError):
            crt_combine([(5, 5)])
        with pytest.raises(ValueError):
            crt_combine([(-1, 5)])
        with pytest.raises(ValueError, match="modulus must be >= 1, got 0"):
            crt_combine([(0, 0)])
        for parts in ([(2, 3), (1.5, 5)], [(2, 3), (1, 5.0)]):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                crt_combine(parts)
        # Not the interpreter's unpacking TypeError or ValueError.
        with pytest.raises(ValueError, match="^parts must be an iterable of"):
            crt_combine(5)
        for parts, position in (([5], 0), ([(2, 3), (1,)], 1), ([(2, 3), (1, 5, 7)], 1)):
            with pytest.raises(ValueError, match=f"^part at position {position} is not a"):
                crt_combine(parts)

    @given(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=4, unique=True))
    def test_random_residues_recombine(self, moduli):
        import random

        rng = random.Random(repr(moduli))
        parts = [(rng.randrange(m), m) for m in moduli]
        x = crt_combine(parts)
        for r, m in parts:
            assert x % m == r


@pytest.mark.parametrize(
    "root,args",
    [
        (sqrt_mod_prime, (4, 7.0)),
        (sqrt_mod_prime, (4.0, 7)),
        (hensel_lift_sqrt, (2, 4, 7, 1.0)),
        (hensel_lift_sqrt, (2, 4.0, 7, 1)),
        (hensel_lift_sqrt, ("2", 4, 7, 2)),
        (sqrt_mod_2k, (17, 5.0)),
        (sqrt_mod_2k, (17.0, 5)),
    ],
)
def test_root_functions_refuse_non_integers(root, args):
    # Not a float answer (hensel_lift_sqrt once returned 2.0), nor an error
    # from deep inside: &, << or pow().
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        root(*args)


class TestIsPrime:
    def test_agrees_with_sieve_below_a_million(self):
        limit = 10**6
        primes = set(sieve_primes(limit))
        for n in range(limit):
            assert is_prime(n) == (n in primes), n

    def test_large_known_primes(self):
        assert is_prime((1 << 521) - 1)
        assert is_prime((1 << 607) - 1)
        assert is_prime(2**255 - 19)

    def test_large_known_composites(self):
        assert not is_prime((1 << 511) - 1)
        assert not is_prime((2**255 - 19) * (2**127 - 1))
        # Strong pseudoprime to many small bases.
        assert not is_prime(3215031751)

    def test_negative_and_tiny(self):
        assert not is_prime(-7)
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(2)

    @pytest.mark.parametrize("n", [7.0, 101.0, "7"])
    def test_non_integer_is_a_type_error(self, n):
        # Refused as decode_index refuses a float index, whatever its value.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            is_prime(n)

    def test_deterministic_bound_itself_is_composite(self):
        # A strong pseudoprime to all 13 deterministic bases, and the
        # first n that takes the Baillie-PSW path.
        assert numbertheory._MR_DETERMINISTIC_BOUND == 3_317_044_064_679_887_385_961_981
        assert not is_prime(3_317_044_064_679_887_385_961_981)

    @pytest.mark.parametrize("p", [83, 97, 101, 1277])
    def test_composite_mersenne_numbers(self, p):
        # 2**p - 1 passes the strong base-2 test for every prime p, so
        # only the Lucas half can reject these composites.
        n = (1 << p) - 1
        assert pow(2, n - 1, n) == 1
        assert not is_prime(n)

    def test_fermat_composite(self):
        assert not is_prime(2**128 + 1)

    @pytest.mark.parametrize("k", [14_000_240, 14_000_461, 2**40 + 980, 10**9])
    def test_chernick_products_above_the_bound(self, k):
        # Composite by construction; for the first three k all factors
        # are prime, so n is a Carmichael number.
        n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        assert n >= numbertheory._MR_DETERMINISTIC_BOUND
        assert not is_prime(n)

    def test_square_of_a_large_prime_is_refused_without_hanging(self):
        # A square has no Selfridge D, so without its guard the Lucas
        # parameter search never ends.  A square reaches the Lucas half of
        # is_prime only if it passes the strong base-2 test, as the squares
        # of the Wieferich primes 1093 and 3511 do, so the helper is also
        # called directly.  Run in a subprocess so a regression fails on
        # the timeout.
        script = (
            "from qrindex import is_prime\n"
            "from qrindex.numbertheory import _strong_lucas\n"
            "n = ((1 << 521) - 1) ** 2\n"
            "print(is_prime(n), [_strong_lucas(m) for m in (1093**2, 3511**2, n)])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False [False, False, False]\n"

    @pytest.mark.parametrize(
        "n", [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]
    )
    def test_strong_lucas_pseudoprimes(self, n):
        # OEIS A217255: composites that pass the strong Lucas test alone.
        assert numbertheory._strong_lucas(n)
        assert not is_prime(n)

    def test_strong_lucas_exits_early_on_a_shared_factor(self):
        # (5/35) = 0 with 5 < 35: D shares a factor with n, so n is composite.
        assert numbertheory._jacobi(5, 35) == 0
        assert numbertheory._strong_lucas(35) is False

    def test_strong_pseudoprime_to_the_first_eleven_prime_bases(self):
        # Below the Baillie-PSW bound; base 37 is the first to reject it.
        n = 3825123056546413051
        assert all(_strong_probable_prime(n, a) for a in _primes_below(37))
        assert not _strong_probable_prime(n, 37)
        assert not is_prime(n)

    def test_strong_pseudoprime_that_only_base_41_rejects(self):
        # Below the Baillie-PSW bound: every deterministic base but the last passes it.
        n = 318665857834031151167461
        assert n < numbertheory._MR_DETERMINISTIC_BOUND
        assert all(_strong_probable_prime(n, a) for a in _primes_below(41))
        assert not _strong_probable_prime(n, 41)
        assert not is_prime(n)

    def test_arnault_composite_passes_every_prime_base_below_307(self):
        # F. Arnault, "Constructing Carmichael numbers which are strong
        # pseudoprimes to several bases" (1995): a 397-digit composite that
        # only the Lucas half of Baillie-PSW rejects.
        p1 = int(
            "29674495668685510550154174642905332730771991799853043350995075531276838753"
            "171770199594238596428121188033664754218345562493168782883"
        )
        n = p1 * (313 * (p1 - 1) + 1) * (353 * (p1 - 1) + 1)
        assert len(str(n)) == 397
        bases = _primes_below(307)
        assert len(bases) == 62
        assert all(_strong_probable_prime(n, a) for a in bases)
        assert not is_prime(n)

    def test_agrees_with_the_miller_rabin_reference(self):
        rng = random.Random(20260417)
        for _ in range(300):
            n = rng.getrandbits(rng.randrange(80, 1101)) | 1
            if n >= numbertheory._MR_DETERMINISTIC_BOUND:
                assert is_prime(n) == miller_rabin_reference(n), n
        primes = [
            random_prime(bits, rng, test=miller_rabin_reference)
            for bits in (82, 83, 128, 200, 300, 521, 700)
        ]
        for p in primes:
            assert is_prime(p), p
        for p in primes:
            for q in primes:
                assert not is_prime(p * q) and not miller_rabin_reference(p * q), (p, q)

    def test_one_full_size_exponentiation_above_the_bound(self, monkeypatch):
        # Baillie-PSW's one full-size exponentiation is the strong base-2
        # test; the Lucas ladder uses only multiplications.
        p = random_prime(1024, random.Random(1024), test=miller_rabin_reference)
        calls = []

        def counting_pow(*args):
            calls.append(args)
            return pow(*args)

        monkeypatch.setattr(numbertheory, "pow", counting_pow, raising=False)
        assert is_prime(p)
        assert len(calls) == 1


def _primes_below(limit):
    return [p for p in range(2, limit) if all(p % q for q in range(2, p))]


def _strong_probable_prime(n, a):
    """The strong Fermat test of odd n > 2 to base a, written out here so
    the pseudoprime tests do not lean on the code they test."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestSqrtModPrime:
    def test_exhaustive_against_scan(self):
        for p in sieve_primes(200):
            if p == 2:
                continue
            table = canonical_root_table(p)
            for a in range(1, p):
                if a in table:
                    assert sqrt_mod_prime(a, p) == table[a]
                else:
                    with pytest.raises(NotAResidueError):
                        sqrt_mod_prime(a, p)

    def test_reduces_input(self):
        assert sqrt_mod_prime(4 + 7 * 3, 7) == 2

    def test_zero_is_rejected(self):
        with pytest.raises(NotAResidueError):
            sqrt_mod_prime(0, 13)
        with pytest.raises(NotAResidueError):
            sqrt_mod_prime(26, 13)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            sqrt_mod_prime(1, 2)
        with pytest.raises(ValueError):
            sqrt_mod_prime(1, 1)
        with pytest.raises(ValueError):
            sqrt_mod_prime(1, 10)

    def test_both_branches_of_the_prime_shape(self):
        # One path serves both shapes: for p = 3 mod 4 it reduces to the
        # direct exponent, for p = 1 mod 4 it may run the root-finding
        # loop; cover a nontrivial 2-adic valuation too.
        assert sqrt_mod_prime(2, 7) in (3, 4) and sqrt_mod_prime(2, 7) == 3
        assert sqrt_mod_prime(2, 17) == 6
        assert sqrt_mod_prime(5, 41) == 13

    def test_large_prime_roundtrip(self):
        p = (1 << 521) - 1
        a = 123456789123456789 % p
        x = sqrt_mod_prime(a * a % p, p)
        assert x * x % p == a * a % p
        assert x <= (p - 1) // 2

    def test_large_two_adic_valuation(self):
        # p - 1 = k * 2**64 with k odd: the root-finding loop runs long.
        p = _prime_with_two_adic_valuation(64)
        for b in (3, 12345, p - 2, 2**100 + 7):
            a = b * b % p
            x = sqrt_mod_prime(a, p)
            assert x == min(b % p, p - b % p)
        with pytest.raises(NotAResidueError):
            sqrt_mod_prime(_nonresidue(p), p)
        s, e = 64, p >> 65
        for b in (3, 12345, p - 2, 2**100 + 7):
            x, r = numbertheory._tonelli_shanks(b * b % p, p, s, e)
            assert x * r % p == 1
            assert x == sqrt_mod_prime(b * b % p, p)

    def test_two_adic_split(self):
        for p in sieve_primes(500)[1:] + [2**255 - 19, _prime_with_two_adic_valuation(64)]:
            s, e = numbertheory._two_adic_split(p)
            odd, twos = p - 1, 0
            while odd % 2 == 0:
                odd, twos = odd // 2, twos + 1
            assert (s, 2 * e + 1) == (twos, odd), p

    def test_core_returns_the_inverse_root(self):
        for p in sieve_primes(500)[1:]:
            s = ((p - 1) & (1 - p)).bit_length() - 1
            e = (p - 1) >> (s + 1)
            assert (2 * e + 1) << s == p - 1
            table = canonical_root_table(p)
            for a in range(1, p):
                if a in table:
                    x, r = numbertheory._tonelli_shanks(a, p, s, e)
                    assert x * r % p == 1, (a, p)
                    assert x == sqrt_mod_prime(a, p) == table[a], (a, p)
                else:
                    with pytest.raises(NotAResidueError) as excinfo:
                        numbertheory._tonelli_shanks(a, p, s, e)
                    assert str(excinfo.value) == f"{a} is not a quadratic residue modulo {p}"

    def test_full_size_exponentiations_per_path(self, monkeypatch):
        # Builtin pow calls are counted the way the benchmark tracer
        # counts them, by shadowing the module's global name.  The loop's
        # pow(c, 2**j) calls have exponents below 2**s, so they are not
        # full size; the non-residue's power is cached per prime.
        calls = []

        def counting_pow(*args):
            calls.append(args)
            return pow(*args)

        def full_size_pows(a, p):
            s = 0
            while (p - 1) % (2 << s) == 0:
                s += 1
            calls.clear()
            try:
                sqrt_mod_prime(a, p)
            except NotAResidueError:
                pass
            return sum(1 for _, e, _ in calls if e.bit_length() > s)

        p3 = (1 << 127) - 1  # 3 mod 4
        p5 = 2**255 - 19  # 5 mod 8, so 2 is a non-residue
        p_high = _prime_with_two_adic_valuation(64)
        for p in (p3, p5, p_high):
            with pytest.raises(NotAResidueError):
                sqrt_mod_prime(_nonresidue(p), p)  # the first call per prime
        nonresidue_high = _nonresidue(p_high)
        monkeypatch.setattr(numbertheory, "pow", counting_pow, raising=False)

        # p = 3 mod 4: one pow for a residue, the non-residue is not needed.
        assert full_size_pows(25, p3) == 1 and len(calls) == 1
        # p = 1 mod 4 with a**q = 1: one pow, nothing else.
        assert full_size_pows(3**4, p5) == 1 and len(calls) == 1
        assert full_size_pows(pow(3, 1 << 64, p_high), p_high) == 1 and len(calls) == 1
        # Otherwise the loop runs on the cached power: still one full-size pow.
        assert full_size_pows(4, p5) == 1
        assert full_size_pows(2, p5) == 1
        assert full_size_pows(p3 - 1, p3) == 1
        assert full_size_pows(12345**2 % p_high, p_high) == 1
        assert full_size_pows(nonresidue_high, p_high) == 1

    def test_cached_power_has_order_two_to_the_s(self):
        # c**(2**(s-1)) = -1 means c has order exactly 2**s, p - 1 = q*2**s.
        for p in (17, 41, 2**255 - 19, _prime_with_two_adic_valuation(64)):
            s = ((p - 1) & (1 - p)).bit_length() - 1
            assert pow(numbertheory._nonresidue_power(p), 1 << (s - 1), p) == p - 1

    def test_composite_p_is_refused_by_the_nonresidue_scan(self):
        # 2**7 = 8 (mod 15), so t != 1 and the scan runs; base 2's Euler
        # value 8 is neither 1 nor -1, which proves 15 composite.
        with pytest.raises(ValueError, match="p must be an odd prime, got 15"):
            sqrt_mod_prime(2, 15)

    def test_composite_p_is_refused_without_hanging(self):
        # 561 and 1105 are Carmichael numbers: no base coprime to them has
        # Euler value p - 1, so a scan for a non-residue alone never ends.
        # Run in a subprocess so a regression fails on the timeout.
        script = (
            "from qrindex import sqrt_mod_prime\n"
            "for a, p in ((4, 561), (16, 1105), (4, 65)):\n"
            "    try:\n"
            "        sqrt_mod_prime(a, p)\n"
            "    except ValueError as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "ValueError p must be an odd prime, got 561",
            "ValueError p must be an odd prime, got 1105",
            "ValueError p must be an odd prime, got 65",
        ]


def _nonresidue(p):
    """The smallest non-residue modulo the odd prime p, by Euler's criterion."""
    return next(b for b in range(2, p) if pow(b, (p - 1) // 2, p) == p - 1)


def _prime_with_two_adic_valuation(s):
    """The first prime k * 2**s + 1 with k odd and k above 2**190."""
    k = (1 << 190) + 1
    while not is_prime(k << s | 1):
        k += 2
    return k << s | 1


def _random_unit_square(p, pk, rng):
    """A random unit square z modulo pk = p**k with a root x modulo p."""
    y = rng.randrange(1, pk)
    if y % p == 0:
        y += 1
    return y % p, y * y % pk


class TestHenselLiftSqrt:
    @pytest.mark.parametrize(
        "x,z,p,k,expected",
        [
            (1, 7, 3, 2, 4),
            (1, 6, 5, 2, 16),
        ],
    )
    def test_known_lifts(self, x, z, p, k, expected):
        assert hensel_lift_sqrt(x, z, p, k) == expected

    def test_exhaustive_small_prime_powers(self):
        for p, kmax in ((3, 7), (5, 5), (7, 4), (11, 3), (13, 3), (31, 2)):
            for k in range(1, kmax + 1):
                q = p**k
                table = canonical_root_table(p)
                seen_roots = {}
                for y in range(1, q):
                    if y % p:
                        seen_roots.setdefault(y * y % q, set()).add(y)
                for z, roots in seen_roots.items():
                    x = table[z % p]
                    y = hensel_lift_sqrt(x, z, p, k)
                    assert y in roots
                    assert y % p == x

    @settings(max_examples=50)
    @given(
        st.sampled_from([3, 5, (1 << 61) - 1, (1 << 64) - 59, (1 << 127) - 1]),
        st.integers(1, 300),
        st.integers(1, 1 << 20000),
    )
    def test_random_lifts(self, p, k, y_raw):
        k = min(k, 20000 // p.bit_length())
        q = p**k
        y = y_raw % q
        if y % p == 0:
            y += 1
        z = y * y % q
        x = sqrt_mod_prime(z % p, p)
        result = hensel_lift_sqrt(x, z, p, k)
        assert result * result % q == z
        assert result % p == x
        assert 0 < result < q
        ladder = numbertheory._precision_ladder(p, k, q)
        assert numbertheory._lift_inverse_root(pow(x, -1, p), z, q, ladder) == result

    @pytest.mark.parametrize(
        "p", [3, 5, 1019, (1 << 64) - 59, (1 << 127) - 1], ids=lambda p: f"{p.bit_length()}-bit"
    )
    def test_matches_the_full_width_reference(self, p):
        # The prepared ladder (encoding's path) and the per-call one
        # (hensel_lift_sqrt) both agree with the full-width Newton loop.
        rng = random.Random(p)
        for k in range(1, 17):
            pk = p**k
            ladder = FactoredModulus(0, [(p, k)])._root_steps[0][-1]
            for _ in range(4):
                x, z = _random_unit_square(p, pk, rng)
                r = pow(x, -1, p)
                expected = lift_inverse_root_reference(r, z, p, pk)
                assert numbertheory._lift_inverse_root(r, z, pk, ladder) == expected, (p, k)
                assert hensel_lift_sqrt(x, z, p, k) == expected, (p, k)

    def test_matches_the_full_width_reference_at_a_huge_power(self):
        p, k = 3, 32000
        pk = p**k
        x, z = _random_unit_square(p, pk, random.Random(k))
        r = pow(x, -1, p)
        expected = lift_inverse_root_reference(r, z, p, pk)
        ladder = FactoredModulus(0, [(p, k)])._root_steps[0][-1]
        assert numbertheory._lift_inverse_root(r, z, pk, ladder) == expected
        assert hensel_lift_sqrt(x, z, p, k) == expected

    def test_preserves_base_root_choice(self):
        # Lifting the conjugate base root lands on the conjugate lift.
        p, k, z = 7, 3, 2
        x = sqrt_mod_prime(z, p)
        y = hensel_lift_sqrt(x, z, p, k)
        y_conj = hensel_lift_sqrt(p - x, z, p, k)
        assert y_conj == p**k - y

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hensel_lift_sqrt(1, 1, 4, 2)
        with pytest.raises(ValueError):
            hensel_lift_sqrt(1, 1, 3, 0)
        with pytest.raises(ValueError):
            hensel_lift_sqrt(1, 3, 3, 2)  # z not a unit
        with pytest.raises(ValueError):
            hensel_lift_sqrt(2, 11, 5, 2)  # 2*2 = 4 but 11 = 1 mod 5


class TestSqrtMod2k:
    @pytest.mark.parametrize("z,k,expected", [(17, 5, 7), (9, 5, 3), (1, 4, 1)])
    def test_known_roots(self, z, k, expected):
        assert sqrt_mod_2k(z, k) == expected

    def test_exhaustive_small_k(self):
        for k in range(4, 13):
            n = 1 << k
            for z in range(1, n, 8):
                y = sqrt_mod_2k(z, k)
                assert y % 2 == 1
                assert y < 1 << (k - 2)
                assert y * y % n == z
                # The canonical orbit representative is unique below 2^(k-2).
                others = [w for w in all_roots(z, n) if w < 1 << (k - 2)]
                assert others == [y]

    def test_rejects_non_residues(self):
        for z in (3, 5, 7, 2, 4, 0):
            with pytest.raises((NotAResidueError, ValueError)):
                sqrt_mod_2k(z, 5)

    def test_rejects_small_k(self):
        for k in (0, 1, 2, 3):
            with pytest.raises(ValueError):
                sqrt_mod_2k(1, k)

    @settings(max_examples=50)
    @given(st.integers(4, 4096), st.integers(0, 1 << 4094))
    def test_random_roundtrip(self, k, y_raw):
        y = (2 * y_raw + 1) % (1 << (k - 2))
        z = y * y % (1 << k)
        root = sqrt_mod_2k(z, k)
        assert root * root % (1 << k) == z
        assert root < 1 << (k - 2) and root % 2 == 1

    @pytest.mark.parametrize("k", [*range(4, 65), 1000, 4096, 65536])
    def test_matches_the_dividing_reference(self, k):
        # Masks reduce as % does, for negative z and z >= 2^k too.
        rng = random.Random(k)
        for _ in range(8 if k <= 64 else 2):
            y = rng.getrandbits(k) | 1
            z = y * y + (rng.randint(-1 << k, 1 << k) << k)
            assert sqrt_mod_2k(z, k) == sqrt_mod_2k_reference(z, k), (k, z)
            with pytest.raises(NotAResidueError):
                sqrt_mod_2k(z + rng.choice([2, 4, 6, 1 - (1 << k)]), k)
