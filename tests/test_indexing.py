import itertools
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrindex.indexing as indexing
import qrindex.numbertheory as numbertheory
from qrindex import mixedradix
from helpers import (
    ODD_PRIMES,
    all_roots,
    hostile_factor_strings,
    random_prime,
    squarefree_semiprime_modulus,
)
from qrindex import (
    FactorizationError,
    FactoredModulus,
    IndexRangeError,
    NotAResidueError,
    NotCoprimeError,
    PrimePower,
    RootProfile,
    crt_combine,
    decode_index,
    encode_residue,
    enumerate_qr,
    factor_trial_division,
    index_space_size,
    index_to_profile,
    is_prime,
    is_quadratic_residue,
    parse_factorization,
    profile_to_index,
    profile_to_residue,
    radix_schedule,
    residue_to_profile,
    sqrt_mod_2k,
)


class TestParseFactorization:
    def test_plain_terms(self):
        m = parse_factorization("3^2 * 5")
        assert m.n == 45
        assert m.two_exponent == 0
        assert m.odd_parts == (PrimePower(3, 2), PrimePower(5, 1))

    def test_pure_two_power(self):
        m = parse_factorization("2^5")
        assert m.n == 32
        assert m.two_exponent == 5
        assert m.odd_parts == ()

    def test_bases_normalize_to_ascending(self):
        m = parse_factorization("13 * 2 * 5^2")
        assert m.two_exponent == 1
        assert m.odd_parts == (PrimePower(5, 2), PrimePower(13, 1))
        assert m.n == 650

    def test_whitespace_is_free(self):
        assert parse_factorization(" 2 ^ 3 *3* 5 ").n == 120

    @pytest.mark.parametrize(
        "text",
        [
            "4 * 3", "9", "1", "3 * 3", "3^0", "", " * ", "3 ** 5", "a * 3", "3^", "-3",
            "2^0", "2 * 3 * 2^3", "3^40000",
        ],
    )
    def test_rejections(self, text):
        with pytest.raises(FactorizationError):
            parse_factorization(text)

    @pytest.mark.parametrize(
        "text",
        ["3" * 4402, "3^" + "9" * 5000, "5 * " + "7" * 4402 + "^2"],
        ids=["base", "exponent", "second-term"],
    )
    def test_numerals_over_the_int_str_limit(self, text, default_int_str_limit):
        with pytest.raises(FactorizationError, match=f"{default_int_str_limit} digits"):
            parse_factorization(text)

    @settings(max_examples=300, deadline=None)
    @given(hostile_factor_strings())
    def test_hostile_strings_parse_or_raise_factorization_error(self, text):
        try:
            m = parse_factorization(text)
        except FactorizationError:
            return
        assert parse_factorization(m.factor_string()) == m

    def test_each_base_is_primality_tested_once(self, monkeypatch):
        tested = []

        def counting_is_prime(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(indexing, "is_prime", counting_is_prime)
        assert parse_factorization("3^2 * 5 * 7").n == 315
        assert sorted(tested) == [3, 5, 7]

    def test_phi_and_r_fields(self):
        m = parse_factorization("2^4 * 3^2 * 7")
        assert m.phi == 8 * 6 * 6
        assert m.r == 2
        assert m.n == 16 * 9 * 7


class TestFactoredModulus:
    def test_direct_construction_sorts_parts(self):
        m = FactoredModulus(2, [(7, 1), (3, 2)])
        assert m.odd_parts == (PrimePower(3, 2), PrimePower(7, 1))
        assert m.n == 4 * 9 * 7

    @pytest.mark.parametrize(
        "two_exponent,odd_parts",
        [
            (-1, []),
            (0, []),
            (0, [(9, 1)]),
            (0, [(3, 0)]),
            (0, [(3, 1), (3, 2)]),
            (0, [(4, 1)]),
            (0, [(2, 1)]),
            (65537, []),
            (2.5, []),
            (0, [(5.9, 1)]),
            (0, [(5, 1.0)]),
            (0, [3]),
            (0, [(3,)]),
            (0, [(3, 1, 1)]),
            (0, 5),
        ],
    )
    def test_invalid_shapes(self, two_exponent, odd_parts):
        with pytest.raises(FactorizationError):
            FactoredModulus(two_exponent, odd_parts)

    def test_malformed_part_is_named_by_position(self, default_int_str_limit):
        # The entry's repr would print a base past the int/str digit limit.
        with pytest.raises(FactorizationError, match="odd part at position 1 is not"):
            FactoredModulus(0, [(3, 1), (10 ** (default_int_str_limit + 1),)])

    def test_minimal_moduli(self):
        assert FactoredModulus(1).n == 2
        assert FactoredModulus(0, [(3, 1)]).n == 3

    def test_size_bound_is_inclusive(self):
        assert FactoredModulus(1 << 16).n == 1 << (1 << 16)

    def test_equality_and_hash(self):
        a = parse_factorization("2^3 * 5")
        b = FactoredModulus(3, [(5, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != FactoredModulus(3, [(7, 1)])
        assert {a, b} == {a}

    def test_equality_with_another_type_is_left_to_it(self):
        m = parse_factorization("3 * 5")
        assert m.__eq__(15) is NotImplemented
        assert m != 15

    def test_repr_and_factor_string(self):
        assert parse_factorization("5 * 2^6 * 3").factor_string() == "2^6 * 3 * 5"
        assert parse_factorization("2 * 7").factor_string() == "2 * 7"
        assert "3^2" in repr(parse_factorization("3^2"))


class TestMessagesPastTheIntStrLimit:
    # An error message names values too long to print in decimal under
    # the interpreter's default int/str limit by their bit length, so the
    # library raises its own error and not the interpreter's ValueError.

    def test_decode_out_of_range(self, default_int_str_limit):
        with pytest.raises(IndexRangeError) as excinfo:
            decode_index(parse_factorization("2^16000"), 0)
        assert str(excinfo.value) == (
            "index 0 out of range for modulus <16001-bit integer>:"
            " index space is 1..<15998-bit integer>"
        )

    def test_encode_non_unit(self, default_int_str_limit):
        with pytest.raises(NotCoprimeError) as excinfo:
            encode_residue(parse_factorization("2^16000"), 2)
        assert str(excinfo.value) == "2 is not a unit modulo <16001-bit integer> (gcd 2)"

    def test_encode_non_residue(self, default_int_str_limit):
        with pytest.raises(NotAResidueError) as excinfo:
            encode_residue(parse_factorization("2^16000"), (1 << 15999) + 3)
        assert str(excinfo.value) == (
            "<16000-bit integer> is not a quadratic residue modulo 2**16000"
        )

    def test_long_composite_base(self, default_int_str_limit):
        c = 3**9100  # 4,342 decimal digits
        with pytest.raises(FactorizationError) as excinfo:
            FactoredModulus(odd_parts=[(c, 1)])
        assert str(excinfo.value) == f"base <{c.bit_length()}-bit integer> is not prime"

    def test_repr_and_factor_string(self, default_int_str_limit, monkeypatch):
        # 2**19937 - 1 is a Mersenne prime of 6,002 digits; proving it here
        # would take about 30 s, and primality is not under test.
        monkeypatch.setattr(indexing, "is_prime", lambda n: True)
        m = FactoredModulus(1, [(2**19937 - 1, 1), (3, 2)])
        assert repr(m) == "FactoredModulus('2 * 3^2 * <19937-bit integer>')"
        with pytest.raises(FactorizationError, match=f"{default_int_str_limit} digits"):
            m.factor_string()

    def test_primitives(self, default_int_str_limit):
        with pytest.raises(IndexRangeError, match=r"^value <20001-bit integer> out of range"):
            mixedradix.unpack(1 << 20000, (2, 3))
        with pytest.raises(NotAResidueError, match=r"^<16000-bit integer> is not"):
            sqrt_mod_2k((1 << 15999) + 3, 16000)
        with pytest.raises(ValueError) as excinfo:
            encode_residue(parse_factorization("3*5"), -(1 << 20000))
        assert str(excinfo.value) == "residue must be a natural, got <20001-bit negative integer>"


class TestIndexSpaceSize:
    @pytest.mark.parametrize(
        "factors,expected",
        [("3*5", 2), ("2^3", 1), ("2^4*3", 2), ("2", 1), ("2^2", 1), ("2^6", 8), ("3^2*5", 6)],
    )
    def test_known_sizes(self, factors, expected):
        assert index_space_size(parse_factorization(factors)) == expected

    def test_matches_enumeration_small_sweep(self):
        from qrindex import factor_trial_division

        for n in range(2, 400):
            m = factor_trial_division(n)
            assert index_space_size(m) == len(enumerate_qr(n)), n

    def test_odd_moduli_match_phi_over_2_to_r(self):
        from qrindex import factor_trial_division

        for n in range(3, 1000, 2):
            m = factor_trial_division(n)
            assert m.phi % (1 << m.r) == 0
            assert index_space_size(m) == m.phi >> m.r, n


class TestRadixSchedule:
    @pytest.mark.parametrize(
        "factors,expected",
        [
            ("3^2 * 5", (1, 3, 2, 1)),
            ("2^5", (4,)),
            ("3 * 5", (1, 1, 2, 1)),
            ("2^3 * 7", (3, 1)),
            ("2^6 * 3 * 11^2", (1, 1, 5, 11, 8)),
        ],
    )
    def test_known_schedules(self, factors, expected):
        assert radix_schedule(parse_factorization(factors)) == expected

    def test_product_equals_size(self):
        from qrindex import factor_trial_division

        for n in range(2, 600):
            m = factor_trial_division(n)
            product = math.prod(radix_schedule(m))
            assert product == index_space_size(m), n


class TestDecodeIndex:
    @pytest.mark.parametrize(
        "factors,index,expected",
        [
            ("3*5", 1, 1),
            ("3*5", 2, 4),
            ("2^3", 1, 1),
            ("3^2", 1, 1),
            ("3^2", 2, 7),
            ("3^2", 3, 4),
            ("2^4*3", 1, 1),
            ("2^4*3", 2, 25),
        ],
    )
    def test_known_values(self, factors, index, expected):
        assert decode_index(parse_factorization(factors), index) == expected

    def test_full_image_for_2_part_modulus(self):
        m = parse_factorization("2^4 * 5")
        image = [decode_index(m, i) for i in range(1, index_space_size(m) + 1)]
        assert sorted(image) == enumerate_qr(80)

    @pytest.mark.parametrize("index", [0, 3, -1, 10**9])
    def test_out_of_range(self, index):
        with pytest.raises(IndexRangeError):
            decode_index(parse_factorization("3*5"), index)

    def test_float_index_is_a_type_error(self):
        # Refused as range(2.0) is, not rounded into a float "residue".
        with pytest.raises(TypeError):
            decode_index(parse_factorization("3*5"), 2.0)

    def test_error_message_names_the_range(self):
        with pytest.raises(IndexRangeError) as excinfo:
            decode_index(parse_factorization("3*5"), 3)
        assert str(excinfo.value) == (
            "index 3 out of range for modulus 15: index space is 1..2"
        )

    def test_outputs_are_residues(self):
        for factors in ("3*5*7", "2^5*3^2", "2^2*11", "13^2"):
            m = parse_factorization(factors)
            for index in range(1, index_space_size(m) + 1):
                z = decode_index(m, index)
                assert math.gcd(z, m.n) == 1
                assert is_quadratic_residue(m, z)


# A prime whose p - 1 has 2-adic valuation 64, and two primes of the
# codec-powers shape: p of 64 bits, 3 mod 4, and q of 128 bits, 1 mod 4.
_P64 = 25 * 2**64 + 1
_P, _Q = 17066718717662840731, 329525564795328691764155081763549978521
_POWERS = [(3, 256), (_P, 8), (_Q, 4)]


class TestEncodeResidue:
    @pytest.mark.parametrize(
        "factors,z,expected",
        [("3*5", 4, 2), ("3^2", 7, 2), ("3*5", 1, 1), ("2^3", 1, 1), ("2^4*3", 25, 2)],
    )
    def test_known_values(self, factors, z, expected):
        assert encode_residue(parse_factorization(factors), z) == expected

    def test_non_residue_rejected(self):
        with pytest.raises(NotAResidueError):
            encode_residue(parse_factorization("3*5"), 2)
        with pytest.raises(NotAResidueError):
            encode_residue(parse_factorization("2^5"), 3)
        with pytest.raises(NotAResidueError):
            encode_residue(parse_factorization("2^2*7"), 11)

    def test_non_unit_rejected_with_gcd(self):
        with pytest.raises(NotCoprimeError) as excinfo:
            encode_residue(parse_factorization("3*5"), 6)
        assert excinfo.value.gcd == 3

    @pytest.mark.parametrize(
        "factors,z,gcd", [("3*5*7", 14, 7), ("2^4*3*5", 8, 8)], ids=["odd-part", "two-part"]
    )
    def test_non_unit_wins_over_an_earlier_non_residue(self, factors, z, gcd):
        # z = 2 mod 3 is a non-residue modulo the first prime, yet a later
        # factor divides it: the unit check comes first.
        m = parse_factorization(factors)
        with pytest.raises(NotCoprimeError) as excinfo:
            encode_residue(m, z)
        assert excinfo.value.gcd == gcd
        assert str(excinfo.value) == f"{z} is not a unit modulo {m.n} (gcd {gcd})"

    def test_outcome_spec_below_300(self):
        # Every z in 0..2N-1 for every N in 2..300, against a reference
        # outcome built from gcd and Euler's criterion alone: the index, or
        # the exact error, gcd and message, from both encode entry points.
        for n in range(2, 301):
            m = factor_trial_division(n)
            for z in range(2 * n):
                expected = _expected_encode_outcome(m, z)
                for encode in (encode_residue, residue_to_profile):
                    try:
                        result = encode(m, z)
                    except (NotCoprimeError, NotAResidueError) as exc:
                        outcome = (type(exc), str(exc), getattr(exc, "gcd", None))
                        assert outcome == expected, (n, z, encode.__name__)
                        continue
                    if encode is residue_to_profile:
                        result = profile_to_index(m, result)
                    assert not isinstance(expected, tuple), (n, z, encode.__name__)
                    assert 1 <= result <= index_space_size(m), (n, z)
                    assert decode_index(m, result) == z % n, (n, z)

    @pytest.mark.parametrize(
        "two_exponent,odd_parts,congruences",
        [
            # p - 1 = 25 * 2**64: Tonelli-Shanks squares t = 0 64 times.
            (0, [(_P64, 1)], [(0, _P64)]),
            (0, [(3, 1), (_P64, 2)], [(1, 3), (0, _P64)]),
            (0, [(3, 1), (_P64, 2)], [(2, 3), (_P64, _P64**2)]),
            (0, [(3, 1), (_P64, 2)], [(0, 3), (5, _P64**2)]),
            # Shaped as the codec-powers workload: 2^1024 * 3^256 * p^8 * q^4.
            (1024, _POWERS, [(2, 1 << 1024), (1, 3**256), (1, _P**8), (1, _Q**4)]),
            (1024, _POWERS, [(0, 1 << 1024), (4, 3**256), (9, _P**8), (16, _Q**4)]),
            (1024, _POWERS, [(6, 1 << 1024), (2, 3**256), (1, _P**8), (1, _Q**4)]),
            (1024, _POWERS, [(1, 1 << 1024), (1, 3**256), (1, _P**8), (_Q, _Q**4)]),
            (1024, _POWERS, [(1, 1 << 1024), (1, 3**256), (1, _P**8), (0, _Q**4)]),
            (1024, _POWERS, [(1, 1 << 1024), (2, 3**256), (1, _P**8), (_Q, _Q**4)]),
            (1024, _POWERS, [(3, 1 << 1024), (3, 3**256), (1, _P**8), (1, _Q**4)]),
            (1024, _POWERS, [(3, 1 << 1024), (3 * 2, 3**256), (1, _P**8), (1, _Q**4)]),
            (1024, _POWERS, [(3, 1 << 1024), (1, 3**256), (1, _P**8), (1, _Q**4)]),
            (1024, _POWERS, [(9, 1 << 1024), (4, 3**256), (9, _P**8), (16, _Q**4)]),
        ],
        ids=[
            "v64-zero", "v64-zero-behind-residue", "v64-multiple-behind-non-residue",
            "v64-three-divides", "powers-even-unit-elsewhere", "powers-zero-mod-2^1024",
            "powers-even-behind-non-residue-mod-3", "powers-q-divides-once",
            "powers-zero-mod-q^4", "powers-q-behind-non-residue-mod-3",
            "powers-3-divides-non-residue-mod-8", "powers-9-divides-non-residue-mod-8",
            "powers-non-residue-mod-8", "powers-unit-square",
        ],
    )
    def test_outcome_spec_on_wide_moduli(
        self, default_int_str_limit, two_exponent, odd_parts, congruences
    ):
        # Where a zero digit or an even z used to be refused before any
        # root was taken, the gcd on the failure path gives the same verdict.
        m = FactoredModulus(two_exponent, odd_parts)
        z = crt_combine(congruences)
        expected = _expected_encode_outcome(m, z)
        if expected is None:  # the control: a unit square encodes
            index = encode_residue(m, z)
            assert profile_to_index(m, residue_to_profile(m, z)) == index
            assert decode_index(m, index) == z
            return
        for encode in (encode_residue, residue_to_profile):
            with pytest.raises((NotCoprimeError, NotAResidueError)) as excinfo:
                encode(m, z)
            exc = excinfo.value
            assert (type(exc), str(exc), getattr(exc, "gcd", None)) == expected, encode.__name__

    @pytest.mark.parametrize("factors", ["3^5 * 5^3 * 7^2", "2^7 * 3^2 * 7"])
    def test_no_modular_inverse(self, factors, monkeypatch):
        # Builtin pow is shadowed in the modules encode runs through.
        inverses = []

        def counting_pow(*args):
            if len(args) == 3 and args[1] < 0:
                inverses.append(args)
            return pow(*args)

        m = parse_factorization(factors)
        indices = range(1, index_space_size(m) + 1, 7)
        residues = [decode_index(m, i) for i in indices]
        monkeypatch.setattr(numbertheory, "pow", counting_pow, raising=False)
        monkeypatch.setattr(indexing, "pow", counting_pow, raising=False)
        assert [encode_residue(m, z) for z in residues] == list(indices)
        assert inverses == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_residue(parse_factorization("3*5"), -4)

    @pytest.mark.parametrize("z", [4.0, "4", -1.5])
    @pytest.mark.parametrize("factors", ["3*5", "2^4*3"], ids=["odd", "even"])
    def test_non_integer_residue_is_a_type_error(self, factors, z):
        # Refused as decode_index refuses a float index, by both entry points.
        m = parse_factorization(factors)
        for encode in (encode_residue, residue_to_profile):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                encode(m, z)

    def test_input_reduced_mod_n(self):
        m = parse_factorization("3*5")
        assert encode_residue(m, 4 + 15) == encode_residue(m, 4)
        assert encode_residue(m, 1 + 15 * 7) == 1


def _expected_encode_outcome(m, z):
    """What encoding z must give: None for an index, else (type, message, gcd)."""
    n = m.n
    z %= n
    g = math.gcd(z, n)
    if g != 1:
        return NotCoprimeError, f"{z} is not a unit modulo {n} (gcd {g})", g
    for p, _ in m.odd_parts:
        if pow(z % p, (p - 1) // 2, p) != 1:
            return NotAResidueError, f"{z % p} is not a quadratic residue modulo {p}", None
    k2 = m.two_exponent
    if k2 >= 2 and z % (4 if k2 == 2 else 8) != 1:
        return NotAResidueError, f"{z} is not a quadratic residue modulo 2**{k2}", None
    return None


class TestRoundtrips:
    MODULI = [
        "2", "2^2", "2^3", "2^4", "2^5", "2^8",
        "3", "3^2", "3^4", "7^3", "5 * 7", "3 * 5 * 7",
        "2 * 3", "2^2 * 3^2", "2^3 * 5", "2^4 * 3 * 5", "2^6 * 7^2",
        "3 * 5 * 7 * 11 * 13",
    ]

    @pytest.mark.parametrize("factors", MODULI)
    def test_decode_then_encode_is_identity(self, factors):
        m = parse_factorization(factors)
        for index in range(1, index_space_size(m) + 1):
            assert encode_residue(m, decode_index(m, index)) == index

    @pytest.mark.parametrize("factors", MODULI)
    def test_encode_then_decode_is_identity(self, factors):
        m = parse_factorization(factors)
        for z in enumerate_qr(m.n):
            assert decode_index(m, encode_residue(m, z)) == z

    def test_decode_image_has_no_repeats(self):
        m = parse_factorization("2^5 * 3^2 * 5")
        image = [decode_index(m, i) for i in range(1, index_space_size(m) + 1)]
        assert len(set(image)) == len(image)

    def test_512_bit_semiprime_spot_check(self):
        rng = random.Random(7)
        m = squarefree_semiprime_modulus(512, rng)
        size = index_space_size(m)
        for _ in range(25):
            index = rng.randrange(1, size + 1)
            z = decode_index(m, index)
            assert encode_residue(m, z) == index
        for _ in range(25):
            x = rng.randrange(2, m.n)
            if math.gcd(x, m.n) != 1:
                continue
            z = x * x % m.n
            assert decode_index(m, encode_residue(m, z)) == z

    def test_roundtrip_at_the_size_bound_does_not_hang(self):
        # The 2-adic root and the Hensel lift take O(log k) Newton steps;
        # lifting one power of the prime at a time took minutes at these
        # sizes.  Run in a subprocess so a regression fails on the timeout.
        script = (
            "import random\n"
            "from qrindex import decode_index, encode_residue, index_space_size,"
            " parse_factorization\n"
            "rng = random.Random(5)\n"
            "for text in ('2^65536', '3^32768'):\n"
            "    m = parse_factorization(text)\n"
            "    index = rng.randrange(1, index_space_size(m) + 1)\n"
            "    print(text, encode_residue(m, decode_index(m, index)) == index)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["2^65536 True", "3^32768 True"]


class TestProfiles:
    def test_profile_fields_follow_the_schedule(self):
        m = parse_factorization("2^5 * 3^2 * 7")
        for index in range(1, index_space_size(m) + 1):
            profile = index_to_profile(m, index)
            assert len(profile.odd_roots) == 2
            (x1, c1), (x2, c2) = profile.odd_roots
            assert 1 <= x1 <= 1 and 0 <= c1 < 3
            assert 1 <= x2 <= 3 and c2 == 0
            assert 0 <= profile.two_part_digit < 4
            assert profile_to_index(m, profile) == index

    def test_odd_modulus_has_no_two_part_digit(self):
        profile = index_to_profile(parse_factorization("3*5"), 2)
        assert profile.two_part_digit is None

    def test_residue_to_profile_is_canonical(self):
        m = parse_factorization("3^3 * 5")
        for z in enumerate_qr(m.n):
            profile = residue_to_profile(m, z)
            for (p, k), (x, c) in zip(m.odd_parts, profile.odd_roots):
                assert 1 <= x <= (p - 1) // 2
                assert 0 <= c < p ** (k - 1)
                y = x + c * p
                assert y * y % p**k == z % p**k

    def test_profile_shape_validation(self):
        m = parse_factorization("3*5")
        for view in (profile_to_index, profile_to_residue):
            with pytest.raises(ValueError):
                view(m, RootProfile(((1, 0),)))
            with pytest.raises(ValueError):
                view(m, RootProfile(((1, 0), (1, 0)), two_part_digit=0))
            with pytest.raises(IndexRangeError):
                view(m, RootProfile(((1, 0), (3, 0))))
            with pytest.raises(IndexRangeError):
                view(m, RootProfile(((1, 1), (1, 0))))
            with pytest.raises(TypeError):
                view(m, RootProfile(((1, 0), (2.5, 0))))
            with pytest.raises(TypeError):
                view(m, RootProfile(((1.0, 0), (2, 0))))
            # A malformed pair is named by position, not unpacked by the interpreter.
            for odd_roots in (((1,), (1, 0)), (1, (1, 0)), ((1, 0, 0), (1, 0))):
                with pytest.raises(ValueError, match="^odd root at position 0 is not a"):
                    view(m, RootProfile(odd_roots))
            with pytest.raises(ValueError, match="^odd roots must be an iterable of"):
                view(m, RootProfile(5))

    @pytest.mark.parametrize(
        "text,profile,message",
        [
            (
                "3*5",
                RootProfile(((1, 0), (3, 0))),
                "root x = 3 out of range 1..2 for prime power 5",
            ),
            (
                "3*5",
                RootProfile(((0, 0), (1, 0))),
                "root x = 0 out of range 1..1 for prime power 3",
            ),
            (
                "2^6 * 5^2",
                RootProfile(((1, 5),), 0),
                "lift digit c = 5 out of range 0..4 for prime power 5^2",
            ),
            (
                "2^6 * 5^2",
                RootProfile(((1, 0),), 8),
                "2-part digit = 8 out of range 0..7 for prime power 2^6",
            ),
        ],
        ids=["root-above-range", "root-zero", "lift-digit", "two-part-digit"],
    )
    def test_range_errors_name_the_value_passed(self, text, profile, message):
        # The root x itself, not its packed digit x - 1, with its prime power.
        m = parse_factorization(text)
        for view in (profile_to_index, profile_to_residue):
            with pytest.raises(IndexRangeError) as excinfo:
                view(m, profile)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("text", ["3*5", "2^5 * 3^2 * 7", "3^3 * 5", "2^4"])
    def test_profile_views_accept_and_refuse_alike(self, text):
        # Every digit in -1..radix at every position, plus wrong shapes: the
        # two views raise the same type or agree with decode_index, and they
        # accept exactly the in-range tuples, each index once.
        m = parse_factorization(text)
        radices = radix_schedule(m)
        profiles = []
        for digits in itertools.product(*(range(-1, radix + 1) for radix in radices)):
            odd_roots = tuple((digits[2 * i] + 1, digits[2 * i + 1]) for i in range(m.r))
            two_part = digits[-1] if m.two_exponent > 3 else None
            in_range = all(0 <= d < radix for d, radix in zip(digits, radices))
            profiles.append((RootProfile(odd_roots, two_part), in_range))
        valid = index_to_profile(m, 1)
        roots, two_part = valid.odd_roots, valid.two_part_digit
        wrong_shapes = [(roots + ((1, 0),), two_part), (roots, 0 if two_part is None else None)]
        if roots:
            wrong_shapes.append((roots[:-1], two_part))
        profiles += [(RootProfile(*shape), False) for shape in wrong_shapes]
        accepted = []
        for profile, in_range in profiles:
            outcomes = []
            for view in (profile_to_index, profile_to_residue):
                try:
                    outcomes.append(view(m, profile))
                except Exception as exc:
                    outcomes.append(type(exc))
            index, residue = outcomes
            if isinstance(index, type) or isinstance(residue, type):
                assert index is residue and not in_range, profile
            else:
                assert in_range and residue == decode_index(m, index), profile
                accepted.append(index)
        assert sorted(accepted) == list(range(1, index_space_size(m) + 1))

    def test_two_part_root_is_canonical_odd(self):
        m = parse_factorization("2^7")
        for z in enumerate_qr(128):
            profile = residue_to_profile(m, z)
            y = 1 + 2 * profile.two_part_digit
            assert y % 2 == 1 and y < 32
            assert y * y % 128 == z


def _basis_moduli():
    # 2-parts with k <= 3 and k > 3, odd prime powers, and a 1285-bit
    # modulus of four 256-bit primes (one squared) times 2^5.
    rng = random.Random(1024)
    big = [random_prime(256, rng) for _ in range(4)]
    return [
        parse_factorization("2"),
        parse_factorization("2^3 * 3 * 5"),
        parse_factorization("2^2 * 7^2"),
        parse_factorization("2^7 * 3^2 * 7"),
        parse_factorization("2^10"),
        parse_factorization("3^5 * 5^3 * 7^2"),
        parse_factorization("11^4"),
        FactoredModulus(5, [(p, 1) for p in big[:3]] + [(big[3], 2)]),
    ]


def _parts_and_steps(m):
    # The prime-power parts, and (radix, scale, part) for each digit of
    # radix above 1 in schedule order: the decode steps m should hold.
    parts = [p**k for p, k in m.odd_parts] + ([1 << m.two_exponent] if m.two_exponent else [])
    steps = []
    for i, (p, k) in enumerate(m.odd_parts):
        steps += [((p - 1) // 2, 1, i), (p ** (k - 1), p, i)]
    if m.two_exponent > 3:
        steps.append((1 << (m.two_exponent - 3), 2, m.r))
    return parts, [step for step in steps if step[0] > 1]


class TestCrtBasis:
    """The basis a FactoredModulus prepares, against crt_combine."""

    @pytest.mark.parametrize("m", _basis_moduli(), ids=repr)
    def test_basis_elements_are_idempotents(self, m):
        # Each step's E is 1 modulo its own part and 0 modulo every other.
        parts, expected = _parts_and_steps(m)
        assert math.prod(parts) == m.n
        assert len(m._decode_steps) == len(expected)
        for (_, _, i), (_, _, e) in zip(expected, m._decode_steps):
            assert 0 <= e < m.n
            for j, q in enumerate(parts):
                assert e % q == (1 if i == j else 0), (i, j)

    @pytest.mark.parametrize("m", _basis_moduli(), ids=repr)
    def test_decode_matches_crt_combine(self, m):
        rng = random.Random(m.n)
        for _ in range(25):
            index = rng.randint(1, index_space_size(m))
            profile = index_to_profile(m, index)
            parts = [(x + c * p, p**k) for (p, k), (x, c) in zip(m.odd_parts, profile.odd_roots)]
            if m.two_exponent:
                d = profile.two_part_digit
                parts.append((1 if d is None else 1 + 2 * d, 1 << m.two_exponent))
            root = crt_combine(parts)
            assert profile_to_residue(m, profile) == root * root % m.n
            assert decode_index(m, index) == root * root % m.n

    @pytest.mark.parametrize("m", _basis_moduli(), ids=repr)
    def test_decode_steps_share_the_basis(self, m):
        # Both steps of a part hold the same E, not a new N-sized multiple,
        # and a part with no digit (3, or 2^k with k <= 3) has no step.
        parts, expected = _parts_and_steps(m)
        assert [step[:2] for step in m._decode_steps] == [step[:2] for step in expected]
        assert [radix for radix, _, _ in m._decode_steps] == [r for r in m._radices if r > 1]
        shared = {}
        for (_, _, i), (_, _, e) in zip(expected, m._decode_steps):
            assert shared.setdefault(i, e) is e
        assert shared.keys() == {i for i, q in enumerate(parts) if q not in (2, 3, 4, 8)}

    @pytest.mark.parametrize("m", _basis_moduli(), ids=repr)
    def test_root_steps_share_the_schedule(self, m):
        # A root step holds the schedule's radices themselves, and its
        # Newton ladder p^2, p^4, ... ends on the step's own p^k.
        assert len(m._root_steps) == m.r
        for i, ((p, k), step) in enumerate(zip(m.odd_parts, m._root_steps)):
            sp, q, x_radix, c_radix, s, e, ladder = step
            assert sp == p and q == p**k
            assert x_radix is m._radices[2 * i] and c_radix is m._radices[2 * i + 1]
            assert (2 * e + 1) << s == p - 1 and s >= 1
            assert isinstance(ladder, tuple)
            if k == 1:
                assert ladder == ()
                continue
            assert ladder[-1] is q
            assert ladder[:-1] == tuple(p ** (1 << j) for j in range(1, len(ladder)))
            assert all(a < b for a, b in zip(ladder, ladder[1:]))
            assert 1 << (len(ladder) - 1) < k <= 1 << len(ladder)

    @pytest.mark.parametrize("m", _basis_moduli(), ids=repr)
    def test_encode_matches_the_checked_pack_path(self, m):
        rng = random.Random(m.n)
        for _ in range(25):
            z = decode_index(m, rng.randint(1, index_space_size(m)))
            assert encode_residue(m, z) == profile_to_index(m, residue_to_profile(m, z))

    def test_encode_matches_the_checked_pack_path_below_400(self):
        for n in range(2, 401):
            m = factor_trial_division(n)
            for z in enumerate_qr(n):
                assert encode_residue(m, z) == profile_to_index(m, residue_to_profile(m, z)), (n, z)


class TestIsQuadraticResidue:
    @pytest.mark.parametrize(
        "factors,z,expected",
        [
            ("3*5", 4, True),
            ("3*5", 2, False),
            ("2^3", 1, True),
            ("2^2", 3, False),
            ("2", 1, True),
            ("3*5", 0, False),
            ("3*5", -4, False),
            ("3*5", 19, True),
        ],
    )
    def test_known_memberships(self, factors, z, expected):
        assert is_quadratic_residue(parse_factorization(factors), z) is expected

    @pytest.mark.parametrize("z", [4.0, -1.5, "4"])
    @pytest.mark.parametrize("factors", ["3*5", "2^4*3"], ids=["odd", "even"])
    def test_non_integer_is_a_type_error(self, factors, z):
        # Not an answer of False for -1.5, nor a pow() error for 4.0.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            is_quadratic_residue(parse_factorization(factors), z)

    def test_agrees_with_enumeration(self):
        for n in range(2, 300):
            m = factor_trial_division(n)
            table = set(enumerate_qr(n))
            for z in range(n):
                assert is_quadratic_residue(m, z) == (z in table), (n, z)


def _modulus_strategy():
    parts = st.lists(
        st.tuples(st.sampled_from(ODD_PRIMES), st.integers(1, 3)),
        max_size=3,
        unique_by=lambda t: t[0],
    )
    return (
        st.tuples(st.integers(0, 7), parts)
        .filter(lambda t: t[0] > 0 or t[1])
        .map(lambda t: FactoredModulus(*t))
        .filter(lambda m: m.n < 10**7)
    )


@settings(max_examples=150, deadline=None)
@given(_modulus_strategy(), st.data())
def test_random_modulus_roundtrip(m, data):
    index = data.draw(st.integers(1, index_space_size(m)))
    z = decode_index(m, index)
    assert math.gcd(z, m.n) == 1
    assert is_quadratic_residue(m, z)
    assert encode_residue(m, z) == index


@settings(max_examples=60, deadline=None)
@given(_modulus_strategy(), st.data())
def test_random_unit_square_encodes(m, data):
    x = data.draw(st.integers(1, m.n - 1).filter(lambda v: math.gcd(v, m.n) == 1))
    z = x * x % m.n
    index = encode_residue(m, z)
    assert decode_index(m, index) == z
