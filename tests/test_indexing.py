import collections
import itertools
import math
import pickle
import random
import re
import subprocess
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrindex.indexing as indexing
import qrindex.numbertheory as numbertheory
from qrindex import mixedradix
from qrindex.numbertheory import crt_combine
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
    RandomBitLedger,
    RootProfile,
    SeededBitSource,
    decode_index,
    decode_indices,
    draw_uniform,
    encode_residue,
    encode_residues,
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
    sample_residue_by_index,
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

    def test_base_bound_is_inclusive_and_checked_before_primality(self, monkeypatch):
        tested = []
        monkeypatch.setattr(indexing, "is_prime", lambda n: tested.append(n) or True)
        widest = (1 << 8192) - 1
        assert FactoredModulus(0, [(widest, 1)]).odd_parts == (PrimePower(widest, 1),)
        tested.clear()
        with pytest.raises(FactorizationError) as excinfo:
            FactoredModulus(0, [(3, 1), ((1 << 8192) + 1, 1)])
        assert str(excinfo.value) == "base too large: 8193 bits, over the per-base bound of 8192"
        assert tested == []

    def test_base_past_the_bound_is_refused_without_hanging(self, default_int_str_limit):
        # Proving a 65,536-bit base prime takes about an hour, and refusing
        # a composite one with no factor below 100 about 13 minutes; the
        # CLI reads bases of up to about 14,000 bits, 4,300 digits.  Run in
        # subprocesses so a regression fails on the timeout.
        script = (
            "from qrindex import FactoredModulus, FactorizationError\n"
            "try:\n"
            "    FactoredModulus(0, [((1 << 65535) + 3, 1)])\n"
            "except FactorizationError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "base too large: 65536 bits, over the per-base bound of 8192\n"
        proc = subprocess.run(
            [sys.executable, "-m", "qrindex", "size", "--modulus", f"3 * {(1 << 12999) + 3}"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 4
        assert proc.stderr == (
            "error: FactorizationError: base too large: 13000 bits,"
            " over the per-base bound of 8192\n"
        )

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

    def test_long_composite_base(self, least_int_str_limit):
        # Past the default limit a base is past the per-base bound, so the
        # bit-length form is reached under the lowest limit.
        c = 3**2000  # 955 decimal digits, 3,170 bits
        with pytest.raises(FactorizationError) as excinfo:
            FactoredModulus(odd_parts=[(c, 1)])
        assert str(excinfo.value) == f"base <{c.bit_length()}-bit integer> is not prime"

    def test_repr_and_factor_string(self, least_int_str_limit, monkeypatch):
        # 2**4423 - 1 is a Mersenne prime of 1,332 digits; proving it here
        # would take seconds, and primality is not under test.
        monkeypatch.setattr(indexing, "is_prime", lambda n: True)
        m = FactoredModulus(1, [(2**4423 - 1, 1), (3, 2)])
        assert repr(m) == "FactoredModulus('2 * 3^2 * <4423-bit integer>')"
        with pytest.raises(FactorizationError, match=f"{least_int_str_limit} digits"):
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

    def test_schedule_follows_the_factorization(self):
        # (p-1)/2 and p^(k-1) per odd part, ascending, then 2^(k2-3) when
        # k2 > 3, for every N up to 3000 and the basis moduli.  The modulus
        # keeps no copy: the schedule is read off its part records.
        from qrindex import factor_trial_division

        for m in [factor_trial_division(n) for n in range(2, 3001)] + _basis_moduli():
            expected = [r for p, k in m.odd_parts for r in ((p - 1) // 2, p ** (k - 1))]
            if m.two_exponent > 3:
                expected.append(2 ** (m.two_exponent - 3))
            assert radix_schedule(m) == tuple(expected), m
            assert not hasattr(m, "_radices"), m


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
        # So is a modulus that is not a FactoredModulus, by every reader of one.
        for call in (
            lambda: decode_index("3*5", 1),
            lambda: index_to_profile("3*5", 1),
            lambda: index_space_size(15),
            lambda: radix_schedule(15),
        ):
            with pytest.raises(TypeError, match="^modulus must be a FactoredModulus, got"):
                call()

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

    def test_only_the_first_encode_scans_for_a_nonresidue(self, monkeypatch):
        # A modulus finds each odd prime's non-residue power c on its first
        # encode, a non-residue's included, and keeps it: no decode scans,
        # and no later encode, of a residue or a non-residue, scans again.
        p = 2**255 - 19  # 5 mod 8: 2 is a non-residue
        scans = []
        scan = numbertheory._nonresidue_power

        def spy(p):
            scans.append(p)
            return scan(p)

        monkeypatch.setattr(indexing, "_nonresidue_power", spy)
        m = parse_factorization(f"{p} * {_P64}")
        assert decode_index(m, 5) == decode_index(m, 5)
        assert scans == []
        with pytest.raises(NotAResidueError):
            encode_residue(m, 2)
        assert scans == [_P64, p]
        scans.clear()
        with pytest.raises(NotAResidueError):
            encode_residue(m, 2)
        for b in (3, 12345, 2**100 + 7):
            assert decode_index(m, encode_residue(m, b * b % m.n)) == b * b % m.n
        assert scans == []

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
            with pytest.raises(TypeError, match="^modulus must be a FactoredModulus, got str$"):
                encode(factors, 4)

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


def _steps(m):
    """The modulus' root steps, built as its first encode builds them."""
    return m._root_steps or indexing._build_root_steps(m)


def _outcome(call, *args):
    """What the call returns, or the type, message and gcd of what it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "gcd", None)


def _bad_residues(m):
    """A float, a negative, a non-unit, a unit that is a non-residue at
    each odd prime alone and, where the 2-part has a class to fail, a unit
    square at every odd prime outside it: 3 mod 2**k2, and 5 and 7 mod 8
    too when k2 >= 3."""
    parts = [p**k for p, k in m.odd_parts] + ([1 << m.two_exponent] if m.two_exponent else [])

    def alone(a, q):  # a modulo the part q, 1 modulo every other part
        return crt_combine([(a, q)] + [(1, other) for other in parts if other != q])

    non_unit = next(p for p in range(2, m.n + 1) if m.n % p == 0)
    bad = [1.0, -1, non_unit]
    for p, k in m.odd_parts:
        # Past p when k > 1, so z mod p**k and z mod p differ.
        non_residue = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
        bad.append(alone(non_residue + p**k - p, p**k))
    if m.two_exponent >= 2:
        bad.append(alone(3, 1 << m.two_exponent))
    if m.two_exponent >= 3:
        bad += [alone(5, 1 << m.two_exponent), alone(7, 1 << m.two_exponent)]
    return bad


class _TableSpy:
    """Records the square tables an encode builds, as ``(q, entries)``,
    and the per-value root calls, as the p of each Tonelli-Shanks call and
    the 2**k of each 2-adic one."""

    def __init__(self, monkeypatch):
        self.tables, self.roots = [], []
        square_table, tonelli_shanks = indexing._square_table, indexing._tonelli_shanks

        def table(p, q, half, count):
            built = square_table(p, q, half, count)
            self.tables.append((q, len(built)))
            return built

        def root(a, p, *constants):
            self.roots.append(p)
            return tonelli_shanks(a, p, *constants)

        def two_adic(z, k):
            self.roots.append(1 << k)
            return sqrt_mod_2k(z, k)

        monkeypatch.setattr(indexing, "_square_table", table)
        monkeypatch.setattr(indexing, "_tonelli_shanks", root)
        monkeypatch.setattr(indexing, "sqrt_mod_2k", two_adic)

    def clear(self):
        self.tables.clear()
        self.roots.clear()


class TestBatchCodec:
    """``decode_indices`` and ``encode_residues`` against the single calls."""

    def test_batches_match_the_single_calls_for_every_small_n(self):
        # Over criterion 1's range, each fast path against the per-value one.
        # Every decode here reads the modulus' residue table, which
        # TestResidueTable checks against the per-part squares.  No modulus
        # here comes near _TABLE_ENTRIES, so the first encode tabulates
        # every part: a batch of at least _COLUMN_MIN values is encoded
        # column by column, and a shorter one, as a single call, value by
        # value through the same tables.  TestEncodeState checks the root
        # path without tables against the oracle.
        for n in range(2, 3001):
            m = factor_trial_division(n)
            if n <= 400:
                indices = range(1, index_space_size(m) + 1)
                assert [decode_index(m, i) for i in indices] == decode_indices(m, indices), n
            table = enumerate_qr(n)
            singles = [encode_residue(m, z) for z in table]
            counts = [(p - 1) // 2 * p ** (k - 1) for p, k in m.odd_parts]
            counts += [1 << max(m.two_exponent - 3, 0)]
            lengths = {len(table)} | {c + d for c in counts if c > 1 for d in (-1, 0)}
            lengths |= {indexing._COLUMN_MIN - 1, indexing._COLUMN_MIN} & set(range(len(table)))
            for length in sorted(lengths):
                assert encode_residues(m, table[:length]) == singles[:length], (n, length)

    def test_a_whole_residue_batch_takes_no_per_value_root(self, monkeypatch):
        spy = _TableSpy(monkeypatch)
        for n in range(2, 401):
            m = factor_trial_division(n)
            table = enumerate_qr(n)
            spy.clear()
            assert decode_indices(m, encode_residues(m, table)) == table, n
            assert spy.roots == [], n
            # One table per part with more than one residue, none outgrowing
            # the batch; the part 3's single entry comes with the modulus.
            parts = [p**k for p, k in m.odd_parts if p**k != 3]
            parts += [1 << m.two_exponent] if m.two_exponent > 3 else []
            assert [q for q, _ in spy.tables] == parts, n
            assert all(entries <= len(table) for _, entries in spy.tables), n

    @pytest.mark.parametrize("factors", ["2^6 * 3^2 * 7", "3 * 5 * 2^9", "2^4 * 3^3 * 11^2"])
    def test_tables_follow_the_modulus(self, factors, monkeypatch):
        # The first encode, a single call here, builds one table per part
        # with more than one residue, in root-step order, the 2-part last:
        # none comes near _TABLE_ENTRIES.  Every later call, a single one, a
        # list batch of any length or a generator, builds none and takes no
        # per-value root.
        spy = _TableSpy(monkeypatch)
        m = parse_factorization(factors)
        counts = [(p**k, (p - 1) // 2 * p ** (k - 1)) for p, k in m.odd_parts]
        counts += [(1 << m.two_exponent, 1 << (m.two_exponent - 3))] if m.two_exponent > 3 else []
        residues = decode_indices(m, range(1, index_space_size(m) + 1))
        assert spy.tables == []
        assert encode_residue(m, residues[-1]) == len(residues)
        assert spy.tables == [(q, count) for q, count in counts if count > 1]
        assert spy.roots == []
        spy.clear()
        for z in residues[:3]:
            encode_residue(m, z)
        for length in range(1, len(residues) + 1):
            assert encode_residues(m, residues[:length]) == list(range(1, length + 1)), length
        assert encode_residues(m, (z for z in residues)) == list(range(1, len(residues) + 1))
        assert spy.tables == [] and spy.roots == []

    def test_a_batch_whose_first_value_is_bad_builds_no_table(self, monkeypatch):
        spy = _TableSpy(monkeypatch)
        # The part 3^11 has 59,049 residues, more than _TABLE_ENTRIES, so it
        # has no table however long its batch is, and every value takes
        # Tonelli-Shanks and the lift.
        m = parse_factorization("3^11")
        raised = _outcome(encode_residue, m, 2)
        assert raised[1] == "2 is not a quadratic residue modulo 3"
        assert _outcome(encode_residues, m, range(2, 200000)) == raised
        assert spy.tables == []
        assert [table for *_, table, _ in _steps(m)] == [None]
        # 2^3 misses its one-entry table, the larger 2-parts their square tables.
        for factors in ("2^6 * 3^2 * 7", "3 * 5 * 2^9", "2^4 * 3^3 * 11^2", "2^3 * 3 * 5 * 7"):
            m = parse_factorization(factors)
            residues = decode_indices(m, range(1, index_space_size(m) + 1))
            for bad in _bad_residues(m):
                raised = _outcome(encode_residue, m, bad)
                assert _outcome(encode_residues, m, [bad, *residues]) == raised, (factors, bad)

    def test_the_column_path_takes_batches_of_its_minimum_length(self, monkeypatch):
        calls = []
        columns = indexing._encode_columns

        def spy(m, steps, residues):
            calls.append(len(residues))
            return columns(m, steps, residues)

        monkeypatch.setattr(indexing, "_encode_columns", spy)
        # 30 residues, and no part has more than 5.
        m = parse_factorization("2^3 * 3 * 5 * 7 * 11")
        residues = decode_indices(m, range(1, index_space_size(m) + 1))
        shortest = indexing._COLUMN_MIN
        for length in (2, shortest - 1, shortest, len(residues)):
            assert encode_residues(m, residues[:length]) == list(range(1, length + 1)), length
        assert calls == [shortest, len(residues)]

    def test_a_huge_batch_reads_little_past_its_first_bad_value(self):
        # 3 and 2^3 * 3 have every table, so a range goes column by column;
        # 3^11 is past _TABLE_ENTRIES, so its range goes value by value.  A
        # batch of 10^9 must fail as a single call does, after reading at
        # most one chunk.
        cases = [("3", 2), ("3^11", 2), ("3", 1), ("2^3 * 3", 1), ("2^3 * 3", 5)]
        for factors, start in cases:
            m = parse_factorization(factors)
            bad = next(z for z in range(start, 100) if not indexing.is_quadratic_residue(m, z))
            tracemalloc.start()
            try:
                outcome = _outcome(encode_residues, m, range(start, 10**9))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert outcome == _outcome(encode_residue, m, bad), factors
            assert peak < 1 << 20, (factors, start, peak)

    def test_bad_values_raise_as_the_single_call_does_alone_and_mid_batch(self):
        for n in range(2, 401):
            m = factor_trial_division(n)
            size = index_space_size(m)
            for bad in (0, size + 1, 1.0, -1):
                raised = _outcome(decode_index, m, bad)
                assert isinstance(raised, tuple), (n, bad)
                assert _outcome(decode_indices, m, [bad]) == raised, (n, bad)
                assert _outcome(decode_indices, m, [1, bad, size]) == raised, (n, bad)
            # The whole-residue batches tabulate every part, so a bad value
            # first, in the middle and last meets the table path.
            table = enumerate_qr(n)
            middle = len(table) // 2
            for bad in _bad_residues(m):
                raised = _outcome(encode_residue, m, bad)
                assert isinstance(raised, tuple), (n, bad)
                if isinstance(bad, int) and bad > 0:
                    assert raised == _expected_encode_outcome(m, bad), (n, bad)
                batches = (
                    [bad], [1, bad, 1], [bad, *table], [*table[:middle], bad, *table[middle:]],
                    [*table, bad],
                )
                for i, batch in enumerate(batches):
                    assert _outcome(encode_residues, m, batch) == raised, (n, bad, i)

    @pytest.mark.parametrize("factors", ["7", "41", "2^6 * 3^2 * 7", "3 * 5 * 2^9", "2^3 * 3 * 5 * 7"])
    def test_every_sized_batch_is_read_once_as_the_list_is(self, factors):
        # An iterator's length hint is its list's length, so it tabulates and
        # takes the column path as the list does, and must be read once: the
        # peek at its first value loses none, and the replay after a bad
        # value sees every value the first pass saw.  7 and 2^3 * 3 * 5 * 7
        # have fewer residues than a column batch needs; the long batches
        # span two chunks, with a bad value on either side of the boundary.
        m = parse_factorization(factors)
        residues = decode_indices(m, range(1, index_space_size(m) + 1))
        middle, edge = len(residues) // 2, indexing._COLUMN
        long = residues * (edge // len(residues) + 2)
        batches = [residues, long]
        for bad in _bad_residues(m):
            batches += [[bad, *residues], [*residues[:middle], bad, *residues[middle:]], [*residues, bad]]
            batches += [[*long[:edge - 1], bad, *long[edge:]], [*long[:edge], bad, *long[edge + 1:]]]
        for batch in batches:
            expected = _outcome(lambda m, batch: [encode_residue(m, z) for z in batch], m, batch)
            kinds = [list, iter, tuple, collections.deque]
            if len(set(batch)) == len(batch):  # keys would merge 1.0 into 1
                kinds.append(lambda values: dict.fromkeys(values).keys())
            for kind in kinds:
                assert _outcome(encode_residues, m, kind(batch)) == expected, (len(batch), kind)
        # Ranges: every value congruent to 1, and runs with bad values first,
        # in the middle and near the end.
        n, size = m.n, index_space_size(m)
        ranges = [range(1, 1 + 2 * size * n, n), range(2 * size), range(1, 2 * size), range(1, 4)]
        ranges += [range(n - 2 * size, n + 2), range(-1, n * size, n), range(1, n * size, n - 1)]
        for values in ranges:
            assert _outcome(encode_residues, m, values) == _outcome(encode_residues, m, list(values))

    def test_the_first_bad_value_is_the_one_named(self):
        m = parse_factorization("3 * 5 * 7")
        assert _outcome(decode_indices, m, [1, 0, 7]) == _outcome(decode_index, m, 0)
        assert _outcome(decode_indices, m, [1, 7, 0]) == _outcome(decode_index, m, 7)
        assert _outcome(encode_residues, m, [4, 3, 2]) == _outcome(encode_residue, m, 3)
        assert _outcome(encode_residues, m, [4, 2, 3]) == _outcome(encode_residue, m, 2)

    @pytest.mark.parametrize("modulus", ["3*5", 15, None])
    def test_a_modulus_of_the_wrong_type_is_refused_before_any_value(self, modulus):
        raised = _outcome(decode_index, modulus, 1)
        assert raised[0] is TypeError
        assert raised == _outcome(encode_residue, modulus, 4)
        for values in ([1], [], iter([1])):
            assert _outcome(decode_indices, modulus, values) == raised
            assert _outcome(encode_residues, modulus, values) == raised

    def test_an_empty_batch_is_an_empty_list(self):
        m = parse_factorization("2^4 * 3")
        assert decode_indices(m, []) == []
        assert encode_residues(m, ()) == []

    def test_a_generator_is_a_batch(self):
        m = parse_factorization("2^5 * 3^2 * 5")
        indices = range(1, index_space_size(m) + 1)
        residues = decode_indices(m, (i for i in indices))
        assert residues == decode_indices(m, indices)
        assert encode_residues(m, (z for z in residues)) == list(indices)


class TestEncodeState:
    """What only encoding reads is built on a modulus' first encode, in
    ``_root_steps``, and kept: the Tonelli-Shanks constants and the square
    tables, in root-step order while they hold at most ``_TABLE_ENTRIES``
    entries in all."""

    def test_a_membership_test_builds_no_encode_state(self, monkeypatch):
        calls = []
        for name in ("_square_table", "_nonresidue_power"):
            monkeypatch.setattr(indexing, name, lambda *args, name=name: calls.append(name))
        m = parse_factorization("2^6 * 3^2 * 5 * 1009")
        assert is_quadratic_residue(m, 1) and not is_quadratic_residue(m, 2)
        assert decode_index(m, 5) > 0
        assert calls == [] and m._root_steps is None

    def test_the_bound_can_leave_a_later_part_without_a_table(self, monkeypatch):
        # 16381 has 8,190 residues and 16411 has 8,205: together they are
        # past _TABLE_ENTRIES = 16,384, so only the smaller prime, first in
        # root-step order, is tabulated, and every value takes a lookup
        # there and Tonelli-Shanks at 16411.
        spy = _TableSpy(monkeypatch)
        m = parse_factorization("16381 * 16411")
        size = index_space_size(m)
        indices = [1, 2, 8190, 8191, 8192, *range(size // 2, size // 2 + 40), size - 1, size]
        residues = decode_indices(m, indices)
        singles = [encode_residue(m, z) for z in residues]
        assert spy.tables == [(16381, 8190)]
        assert spy.roots == [16411] * len(residues)
        assert singles == indices
        assert encode_residues(m, residues) == singles
        assert encode_residues(m, iter(residues)) == singles
        for bad in _bad_residues(m):
            raised = _outcome(encode_residue, m, bad)
            assert _outcome(encode_residues, m, [*residues, bad]) == raised, bad

    def test_the_root_path_alone_matches_the_tables(self, monkeypatch):
        # With no room for square tables, every part with more than one
        # residue takes Tonelli-Shanks and the lift, or the 2-adic root,
        # single or batched, and must give the tables' indices, which decode
        # back to the oracle's residues.
        for n in range(2, 401):
            table = enumerate_qr(n)
            expected = encode_residues(factor_trial_division(n), table)
            assert decode_indices(factor_trial_division(n), expected) == table, n
            with monkeypatch.context() as patch:
                patch.setattr(indexing, "_TABLE_ENTRIES", 0)
                m = factor_trial_division(n)
                assert [encode_residue(m, z) for z in table] == expected, n
                assert encode_residues(m, table) == expected, n
                assert all(t is None or t == {1: 0} for *_, t, _ in _steps(m)), n

    def test_racing_first_encodes_agree_with_serial_ones(self):
        factors = "1009 * 1013"
        m = parse_factorization(factors)
        size = index_space_size(m)
        residues = decode_indices(m, range(1, size + 1, 997))
        serial = [encode_residue(m, z) for z in residues]
        for _ in range(5):
            fresh = parse_factorization(factors)
            barrier = threading.Barrier(4)
            results = [None] * 4

            def work(i):
                barrier.wait()
                results[i] = [encode_residue(fresh, z) for z in residues]

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results == [serial] * 4
            assert fresh._root_steps is not None and fresh._root_steps == m._root_steps

    @pytest.mark.parametrize("shape", ["primes-3-to-397", "2^17"])
    def test_a_first_encode_allocates_little(self, shape):
        # The 77 odd primes from 3 to 397 make 6,904 table entries; 2^17 has
        # exactly _TABLE_ENTRIES residues, so its table is the largest one
        # part can have.
        if shape == "2^17":
            m, bound = parse_factorization("2^17"), 3 << 20
        else:
            primes = [p for p in range(3, 398) if is_prime(p)]
            m, bound = FactoredModulus(0, [(p, 1) for p in primes]), 1 << 20
        tracemalloc.start()
        try:
            assert encode_residue(m, 1) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(t) for *_, t, _ in _steps(m) if t) <= indexing._TABLE_ENTRIES
        assert peak < bound, peak


class _WalkSpy:
    """Records the modulus of each whole-space walk, which the first
    decode that reads the table of a modulus with at most ``_BLOCK``
    residues takes."""

    def __init__(self, monkeypatch):
        self.walks = []
        decode_all = indexing._decode_all

        def walk(m):
            self.walks.append(m)
            return decode_all(m)

        monkeypatch.setattr(indexing, "_decode_all", walk)


class _BuildSpy:
    """Records the name of each table builder that runs: the walk of the
    residues, a square table or a non-residue scan."""

    def __init__(self, monkeypatch):
        self.calls = []
        for name in ("_decode_all", "_square_table", "_nonresidue_power"):

            def spy(*args, name=name, real=getattr(indexing, name)):
                self.calls.append(name)
                return real(*args)

            monkeypatch.setattr(indexing, name, spy)


def _crt_sums(m):
    """Every residue of m by per-part squares, the arithmetic decode path."""
    return [indexing._decode_sum(m, value) for value in range(index_space_size(m))]


class TestResidueTable:
    """A modulus with at most ``_BLOCK`` residues holds all of them, in
    index order, once a decode has read them, and then decodes by lookup.
    The table is walked in the root domain, one square modulo N per root;
    the per-part squares and their CRT sum, a second decoder, are the
    reference."""

    def test_the_table_matches_the_crt_sum_for_every_small_n(self):
        # Criterion 1's range: every modulus there has a table after its
        # first decode, which the gate certifies, so the sum that larger
        # moduli take is checked here.  No table exists before that decode.
        for n in range(2, 3001):
            m = factor_trial_division(n)
            assert m._residues is None and m._root_steps is None, n
            expected = _crt_sums(m)
            assert decode_index(m, 1) == expected[0], n
            assert list(m._residues) == expected, n

    @pytest.mark.parametrize(
        "factors,table",
        [("3*5*7*11*13", True), ("2^15", True), ("5 * 4099", False), ("2^16", False)],
    )
    def test_the_block_decides_whether_a_modulus_holds_a_table(self, factors, table):
        # 2^15 has exactly _BLOCK = 4096 residues, 5 * 4099 has 4098 and
        # 2^16 has 8192; 4099 is prime.
        m = parse_factorization(factors)
        size = index_space_size(m)
        assert (size <= indexing._BLOCK) is table
        assert m._residues is None
        expected = _crt_sums(m)
        # The walk itself, on a copy, agrees on both sides of the bound.
        assert list(indexing._decode_all(parse_factorization(factors))) == expected
        assert decode_indices(m, range(1, size + 1)) == expected
        assert decode_indices(m, list(range(1, size + 1))) == expected
        assert [decode_index(m, i) for i in (1, 2, size - 1, size)] == expected[:2] + expected[-2:]
        assert (m._residues is not None) is table
        if table:
            # A tuple: no caller can change what later decodes return.
            assert type(m._residues) is tuple
            assert list(m._residues) == expected

    def test_a_returned_list_is_the_callers_own(self):
        m = parse_factorization("2^6 * 3^2 * 5")
        size = index_space_size(m)
        expected = _crt_sums(m)
        for indices in (range(1, size + 1), range(3, 9), list(range(1, size + 1)), [4]):
            got = decode_indices(m, indices)
            got[0] = 0
            got.append(0)
            assert decode_indices(m, range(1, size + 1)) == expected, indices
            assert decode_index(m, indices[0]) == expected[indices[0] - 1], indices
        assert list(m._residues) == expected

    def test_equality_and_hash_ignore_the_table(self):
        a, b = parse_factorization("2^3 * 5 * 7"), FactoredModulus(3, [(7, 1), (5, 1)])
        assert decode_index(a, 1) == 1
        assert a._residues is not None and b._residues is None
        assert a == b
        assert hash(a) == hash(b)
        assert {a, b} == {a}

    @pytest.mark.parametrize("factors", ["3*5*7*11*13", "2^15", "5 * 4099"])
    def test_a_pickled_modulus_decodes_the_same(self, factors, monkeypatch):
        # The copy leaves the original's table behind and walks its own, the
        # same one, on its first decode; above the bound neither has one.
        m = parse_factorization(factors)
        size = index_space_size(m)
        expected = decode_indices(m, range(1, size + 1))
        back = pickle.loads(pickle.dumps(m))
        assert back == m
        assert back._residues is None and back._root_steps is None
        spy = _WalkSpy(monkeypatch)
        assert decode_indices(back, range(1, size + 1)) == expected
        assert spy.walks == ([back] if size <= indexing._BLOCK else [])
        assert back._residues == m._residues

    @pytest.mark.parametrize("factors", ["2^17", "2^15", "3*5*7*11*13", "5 * 4099", "1009 * 1013"])
    def test_a_pickle_carries_no_table(self, factors):
        # The same bytes, so the same size, for a fresh modulus, after a
        # decode and after an encode, whatever tables those built: 2^15's
        # residues and 2^17's 16,384-entry square table among them.
        m = parse_factorization(factors)
        fresh = pickle.dumps(m)
        assert decode_index(m, 1) == 1
        assert (m._residues is not None) is (index_space_size(m) <= indexing._BLOCK)
        after_decode = pickle.dumps(m)
        assert encode_residue(m, 1) == 1
        assert m._root_steps is not None
        assert fresh == after_decode == pickle.dumps(m)

    @pytest.mark.parametrize("factors", ["2^17", "2^15", "2^6 * 3^2 * 5", "16381 * 16411"])
    def test_a_loaded_copy_decodes_and_encodes_as_the_original(self, factors):
        m = parse_factorization(factors)
        size = index_space_size(m)
        indices = sorted({1, 2, size // 3, size // 2 + 1, size - 1, size})
        residues = decode_indices(m, indices)
        assert [encode_residue(m, z) for z in residues] == indices
        back = pickle.loads(pickle.dumps(m))
        assert decode_indices(back, indices) == residues
        assert [encode_residue(back, z) for z in residues] == indices
        assert encode_residues(back, residues * 4) == indices * 4
        for bad in _bad_residues(m):
            assert _outcome(encode_residue, back, bad) == _outcome(encode_residue, m, bad), bad
        assert back._root_steps == m._root_steps and back._residues == m._residues


class TestTableLifecycle:
    """Construction only validates and lays out the parts: every table a
    modulus keeps is built by its first reader and kept.  The first
    decode that reads the residues of a modulus with at most ``_BLOCK``
    of them walks them, once, and the first encode builds the square
    tables and the Tonelli-Shanks constants."""

    @pytest.mark.parametrize(
        "factors",
        ["2", "2^3 * 3", "3*5*7*11*13", "2^15", "5 * 4099", "2^16", "2^6 * 3^2 * 5 * 1009", "16381 * 16411"],
    )
    def test_only_a_decode_or_an_encode_builds_a_table(self, factors, monkeypatch):
        spy = _BuildSpy(monkeypatch)
        m = parse_factorization(factors)
        moduli = [m, FactoredModulus(m.two_exponent, m.odd_parts)]
        if m.n <= 10**6:  # the trial-division cap
            moduli.append(factor_trial_division(m.n))
        for each in moduli:
            assert each._residues is None and each._root_steps is None
            size = index_space_size(each)
            assert math.prod(radix_schedule(each)) == size
            for index in (1, size):
                assert profile_to_index(each, index_to_profile(each, index)) == index
            assert is_quadratic_residue(each, 1) and not is_quadratic_residue(each, 0)
            assert each._residues is None and each._root_steps is None
        assert spy.calls == []

    @pytest.mark.parametrize("factors", ["2^6 * 3^2 * 5", "2^15"])
    @pytest.mark.parametrize("first", ["index", "list", "range", "draw", "profile"])
    def test_one_walk_over_any_mix_of_reads(self, factors, first, monkeypatch):
        spy = _WalkSpy(monkeypatch)
        m = parse_factorization(factors)
        size = index_space_size(m)
        expected = _crt_sums(m)
        drawn = draw_uniform(size, SeededBitSource(7), RandomBitLedger())
        reads = {
            "index": lambda: [decode_index(m, i) for i in (1, size)] == [expected[0], expected[-1]],
            "list": lambda: decode_indices(m, [size, 1, 7]) == [expected[-1], expected[0], expected[6]],
            "range": lambda: decode_indices(m, range(1, size + 1)) == expected,
            "draw": lambda: sample_residue_by_index(m, SeededBitSource(7))[0] == expected[drawn],
            "profile": lambda: profile_to_residue(m, index_to_profile(m, 5)) == expected[4],
        }
        assert spy.walks == []
        for name in [first, *reads] * 2:
            assert reads[name](), name
            assert spy.walks == [m], name

    def test_no_walk_above_the_block(self, monkeypatch):
        spy = _WalkSpy(monkeypatch)
        for factors in ("2^16", "5 * 4099"):
            m = parse_factorization(factors)
            indices = range(1, index_space_size(m) + 1)
            assert len(indices) > indexing._BLOCK
            assert decode_indices(m, indices) == decode_indices(m, list(indices))
            assert decode_indices(m, range(3, 9)) == decode_indices(m, list(range(3, 9)))
            assert decode_index(m, indices[-1]) == profile_to_residue(m, index_to_profile(m, indices[-1]))
            assert sample_residue_by_index(m, SeededBitSource(7))[0] in set(decode_indices(m, indices))
            assert m._residues is None
        assert spy.walks == []

    def test_racing_first_decodes_agree_with_serial_ones(self):
        # 2^15 has exactly _BLOCK residues.  Two threads take the per-index
        # path and two the range slice, each the first to read the table.
        # A short switch interval interleaves the walks.
        m = parse_factorization("2^15")
        size = index_space_size(m)
        indices = [*range(1, size + 1, 97), size]
        serial = decode_indices(m, indices)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                fresh = parse_factorization("2^15")
                barrier = threading.Barrier(4, timeout=60)
                results = [None] * 4

                def work(i):
                    barrier.wait()
                    if i % 2:
                        every = decode_indices(fresh, range(1, size + 1))
                        results[i] = [every[index - 1] for index in indices]
                    else:
                        results[i] = [decode_index(fresh, index) for index in indices]

                threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert results == [serial] * 4
                assert fresh._residues is not None and fresh._residues == m._residues
        finally:
            sys.setswitchinterval(interval)


class TestRangeWalk:
    """A step-1 range inside the index space of a modulus with at most
    ``_BLOCK`` residues is a slice of its table; every other iterable
    takes the per-index path, the reference here, and no read walks the
    table a second time."""

    @pytest.mark.parametrize(
        "factors", ["2^6 * 3^2 * 5", "3^2 * 5^2 * 7 * 11", "2^9 * 3^3 * 5 * 7", "2^15"]
    )
    def test_a_range_walks_once_and_then_slices(self, factors, monkeypatch):
        spy = _WalkSpy(monkeypatch)
        m = parse_factorization(factors)
        indices = range(1, index_space_size(m) + 1)
        expected = _crt_sums(m)
        assert decode_indices(m, indices) == expected
        assert spy.walks == [m]
        assert decode_indices(m, list(indices)) == expected
        assert decode_indices(m, indices) == expected
        assert decode_index(m, indices[-1]) == expected[-1]
        assert spy.walks == [m]

    def test_every_other_range_matches_the_list_path(self, monkeypatch):
        m = parse_factorization("2^6 * 3^2 * 5")
        size = index_space_size(m)
        spy = _WalkSpy(monkeypatch)
        for indices in (
            range(1, size), range(2, size + 1), range(5, 10), range(size, size + 1),
            range(1, 2), range(size, 0, -1), range(1, size + 1, 2), range(size, size - 5, -2),
            range(1, 1), range(5, 3), range(0, 0), range(size + 5, size + 5), range(-3, -9),
            range(size + 3, 2),
        ):
            assert decode_indices(m, indices) == decode_indices(m, list(indices)), indices
        assert spy.walks == [m]

    def test_an_empty_range_walks_no_table(self, monkeypatch):
        # 2^15 has exactly _BLOCK residues, so range(4097, 4097) ends at
        # the last place a slice could.  An empty range takes the
        # per-index path; the first non-empty one still walks, once.
        spy = _WalkSpy(monkeypatch)
        m = parse_factorization("2^15")
        assert index_space_size(m) == indexing._BLOCK == 4096
        for indices in (range(1, 1), range(5, 3), range(4097, 4097)):
            assert decode_indices(m, indices) == [], indices
            assert m._residues is None, indices
        assert spy.walks == []
        assert decode_indices(m, range(4095, 4097)) == _crt_sums(m)[-2:]
        assert decode_indices(m, range(1, 3)) == _crt_sums(m)[:2]
        assert spy.walks == [m]

    def test_bad_ranges_raise_as_the_list_path_does(self, monkeypatch):
        m = parse_factorization("2^6 * 3^2 * 5")
        size = index_space_size(m)
        spy = _WalkSpy(monkeypatch)
        # Each raises at its first index, so none of them reads the table.
        for indices in (range(0, 3), range(-2, 5), range(size + 1, size + 5), range(0, size + 1)):
            raised = _outcome(decode_indices, m, list(indices))
            assert raised[0] is IndexRangeError, indices
            assert _outcome(decode_indices, m, indices) == raised, indices
        assert spy.walks == []
        for indices in (range(1, size + 2), range(size, size + 2), range(1, size + 2, 1)):
            raised = _outcome(decode_indices, m, list(indices))
            assert raised[0] is IndexRangeError, indices
            assert _outcome(decode_indices, m, indices) == raised, indices
        # Too long to list: it raises for the first index past the end.
        assert _outcome(decode_indices, m, range(1, 10**100)) == _outcome(decode_index, m, size + 1)
        assert spy.walks == [m]


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

    def test_a_bad_index_is_refused_as_decode_refuses_it(self):
        m = parse_factorization("3*5")
        for index in (0, index_space_size(m) + 1):
            with pytest.raises(IndexRangeError) as decode_error:
                decode_index(m, index)
            with pytest.raises(IndexRangeError, match=f"^{re.escape(str(decode_error.value))}$"):
                index_to_profile(m, index)
        with pytest.raises(TypeError) as decode_error:
            decode_index(m, 2.0)
        with pytest.raises(TypeError, match=f"^{re.escape(str(decode_error.value))}$"):
            index_to_profile(m, 2.0)

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
            with pytest.raises(TypeError, match="^profile must be a RootProfile, got tuple$"):
                view(m, ((1, 0), (1, 0)))
            with pytest.raises(TypeError, match="^modulus must be a FactoredModulus, got str$"):
                view("3*5", RootProfile(((1, 0), (1, 0))))

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


def _expected_parts(m):
    # (p, q, half, count, k) per prime power, the odd parts ascending and
    # then the 2-part: the records m should hold, short of place and E.
    parts = list(m.odd_parts) + ([(2, m.two_exponent)] if m.two_exponent else [])
    expected = []
    for p, k in parts:
        half = max((p - 1) // 2, 1)
        count = half * p ** (k - 1) if p > 2 else 1 << max(k - 3, 0)
        expected.append((p, p**k, half, count, k))
    return expected


# Built afresh by each test, so their square tables, about 1.95 million
# entries for the primes, are freed when it ends.
_ONE_PART_SHAPES = {
    "odd primes below 2^13": lambda: [
        FactoredModulus(0, [(p, 1)]) for p in range(3, 1 << 13, 2) if is_prime(p)
    ],
    "odd p^k, p < 128, at most 16384 residues": lambda: [
        FactoredModulus(0, [(p, k)])
        for p in range(3, 128, 2) if is_prime(p)
        for k in range(2, 20) if (p - 1) // 2 * p ** (k - 1) <= indexing._TABLE_ENTRIES
    ],
    "3^2 to 3^9": lambda: [FactoredModulus(0, [(3, k)]) for k in range(2, 10)],
    "2^4 to 2^17": lambda: [FactoredModulus(k) for k in range(4, 18)],
}


def _assert_root_steps(m):
    # One root step per part, the odd parts ascending and the 2-part
    # last, each with its residue count and place (the product of the
    # counts before it), and its table: {1: 0} when the part has one
    # residue, else every canonical root's square mapped to its digit
    # while the tables so far hold at most _TABLE_ENTRIES entries, and
    # None past that.  An odd step holds the schedule's x radix and
    # its Newton ladder, planned top-down: it ends on the half rung
    # p^ceil(k/2), where the Karp-Markstein finish starts, and each rung
    # p^j follows p^ceil(j/2), from p^2 up.  k <= 2 needs no rung.  The
    # 2-part step holds k2, with half 1 and 2^max(k2-3, 0) residues.
    parts = list(m.odd_parts) + ([(2, m.two_exponent)] if m.two_exponent else [])
    radices = radix_schedule(m)
    assert len(_steps(m)) == len(parts)
    assert [step[:5] for step in _steps(m)] == [part[:5] for part in m._parts]
    expected_place, entries = 1, indexing._TABLE_ENTRIES
    for i, ((p, k), step) in enumerate(zip(parts, _steps(m))):
        sp, q, x_radix, count, place, table, root = step
        assert sp == p and q == p**k and m._parts[i][5] == k
        assert place == expected_place
        expected_place *= count
        if count == 1:
            assert table == {1: 0}
        elif count <= entries:
            entries -= count
            assert table == {
                (x + c * p) ** 2 % q: x - 1 + c * x_radix
                for c in range(count // x_radix) for x in range(1, x_radix + 1)
            }
        else:
            assert table is None
        if p == 2:
            assert x_radix == 1 and root == k
            assert count == 1 << max(k - 3, 0)
            assert count == 1 or count == radices[-1]
            continue
        assert x_radix == radices[2 * i] and count == x_radix * radices[2 * i + 1]
        s, e, c, ladder = root
        assert (2 * e + 1) << s == p - 1 and s >= 1
        assert pow(c, 1 << (s - 1), p) == p - 1
        assert isinstance(ladder, tuple)
        if k <= 2:
            assert ladder == ()
            continue
        exponents = [round(math.log(rung, p)) for rung in ladder]
        assert ladder == tuple(p**j for j in exponents)
        assert exponents[0] == 2 and exponents[-1] == (k + 1) // 2
        assert all((b + 1) // 2 == a for a, b in zip(exponents, exponents[1:]))
    assert expected_place == index_space_size(m)


class TestCrtBasis:
    """The basis a FactoredModulus prepares, against crt_combine."""

    @pytest.mark.parametrize("m", _basis_moduli(), ids=repr)
    def test_basis_elements_are_idempotents(self, m):
        # Each record's E is 1 modulo its own part and 0 modulo every other,
        # so the basis sums to 1 modulo N.
        parts = [q for _, q, *_ in _expected_parts(m)]
        assert math.prod(parts) == m.n
        assert len(m._parts) == len(parts)
        for i, (*_, e) in enumerate(m._parts):
            assert 0 <= e < m.n
            for j, q in enumerate(parts):
                assert e % q == (1 if i == j else 0), (i, j)
        assert sum(e for *_, e in m._parts) % m.n == 1

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
    def test_records_lay_out_the_schedule(self, m):
        # One record per part, in root-step order, holding that root step's
        # prime, power, x radix, residue count and place, and the part's
        # exponent.  Decode reads the same record objects for the parts
        # with a digit, every part but 3 and 2^k with k <= 3.  Each count
        # is its part's schedule radices multiplied, and the counts
        # multiply to the index space.
        expected = _expected_parts(m)
        assert [(p, q, half, count, k) for p, q, half, count, _, k, _ in m._parts] == expected
        assert [part[:5] for part in m._parts] == [step[:5] for step in _steps(m)]
        place = 1
        for _, q, _, count, part_place, *_ in m._parts:
            assert part_place == place, q
            place *= count
        assert place == index_space_size(m)
        digit_parts = [part for part in m._parts if part[1] not in (2, 3, 4, 8)]
        assert len(m._digit_parts) == len(digit_parts)
        assert all(a is b for a, b in zip(m._digit_parts, digit_parts))
        radices = iter(radix_schedule(m))
        for p, q, half, count, *_ in m._parts:
            width = 2 if p > 2 else int(count > 1)
            assert math.prod(itertools.islice(radices, width)) == count, q
        assert next(radices, None) is None

    @pytest.mark.parametrize("m", _basis_moduli(), ids=repr)
    def test_root_steps_share_the_schedule(self, m):
        _assert_root_steps(m)

    @pytest.mark.parametrize("shape", list(_ONE_PART_SHAPES))
    def test_one_part_root_steps_share_the_schedule(self, shape):
        # Each part alone is tabulated, so its square table is checked
        # against the definition: the one-digit parts p and 3^k, whose roots
        # are a single range, the 2-parts up to the largest table, 2^17, and
        # counts past what criterion 1's moduli reach.
        moduli = _ONE_PART_SHAPES[shape]()
        assert moduli
        for m in moduli:
            _assert_root_steps(m)
            assert _steps(m)[0][5] is not None, m

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


def _carry_values(m):
    # 0-based values on both sides of every digit carry: each part's x digit
    # into its c digit, and the part's last digit into the next part.
    size = index_space_size(m)
    values = {0, size - 1}
    for _, _, half, count, place, _, _ in _steps(m):
        for carry in (place * half, place * count):
            values.update(v for v in (carry - 1, carry) if 0 <= v < size)
    return sorted(values)


class TestDefinition:
    """The paper's indexing on moduli with no residue table, read off the
    profile with nothing but squaring: no CRT basis, Tonelli-Shanks or
    lift.  A unit square modulo p^k has exactly the roots +-y, and only
    one has x <= (p-1)/2; modulo 2^k2 only one of its roots is 1 + 2d with
    d below 2^(k2-3).  So each profile pins the residue its index decodes
    to, part by part."""

    @pytest.mark.parametrize("shape", ["powers", "semiprime2048"])
    def test_every_part_squares_its_canonical_root(self, shape):
        if shape == "powers":  # the codec-powers shape, 2^1024 * 3^256 * p^8 * q^4
            m = FactoredModulus(1024, _POWERS)
        else:
            m = squarefree_semiprime_modulus(2048, random.Random(2048))
        assert m._residues is None
        size = index_space_size(m)
        rng = random.Random(35)
        values = _carry_values(m) + [rng.randrange(size) for _ in range(200)]
        indices = [v + 1 for v in values]
        residues = decode_indices(m, indices)
        for index, z in zip(indices, residues):
            profile = index_to_profile(m, index)
            for (p, k), (x, c) in zip(m.odd_parts, profile.odd_roots):
                assert 1 <= x <= (p - 1) // 2 and 0 <= c < p ** (k - 1), (index, p)
                assert (x + c * p) ** 2 % p**k == z % p**k, (index, p)
            if m.two_exponent:
                d = profile.two_part_digit
                assert d is None or 0 <= d < 1 << (m.two_exponent - 3), index
                y = 1 if d is None else 1 + 2 * d
                assert y * y % (1 << m.two_exponent) == z % (1 << m.two_exponent), index
        assert encode_residues(m, residues) == indices


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
        with pytest.raises(TypeError, match="^modulus must be a FactoredModulus, got str$"):
            is_quadratic_residue(factors, 4)

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
