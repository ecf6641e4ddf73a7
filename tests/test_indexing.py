import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrindex.indexing as indexing
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


@pytest.fixture
def default_int_str_limit():
    # The command line lifts the interpreter's int/str digit limit for the
    # whole process; tests of the library need it in force at its default.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(saved)


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
        ],
    )
    def test_invalid_shapes(self, two_exponent, odd_parts):
        with pytest.raises(FactorizationError):
            FactoredModulus(two_exponent, odd_parts)

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

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_residue(parse_factorization("3*5"), -4)

    def test_input_reduced_mod_n(self):
        m = parse_factorization("3*5")
        assert encode_residue(m, 4 + 15) == encode_residue(m, 4)
        assert encode_residue(m, 1 + 15 * 7) == 1


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
        with pytest.raises(ValueError):
            profile_to_residue(m, RootProfile(((1, 0),)))
        with pytest.raises(ValueError):
            profile_to_residue(m, RootProfile(((1, 0), (1, 0)), two_part_digit=0))
        with pytest.raises(IndexRangeError):
            profile_to_residue(m, RootProfile(((1, 0), (3, 0))))
        with pytest.raises(IndexRangeError):
            profile_to_residue(m, RootProfile(((1, 1), (1, 0))))

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


class TestCrtBasis:
    """The basis a FactoredModulus prepares, against crt_combine."""

    @pytest.mark.parametrize("m", _basis_moduli(), ids=repr)
    def test_basis_elements_are_idempotents(self, m):
        moduli = [p**k for p, k in m.odd_parts]
        if m.two_exponent:
            moduli.append(1 << m.two_exponent)
        assert math.prod(moduli) == m.n
        assert len(m._crt_basis) == len(moduli)
        for i, e in enumerate(m._crt_basis):
            assert 0 <= e < m.n
            for j, q in enumerate(moduli):
                assert e % q == (1 if i == j else 0), (i, j)

    @pytest.mark.parametrize("m", _basis_moduli(), ids=repr)
    def test_decode_matches_crt_combine(self, m):
        rng = random.Random(m.n)
        for _ in range(25):
            profile = index_to_profile(m, rng.randint(1, index_space_size(m)))
            parts = [(x + c * p, p**k) for (p, k), (x, c) in zip(m.odd_parts, profile.odd_roots)]
            if m.two_exponent:
                d = profile.two_part_digit
                parts.append((1 if d is None else 1 + 2 * d, 1 << m.two_exponent))
            root = crt_combine(parts)
            assert profile_to_residue(m, profile) == root * root % m.n


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

    def test_agrees_with_enumeration(self):
        from qrindex import factor_trial_division

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
