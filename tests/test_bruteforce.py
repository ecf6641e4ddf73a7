import ast
import math
import subprocess
import sys
from pathlib import Path

import pytest

import qrindex.bruteforce as bruteforce
import qrindex.indexing as indexing
import qrindex.numbertheory as numbertheory
from helpers import certify_bijection_reference
from qrindex import (
    CertificationReport,
    FactorizationError,
    FactoredModulus,
    certify_bijection,
    enumerate_qr,
    factor_trial_division,
    index_space_size,
    parse_factorization,
)


class TestEnumerateQr:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (15, [1, 4]),
            (8, [1]),
            (21, [1, 4, 16]),
            (2, [1]),
            (3, [1]),
            (4, [1]),
            (45, [1, 4, 16, 19, 31, 34]),
        ],
    )
    def test_known_tables(self, n, expected):
        assert enumerate_qr(n) == expected

    def test_tables_are_sorted_unit_squares(self):
        for n in range(2, 120):
            table = enumerate_qr(n)
            assert table == sorted(set(table))
            for z in table:
                assert math.gcd(z, n) == 1
                assert any(x * x % n == z for x in range(1, n) if math.gcd(x, n) == 1)

    def test_bounds(self):
        with pytest.raises(ValueError):
            enumerate_qr(1)
        with pytest.raises(ValueError):
            enumerate_qr(10**6 + 1)

    def test_cap_is_inclusive(self):
        assert enumerate_qr(10**6)[0] == 1

    @pytest.mark.parametrize("n", [15.0, "15"])
    def test_non_integer_modulus_is_a_type_error(self, n):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            enumerate_qr(n)

    def test_the_certifiers_set_is_the_enumeration_unsorted(self):
        for n in range(2, 300):
            squares = bruteforce._unit_squares(n)
            assert type(squares) is set
            assert sorted(squares) == enumerate_qr(n), n

    @pytest.mark.parametrize(
        "n,error,message",
        [
            (1, ValueError, "modulus must be >= 2, got 1"),
            (10**6 + 1, ValueError, "modulus 1000001 exceeds the enumeration cap 1000000"),
            (2.0, TypeError, "'float' object cannot be interpreted as an integer"),
        ],
    )
    def test_the_set_and_the_sorted_list_refuse_alike(self, n, error, message):
        for oracle in (bruteforce._unit_squares, enumerate_qr):
            with pytest.raises(Exception) as info:
                oracle(n)
            assert (info.type, str(info.value)) == (error, message), oracle

    def test_the_certifier_refuses_a_modulus_past_the_cap(self):
        # 1000003 is prime, so it parses; only the enumeration refuses it.
        with pytest.raises(ValueError) as info:
            certify_bijection(parse_factorization("1000003"))
        assert str(info.value) == "modulus 1000003 exceeds the enumeration cap 1000000"


class TestFactorTrialDivision:
    def test_reconstructs_every_small_n(self):
        for n in range(2, 2000):
            m = factor_trial_division(n)
            assert m.n == n

    def test_known_shapes(self):
        m = factor_trial_division(15015)
        assert m.two_exponent == 0
        assert [(p, k) for p, k in m.odd_parts] == [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1)]
        m = factor_trial_division(1024)
        assert m.two_exponent == 10 and m.odd_parts == ()
        m = factor_trial_division(997)
        assert m.odd_parts == ((997, 1),)

    def test_bounds(self):
        with pytest.raises(FactorizationError):
            factor_trial_division(1)
        with pytest.raises(FactorizationError):
            factor_trial_division(10**6 + 1)

    @pytest.mark.parametrize("n", [15.0, "15"])
    def test_non_integer_modulus_is_a_type_error(self, n):
        # Refused before any trial division, so no computed cofactor is named.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            factor_trial_division(n)
        # The certifier takes the factored modulus, not the integer to factor.
        with pytest.raises(TypeError, match="^modulus must be a FactoredModulus, got int$"):
            certify_bijection(15)


class TestCertifyBijection:
    def test_small_known_passes(self):
        report = certify_bijection(factor_trial_division(15))
        assert report.passed
        assert report.indices_checked == 2
        assert report.n == 15
        report = certify_bijection(factor_trial_division(48))
        assert report.passed
        assert report.indices_checked == 2

    def test_sweep_of_mixed_shapes(self):
        for n in (2, 4, 8, 16, 9, 27, 31, 45, 60, 64, 105, 240, 841, 1000):
            assert certify_bijection(factor_trial_division(n)).passed, n

    @pytest.mark.parametrize("n,size", [(5 * 4099, 4098), (2**16, 8192), (888800, 10000)])
    def test_moduli_without_a_table_pass_against_brute_force(self, n, size):
        # Above 4096 residues each index decodes by the per-part square
        # sum, not from a table; the enumeration is brute force.  888,800
        # is 2^5 * 5^2 * 11 * 101, with a 2-part digit.
        m = factor_trial_division(n)
        assert m._residues is None
        report = certify_bijection(m)
        assert report.failures == []
        assert report.indices_checked == size

    def test_collision_and_image_failures_are_reported(self, monkeypatch):
        # Every violation is read off the two result lists: nothing is run
        # again, even though the modulus fails.
        def all_one(m, indices):
            return [1 for _ in indices]

        calls = _spy(monkeypatch, all_one, bruteforce.encode_residues)
        m = factor_trial_division(21)
        report = certify_bijection(m)
        assert calls == [("decode", index_space_size(m)), ("encode", 1)]
        assert report.failures == [
            "decode collision: indices 1 and 2 both give 1",
            "decode collision: indices 1 and 3 both give 1",
            "image mismatch: missing [4, 16], extraneous []",
        ]

    @pytest.mark.parametrize("encode", ["codec", "rubber stamp"])
    def test_a_clean_decode_onto_a_wrong_image_is_reported(self, monkeypatch, encode):
        # Three distinct residues for the three indices of 21, nothing
        # raised, so the clean-decode path takes them as the image; but 2
        # is not a residue and 16 is never given.  A rubber-stamp encode
        # that owns each residue by its place leaves the image check the
        # only one to see it.
        monkeypatch.setattr(bruteforce, "decode_indices", lambda m, indices: [1, 4, 2])
        if encode == "rubber stamp":
            monkeypatch.setattr(
                bruteforce, "encode_residues", lambda m, residues: list(range(1, len(residues) + 1))
            )
            raised = []
        else:
            raised = ["encode(2) raised NotAResidueError('2 is not a quadratic residue modulo 3')"]
        report = certify_bijection(factor_trial_division(21))
        assert report.failures == raised + ["image mismatch: missing [16], extraneous [2]"]

    def test_decode_exception_is_captured(self, monkeypatch):
        def broken(m, indices):
            raise RuntimeError("boom")

        monkeypatch.setattr(bruteforce, "decode_indices", broken)
        report = certify_bijection(factor_trial_division(15))
        assert not report.passed
        assert any("raised" in f for f in report.failures)

    def test_encode_exception_is_captured(self, monkeypatch):
        def broken(m, residues):
            raise RuntimeError("boom")

        monkeypatch.setattr(bruteforce, "encode_residues", broken)
        report = certify_bijection(factor_trial_division(15))
        assert report.failures == [
            "encode(1) raised RuntimeError('boom')",
            "encode(4) raised RuntimeError('boom')",
        ]

    def test_encode_mismatch_is_reported(self, monkeypatch):
        monkeypatch.setattr(bruteforce, "encode_residues", lambda m, residues: [1 for _ in residues])
        report = certify_bijection(factor_trial_division(21))
        assert not report.passed
        assert any("roundtrip" in f for f in report.failures)

    def test_a_permuted_decode_breaks_the_roundtrip(self, monkeypatch):
        # Distinct residues with nothing raised take the clean-decode path,
        # which hands the decoded list itself to encode; a permutation of
        # the right image is then caught by the roundtrip alone.
        decode, encode = bruteforce.decode_indices, bruteforce.encode_residues
        m = factor_trial_division(3 * 7)
        z = decode(m, range(1, 4))
        decoded, encoded = [], []

        def reversed_decode(m, indices):
            decoded.append(decode(m, indices)[::-1])
            return decoded[-1]

        def encode_spy(m, residues):
            encoded.append(residues)
            return encode(m, residues)

        monkeypatch.setattr(bruteforce, "decode_indices", reversed_decode)
        monkeypatch.setattr(bruteforce, "encode_residues", encode_spy)
        assert certify_bijection(m).failures == [
            f"roundtrip broke: index 1 decodes to {z[2]} but encodes to 3",
            f"roundtrip broke: index 3 decodes to {z[0]} but encodes to 1",
        ]
        assert len(encoded) == 1 and encoded[0] is decoded[0]

    def test_size_disagreement_is_reported(self, monkeypatch):
        monkeypatch.setattr(bruteforce, "index_space_size", lambda m: 5)
        report = certify_bijection(factor_trial_division(15))
        assert not report.passed

    def test_one_bad_index_is_named_alone(self, monkeypatch):
        # The decode call raises on the whole range; running it again one
        # index at a time names only the index that raises, and the residue
        # it never gave.
        decode = bruteforce.decode_indices

        def broken_at_2(m, indices):
            indices = list(indices)
            if 2 in indices:
                raise RuntimeError("boom")
            return decode(m, indices)

        monkeypatch.setattr(bruteforce, "decode_indices", broken_at_2)
        m = factor_trial_division(21)
        missing = decode(m, [2])
        report = certify_bijection(m)
        assert report.failures == [
            "decode(2) raised RuntimeError('boom')",
            f"image mismatch: missing {missing}, extraneous []",
        ]

    def test_a_passing_modulus_takes_one_call_per_direction(self, monkeypatch):
        calls = _spy(monkeypatch, bruteforce.decode_indices, bruteforce.encode_residues)
        for n in (2, 15, 1000):
            calls.clear()
            m = factor_trial_division(n)
            assert certify_bijection(m).passed
            size = index_space_size(m)
            assert calls == [("decode", size), ("encode", size)], n

    def test_violations_are_grouped_by_kind(self, monkeypatch):
        decode, encode = bruteforce.decode_indices, bruteforce.encode_residues
        m = factor_trial_division(45)
        z = [None] + decode(m, range(1, 7))  # z[i] is the residue of index i

        def decode_stand_in(m, indices):
            indices = list(indices)
            if 2 in indices:
                raise RuntimeError("boom")
            return [z[1] if i == 4 else z[i] for i in indices]  # 4 collides with 1

        def encode_stand_in(m, residues):
            residues = list(residues)
            if z[3] in residues:
                raise RuntimeError("boom")
            return [99 if r == z[5] else encode(m, [r])[0] for r in residues]

        monkeypatch.setattr(bruteforce, "decode_indices", decode_stand_in)
        monkeypatch.setattr(bruteforce, "encode_residues", encode_stand_in)
        missing = sorted([z[2], z[4]])
        assert certify_bijection(m).failures == [
            "decode(2) raised RuntimeError('boom')",
            f"decode collision: indices 1 and 4 both give {z[1]}",
            f"encode({z[3]}) raised RuntimeError('boom')",
            f"roundtrip broke: index 5 decodes to {z[5]} but encodes to 99",
            f"image mismatch: missing {missing}, extraneous []",
        ]

    def test_a_short_decode_result_is_reported(self, monkeypatch):
        decode = bruteforce.decode_indices

        def short(m, indices):
            return decode(m, indices)[:-1]

        monkeypatch.setattr(bruteforce, "decode_indices", short)
        m = factor_trial_division(3 * 7)
        last = decode(m, [index_space_size(m)])
        assert certify_bijection(m).failures == [
            "decode gave 2 results for 3 values",
            f"image mismatch: missing {last}, extraneous []",
        ]

    def test_a_short_encode_result_is_reported(self, monkeypatch):
        encode = bruteforce.encode_residues

        def short(m, residues):
            return encode(m, residues)[:-1]

        monkeypatch.setattr(bruteforce, "encode_residues", short)
        report = certify_bijection(factor_trial_division(3 * 7))
        assert report.failures == ["encode gave 2 results for 3 values"]


    @pytest.mark.parametrize(
        "name,attr", [("decode", "decode_indices"), ("encode", "encode_residues")]
    )
    def test_a_call_that_raises_only_on_many_values_is_reported(self, monkeypatch, name, attr):
        # Run alone, every value succeeds and gives the right result, so
        # only the failed whole-list call itself can be reported.
        batch = getattr(bruteforce, attr)

        def raises_on_many(m, values):
            values = list(values)
            if len(values) > 1:
                raise RuntimeError("batch only")
            return batch(m, values)

        monkeypatch.setattr(bruteforce, attr, raises_on_many)
        report = certify_bijection(factor_trial_division(3 * 7))
        assert report.failures == [
            f"{name} raised RuntimeError('batch only') on 3 values but on no single value"
        ]


def _permuted(batch):
    return lambda m, values: batch(m, values)[::-1]


def _duplicated(batch):
    def call(m, values):
        results = batch(m, values)
        return results[:-1] + results[:1] if len(results) > 1 else results

    return call


def _substituted(batch):
    # The middle result is replaced: a decode's by the least unit that
    # is no residue (0 for n = 2, which has no such unit), an encode's
    # by 0, which is no index.
    def call(m, values):
        results = list(batch(m, values))
        if results:
            if batch is _DECODE:
                squares = {x * x % m.n for x in range(1, m.n) if math.gcd(x, m.n) == 1}
                units = (x for x in range(2, m.n) if math.gcd(x, m.n) == 1)
                results[len(results) // 2] = next((x for x in units if x not in squares), 0)
            else:
                results[len(results) // 2] = 0
        return results

    return call


def _short(batch):
    return lambda m, values: batch(m, values)[:-1]


def _raising_on_one(batch):
    # Index 2 for a decode, residue 1, always the first decoded, for an encode.
    bad = 2 if batch is _DECODE else 1

    def call(m, values):
        values = list(values)
        if bad in values:
            raise RuntimeError(f"boom at {bad}")
        return batch(m, values)

    return call


def _raising_on_many(batch):
    def call(m, values):
        values = list(values)
        if len(values) > 1:
            raise RuntimeError("batch only")
        return batch(m, values)

    return call


_DECODE = bruteforce.decode_indices
_RIGS = (_permuted, _duplicated, _substituted, _short, _raising_on_one, _raising_on_many)


class TestAgainstTheSortedListCertifier:
    """The certifier compares its image with the squares as sets; the
    reference sorts both, as the certifier once did.  Their reports,
    failures and their order included, agree on every modulus up to 400,
    on the real codec and under each rigged stand-in, for one direction
    or for both at once."""

    @staticmethod
    def _passed():
        """Whether every modulus up to 400 passed, once both certifiers
        agree on each."""
        passed = True
        for n in range(2, 401):
            m = factor_trial_division(n)
            report = certify_bijection(m)
            assert report == certify_bijection_reference(m), n
            passed &= report.passed
        return passed

    def test_the_real_codec(self):
        assert self._passed()

    def test_a_wrong_index_space_size(self, monkeypatch):
        size = bruteforce.index_space_size
        monkeypatch.setattr(bruteforce, "index_space_size", lambda m: size(m) + 1)
        assert not self._passed()

    @pytest.mark.parametrize("rig", _RIGS, ids=lambda rig: rig.__name__.strip("_"))
    @pytest.mark.parametrize(
        "directions",
        [("decode_indices",), ("encode_residues",), ("decode_indices", "encode_residues")],
        ids=["decode", "encode", "both"],
    )
    def test_a_rigged_stand_in(self, monkeypatch, directions, rig):
        for attr in directions:
            monkeypatch.setattr(bruteforce, attr, rig(getattr(bruteforce, attr)))
        # Reversing both directions is a bijection of its own, and passes.
        assert self._passed() is (rig is _permuted and len(directions) == 2)


def _spy(monkeypatch, decode, encode):
    """Hand the certifier ``decode`` and ``encode`` as its codec; returns the
    list that records each call as ``(direction, number of values)``."""
    calls = []

    def spy(name, batch):
        def call(m, values):
            values = list(values)
            calls.append((name, len(values)))
            return batch(m, values)

        return call

    monkeypatch.setattr(bruteforce, "decode_indices", spy("decode", decode))
    monkeypatch.setattr(bruteforce, "encode_residues", spy("encode", encode))
    return calls


def test_the_oracle_imports_only_public_codec_names():
    # The certifier may call the codec only through its public entry
    # points, never share a private helper with it: a bug in the fast
    # path must not be able to hide itself.
    public = {"indexing": indexing.__all__, "numbertheory": numbertheory.__all__}
    imported = {}
    for node in ast.walk(ast.parse(Path(bruteforce.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in public:
            imported.setdefault(node.module, []).extend(alias.name for alias in node.names)
    assert imported["indexing"]  # the walk does find the codec import
    for module, names in imported.items():
        assert set(names) <= set(public[module]), module


def test_certification_report_passed_property():
    assert CertificationReport(n=10, indices_checked=3).passed
    assert not CertificationReport(n=10, indices_checked=3, failures=["x"]).passed


def test_enumeration_matches_the_definition():
    # The literal definition: square every unit in [1, n - 1].
    for n in range(2, 2001):
        expected = sorted({x * x % n for x in range(1, n) if math.gcd(x, n) == 1})
        assert enumerate_qr(n) == expected, n


@pytest.mark.parametrize("n", [720720, 997**2, 2**19, 10**6])
def test_enumeration_matches_the_definition_at_scale(n):
    # Many small primes, an odd prime square, a power of 2 and the cap.
    expected = sorted({x * x % n for x in range(1, n) if math.gcd(x, n) == 1})
    assert enumerate_qr(n) == expected


def test_enumeration_confirms_size_formula_sample():
    for n in (7, 32, 99, 128, 255, 1024, 3465):
        m = factor_trial_division(n)
        assert index_space_size(m) == len(enumerate_qr(n))


def test_import_leaves_numpy_unloaded():
    # The library and CLI load only the standard library: numpy and the
    # other test-oracle packages are never a runtime dependency.  Modules
    # the interpreter's site hooks load before the import are left out.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qrindex, qrindex.cli\n"
        "loaded = set(sys.modules) - before\n"
        "print(sorted(name for name in loaded if name.partition('.')[0]"
        " not in sys.stdlib_module_names | {'qrindex'}))\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nFalse\n"
