import math
import subprocess
import sys

import pytest

import qrindex.bruteforce as bruteforce
from qrindex import (
    CertificationReport,
    FactorizationError,
    FactoredModulus,
    certify_bijection,
    enumerate_qr,
    factor_trial_division,
    index_space_size,
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

    def test_collision_and_image_failures_are_reported(self, monkeypatch):
        monkeypatch.setattr(bruteforce, "decode_indices", lambda m, indices: [1 for _ in indices])
        report = certify_bijection(factor_trial_division(21))
        assert not report.passed
        assert any("collision" in f for f in report.failures)
        assert any("image mismatch" in f for f in report.failures)

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

    def test_size_disagreement_is_reported(self, monkeypatch):
        monkeypatch.setattr(bruteforce, "index_space_size", lambda m: 5)
        report = certify_bijection(factor_trial_division(15))
        assert not report.passed

    def test_one_bad_index_is_named_alone(self, monkeypatch):
        # The batch pass fails on the whole range; the per-index replay then
        # names only the index that raises, and the residue it never gave.
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
        calls = []

        def spy(name, batch):
            def call(m, values):
                values = list(values)
                calls.append((name, len(values)))
                return batch(m, values)

            return call

        monkeypatch.setattr(bruteforce, "decode_indices", spy("decode", bruteforce.decode_indices))
        monkeypatch.setattr(bruteforce, "encode_residues", spy("encode", bruteforce.encode_residues))
        for n in (2, 15, 1000):
            calls.clear()
            m = factor_trial_division(n)
            assert certify_bijection(m).passed
            size = index_space_size(m)
            assert calls == [("decode", size), ("encode", size)], n


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
