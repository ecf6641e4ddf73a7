import contextlib
import io
import json
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings

import qrindex.cli as cli
from helpers import hostile_factor_strings
from qrindex import CertificationReport, enumerate_qr
from qrindex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecodeCommand:
    def test_basic(self, capsys):
        code, out, err = run(capsys, "decode", "--modulus", "3*5", "--index", "2")
        assert code == 0
        assert out == "decode n=15 index=2 residue=4\n"
        assert err == ""

    def test_two_power(self, capsys):
        code, out, _ = run(capsys, "decode", "--modulus", "2^3", "--index", "1")
        assert code == 0
        assert out == "decode n=8 index=1 residue=1\n"

    def test_out_of_range_is_domain_error(self, capsys):
        code, out, err = run(capsys, "decode", "--modulus", "3*5", "--index", "3")
        assert code == 3
        assert out == ""
        assert err == (
            "error: IndexRangeError: index 3 out of range for modulus 15:"
            " index space is 1..2\n"
        )

    def test_modulus_beyond_the_int_str_digit_limit(self, capsys):
        code, out, err = run(capsys, "decode", "--modulus", "2^16000", "--index", "5")
        assert code == 0
        assert " residue=" in out
        assert err == ""

    def test_json(self, capsys):
        code, out, _ = run(capsys, "decode", "--json", "--modulus", "3*5", "--index", "2")
        assert code == 0
        assert json.loads(out) == {"command": "decode", "n": 15, "index": 2, "residue": 4}


class TestEncodeCommand:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "encode", "--modulus", "3*5", "--residue", "4")
        assert code == 0
        assert out == "encode n=15 residue=4 index=2\n"

    def test_non_residue(self, capsys):
        code, out, err = run(capsys, "encode", "--modulus", "3*5", "--residue", "2")
        assert code == 3
        assert err.startswith("error: NotAResidueError:")

    def test_non_unit(self, capsys):
        code, _, err = run(capsys, "encode", "--modulus", "3*5", "--residue", "5")
        assert code == 3
        assert err.startswith("error: NotCoprimeError:")


class TestSizeCommand:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "size", "--modulus", "2^4*3")
        assert code == 0
        assert out == "size n=48 size=2\n"

    def test_bad_factorization_is_validation_error(self, capsys):
        code, _, err = run(capsys, "size", "--modulus", "4*3")
        assert code == 4
        assert err == "error: FactorizationError: base 4 is not prime\n"
        code, _, err = run(capsys, "size", "--modulus", "3*3")
        assert code == 4
        code, _, err = run(capsys, "size", "--modulus", "junk")
        assert code == 4
        code, _, err = run(capsys, "size", "--modulus", "3^40000")
        assert code == 4

    @settings(max_examples=100, deadline=None)
    @given(hostile_factor_strings())
    def test_hostile_strings_exit_zero_or_four(self, text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["size", "--modulus", text])
        assert code in (0, 4)
        if code == 0:
            assert out.getvalue().startswith("size n=") and not err.getvalue()
        else:
            assert err.getvalue().startswith("error: FactorizationError: ")


class TestSampleCommand:
    def test_seeded_run_is_frozen(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--modulus", "3*5*7", "--count", "4", "--seed", "7"
        )
        assert code == 0
        assert out == (
            "sample n=105 method=index count=4 seed=7"
            " values=46,46,4,64 bits_consumed=12 attempts=4\n"
        )

    def test_seeded_run_is_reproducible(self, capsys):
        _, first, _ = run(capsys, "sample", "--modulus", "3*5*7", "--count", "10", "--seed", "3")
        _, second, _ = run(capsys, "sample", "--modulus", "3*5*7", "--count", "10", "--seed", "3")
        assert first == second

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "sample", "--json", "--modulus", "3*5*7",
            "--count", "4", "--seed", "7", "--method", "classical",
        )
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "sample"
        assert record["method"] == "classical"
        assert len(record["values"]) == 4
        assert all(v in enumerate_qr(105) for v in record["values"])
        assert record["bits_consumed"] >= 4 * record["attempts"] > 0

    def test_unseeded_run_omits_seed_field(self, capsys):
        code, out, _ = run(capsys, "sample", "--modulus", "3*5")
        assert code == 0
        assert " seed=" not in out
        assert out.startswith("sample n=15 method=index count=1 values=")

    def test_values_stay_in_qr(self, capsys):
        _, out, _ = run(
            capsys, "sample", "--modulus", "2^4*3", "--count", "20", "--seed", "1"
        )
        values = out.split(" values=")[1].split(" ")[0].split(",")
        assert set(map(int, values)) <= set(enumerate_qr(48))

    def test_bad_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--modulus", "3*5", "--seed", str(1 << 64)])
        assert excinfo.value.code == 2

    def test_zero_count_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--modulus", "3*5", "--count", "0"])
        assert excinfo.value.code == 2


class TestSelftestCommand:
    def test_small_run_passes(self, capsys):
        code, out, err = run(capsys, "selftest", "--max-n", "50")
        indices = sum(len(enumerate_qr(n)) for n in range(2, 51))
        assert code == 0
        assert out == (
            f"selftest max_n=50 moduli_checked=49 indices_checked={indices}"
            " result=all N passed\n"
        )
        assert err == ""

    def test_json(self, capsys):
        code, out, _ = run(capsys, "selftest", "--json", "--max-n", "20")
        record = json.loads(out)
        assert record["result"] == "all N passed"
        assert record["moduli_checked"] == 19

    def test_max_n_above_the_enumeration_cap_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["selftest", "--max-n", "1000001"])
        assert excinfo.value.code == 2

    def test_failure_exits_one(self, capsys, monkeypatch):
        def rigged(m):
            return CertificationReport(n=m.n, indices_checked=0, failures=["bad"])

        monkeypatch.setattr(cli, "certify_bijection", rigged)
        code, out, err = run(capsys, "selftest", "--max-n", "3")
        assert code == 1
        assert "result=2 violations" in out
        assert "error: CertificationFailure: N=2: bad" in err


class TestBenchCommand:
    def test_two_reports_in_fixed_order(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--modulus", "3*5*7", "--count", "50", "--seed", "5"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("bench n=105 method=index samples=50 seed=5 ")
        assert lines[1].startswith("bench n=105 method=classical samples=50 seed=5 ")

    def test_json_reports(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--json", "--modulus", "3*5*7", "--count", "10", "--seed", "5"
        )
        index_rec, classical_rec = (json.loads(line) for line in out.splitlines())
        assert index_rec["method"] == "index"
        assert classical_rec["method"] == "classical"
        assert index_rec["theoretical_floor"] == classical_rec["theoretical_floor"]
        assert index_rec["total_bits"] == index_rec["total_attempts"] * 3

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--modulus", "3*5"])
        assert excinfo.value.code == 2


class TestUsageErrors:
    def test_missing_modulus(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["decode", "--index", "1"])
        assert excinfo.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_non_integer_index(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["decode", "--modulus", "3*5", "--index", "two"])
        assert excinfo.value.code == 2


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "qrindex", "size", "--modulus", "3*5*7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "size n=105 size=6\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_output_pipe_ends_quietly():
    # The reader is gone before the command starts, as after `| head -c 1`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qrindex", "size", "--modulus", "3*5*7"],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == -signal.SIGPIPE
    assert proc.stderr == b""


def test_console_script_negative_index_is_domain_error(capsys):
    code, _, err = run(capsys, "decode", "--modulus", "3*5", "--index", "-2")
    assert code == 3
    assert "IndexRangeError" in err
