import contextlib
import io
import itertools
import json
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import qrindex.cli as cli
from helpers import hostile_factor_strings
from qrindex import CertificationReport, compare_bit_budgets, enumerate_qr, parse_factorization
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

    @pytest.mark.parametrize(
        "factors,count,seed",
        [
            ("3*5*7*11*13", 1000, 42),
            ("2^7*3^2*7", 300, (1 << 64) - 1),  # the classical stream wraps to seed 0
            ("2^10*3^3*5*7", 200, 0),
            ("3*5", 50, 9),
            ("2^3", 20, 5),
        ],
    )
    def test_sample_spends_what_bench_reports(self, capsys, factors, count, seed):
        # bench's index line is a sample run from seed, its classical line
        # one from seed + 1 (mod 2**64): the same draws, the same ledger.
        reports = compare_bit_budgets(parse_factorization(factors), count, seed)
        for report, run_seed in zip(reports, (seed, (seed + 1) % (1 << 64))):
            code, out, _ = run(
                capsys, "sample", "--json", "--modulus", factors, "--count", str(count),
                "--seed", str(run_seed), "--method", report.method,
            )
            record = json.loads(out)
            assert code == 0
            assert record["bits_consumed"] == report.total_bits
            assert record["attempts"] == report.total_attempts


def _human_fields(line):
    """The (key, text) pairs of a human record line, its command first.

    A value may hold spaces ("result=all N passed"), so the line splits
    only where a space is followed by the next ``key=``."""
    command, *pairs = re.split(r" (?=\w+=)", line)
    return [("command", command)] + [tuple(pair.split("=", 1)) for pair in pairs]


def _json_fields(line):
    """The (key, text) pairs of a --json record, as the human line writes them."""
    return [
        (key, ",".join(map(str, value)) if isinstance(value, list) else str(value))
        for key, value in json.loads(line).items()
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "--modulus", "3*5", "--index", "2"],
        ["encode", "--modulus", "3*5", "--residue", "4"],
        ["size", "--modulus", "2^4*3"],
        ["sample", "--modulus", "3*5*7", "--count", "4", "--seed", "7", "--method", "classical"],
        ["selftest", "--max-n", "30"],
        ["bench", "--modulus", "3*5*7*11*13", "--count", "20", "--seed", "42"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_records_match_the_human_lines(capsys, argv):
    # One emitter writes both forms: the same keys, in the same order, with
    # the same values, and command first.
    code, human, _ = run(capsys, *argv)
    assert code == 0
    json_code, as_json, _ = run(capsys, argv[0], "--json", *argv[1:])
    assert json_code == 0
    human_lines, json_lines = human.splitlines(), as_json.splitlines()
    assert len(human_lines) == len(json_lines) >= 1
    for human_line, json_line in zip(human_lines, json_lines):
        assert _json_fields(json_line) == _human_fields(human_line)
        assert _human_fields(human_line)[0] == ("command", argv[0])


def _readme_examples():
    """Each ``$ qrindex ...`` line of README, split as a shell would, with
    the lines README shows under it, up to a blank line or the fence."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ qrindex "):
            argv = shlex.split(line)[2:]
            shown = itertools.takewhile(lambda text: text and text != "```", lines[i + 1:])
            examples.append(pytest.param(argv, list(shown), id=" ".join(argv)))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_shows_every_command():
    # Each command has its handler, cli._cmd_<command>.
    commands = {name.removeprefix("_cmd_") for name in dir(cli) if name.startswith("_cmd_")}
    assert {example.values[0][0] for example in README_EXAMPLES} == commands


@pytest.mark.parametrize("argv,shown", README_EXAMPLES)
def test_readme_example_holds(capsys, argv, shown):
    # README shows stdout and any `error:` line of stderr, in that order.
    code, out, err = run(capsys, *argv)
    errors = [line for line in shown if line.startswith("error:")]
    assert out.splitlines() == [line for line in shown if not line.startswith("error:")]
    assert [line for line in err.splitlines() if line.startswith("error:")] == errors
    assert (code == 0) == (not errors)


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


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no int/str digit limit"
)
@pytest.mark.parametrize(
    "argv,code",
    [
        # The residue has over 4800 digits, past the default limit of 4300.
        (["decode", "--modulus", "2^16000", "--index", "5"], 0),
        (["encode", "--modulus", "3*5", "--residue", "2"], 3),
        (["decode", "--modulus", "3*5", "--index", "two"], 2),
    ],
    ids=["success", "domain-error", "usage-error"],
)
def test_int_str_limit_is_restored(capsys, argv, code):
    limit = sys.int_info.default_max_str_digits + 1
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        try:
            result = main(argv)
        except SystemExit as exc:
            result = exc.code
        assert result == code
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(saved)
    capsys.readouterr()
