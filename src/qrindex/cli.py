"""Batch command line for decoding, encoding, sampling and self-checks.

Every record takes one path: each command hands its fields to one
``emit``, which prints the record as one line the moment it is produced,
so an error after some records leaves those lines printed.  The human
line is ``command key=value key=value ...`` (a list value joins with
commas); under --json it is one compact JSON object with ``command``
first and then the same keys, in the same order, with the same values.
A command on a modulus starts each record with ``n``, which ``emit``
renders once per command, not once per record.  All numerals are
decimal.  The modulus always arrives as a
factorization string such as ``"2^5 * 3 * 7^2"``; this tool never
factors anything.

``decode --index -`` and ``encode --residue -`` read one decimal
integer per line of stdin and print one record per line, as the single
call prints it; a line that is not an integer, or has more digits than
the largest modulus the size bound allows, is a usage error naming the
line.

Exit codes: 0 success, 1 selftest found violations, 2 command line
usage error or a bad stdin line, 3 domain error (index out of range,
not a residue, not a unit), 4 validation error (bad factorization
string, or a modulus over the size bound).  Errors print
``error: <ErrorName>: <detail>`` on stderr; a bad stdin line prints
``error: line <number>: <detail>``.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys

from .bruteforce import _ENUMERATION_CAP, certify_bijection, factor_trial_division
from .errors import FactorizationError
from .indexing import decode_index, encode_residue, index_space_size, parse_factorization
from .numbertheory import _MAX_MODULUS_BITS
from .sampling import (
    _SAMPLERS, _SEED_BOUND, SeededBitSource, SystemBitSource, _sample_run, compare_bit_budgets,
)


def _cmd_decode(args, m, emit) -> None:
    for index in _values(args.index):
        emit(index=index, residue=decode_index(m, index))


def _cmd_encode(args, m, emit) -> None:
    for residue in _values(args.residue):
        emit(residue=residue, index=encode_residue(m, residue))


def _cmd_size(args, m, emit) -> None:
    emit(size=index_space_size(m))


def _cmd_sample(args, m, emit) -> None:
    source = SystemBitSource() if args.seed is None else SeededBitSource(args.seed)
    values = []
    report = _sample_run(m, args.method, source, args.count, values)
    seed = {} if args.seed is None else {"seed": args.seed}
    emit(
        method=args.method, count=args.count, **seed,
        values=values, bits_consumed=report.total_bits, attempts=report.total_attempts,
    )


def _cmd_selftest(args, _, emit) -> int | None:
    failures = indices = 0
    for n in range(2, args.max_n + 1):
        report = certify_bijection(factor_trial_division(n))
        indices += report.indices_checked
        for failure in report.failures:
            print(f"error: CertificationFailure: N={n}: {failure}", file=sys.stderr)
        failures += len(report.failures)
    emit(
        max_n=args.max_n,
        moduli_checked=args.max_n - 1,
        indices_checked=indices,
        result=f"{failures} violations" if failures else "all N passed",
    )
    return 1 if failures else None


def _cmd_bench(args, m, emit) -> None:
    for report in compare_bit_budgets(m, args.count, args.seed):
        emit(
            method=report.method,
            samples=report.samples,
            seed=args.seed,
            total_bits=report.total_bits,
            total_attempts=report.total_attempts,
            mean_bits_per_sample=report.mean_bits_per_sample,
            theoretical_floor=report.theoretical_floor,
        )


_STDIN = "-"


class _LineError(Exception):
    """A stdin line that is not an integer: a usage error, exit code 2."""


def _values(value):
    """The one integer given, or, for ``-``, one integer per stdin line."""
    if value != _STDIN:
        yield value
        return
    # int() reads bytes, so a line that is not UTF-8 is a bad line too.
    for number, line in enumerate(sys.stdin.buffer, 1):
        try:
            yield int(line)
        except ValueError:
            text = line.strip().decode(errors="replace")
            raise _LineError(f"line {number}: {_invalid_int(text)}") from None


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # worded as argparse words a bad type=int value
        raise argparse.ArgumentTypeError(_invalid_int(text)) from None


def _invalid_int(text: str) -> str:
    # A text past 64 characters, such as a numeral over the digit limit, is
    # cut to its first 32 and its length, so the message stays one short line.
    if len(text) > 64:
        return f"invalid int value: {text[:32]!r}... ({len(text)} characters)"
    return f"invalid int value: {text!r}"


def _int_or_stdin(text: str):
    return text if text == _STDIN else _int(text)


def _uint64(text: str) -> int:
    value = _int(text)
    if not 0 <= value < _SEED_BOUND:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text}")
    return value


def _positive(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {text}")
    return value


def _max_n(text: str) -> int:
    value = _positive(text)
    if value > _ENUMERATION_CAP:
        raise argparse.ArgumentTypeError(f"expected at most {_ENUMERATION_CAP}, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrindex",
        description="Index, enumerate and sample quadratic residues of a factored modulus.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit one compact JSON object per line"
    )
    modulus = argparse.ArgumentParser(add_help=False)
    modulus.add_argument(
        "--modulus",
        required=True,
        metavar="FACTORS",
        help='prime factorization of N, e.g. "2^5 * 3 * 7^2"',
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "decode",
        parents=[common, modulus],
        help="map an index in [1, |QR(N)|] to its residue",
    )
    p.add_argument(
        "--index", required=True, type=_int_or_stdin,
        help="1-based index, or - for one index per line of stdin",
    )
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser(
        "encode", parents=[common, modulus], help="map a residue to its index"
    )
    p.add_argument(
        "--residue", required=True, type=_int_or_stdin,
        help="quadratic residue mod N, or - for one residue per line of stdin",
    )
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser(
        "size", parents=[common, modulus], help="print |QR(N)|, the index space size"
    )
    p.set_defaults(handler=_cmd_size)

    p = sub.add_parser(
        "sample", parents=[common, modulus], help="draw uniform residues"
    )
    p.add_argument("--count", type=_positive, default=1, help="number of draws")
    p.add_argument(
        "--seed",
        type=_uint64,
        default=None,
        help="64-bit seed for reproducible draws; system entropy if omitted",
    )
    p.add_argument(
        "--method",
        choices=tuple(_SAMPLERS),
        default=next(iter(_SAMPLERS)),
        help="index decoding or classical unit squaring",
    )
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser(
        "selftest",
        parents=[common],
        help="certify the bijection against brute force for all N up to --max-n",
    )
    p.add_argument(
        "--max-n",
        type=_max_n,
        default=3000,
        help=f"largest modulus checked, at most {_ENUMERATION_CAP}",
    )
    p.set_defaults(handler=_cmd_selftest)

    p = sub.add_parser(
        "bench",
        parents=[common, modulus],
        help="compare random-bit budgets of both sampling methods",
    )
    p.add_argument("--count", type=_positive, default=1000, help="samples per method")
    p.add_argument("--seed", type=_uint64, required=True, help="64-bit seed")
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    # Moduli of tens of thousands of bits are read and printed in decimal,
    # up to the digits of the largest modulus the size bound allows; a
    # longer numeral, whose parse would take quadratic time, is refused as
    # a non-integer is.  The caller's limit comes back on every exit,
    # argparse's SystemExit included.
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(math.ceil(_MAX_MODULUS_BITS * math.log10(2)))
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        m = parse_factorization(args.modulus) if "modulus" in args else None
        head = {} if m is None else {"n": m.n}
        return args.handler(args, m, _printer(args.command, args.json, head)) or 0
    except ValueError as exc:  # every library error, FactorizationError included
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, FactorizationError) else 3
    except _LineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _printer(command: str, as_json: bool, head: dict):
    """The ``emit`` of one command.  Each call prints one record at once:
    ``command``, the ``head`` fields, rendered here once, then the call's
    own fields, which are never empty, in order."""
    if as_json:
        # The head object without its closing brace; each record adds
        # its own fields' object without its opening brace.
        start = json.dumps({"command": command, **head}, separators=(",", ":"))[:-1]

        def emit(**fields) -> None:
            print(start, json.dumps(fields, separators=(",", ":"))[1:], sep=",")
    else:
        start = " ".join([command, *(f"{key}={_text(value)}" for key, value in head.items())])

        def emit(**fields) -> None:
            print(start, *(f"{key}={_text(value)}" for key, value in fields.items()))
    return emit


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def entrypoint() -> None:
    if hasattr(signal, "SIGPIPE"):
        # A reader closing the pipe early ends us quietly, as coreutils filters.
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
