"""Batch command line for decoding, encoding, sampling and self-checks.

Every record takes one path: each command hands its fields to one
``emit``, which prints the record as one line the moment it is produced,
so an error after some records leaves those lines printed.  The human
line is ``command key=value key=value ...`` (a list value joins with
commas); under --json it is one compact JSON object with ``command``
first and then the same keys, in the same order, with the same values.
All numerals are decimal.  The modulus always arrives as a
factorization string such as ``"2^5 * 3 * 7^2"``; this tool never
factors anything.

Exit codes: 0 success, 1 selftest found violations, 2 command line
usage error, 3 domain error (index out of range, not a residue, not a
unit), 4 validation error (bad factorization string, or a modulus over
the size bound).  Errors print ``error: <ErrorName>: <detail>`` on
stderr.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .bruteforce import _ENUMERATION_CAP, certify_bijection, factor_trial_division
from .errors import FactorizationError
from .indexing import decode_index, encode_residue, index_space_size, parse_factorization
from .sampling import (
    _SAMPLERS, _SEED_BOUND, SeededBitSource, SystemBitSource, _sample_run, compare_bit_budgets,
)


def _cmd_decode(args, m, emit) -> None:
    emit(n=m.n, index=args.index, residue=decode_index(m, args.index))


def _cmd_encode(args, m, emit) -> None:
    emit(n=m.n, residue=args.residue, index=encode_residue(m, args.residue))


def _cmd_size(args, m, emit) -> None:
    emit(n=m.n, size=index_space_size(m))


def _cmd_sample(args, m, emit) -> None:
    source = SystemBitSource() if args.seed is None else SeededBitSource(args.seed)
    values = []
    report = _sample_run(m, args.method, source, args.count, values)
    seed = {} if args.seed is None else {"seed": args.seed}
    emit(
        n=m.n, method=args.method, count=args.count, **seed,
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
            n=m.n,
            method=report.method,
            samples=report.samples,
            seed=args.seed,
            total_bits=report.total_bits,
            total_attempts=report.total_attempts,
            mean_bits_per_sample=report.mean_bits_per_sample,
            theoretical_floor=report.theoretical_floor,
        )


def _uint64(text: str) -> int:
    value = int(text)
    if not 0 <= value < _SEED_BOUND:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text}")
    return value


def _positive(text: str) -> int:
    value = int(text)
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
    p.add_argument("--index", required=True, type=int, help="1-based index")
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser(
        "encode", parents=[common, modulus], help="map a residue to its index"
    )
    p.add_argument("--residue", required=True, type=int, help="quadratic residue mod N")
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
    # Moduli of tens of thousands of bits are read and printed in decimal;
    # the modulus size bound keeps that conversion cheap.  The caller's
    # limit comes back on every exit, argparse's SystemExit included.
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _run(argv) -> int:
    args = build_parser().parse_args(argv)

    def emit(**fields) -> None:
        """Print one record at once: ``command`` first, then ``fields`` in order."""
        if args.json:
            print(json.dumps({"command": args.command, **fields}, separators=(",", ":")))
        else:
            print(args.command, *(f"{key}={_text(value)}" for key, value in fields.items()))

    try:
        m = parse_factorization(args.modulus) if "modulus" in args else None
        return args.handler(args, m, emit) or 0
    except ValueError as exc:  # every library error, FactorizationError included
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, FactorizationError) else 3


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def entrypoint() -> None:
    if hasattr(signal, "SIGPIPE"):
        # A reader closing the pipe early ends us quietly, as coreutils filters.
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
