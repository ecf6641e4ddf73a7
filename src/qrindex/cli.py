"""Batch command line for decoding, encoding, sampling and self-checks.

Every successful command prints one record per result line.  The human
format is ``command key=value key=value ...``; under --json each line is
one compact JSON object with the same keys.  All numerals are decimal.
The modulus always arrives as a factorization string such as
``"2^5 * 3 * 7^2"``; this tool never factors anything.

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
    RandomBitLedger,
    SeededBitSource,
    SystemBitSource,
    compare_bit_budgets,
    sample_residue_by_index,
    sample_residue_classical,
)


def _emit(record: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, separators=(",", ":")))
        return
    command = record["command"]
    parts = [command]
    for key, value in record.items():
        if key == "command":
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    print(" ".join(parts))


def _cmd_decode(args) -> int:
    m = parse_factorization(args.modulus)
    residue = decode_index(m, args.index)
    _emit(
        {"command": "decode", "n": m.n, "index": args.index, "residue": residue},
        args.json,
    )
    return 0


def _cmd_encode(args) -> int:
    m = parse_factorization(args.modulus)
    index = encode_residue(m, args.residue)
    _emit(
        {"command": "encode", "n": m.n, "residue": args.residue, "index": index},
        args.json,
    )
    return 0


def _cmd_size(args) -> int:
    m = parse_factorization(args.modulus)
    _emit({"command": "size", "n": m.n, "size": index_space_size(m)}, args.json)
    return 0


def _cmd_sample(args) -> int:
    m = parse_factorization(args.modulus)
    source = SystemBitSource() if args.seed is None else SeededBitSource(args.seed)
    sample = sample_residue_by_index if args.method == "index" else sample_residue_classical
    values = []
    totals = RandomBitLedger()
    for _ in range(args.count):
        value, ledger = sample(m, source)
        values.append(value)
        totals.bits_consumed += ledger.bits_consumed
        totals.attempts += ledger.attempts
    record = {"command": "sample", "n": m.n, "method": args.method, "count": args.count}
    if args.seed is not None:
        record["seed"] = args.seed
    record["values"] = values
    record["bits_consumed"] = totals.bits_consumed
    record["attempts"] = totals.attempts
    _emit(record, args.json)
    return 0


def _cmd_selftest(args) -> int:
    failures = 0
    indices = 0
    for n in range(2, args.max_n + 1):
        report = certify_bijection(factor_trial_division(n))
        indices += report.indices_checked
        for failure in report.failures:
            print(f"error: CertificationFailure: N={n}: {failure}", file=sys.stderr)
            failures += 1
    record = {
        "command": "selftest",
        "max_n": args.max_n,
        "moduli_checked": args.max_n - 1,
        "indices_checked": indices,
        "result": "all N passed" if failures == 0 else f"{failures} violations",
    }
    _emit(record, args.json)
    return 0 if failures == 0 else 1


def _cmd_bench(args) -> int:
    m = parse_factorization(args.modulus)
    for report in compare_bit_budgets(m, args.count, args.seed):
        _emit(
            {
                "command": "bench",
                "n": m.n,
                "method": report.method,
                "samples": report.samples,
                "seed": args.seed,
                "total_bits": report.total_bits,
                "total_attempts": report.total_attempts,
                "mean_bits_per_sample": report.mean_bits_per_sample,
                "theoretical_floor": report.theoretical_floor,
            },
            args.json,
        )
    return 0


def _uint64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
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
        choices=("index", "classical"),
        default="index",
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
    if hasattr(sys, "set_int_max_str_digits"):
        # Moduli of tens of thousands of bits are read and printed in
        # decimal; the modulus size bound keeps that conversion cheap.
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FactorizationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    if hasattr(signal, "SIGPIPE"):
        # A reader closing the pipe early ends us quietly, as coreutils filters.
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
