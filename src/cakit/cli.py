"""Command-line interface.

Exit codes: 0 success, 1 verification or coverage failure, 2 usage error,
3 capacity or size limit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from .bench import SearchBenchConfig, run_generation_bench, run_search_bench
from .combgen import (
    count_combinations,
    generate_nbit,
    iter_combinations_stack,
    UnsupportedSizeError,
)
from .greedy import GreedyConfig, IncompleteCoverageError, generate_ca
from .model import CoveringArraySpec, read_suite_csv, verify_coverage, write_suite_csv
from .store import CapacityError, StoreMechanism

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

_MECH_NAMES = {mech.value: mech for mech in StoreMechanism}


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cakit",
        description="Covering-array toolkit: combination generation, CA generation, "
        "verification, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-combos", help="generate all t-combinations of k parameters")
    p.add_argument("--k", type=int, required=True, help="number of parameters")
    p.add_argument("--t", type=int, required=True, help="interaction strength")
    p.add_argument("--algo", choices=["stack", "nbit"], default="stack")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--out", help="write combinations to this file instead of stdout")
    out.add_argument("--count-only", action="store_true",
                     help="print only the combination count C(k,t)")

    p = sub.add_parser("generate-ca", help="generate a covering array with the greedy builder")
    p.add_argument("--spec", required=True, help='spec string, e.g. "t=2;k=10;v=10^10"')
    p.add_argument("--mech", choices=sorted(_MECH_NAMES), default=StoreMechanism.HASH.value,
                   help="store mechanism (default %(default)s)")
    p.add_argument("--seed", type=int, default=GreedyConfig.rng_seed)
    p.add_argument("--candidates", type=int, default=GreedyConfig.candidates_per_row,
                   help="random candidate rows evaluated per iteration (default %(default)s)")
    p.add_argument("--max-rows", type=int, default=GreedyConfig.max_rows,
                   help="iteration safety cap (default %(default)s)")
    p.add_argument("--out", required=True, help="suite CSV path; metadata goes to <out>.meta.json")

    p = sub.add_parser("verify-ca", help="check a suite CSV for full interaction coverage")
    p.add_argument("--spec", required=True)
    p.add_argument("--suite", required=True, help="suite CSV path")

    p = sub.add_parser("bench-gen", help="benchmark streaming combination generation")
    p.add_argument("--k-list", type=_int_list, default=[20, 40, 100, 200, 400],
                   help="comma-separated parameter counts (default %(default)s)")
    p.add_argument("--t-list", type=_int_list, default=[2, 3, 4, 5, 6],
                   help="comma-separated strengths (default %(default)s)")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--budget", type=float, default=120.0,
                   help="per-case seconds (default %(default)s)")
    p.add_argument("--no-nbit", action="store_true", help="skip the n-bit baseline")
    p.add_argument("--json", dest="json_path", help="write the JSON report here")
    p.add_argument("--csv", dest="csv_path", help="write the CSV report here")

    p = sub.add_parser("bench-search", help="benchmark coverage queries across store mechanisms")
    p.add_argument("--spec", required=True)
    p.add_argument("--mechs", default=",".join(_MECH_NAMES),
                   help="comma-separated mechanisms (default %(default)s)")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=SearchBenchConfig.seed)
    p.add_argument("--candidates", type=int, default=SearchBenchConfig.candidates_per_row,
                   help="candidate rows per greedy iteration (default %(default)s)")
    p.add_argument("--rows", type=int, default=SearchBenchConfig.max_rows,
                   help="greedy iterations measured per mechanism (default %(default)s)")
    p.add_argument("--json", dest="json_path", help="write the JSON report here")
    p.add_argument("--csv", dest="csv_path", help="write the CSV report here")

    return parser


def _cmd_gen_combos(args) -> int:
    count = count_combinations(args.k, args.t)  # validates (k, t)
    if args.count_only:
        print(count)
        return EXIT_OK
    if args.algo == "stack":
        combos = iter_combinations_stack(args.k, args.t)
    else:  # past its bound, raises before --out is opened
        combos = generate_nbit(args.k, args.t)
    sink = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with sink as fh:
        write = fh.write
        for combo in combos:
            write(",".join(map(str, combo)))
            write("\n")
    return EXIT_OK


def _cmd_generate_ca(args) -> int:
    spec = CoveringArraySpec.from_string(args.spec)
    mechanism = _MECH_NAMES[args.mech]
    config = GreedyConfig(
        candidates_per_row=args.candidates, rng_seed=args.seed, max_rows=args.max_rows
    )
    start = time.perf_counter()
    try:
        suite = generate_ca(spec, mechanism, config)
        remaining = 0
        code = EXIT_OK
    except IncompleteCoverageError as exc:
        suite = exc.partial_suite
        remaining = exc.remaining
        code = EXIT_FAILURE
    elapsed = time.perf_counter() - start
    write_suite_csv(suite, args.out)
    metadata = {
        "spec": spec.to_string(),
        "seed": args.seed,
        "mechanism": mechanism.value,
        "candidates_per_row": args.candidates,
        "max_rows": args.max_rows,
        "rows": len(suite.rows),
        "remaining": remaining,
        "elapsed_s": elapsed,
        "rng": "random.Random (CPython Mersenne Twister), (64-bit word * v) >> 64",
    }
    with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2)
        fh.write("\n")
    if code == EXIT_OK:
        print(f"wrote {len(suite.rows)} rows to {args.out}")
    else:
        print(
            f"incomplete: {remaining} elements uncovered after {len(suite.rows)} rows "
            f"(partial suite written to {args.out})",
            file=sys.stderr,
        )
    return code


def _cmd_verify_ca(args) -> int:
    spec = CoveringArraySpec.from_string(args.spec)
    suite = read_suite_csv(args.suite, spec)
    report = verify_coverage(suite)
    print(f"rows={len(suite.rows)} covered={report.covered} missing={len(report.missing)} "
          f"total={report.total}")
    return EXIT_OK if report.is_complete else EXIT_FAILURE


def _emit_report(report, args) -> None:
    if args.json_path:
        report.write_json(args.json_path)
    if args.csv_path:
        report.write_csv(args.csv_path)
    if not args.json_path and not args.csv_path:
        sys.stdout.write(report.to_csv())


def _cmd_bench_gen(args) -> int:
    report = run_generation_bench(
        args.k_list,
        args.t_list,
        reps=args.reps,
        warmup=args.warmup,
        budget_s=args.budget,
        include_nbit=not args.no_nbit,
    )
    _emit_report(report, args)
    return EXIT_OK


def _cmd_bench_search(args) -> int:
    spec = CoveringArraySpec.from_string(args.spec)
    try:
        mechanisms = [_MECH_NAMES[name.strip()] for name in args.mechs.split(",") if name.strip()]
    except KeyError as exc:
        raise ValueError(f"unknown mechanism {exc.args[0]!r}") from exc
    if not mechanisms:
        raise ValueError("no mechanisms selected")
    config = SearchBenchConfig(
        seed=args.seed, candidates_per_row=args.candidates, max_rows=args.rows
    )
    report = run_search_bench(spec, mechanisms, reps=args.reps, config=config)
    _emit_report(report, args)
    return EXIT_OK


_HANDLERS = {
    "gen-combos": _cmd_gen_combos,
    "generate-ca": _cmd_generate_ca,
    "verify-ca": _cmd_verify_ca,
    "bench-gen": _cmd_bench_gen,
    "bench-search": _cmd_bench_search,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (CapacityError, UnsupportedSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())
