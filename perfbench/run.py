"""cakit benchmark: time to a verified covering array, suite size, and the paper's two claims.

    python3 perfbench/run.py --workload ca-dense --seed 1 --seconds 60 --trace 0

cakit is imported from the ``src`` directory beside ``perfbench``; the run
fails (exit 1, no result) when it is not there. One process, one thread.
Scratch files go to ``.perfbench/`` beside ``perfbench``; a traced run also
leaves its spans there as gzipped JSON lines.

Every workload runs the same three steps, the ca and query steps on the
workload's spec (WORKLOADS) and the streams at fixed sizes (STACK, NBIT), so
that every run reports every metric. After one generate-ca call that detects
the CLI's defaults, a run repeats a cycle of fixed work for ``--seconds``:
the first cycle always runs, and another starts only if it would end in
time. Greedy seeds are derived from ``--seed``. A cycle runs

1. ca (once per ca seed): ``cakit generate-ca`` then ``cakit verify-ca``
   through ``cli.main``, with generate-ca's default mechanism;
2. queries (``query_passes`` times for each of ``QUERY_SEEDS`` seeds): the
   bench-search protocol from outside. For each mechanism, build a store on
   the spec (timed: ``setup_s``) and run a seeded greedy capped at 10 rows
   of 10 candidates, timing every ``coverage_count``; the first 3 queries
   are warm-up. Every mechanism sees the same rows, and every pass replays
   the same queries;
3. combgen (``STREAM_PASSES`` times): one pass of C(40, 4) combinations
   from the stack generator and one of C(20, 4) from the n-bit enumerator.

The steps are interleaved, each kind spread evenly over the cycle, so that
repeated timings sample the whole run.

Every output is checked outside the timed regions, and each check is one
attempted operation: suites by brute-force coverage (``checks.py``), not
only by verify-ca's exit code; query answers across mechanisms; stream
counts against ``math.comb``; ``remaining() == 0`` after a complete greedy
run; in a traced run, the replica's suite against the CLI's. A ca step whose
files cannot be read or hold invalid rows is a failed check, not a crash.
Store counters are compared with their cost models and mismatches are
reported, not counted as failures.

Timings are kept from the first ``SAMPLED_CYCLES`` cycles only, so that
every run of a workload takes the same number of samples whatever the speed
of the code; later cycles are still checked. Every timing is a median over
its samples. On a shared machine the time of one piece of work swings by
half within a second, as other tenants come and go; the median of many
samples spread over the run follows the run's typical speed, where a best
time would depend on whether the run caught a quiet moment at all.
Untraced end-to-end metrics:

* ``ca_s``: generate-ca + verify-ca wall time, the median sampled ca step;
* ``rows``: median suite size over the ca seeds, exact for a seed;
* ``setup_s``: the three stores' build time, summed over the mechanisms of
  one query pass; the median over the sampled passes;
* ``combos_per_s``: the stack generator's streaming rate in its median
  sampled pass;
* ``query_p50_us.<mech>``: the median over every sampled timed query;
* ``query_p90_us.<mech>``: the 90th percentile over the same samples, at
  least 582 a run, so at least ten lie beyond it (``query_samples`` in the
  report gives the count).

Printed too, but not gated: ``failed_frac``, which is 0 when nothing fails.
Every report also records the paper's two claims, without gating on them:
``paper.order_holds`` (hash < indexed < full on ``query_p50_us``) and
``combgen.stack_over_nbit``, as well as the environment and the mechanism
and candidate count generate-ca uses by default.

A traced run (``--trace 1``) does the same cycles, except that each ca step
also runs a traced replica from the public functions (``build_store``,
``run_greedy`` on a StoreProbe, the CSV helpers, ``verify_coverage``) with
the mechanism and candidate count generate-ca reported, and that every
greedy run and stream is wrapped in spans. Per-layer metrics are totals per
cycle over everything the workload runs (ca replicas and query passes
alike), except the build times (median sampled build of each mechanism)
and the combgen times (median sampled pass, as ``combos_per_s``).
Layer -> end-to-end metric it should move:

* greedy.* (self time = run_greedy minus store calls): ca_s on ca-skewed;
  not on ca-dense, where self time is under a tenth.
* store.*: ca_s on ca-dense (most of it) and on ca-skewed (about half);
  query_p50_us.<mech>; build work moved into set-up shows in setup_s.
* model.*: ca_s on both ca workloads (verify, CSV of 3,600 rows).
* combgen.*: combos_per_s; not ca_s.
* cli.* are the untraced CLI calls of the traced run; trace.overhead_frac
  is traced replica time over those, minus 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from checks import element_count, expected_counters, missing_elements, read_rows, spec_domains
from probe import MARK, QUERY, StoreProbe, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

MECHS = ("hash", "indexed", "full")
QUERY_CANDIDATES, QUERY_ROWS, QUERY_WARMUP = 10, 10, 3
# Six capped greedy runs give 582 distinct timed queries per mechanism. The
# cost of a query depends on the row it scores (on ca-skewed's INDEXED store
# it spreads evenly from 9 to 76 us), so the median needs many distinct
# queries to repeat from one seed to the next.
QUERY_SEEDS = 6
# The paper's generator comparison: the stack generator streams C(40, 4) =
# 91,390 combinations, the n-bit enumerator walks the 2^20 masks of C(20, 4).
# A pass of either takes 30-50 ms, so a run samples some fifty of each; a
# pass of C(100, 4) takes a second, too few for a steady median.
STACK, NBIT = (40, 4), (20, 4)
# Passes of each stream per cycle, spread over the cycle.
STREAM_PASSES = 8
# Timings are kept from this many cycles. A cycle takes 6-8 s, so the
# sampled cycles fit in a 60 s run even if the code gets a quarter slower.
SAMPLED_CYCLES = 6


@dataclass(frozen=True)
class Workload:
    """One workload's inputs; ``seeds`` ca steps and ``query_passes`` query passes per cycle."""

    why: str
    spec: str
    ca_args: tuple[str, ...]
    seeds: int
    query_passes: int


# A ca step is kept short (about a second), so that a run samples a few dozen
# of them for its median. For that reason the dense spec is 5^10, not 5^16
# (4-6 s a step).
WORKLOADS = {
    "ca-dense": Workload(
        why="user path, read-heavy store: 15,000 elements, 120 combinations per query",
        spec="t=3;k=10;v=5^10", ca_args=(), seeds=4, query_passes=1,
    ),
    "ca-skewed": Workload(
        why="mixed domains, cheap queries, a third of marks are writes, many zero-gain iterations",
        spec="t=2;k=4;v=2,2,60,60", ca_args=("--candidates", "10"), seeds=10, query_passes=2,
    ),
}

END_TO_END_UNITS = {"ca_s": "s", "rows": "count", "setup_s": "s", "combos_per_s": "1/s",
                    **{f"query_p{p}_us.{m}": "us" for p in (50, 90) for m in MECHS}}
# Printed with every untraced run but not gated: it is 0 when nothing fails.
REPORTED_UNITS = {"failed_frac": "ratio"}

PER_LAYER_UNITS = {
    "greedy.s": "s", "greedy.self_s": "s", "greedy.iterations": "count",
    "greedy.zero_gain_iterations": "count", "greedy.useful_ratio": "ratio",
    "store.query_calls": "count", "store.query_s": "s", "store.query_us_mean": "us",
    "store.mark_calls": "count", "store.mark_s": "s", "store.bucket_lookups": "count",
    "store.elements_scanned": "count",
    **{f"store.build_s.{m}": "s" for m in MECHS},
    "model.verify_s": "s", "model.csv_s": "s", "model.verify_elements": "count",
    "combgen.stack_s": "s", "combgen.nbit_per_s": "1/s", "combgen.stack_over_nbit": "ratio",
    "cli.generate_s": "s", "cli.verify_s": "s", "trace.overhead_frac": "ratio",
}


def import_cakit():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cakit
        import cakit.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cakit from {src}: {exc}")
    if not Path(cakit.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: cakit was imported from {cakit.__file__}, not from {src}")
    return cakit


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine()


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def read_suite(out: Path) -> tuple[list[tuple[int, ...]], dict]:
    """Rows and metadata that generate-ca wrote to ``out``."""
    meta = json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"))
    return read_rows(str(out)), meta


class Run:
    def __init__(self, cakit, workload: Workload, seed: int, tracer: Tracer | None, scratch: Path):
        self.ca = cakit
        self.main = cakit.cli.main
        self.wl = workload
        self.spec = cakit.CoveringArraySpec.from_string(workload.spec)
        self.t, self.domains = spec_domains(workload.spec)
        self.tracer = tracer
        self.scratch = scratch
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**31) for _ in range(workload.seeds)]
        self.query_seeds = [rng.randrange(2**31) for _ in range(QUERY_SEEDS)]
        # Whether the current cycle's timings are kept (the first SAMPLED_CYCLES).
        self.sampling = True
        self.attempted = 0
        self.failures: list[str] = []
        self.counter_mismatches: list[str] = []
        # Sampled timings: build of each mechanism, the three builds of each
        # query pass summed, ca steps, timed queries and stream passes.
        self.build_s: dict[str, list[float]] = {m: [] for m in MECHS}
        self.setup_s: list[float] = []
        self.ca_s: list[float] = []
        self.rows: dict[int, int] = {}
        self.query_s: dict[str, list[float]] = {m: [] for m in MECHS}
        self.pass_s: dict[str, list[float]] = {"stack": [], "nbit": []}
        self.cli_s = {"generate": 0.0, "verify": 0.0}
        self.greedy_candidates: dict[int, int] = {}
        self.lookups = 0
        self.scanned = 0
        self.verify_elements = 0
        self.defaults: dict = {}

    # -- bookkeeping -------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def check_counters(self, mech: str, store, probe, what: str):
        counters = store.counters
        got = counters.bucket_lookups if mech == "hash" else counters.elements_scanned
        want = expected_counters(mech, probe, self.t, self.domains)
        if got != want:
            self.counter_mismatches.append(f"{what}: {mech} counter {got} != expected {want}")
        self.lookups += counters.bucket_lookups
        self.scanned += counters.elements_scanned

    def cli(self, argv: list[str]) -> tuple[int, str, float]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = self.main(argv)
            elapsed = time.perf_counter() - start
        return code, buf.getvalue(), elapsed

    def detect_defaults(self) -> None:
        """The mechanism and candidate count generate-ca uses when given none."""
        out = self.scratch / "defaults.csv"
        code, _, _ = self.cli(["generate-ca", "--spec", "t=2;k=2;v=2,2", "--out", str(out)])
        try:
            _, meta = read_suite(out)
            self.defaults = {"mechanism": meta["mechanism"], "candidates_per_row": meta["candidates_per_row"]}
        except (OSError, ValueError, KeyError):
            code = -1
        self.check(code == 0, "generate-ca with default flags")

    # -- the cycle ---------------------------------------------------------

    def schedule(self) -> list[tuple[str, int]]:
        """A cycle's steps, each kind spread evenly over the cycle."""
        kinds = [[("ca", s) for s in self.seeds],
                 [("queries", s) for _ in range(self.wl.query_passes) for s in self.query_seeds],
                 [("combgen", 0)] * STREAM_PASSES]
        keyed = [((j + 0.5) / len(steps), step) for steps in kinds for j, step in enumerate(steps)]
        return [step for _, step in sorted(keyed, key=lambda item: item[0])]

    def cycle(self) -> None:
        for kind, seed in self.schedule():
            if kind == "ca":
                seconds = self.ca_step(seed)
                if self.sampling:
                    self.ca_s.append(seconds)
            elif kind == "queries":
                self.query_step(seed)
            else:
                self.combgen_step()

    def ca_step(self, seed: int) -> float:
        """generate-ca then verify-ca; returns their wall time."""
        out = self.scratch / "suite.csv"
        # A failed generate-ca must not leave the previous seed's files to check.
        out.unlink(missing_ok=True)
        Path(f"{out}.meta.json").unlink(missing_ok=True)
        spec = self.wl.spec
        argv = ["generate-ca", "--spec", spec, "--seed", str(seed), "--out", str(out), *self.wl.ca_args]
        gen_code, _, gen_s = self.cli(argv)
        ver_code, ver_out, ver_s = self.cli(["verify-ca", "--spec", spec, "--suite", str(out)])
        self.cli_s["generate"] += gen_s
        self.cli_s["verify"] += ver_s
        try:
            rows, meta = read_suite(out)
            ok = (gen_code == 0 and ver_code == 0 and "missing=0" in ver_out
                  and meta["remaining"] == 0 and meta["rows"] == len(rows)
                  and missing_elements(rows, self.t, self.domains) == 0)
        except (OSError, ValueError, KeyError) as exc:
            self.check(False, f"ca seed {seed}: {exc}")
            return gen_s + ver_s
        self.check(ok, f"ca seed {seed}")
        self.rows[seed] = len(rows)
        if self.tracer:
            self.ca_replica(seed, meta, rows)
        return gen_s + ver_s

    def ca_replica(self, seed: int, meta: dict, cli_rows: list[tuple[int, ...]]) -> None:
        ca = self.ca
        path = str(self.scratch / "replica.csv")
        mech = meta["mechanism"]
        config = ca.GreedyConfig(candidates_per_row=meta["candidates_per_row"],
                                 rng_seed=seed, max_rows=meta["max_rows"])
        tracer = self.tracer
        with tracer.span("ca"):
            with tracer.span("store.build"):
                store = ca.build_store(self.spec, ca.StoreMechanism(mech))
            probe = StoreProbe(store, tracer)
            with tracer.span("greedy.run") as gid:
                suite = ca.run_greedy(probe, config)
            with tracer.span("model.csv"):
                ca.write_suite_csv(suite, path)
                back = ca.read_suite_csv(path, self.spec)
            with tracer.span("model.verify"):
                report = ca.verify_coverage(back)
        self.greedy_candidates[gid] = config.candidates_per_row
        self.verify_elements += report.total
        rows = [tuple(r.assignment) for r in back.rows]
        self.check(store.remaining() == 0 and report.is_complete and rows == cli_rows,
                   f"traced replica seed {seed} mech {mech}")
        self.check_counters(mech, store, probe, f"replica seed {seed}")

    def query_step(self, seed: int) -> None:
        ca = self.ca
        config = ca.GreedyConfig(candidates_per_row=QUERY_CANDIDATES, rng_seed=seed, max_rows=QUERY_ROWS)
        answers = {}
        builds = []
        for mech in MECHS:
            with self.span("queries"):
                with self.span("store.build"):
                    start = time.perf_counter()
                    store = ca.build_store(self.spec, ca.StoreMechanism(mech))
                    build_s = time.perf_counter() - start
                probe = StoreProbe(store, self.tracer)
                with self.span("greedy.run") as gid:
                    try:
                        ca.run_greedy(probe, config)
                    except ca.IncompleteCoverageError:
                        pass  # the row cap bounds the protocol
            if gid is not None:
                self.greedy_candidates[gid] = QUERY_CANDIDATES
            if self.sampling:
                self.build_s[mech].append(build_s)
                self.query_s[mech].extend(probe.query_s[QUERY_WARMUP:])
            builds.append(build_s)
            answers[mech] = list(zip(probe.query_rows, probe.query_results))
            self.check_counters(mech, store, probe, f"queries seed {seed}")
            del store, probe
        if self.sampling:
            self.setup_s.append(sum(builds))
        ref = answers["hash"]
        for i, answer in enumerate(ref):
            self.check(all(len(a) == len(ref) and a[i] == answer for a in answers.values()),
                       f"query {i} seed {seed}: mechanisms disagree")

    def combgen_step(self) -> None:
        streams = (("stack", self.ca.iter_combinations_stack, STACK),
                   ("nbit", self.ca.iter_combinations_nbit, NBIT))
        for name, generate, (k, t) in streams:
            with self.span(f"combgen.{name}"):
                seconds = self.stream(generate, k, t)
            if self.sampling:
                self.pass_s[name].append(seconds)

    def stream(self, generate, k: int, t: int) -> float:
        """Stream C(k, t) combinations once; the pass in seconds."""
        start = time.perf_counter()
        produced = sum(1 for _ in generate(k, t))
        seconds = time.perf_counter() - start
        self.check(produced == math.comb(k, t), f"{generate.__name__}({k}, {t}) count")
        return seconds

    # -- metrics -----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        metrics = {
            "ca_s": statistics.median(self.ca_s),
            "rows": statistics.median(self.rows.values() or [0]),
            "setup_s": statistics.median(self.setup_s),
            "combos_per_s": math.comb(*STACK) / self.median_pass("stack"),
        }
        for mech, samples in self.query_s.items():
            metrics[f"query_p50_us.{mech}"] = statistics.median(samples) * 1e6
        for mech, samples in self.query_s.items():
            metrics[f"query_p90_us.{mech}"] = p90(samples) * 1e6
        return metrics

    def reported(self) -> dict[str, float]:
        """Metrics every untraced run prints but BENCHMARK.json does not gate."""
        return {"failed_frac": len(self.failures) / self.attempted}

    def per_layer(self, cycles: int) -> dict[str, float]:
        tr = self.tracer
        children = tr.children()

        def total(name: str) -> float:
            return sum(tr.duration(s) for s in tr.spans(name))

        greedy_s = self_s = query_s = mark_s = 0.0
        iterations = queries = marks = 0
        for gid in tr.spans("greedy.run"):
            greedy_s += tr.duration(gid)
            self_s += tr.self_time(gid, children)
            kids = children.get(gid, [])
            query_kids = [c for c in kids if tr.name(c) == QUERY]
            mark_kids = [c for c in kids if tr.name(c) == MARK]
            q, m = len(query_kids), len(mark_kids)
            query_s += sum(map(tr.duration, query_kids))
            mark_s += sum(map(tr.duration, mark_kids))
            iterations += q // self.greedy_candidates[gid]
            queries += q
            marks += m
        cli_s = self.cli_s["generate"] + self.cli_s["verify"]
        per = 1 / cycles
        return {
            "greedy.s": greedy_s * per,
            "greedy.self_s": self_s * per,
            "greedy.iterations": iterations * per,
            "greedy.zero_gain_iterations": (iterations - marks) * per,
            "greedy.useful_ratio": marks / iterations,
            "store.query_calls": queries * per,
            "store.query_s": query_s * per,
            "store.query_us_mean": query_s / queries * 1e6,
            "store.mark_calls": marks * per,
            "store.mark_s": mark_s * per,
            "store.bucket_lookups": self.lookups * per,
            "store.elements_scanned": self.scanned * per,
            **{f"store.build_s.{m}": statistics.median(self.build_s[m]) for m in MECHS},
            "model.verify_s": total("model.verify") * per,
            "model.csv_s": total("model.csv") * per,
            "model.verify_elements": self.verify_elements * per,
            "combgen.stack_s": self.median_pass("stack"),
            "combgen.nbit_per_s": math.comb(*NBIT) / self.median_pass("nbit"),
            "combgen.stack_over_nbit": self.stack_over_nbit(),
            "cli.generate_s": self.cli_s["generate"] * per,
            "cli.verify_s": self.cli_s["verify"] * per,
            "trace.overhead_frac": total("ca") / cli_s - 1,
        }

    def claims(self) -> dict:
        p50 = {m: statistics.median(samples) for m, samples in self.query_s.items()}
        return {
            "paper.order_holds": p50["hash"] < p50["indexed"] < p50["full"],
            "combgen.stack_over_nbit": self.stack_over_nbit(),
        }

    def stack_over_nbit(self) -> float:
        """Streaming rate of the stack generator at STACK over that of the n-bit enumerator at NBIT."""
        stack_rate = math.comb(*STACK) / self.median_pass("stack")
        return stack_rate / (math.comb(*NBIT) / self.median_pass("nbit"))

    def median_pass(self, stream: str) -> float:
        return statistics.median(self.pass_s[stream])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cakit = import_cakit()
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir()
    tracer = Tracer(uuid.uuid4().hex) if args.trace else None
    run = Run(cakit, workload, args.seed, tracer, scratch)
    try:
        run.detect_defaults()
        start = time.perf_counter()
        cycles, last = 0, 0.0
        # Start another cycle only if one more fits in the time left.
        while cycles == 0 or time.perf_counter() - start + last <= args.seconds:
            run.sampling = cycles < SAMPLED_CYCLES
            cycle_start = time.perf_counter()
            run.cycle()
            last = time.perf_counter() - cycle_start
            cycles += 1
        measured_s = time.perf_counter() - start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if tracer:
        metrics, units, reported = run.per_layer(cycles), PER_LAYER_UNITS, {}
        # One file per workload, replaced by its next traced run.
        trace_path = WORK / f"trace-{args.workload}.jsonl.gz"
        tracer.write_jsonl_gz(str(trace_path))
    else:
        metrics, units, reported = run.end_to_end(), END_TO_END_UNITS, run.reported()
        trace_path = None
    failed = len(run.failures)
    report = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "greedy_seeds": run.seeds,
        "trace": args.trace,
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
        "cycles": cycles,
        "sampled_cycles": min(cycles, SAMPLED_CYCLES),
        "measured_s": measured_s,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "generate_ca_default": run.defaults,
        "query_samples": {m: len(samples) for m, samples in run.query_s.items()},
        "query_elements": element_count(run.t, run.domains),
        "streams": {"stack": STACK, "nbit": NBIT},
        "reported": {name: {"value": value, "unit": REPORTED_UNITS[name]} for name, value in reported.items()},
        "failures": run.failures[:20],
        "counter_mismatches": run.counter_mismatches[:20],
        "claims": run.claims(),
    }
    for name, value in metrics.items():
        print(f"{name:30s} {value:>18.6f} {units[name]}")
    for name, value in reported.items():
        print(f"{name:30s} {value:>18.6f} {REPORTED_UNITS[name]} (reported, not gated)")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
