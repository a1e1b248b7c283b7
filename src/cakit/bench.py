"""Benchmark harness: generation-time sweeps and search-time comparisons.

Two experiment families:

* generation - wall-time a full streaming pass of the stack generator per
  (k, t) case, with the n-bit enumerator alongside up to its own bound,
  :data:`cakit.combgen.NBIT_MAX_K`;
* search - per store mechanism, build the store and drive a seeded,
  row-capped greedy workload, timing every individual coverage query. The
  mechanisms are compared on their median query time (criterion 7's
  order), with min and max recorded too.

Protocol notes, since absolute times are hardware-bound and the point is
relative ordering: timings use ``time.perf_counter``; warmup passes and
warmup queries are excluded; generation cases whose combination count is
too large for the per-case wall-time budget, and n-bit cases past its
bound, are marked skipped, not failed; everything runs strictly
sequentially. Both report formats, JSON and CSV, have the layout of
:class:`BenchRecord`.
"""

from __future__ import annotations

import csv
import io
import json
import platform
import statistics
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Iterable, Sequence

from .combgen import (
    UnsupportedSizeError,
    count_combinations,
    iter_combinations_nbit,
    iter_combinations_stack,
)
from .greedy import GreedyConfig, IncompleteCoverageError, run_greedy
from .model import CoveringArraySpec
from .store import CapacityError, StoreMechanism, build_store

#: Conservative streaming-rate guess (combinations/second) used only to
#: decide up front whether a generation case can fit its wall-time budget.
PRESKIP_RATE = 250_000


def _cpu_description() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    name = line.partition(":")[2].strip()
                    if name and name.lower() != "unknown":
                        return name
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def environment_stamp() -> dict[str, str]:
    return {
        "os": platform.platform(),
        "cpu": _cpu_description(),
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


@dataclass(kw_only=True)
class BenchRecord:
    """One report row. The field order is the column order of both report formats."""

    kind: str
    subject: str
    status: str = "ok"
    k: int
    t: int
    v: str | None = None
    reps: int = 0
    count: int | None = None
    time_min_s: float | None = None
    time_median_s: float | None = None
    time_max_s: float | None = None
    build_s: float | None = None
    rows_built: int | None = None
    queries: int | None = None
    bucket_lookups: int | None = None
    elements_scanned: int | None = None
    note: str | None = None


CSV_COLUMNS = [f.name for f in fields(BenchRecord)]


@dataclass
class BenchReport:
    environment: dict[str, str] = field(default_factory=environment_stamp)
    records: list[BenchRecord] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")  # writes None as an empty field
        writer.writerow(CSV_COLUMNS)
        writer.writerows(astuple(r) for r in self.records)
        return buf.getvalue()

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def _timed_pass(iterator) -> tuple[float, int]:
    start = time.perf_counter()
    n = sum(1 for _ in iterator)
    return time.perf_counter() - start, n


def _time_stats(record: BenchRecord, times: Sequence[float]) -> None:
    record.reps = len(times)
    record.time_min_s = min(times)
    record.time_median_s = statistics.median(times)
    record.time_max_s = max(times)


def run_generation_bench(
    k_list: Iterable[int],
    t_list: Iterable[int],
    reps: int = 3,
    *,
    warmup: int = 3,
    budget_s: float = 120.0,
    include_nbit: bool = True,
) -> BenchReport:
    """Time streaming generation for every (k, t) case in the sweep.

    Each timed pass consumes the full stream and counts what it produced.
    A case is pre-skipped when its combination count can't plausibly fit
    ``budget_s`` at :data:`PRESKIP_RATE`; a case whose first timed pass
    overruns the budget keeps that measurement but skips further reps.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if not budget_s > 0:
        raise ValueError("budget_s must be > 0")
    report = BenchReport()
    for k in k_list:
        for t in t_list:
            total = count_combinations(k, t)  # validates (k, t)
            record = BenchRecord(kind="generation", subject="stack", k=k, t=t)
            report.records.append(record)
            if total > budget_s * PRESKIP_RATE:
                record.status = "skipped"
                record.note = (
                    f"C({k},{t})={total} exceeds the {budget_s:.0f}s budget "
                    f"at an assumed {PRESKIP_RATE}/s"
                )
            else:
                _time_generation_case(
                    record, lambda: iter_combinations_stack(k, t), total,
                    reps, warmup, budget_s,
                )

            if not include_nbit:
                continue
            nrecord = BenchRecord(kind="generation", subject="nbit", k=k, t=t)
            report.records.append(nrecord)
            try:
                _time_generation_case(
                    nrecord, lambda: iter_combinations_nbit(k, t), total,
                    reps, warmup, budget_s,
                )
            except UnsupportedSizeError as exc:  # raised before any mask is walked
                nrecord.status = "skipped"
                nrecord.note = str(exc)
    return report


def _time_generation_case(record, make_stream, total, reps, warmup, budget_s) -> None:
    times: list[float] = []
    for _ in range(warmup):
        _timed_pass(make_stream())
    for rep in range(reps):
        elapsed, n = _timed_pass(make_stream())
        times.append(elapsed)
        if n != total:
            record.status = "error"
            record.note = f"stream produced {n}, expected {total}"
            return
        if elapsed > budget_s and rep + 1 < reps:
            record.note = f"budget exceeded after rep {rep + 1}; remaining reps skipped"
            break
    record.count = total
    _time_stats(record, times)


class _TimingStore:
    """Store proxy that times each coverage query; the greedy scores a proxy row by row."""

    def __init__(self, store):
        self._store = store
        self.query_times: list[float] = []

    @property
    def spec(self):
        return self._store.spec

    def coverage_count(self, row):
        start = time.perf_counter()
        n = self._store.coverage_count(row)
        self.query_times.append(time.perf_counter() - start)
        return n

    def mark_covered(self, row):
        return self._store.mark_covered(row)

    def remaining(self):
        return self._store.remaining()


@dataclass(frozen=True)
class SearchBenchConfig:
    """Workload shape for the search benchmark.

    The greedy run is capped at ``max_rows`` iterations so the measurement
    happens while the store is still full and finishes in bounded time;
    candidates_per_row * max_rows queries are issued, the first
    ``warmup_queries`` discarded. Mechanisms are compared on median query time.
    """

    seed: int = 0
    candidates_per_row: int = 10
    max_rows: int = 10
    warmup_queries: int = 3

    def __post_init__(self) -> None:
        if self.warmup_queries < 0:
            raise ValueError("warmup_queries must be >= 0")


def run_search_bench(
    spec: CoveringArraySpec,
    mechanisms: Sequence[StoreMechanism] = tuple(StoreMechanism),
    reps: int = 1,
    *,
    config: SearchBenchConfig | None = None,
) -> BenchReport:
    """Per mechanism: build the store, run the capped greedy workload, time every query."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    cfg = config or SearchBenchConfig()
    report = BenchReport()
    v_text = spec.to_string().partition("v=")[2]
    for mechanism in mechanisms:
        record = BenchRecord(
            kind="search", subject=mechanism.value, k=spec.k, t=spec.t, v=v_text,
        )
        report.records.append(record)
        times: list[float] = []
        builds: list[float] = []
        lookups = scanned = issued = 0
        try:
            for _ in range(reps):
                start = time.perf_counter()
                store = build_store(spec, mechanism)
                builds.append(time.perf_counter() - start)
                record.count = store.remaining()
                timed = _TimingStore(store)
                greedy_cfg = GreedyConfig(
                    candidates_per_row=cfg.candidates_per_row,
                    rng_seed=cfg.seed,
                    max_rows=cfg.max_rows,
                )
                try:
                    suite = run_greedy(timed, greedy_cfg)
                    record.rows_built = len(suite.rows)
                except IncompleteCoverageError as exc:
                    # Expected: the row cap exists precisely to bound the workload.
                    record.rows_built = len(exc.partial_suite.rows)
                issued += len(timed.query_times)
                times.extend(timed.query_times[cfg.warmup_queries:])
                lookups += store.counters.bucket_lookups
                scanned += store.counters.elements_scanned
        except CapacityError as exc:
            record.status = "error"
            record.note = str(exc)
            continue
        record.bucket_lookups = lookups
        record.elements_scanned = scanned
        record.queries = len(times)
        record.build_s = statistics.median(builds)
        if times:
            _time_stats(record, times)
            record.reps = reps
        else:
            record.status = "error"
            record.note = (
                f"all {issued} queries issued were discarded as warmup "
                f"({cfg.warmup_queries} per repetition); none left to time"
            )
    return report
