"""One-test-at-a-time greedy covering-array generation.

Each iteration samples a batch of uniform-random candidate rows, scores
them with the store's coverage query (the fitness function), and keeps the
best scorer. A store scores the whole batch in one ``coverage_counts``
call; anything else standing in for a store, such as a timing proxy, is
asked one ``coverage_count`` per candidate. How the batch is scored changes
how fast it runs, never which rows get picked, so suites are identical
across mechanisms and scoring paths for a fixed seed.

RNG identity: :class:`random.Random`, CPython's Mersenne Twister. Suite
sizes are reproducible for a given seed within this implementation only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import CoveringArraySpec, TestCase, TestSuite
from .store import InteractionStore, StoreMechanism, build_store


@dataclass(frozen=True)
class GreedyConfig:
    candidates_per_row: int = 50
    rng_seed: int = 0
    max_rows: int = 100_000

    def __post_init__(self) -> None:
        if self.candidates_per_row < 1:
            raise ValueError("candidates_per_row must be >= 1")
        if self.max_rows < 1:
            raise ValueError("max_rows must be >= 1")


class IncompleteCoverageError(RuntimeError):
    """The iteration cap was hit with elements still uncovered."""

    def __init__(self, partial_suite: TestSuite, remaining: int):
        self.partial_suite = partial_suite
        self.remaining = remaining
        super().__init__(
            f"coverage incomplete after {len(partial_suite.rows)} rows: "
            f"{remaining} elements remain"
        )


def run_greedy(store: InteractionStore, config: GreedyConfig) -> TestSuite:
    """Drive an existing store to full coverage; returns the suite built.

    An iteration whose best candidate covers nothing new appends no row
    (otherwise forced suites like k = t would not come out at their exact
    lower bound); it still consumes one unit of the max_rows iteration
    budget, which therefore also bounds the row count.
    """
    rng = random.Random(config.rng_seed)
    # Not an attribute check: a proxy that forwards unknown attributes
    # must still see, and time, every one-row query.
    batch = isinstance(store, InteractionStore)
    spec = store.spec
    domains = spec.domains
    rows: list[TestCase] = []
    iterations = 0
    while store.remaining() > 0:
        if iterations >= config.max_rows:
            raise IncompleteCoverageError(
                TestSuite(spec=spec, rows=tuple(rows)), store.remaining()
            )
        iterations += 1
        candidates = [
            tuple(rng.randrange(v) for v in domains)
            for _ in range(config.candidates_per_row)
        ]
        gains = store.coverage_counts(candidates) if batch else map(store.coverage_count, candidates)
        best_row: tuple[int, ...] | None = None
        best_gain = 0
        for candidate, gain in zip(candidates, gains):
            if gain > best_gain:
                best_gain = gain
                best_row = candidate
        if best_row is None:
            continue
        store.mark_covered(best_row)
        rows.append(TestCase(best_row))
    return TestSuite(spec=spec, rows=tuple(rows))


def generate_ca(
    spec: CoveringArraySpec,
    mechanism: StoreMechanism,
    config: GreedyConfig | None = None,
) -> TestSuite:
    """Generate a full covering array for the spec, or raise IncompleteCoverageError."""
    store = build_store(spec, mechanism)
    return run_greedy(store, config or GreedyConfig())
