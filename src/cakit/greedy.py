"""One-test-at-a-time greedy covering-array generation.

Each iteration samples a batch of uniform-random candidate rows, scores
them with the store's coverage query (the fitness function), and keeps the
best scorer: the first one of maximal gain, if that gain is above 0. On a
store with numpy, a block of iterations' candidates is turned into flat
positions at once (one matrix product on most shapes); each
iteration then gathers the tombstones at its own positions and clears
those of its winner, which touches no other index of the store, so no
mechanism adds work there. Anything else standing
in for a store, such as a timing proxy, and any store without numpy, is
asked one ``coverage_count`` per candidate and one ``mark_covered`` per
winner. How the batch is scored changes how fast it runs, never which rows
get picked, so suites are identical across mechanisms and scoring paths
for a fixed seed.

RNG identity: :class:`random.Random`, CPython's Mersenne Twister. Value j
of a candidate row is ``(w * domains[j]) >> 64``, where ``w`` is the next
64-bit word of the generator, so an iteration's candidates are exactly
``[tuple((rng.getrandbits(64) * v) >> 64 for v in domains) for _ in range(candidates)]``,
read from one bulk ``getrandbits`` call rather than one word at a time.
This multiply-shift mapping (Lemire, ACM TOMACS 29(1), 2019) has no
rejection step: every value reads exactly one word, so a block of
iterations reads the same words as those iterations drawn one by one, and
each value's probability is within 2**-64 of ``1/v``. Without numpy, and
for stand-ins for a store, a Python comprehension maps the words; with
numpy, one uint64 expression maps a whole block. Words drawn past the end
of a greedy run are never read, and nothing else reads its generator.
Suite sizes are reproducible for a given seed within this implementation
only.
"""

from __future__ import annotations

import operator
import random
import sys
from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

from .model import CoveringArraySpec, TestCase, TestSuite
from .store import DEFAULT_MAX_ELEMENTS, CapacityError, InteractionStore, StoreMechanism, build_store

#: Bound on domain sizes: below it, numpy computes ``(w * v) >> 64`` in
#: uint64 without overflow once ``w`` is split at bit 32.
_MAX_DOMAIN = 1 << 32

#: Ceiling on the entries of a block's candidate and position arrays, small
#: enough that they stay in cache; an iteration bigger than that is scored
#: in row chunks within it. A single row goes past it only when the
#: combination count does.
_GATHER_CHUNK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class GreedyConfig:
    candidates_per_row: int = 50
    rng_seed: int = 0
    max_rows: int = 100_000

    def __post_init__(self) -> None:
        # integers by operator.index, as in CoveringArraySpec, stored as plain ints
        try:
            candidates = operator.index(self.candidates_per_row)
            max_rows = operator.index(self.max_rows)
        except TypeError:
            raise ValueError(
                f"candidates_per_row and max_rows must be integers, got "
                f"candidates_per_row={self.candidates_per_row!r}, max_rows={self.max_rows!r}"
            ) from None
        object.__setattr__(self, "candidates_per_row", candidates)
        object.__setattr__(self, "max_rows", max_rows)
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


def _draw_words(rng: random.Random, count: int) -> bytes:
    """The generator's next ``count`` 64-bit words, in order, as little-endian bytes."""
    return rng.getrandbits(64 * count).to_bytes(8 * count, "little")


def _tuple_batches(rng: random.Random, domains: Sequence[int], count: int) -> Iterator[list]:
    """Yield batch after batch of ``count`` candidate rows drawn from ``rng``.

    Each batch is a list of tuples of plain ints, value j of row i being
    ``(w * domains[j]) >> 64`` for the next 64-bit word ``w``, that is
    ``[tuple((rng.getrandbits(64) * v) >> 64 for v in domains) for _ in range(count)]``.
    """
    k = len(domains)
    plan = tuple(domains) * count
    while True:
        words = array("Q", _draw_words(rng, count * k))
        if sys.byteorder == "big":
            words.byteswap()
        values = [(w * v) >> 64 for w, v in zip(words, plan)]
        yield list(zip(*[iter(values)] * k))


def _array_batches(np, rng: random.Random, domains: Sequence[int], count: int) -> Iterator:
    """The batches of :func:`_tuple_batches`, each a ``(count, k)`` intp ndarray."""
    v = np.array(domains, dtype=np.uint64)
    while True:
        w = np.frombuffer(_draw_words(rng, count * len(v)), dtype="<u8").reshape(count, -1)
        # (w * v) >> 64 with w split at bit 32: while v < 2**32, no product or sum overflows
        yield (((w >> 32) * v + (((w & 0xFFFFFFFF) * v) >> 32)) >> 32).astype(np.intp)


def _one_row_picks(store, batches: Iterator) -> Iterator[tuple[int, ...] | None]:
    """Per iteration, score each candidate with ``coverage_count`` and mark the best.

    Yields the winner, or None when no candidate covers anything new.
    """
    for candidates in batches:
        best = None
        best_gain = 0
        for row in candidates:
            gain = store.coverage_count(row)
            if gain > best_gain:
                best_gain = gain
                best = row
        if best is not None:
            store.mark_covered(best)
        yield best


def _block_picks(
    store: InteractionStore, rng: random.Random, count: int
) -> Iterator[tuple[int, ...] | None]:
    """:func:`_one_row_picks` for a store whose batch path has numpy.

    Candidates never depend on store state, so a block of iterations is
    decoded and turned into flat positions at once. The decoder draws
    every value inside its domain as an intp ndarray, so the block is not
    checked again. Each iteration then gathers ``alive`` at its own
    positions, which sees every earlier mark, and marks its winner from
    positions already known, by clearing ``alive`` there and nothing else.
    A block's candidate and position arrays hold at most
    ``max(_GATHER_CHUNK_ENTRIES, C(k, t))`` entries; an iteration too big
    for one block gathers a few rows at a time, and its winner's positions
    are computed again.
    """
    np, alive = store._tables()[:2]
    domains = store.spec.domains
    width = max(len(store._combos), len(domains))  # entries per row in a block's arrays
    iterations = max(1, _GATHER_CHUNK_ENTRIES // (count * width))
    chunk = max(1, _GATHER_CHUNK_ENTRIES // width)  # rows per gather of an oversized iteration
    for batch in _array_batches(np, rng, domains, iterations * count):
        if count * width > _GATHER_CHUNK_ENTRIES:  # one oversized iteration
            gains = np.concatenate([alive[store._positions(batch[lo:lo + chunk])].sum(axis=1)
                                    for lo in range(0, count, chunk)])
            best = gains.argmax()  # the first maximal gain
            if gains[best]:
                store._mark_positions(store._positions(batch[best:best + 1])[0])
                yield tuple(batch[best].tolist())
            else:
                yield None
            continue
        positions = store._positions(batch).reshape(iterations, count, -1)
        for candidates, pos in zip(batch.reshape(iterations, count, -1), positions):
            gains = alive[pos].sum(axis=1)
            best = gains.argmax()  # the first maximal gain
            if gains[best]:
                store._mark_positions(pos[best])
                yield tuple(candidates[best].tolist())
            else:
                yield None


def run_greedy(store: InteractionStore, config: GreedyConfig) -> TestSuite:
    """Drive an existing store to full coverage; returns the suite built.

    An iteration whose best candidate covers nothing new appends no row
    (otherwise forced suites like k = t would not come out at their exact
    lower bound); it still consumes one unit of the max_rows iteration
    budget, which therefore also bounds the row count. Raises
    ``ValueError`` before the first draw if a domain is 2**32 or bigger,
    and :class:`CapacityError` if one iteration's candidates hold more
    than ``DEFAULT_MAX_ELEMENTS`` values.
    """
    spec = store.spec
    domains = spec.domains
    if max(domains) >= _MAX_DOMAIN:
        raise ValueError(f"domain sizes must be below 2**32 = {_MAX_DOMAIN}, got {max(domains)}")
    rng = random.Random(config.rng_seed)
    count = config.candidates_per_row
    values = count * len(domains)
    if values > DEFAULT_MAX_ELEMENTS:
        error = CapacityError(values, DEFAULT_MAX_ELEMENTS)
        error.args = (f"{count} candidates per row would decode {values} values at once, "
                      f"exceeding the budget of {DEFAULT_MAX_ELEMENTS}",)
        raise error
    # Not an attribute check: a proxy that forwards unknown attributes
    # must still see, and time, every one-row query and mark.
    if isinstance(store, InteractionStore) and store._tables():
        picks = _block_picks(store, rng, count)
    else:
        picks = _one_row_picks(store, _tuple_batches(rng, domains, count))
    rows: list[TestCase] = []
    iterations = 0
    while store.remaining() > 0:
        if iterations >= config.max_rows:
            raise IncompleteCoverageError(
                TestSuite(spec=spec, rows=tuple(rows)), store.remaining()
            )
        iterations += 1
        best_row = next(picks)
        if best_row is not None:
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
