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

RNG identity: :class:`random.Random`, CPython's Mersenne Twister. Each
iteration's candidates are exactly
``[tuple(rng.randrange(v) for v in domains) for _ in range(candidates)]``,
but decoded from the 32-bit outputs that bulk ``getrandbits`` calls
return, in stream order, rather than drawn one ``randrange`` at a time.
``randrange(v)`` reads one output ``w``, takes ``w >> (32 - v.bit_length())``
and draws again while that is ``>= v``; the decoders apply the same rule
to the same words. Without numpy, and for stand-ins for a store, a Python
loop walks the words. With numpy, uniform domains keep the accepted words of one array filter.
Other domains follow the rejection chain in numpy: each distinct domain
size tests every word once; from that follows, for every word, where a
run of equal sizes starting there ends, and composed over the runs, where
a row starting there ends. Row starts are the orbit of the first word
under that map, found by pointer doubling, and each column is one gather.
Domains with so many distinct sizes and runs that this costs more
than the Python loop keep the loop. Words drawn past the end of a greedy
run are never read, and nothing else reads its generator, so suites are
the same as with ``randrange``. Suite sizes are reproducible for a given seed
within this implementation only.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Iterator, Sequence

from .model import CoveringArraySpec, TestCase, TestSuite
from .store import DEFAULT_MAX_ELEMENTS, CapacityError, InteractionStore, StoreMechanism, build_store

#: Bound on domain sizes: randrange of a bigger one reads more than one
#: 32-bit output per value, which the decoder does not follow.
_MAX_DOMAIN = 1 << 32

#: Fewest 32-bit outputs drawn from the generator at once.
_MIN_DRAW_WORDS = 1 << 12

#: Most 32-bit outputs that one numpy decoding pass reads; its working
#: arrays hold a few entries per output and per distinct domain size.
_DECODE_WINDOW_WORDS = 1 << 16

#: With numpy, mixed domains are decoded in numpy while ``10 * sizes + runs``
#: is at most this, for their distinct sizes and runs of equal sizes. Per
#: word drawn, that decoder makes about ten array passes for each distinct
#: size and one gather for each run; it and the Python loop break even near 72.
_MIXED_DECODE_LIMIT = 72

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
    """The generator's next ``count`` 32-bit outputs, in order, as little-endian bytes."""
    return rng.getrandbits(32 * count).to_bytes(4 * count, "little")


def _word_stream(rng: random.Random) -> Iterator[int]:
    """The generator's 32-bit outputs, one at a time, drawn in bulk."""

    def draw() -> array:
        words = array("I", _draw_words(rng, _MIN_DRAW_WORDS))
        if sys.byteorder == "big":
            words.byteswap()
        return words

    return chain.from_iterable(iter(draw, None))  # draw never returns None: endless


def _tuple_batches(rng: random.Random, domains: Sequence[int], count: int) -> Iterator[list]:
    """Yield batch after batch of ``count`` candidate rows drawn from ``rng``.

    The rows are, batch after batch, exactly those of
    ``[tuple(rng.randrange(v) for v in domains) for _ in range(count)]``,
    as a list of tuples of plain ints. Every domain must be below 2**32.
    """
    next_word = _word_stream(rng).__next__
    plan = [(32 - v.bit_length(), v) for v in domains]
    while True:
        rows = []
        for _ in range(count):
            row = []
            for shift, v in plan:
                x = next_word() >> shift
                while x >= v:
                    x = next_word() >> shift
                row.append(x)
            rows.append(tuple(row))
        yield rows


def _array_batches(np, rng: random.Random, domains: Sequence[int], count: int) -> Iterator:
    """The batches of :func:`_tuple_batches`, each a ``(count, k)`` intp ndarray."""
    sizes = len(set(domains))
    if sizes == 1:
        return _uniform_array_batches(np, rng, domains[0], len(domains), count)
    runs = [(v, len(list(group))) for v, group in groupby(domains)]
    if 10 * sizes + len(runs) <= _MIXED_DECODE_LIMIT:
        return _mixed_array_batches(np, rng, runs, count)
    return (np.array(rows, dtype=np.intp) for rows in _tuple_batches(rng, domains, count))


def _uniform_array_batches(np, rng: random.Random, v: int, k: int, count: int) -> Iterator:
    shift = 32 - v.bit_length()
    need = count * k
    accepted = np.empty(0, dtype=np.intp)
    while True:
        while len(accepted) < need:
            # at least half of all words are accepted, so two words per value
            # missing usually suffice
            words = np.frombuffer(
                _draw_words(rng, max(_MIN_DRAW_WORDS, 2 * (need - len(accepted)))), dtype="<u4"
            ) >> shift
            accepted = np.concatenate((accepted, words[words < v].astype(np.intp)))
        yield accepted[:need].reshape(count, k)
        accepted = accepted[need:]


def _mixed_array_batches(np, rng: random.Random, runs: list[tuple[int, int]], count: int) -> Iterator:
    """:func:`_array_batches` for domains given as (size, repeats) runs, decoded in numpy."""
    k = sum(m for _, m in runs)
    # randrange(v) reads 2**v.bit_length() / v words on average
    words_per_row = sum(m * (1 << v.bit_length()) / v for v, m in runs)
    window_rows = max(1, int(_DECODE_WINDOW_WORDS / words_per_row))
    words = np.empty(0, dtype=np.uint32)

    def decode(need: int):
        nonlocal words
        out = np.empty((need, k), dtype=np.intp)
        done = 0
        short = 0  # words of a row that the last window cut off
        while done < need:
            # the words the missing rows read on average, and 5% more, so
            # that a window seldom falls short
            want = short + math.ceil(min(need - done, window_rows) * words_per_row * 1.05)
            if len(words) < want:
                fresh = _draw_words(rng, max(_MIN_DRAW_WORDS, want - len(words)))
                words = np.concatenate((words, np.frombuffer(fresh, dtype="<u4")))
            rows, used = _decode_rows(np, words[:want], runs, out[done:])
            done += rows
            short = want - used
            words = words[used:]
        return out

    # A pass decodes at least one minimum draw's worth of rows, so that small
    # batches share its fixed cost; rows decoded ahead wait for the next batch.
    pass_rows = max(count, math.ceil(_MIN_DRAW_WORDS / words_per_row))
    decoded = decode(pass_rows)
    while True:
        if len(decoded) < count:
            decoded = np.concatenate((decoded, decode(pass_rows)))
        yield decoded[:count]
        decoded = decoded[count:]


def _decode_rows(np, words, runs: list[tuple[int, int]], out) -> tuple[int, int]:
    """Decode rows from the start of ``words`` into ``out`` by randrange's rule.

    ``runs`` lists the row's domain sizes as (size, repeats) runs. Returns
    how many rows the words complete, at most ``len(out)``, and how many
    words those rows read.
    """
    n = len(words)
    over = n + 1  # where a row that needs more words than these ends
    accepted = {}
    for v in {v for v, _ in runs}:
        values = words >> (32 - v.bit_length())
        ok = values < v
        kept = ok.nonzero()[0]
        before = np.empty(n + 2, dtype=np.intp)  # before[p]: accepted words in words[:p]
        before[0] = 0
        np.cumsum(ok, out=before[1:n + 1])
        before[n + 1] = len(kept)
        ends = np.append(kept + 1, over)  # ends[i]: one past the i-th accepted word
        accepted[v] = values[kept], before, ends
    # jumps[v, m][p]: where m values of domain v read from word p on end
    jumps = {}
    for v, m in set(runs):
        _, before, ends = accepted[v]
        jumps[v, m] = ends.take(before + (m - 1), mode="clip")
    row_end = jumps[runs[0]]
    for run in runs[1:]:
        row_end = jumps[run].take(row_end)
    # starts[i]: where row i starts; the orbit of word 0 under row_end, by pointer doubling
    starts = np.zeros(1, dtype=np.intp)
    step = row_end
    while len(starts) <= len(out):
        starts = np.concatenate((starts, step.take(starts)))
        if len(starts) <= len(out):
            step = step.take(step)
    rows = int(np.searchsorted(starts[:len(out) + 1], n, side="right")) - 1
    at = starts[:rows]
    col = 0
    for v, m in runs:
        values, before, _ = accepted[v]
        first = before.take(at)  # the run's first value, among v's accepted words
        for j in range(m):
            out[:rows, col + j] = values.take(first + j)
        at = jumps[v, m].take(at)
        col += m
    return rows, int(starts[rows])


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
    decoded and turned into flat positions at once. The decoders draw
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
