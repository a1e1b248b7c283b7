"""Tests for the greedy's block path: flat positions, gathers and position marks.

The block path gathers the tombstones at ``base + packed`` for a block of
candidates and marks its winners from their flat positions. A greedy that
scores every candidate with HASH's one-row ``coverage_count`` is the
reference for its suites, and the one-row ``mark_covered`` the reference
for its marks.
"""

import json
import math
import sys
import tracemalloc
from itertools import chain, combinations, pairwise

import pytest
from hypothesis import given, settings, strategies as st

import cakit.greedy as greedy_module
import cakit.store as store_module
from cakit.cli import main
from cakit.greedy import GreedyConfig, IncompleteCoverageError, generate_ca, run_greedy
from cakit.model import CoveringArraySpec
from cakit.store import InteractionStore, StoreCounters, StoreMechanism, build_store

ALL_MECHS = tuple(StoreMechanism)


def _numpy_importable() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


# The position mark and the greedy's block path exist only where numpy imports.
needs_numpy = pytest.mark.skipif(not _numpy_importable(), reason="numpy is not importable")


mixed_specs = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.tuples(
        st.integers(min_value=1, max_value=min(k, 4)),
        st.just(k),
        st.lists(st.integers(min_value=1, max_value=4), min_size=k, max_size=k),
    )
).map(lambda tkd: CoveringArraySpec(t=tkd[0], k=tkd[1], domains=tuple(tkd[2])))


class _CountingProxy:
    """Times nothing but counts one-row queries; forwards every other attribute.

    Forwarding through ``__getattr__``, as the benchmark's trace proxy does,
    hands the proxy the store's block-path helpers too, so only a type check
    keeps the greedy asking it row by row. ``forwarded`` names every
    attribute read through the forward.
    """

    def __init__(self, store):
        self._store = store
        self.queries = 0
        self.queries_at_mark: list[int] = []
        self.forwarded: set[str] = set()

    def __getattr__(self, name):
        self.forwarded.add(name)
        return getattr(self._store, name)

    def coverage_count(self, row):
        self.queries += 1
        return self._store.coverage_count(row)

    def mark_covered(self, row):
        self.queries_at_mark.append(self.queries)
        return self._store.mark_covered(row)


def _per_row_suite(spec, mech, config):
    """The suite a greedy builds when it scores every candidate with ``coverage_count``."""
    return run_greedy(_CountingProxy(build_store(spec, mech)), config).rows


@pytest.mark.parametrize("spec_text, candidates", [
    ("t=3;k=10;v=5^10", 50),
    ("t=2;k=4;v=2,2,60,60", 10),
    ("t=2;k=6;v=2,3,4,5,1,3", 7),
    ("t=1;k=3;v=4,2,3", 3),
    ("t=2;k=8;v=2,3,4,5,6,7,8,9", 10),
])
@pytest.mark.parametrize("seed", [1, 2])
def test_suites_identical_to_hash(spec_text, candidates, seed):
    # Every mechanism's batch-scored suite equals HASH scored one row at a time.
    spec = CoveringArraySpec.from_string(spec_text)
    config = GreedyConfig(candidates_per_row=candidates, rng_seed=seed)
    expected = _per_row_suite(spec, StoreMechanism.HASH, config)
    for mech in ALL_MECHS:
        assert generate_ca(spec, mech, config).rows == expected


@pytest.mark.parametrize("mech", ALL_MECHS)
def test_one_row_queries_through_a_proxy(mech):
    spec = CoveringArraySpec.uniform(3, 6, 4)
    config = GreedyConfig(candidates_per_row=7, rng_seed=3, max_rows=5)
    proxy = _CountingProxy(build_store(spec, mech))
    assert callable(proxy._positions)  # forwarded, yet it must go unused
    proxy.forwarded.clear()
    with pytest.raises(IncompleteCoverageError) as excinfo:
        run_greedy(proxy, config)
    assert "_positions" not in proxy.forwarded
    assert proxy.queries == config.candidates_per_row * config.max_rows
    assert [n % config.candidates_per_row for n in proxy.queries_at_mark] == [0] * 5
    with pytest.raises(IncompleteCoverageError) as batch_run:
        run_greedy(build_store(spec, mech), config)
    assert excinfo.value.partial_suite.rows == batch_run.value.partial_suite.rows


def _mark_by_positions(store, row):
    """The greedy block path's mark: the row's flat positions, then one position mark."""
    np = store._tables()[0]
    return store._mark_positions(store._positions(np.array([row], dtype=np.intp))[0])


def _assert_consistent(store):
    """``remaining()`` counts the live tombstones; synced HASH buckets hold exactly the live packed values."""
    alive = store._alive
    assert store.remaining() == sum(alive)
    if isinstance(store, store_module._HashStore):
        if store._stale:  # position marks leave the buckets to the next one-row call
            store._sync_buckets()
        for combo, (start, end) in zip(store._combos, pairwise(store._bases)):
            assert store._buckets[combo] == {pos - start for pos in range(start, end) if alive[pos]}


@st.composite
def spec_and_marks(draw):
    """A spec and a few (row, mark it by positions?) steps."""
    spec = draw(mixed_specs)
    row = st.tuples(*(st.integers(min_value=0, max_value=v - 1) for v in spec.domains))
    return spec, draw(st.lists(st.tuples(row, st.booleans()), min_size=1, max_size=8))


@needs_numpy
@given(spec_and_marks())
@settings(max_examples=80, deadline=None)
def test_position_marks_agree_with_one_row_marks(case):
    spec, steps = case
    for mech in ALL_MECHS:
        reference = build_store(spec, mech)
        store = build_store(spec, mech)
        for row, by_positions in steps:
            expected = reference.mark_covered(row)
            assert (_mark_by_positions(store, row) if by_positions else store.mark_covered(row)) == expected
            assert store.remaining() == reference.remaining()
            _assert_consistent(store)
        assert list(store.uncovered_elements()) == list(reference.uncovered_elements())
        assert [store.coverage_count(row) for row, _ in steps] == [0] * len(steps)


@needs_numpy
@pytest.mark.parametrize("mech", ALL_MECHS)
def test_capped_block_run_leaves_the_store_consistent(mech):
    spec = CoveringArraySpec.from_string("t=3;k=6;v=2,3,4,5,6,7")
    config = GreedyConfig(candidates_per_row=20, rng_seed=1, max_rows=40)
    store = build_store(spec, mech)
    with pytest.raises(IncompleteCoverageError) as block_run:
        run_greedy(store, config)
    _assert_consistent(store)
    assert block_run.value.remaining == store.remaining() > 0
    # block gathers and position marks charge no counter
    assert (store.counters.bucket_lookups, store.counters.elements_scanned) == (0, 0)
    proxy = _CountingProxy(build_store(spec, mech))
    with pytest.raises(IncompleteCoverageError) as one_row_run:
        run_greedy(proxy, config)
    assert block_run.value.partial_suite.rows == one_row_run.value.partial_suite.rows
    assert list(store.uncovered_elements()) == list(proxy._store.uncovered_elements())


def test_hash_buckets_are_built_with_the_store():
    # Eager, so that building a store (perfbench's setup_s) keeps measuring the same work.
    spec = CoveringArraySpec(t=2, k=4, domains=(2, 3, 4, 3))
    store = build_store(spec, StoreMechanism.HASH)
    assert not store._stale
    assert store._buckets == {
        combo: set(range(math.prod(spec.domains[i] for i in combo)))
        for combo in combinations(range(spec.k), spec.t)
    }


@needs_numpy
@pytest.mark.parametrize("first", [0, 1], ids=["mark_first", "query_first"])
def test_one_row_calls_after_a_block_run_answer_as_indexed(first):
    spec = CoveringArraySpec.from_string("t=3;k=6;v=2,3,4,5,6,7")
    config = GreedyConfig(candidates_per_row=20, rng_seed=2, max_rows=40)
    hashed = build_store(spec, StoreMechanism.HASH)
    indexed = build_store(spec, StoreMechanism.INDEXED)
    for store in (hashed, indexed):
        with pytest.raises(IncompleteCoverageError):
            run_greedy(store, config)
    assert hashed._stale  # the block path marked by positions only
    assert hashed.counters == StoreCounters(bucket_lookups=0, elements_scanned=0)
    combos = math.comb(spec.k, spec.t)
    rows = [tuple((i * 5 + j * 3) % v for j, v in enumerate(spec.domains)) for i in range(12)]
    answers = []
    for n, row in enumerate(rows):
        call = "mark_covered" if n % 3 == first else "coverage_count"
        answers.append(getattr(hashed, call)(row))
        assert answers[-1] == getattr(indexed, call)(row)
        # the sync charges nothing: one lookup per combination per call, as ever
        assert hashed.counters == StoreCounters(bucket_lookups=combos * (n + 1), elements_scanned=0)
    assert any(answers)
    assert hashed.remaining() == indexed.remaining()
    assert list(hashed.uncovered_elements()) == list(indexed.uncovered_elements())
    _assert_consistent(hashed)


# (t, k) shapes on each side of store._product_wins
_PRODUCT_SHAPES = [(2, 2), (2, 9), (2, 32), (3, 3), (3, 12), (3, 25), (4, 18)]
_SLOT_SHAPES = [(1, 1), (1, 9), (1, 40), (2, 33), (3, 26), (4, 19)]


@needs_numpy
@pytest.mark.parametrize("shapes, by_product", [(_PRODUCT_SHAPES, True), (_SLOT_SHAPES, False)],
                         ids=["product", "slots"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_positions_are_base_plus_packed_on_both_sides_of_the_product_rule(shapes, by_product, data):
    t, k = data.draw(st.sampled_from(shapes))
    domains = data.draw(st.lists(st.integers(min_value=1, max_value=2 if k > 12 else 5),
                                 min_size=k, max_size=k))
    spec = CoveringArraySpec(t=t, k=k, domains=tuple(domains))
    row = st.tuples(*(st.integers(min_value=0, max_value=v - 1) for v in domains))
    rows = data.draw(st.lists(row, min_size=1, max_size=6))
    store = build_store(spec, StoreMechanism.HASH)
    store.mark_covered(rows[0])
    np, alive, *_, weights, slots = store._tables()
    # one set of position tables, the one the rule picks
    assert (weights is not None, slots is not None) == (by_product, not by_product)
    positions = store._positions(np.array(rows, dtype=np.intp))
    assert positions.dtype == np.intp
    expected = [[base + p for base, p in zip(store._bases, store._pack(r))] for r in rows]
    assert positions.tolist() == expected
    assert alive[positions].sum(axis=1).tolist() == [store.coverage_count(r) for r in rows]


@needs_numpy
def test_position_tables_are_built_without_a_temporary_copy():
    # The (C, t, 2) projection table, then the per-slot tables kept from it,
    # each allocated once: converting the nested projection tuples with
    # np.array peaks at four times the projection table.
    spec = CoveringArraySpec.uniform(2, 200, 2)  # 19,900 combinations
    store = build_store(spec, StoreMechanism.INDEXED)
    tracemalloc.start()
    try:
        np, *_, bases, _, (last_params, others) = store._tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    projection = math.comb(spec.k, spec.t) * spec.t * 2 * np.dtype(np.intp).itemsize
    kept = sum(a.nbytes for a in (bases, last_params, *chain(*others)))
    assert peak < 1.5 * (projection + kept)


@needs_numpy
@pytest.mark.parametrize("spec_text, candidates", [
    ("t=3;k=7;v=2,3,4,2,3,4,2", 9),  # C(7,3) = 35 combinations per row
    ("t=4;k=6;v=2,3,4,2,3,2", 5),  # C(6,4) = 15
])
@pytest.mark.parametrize("entries", [
    lambda c, n: 1,
    lambda c, n: 7,
    lambda c, n: c - 1,
    lambda c, n: 2 * c + 1,  # two rows a chunk, and one in the last
    lambda c, n: n * c - 1,
    lambda c, n: n * c,  # the first bound that is not oversized
], ids=["1", "7", "C-1", "2C+1", "nC-1", "nC"])
def test_oversized_iterations_are_scored_in_row_chunks(monkeypatch, spec_text, candidates, entries):
    # An iteration of n candidates needs n*C entries; past the bound it is
    # scored a few rows at a time and its winner's positions recomputed.
    spec = CoveringArraySpec.from_string(spec_text)
    config = GreedyConfig(candidates_per_row=candidates, rng_seed=5)
    expected = _per_row_suite(spec, StoreMechanism.HASH, config)
    combos = math.comb(spec.k, spec.t)
    bound = entries(combos, candidates)
    monkeypatch.setattr(greedy_module, "_GATHER_CHUNK_ENTRIES", bound)
    widest = []
    positions = InteractionStore._positions

    def recording_positions(self, batch):
        out = positions(self, batch)
        widest.append(max(batch.size, out.size))
        return out

    monkeypatch.setattr(InteractionStore, "_positions", recording_positions)
    for mech in ALL_MECHS:
        assert generate_ca(spec, mech, config).rows == expected
    assert max(widest) <= max(bound, combos)


class TestWithoutNumpy:
    def test_cli_default_falls_back_to_hash(self, monkeypatch, capsys, tmp_path):
        spec = "t=3;k=10;v=5^10"
        with_numpy = tmp_path / "with.csv"
        assert main(["generate-ca", "--spec", spec, "--seed", "4", "--out", str(with_numpy)]) == 0
        monkeypatch.setitem(sys.modules, "numpy", None)
        out = tmp_path / "suite.csv"
        assert main(["generate-ca", "--spec", spec, "--seed", "4", "--out", str(out)]) == 0
        assert json.loads((tmp_path / "suite.csv.meta.json").read_text())["mechanism"] == "hash"
        assert out.read_text() == with_numpy.read_text()
        assert main(["verify-ca", "--spec", spec, "--suite", str(out)]) == 0

    def test_cli_direct_is_a_usage_error(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setitem(sys.modules, "numpy", None)
        code = main(["generate-ca", "--spec", "t=2;k=3;v=2^3", "--mech", "direct",
                     "--out", str(tmp_path / "suite.csv")])
        assert code == 2
        assert "invalid choice: 'direct'" in capsys.readouterr().err
