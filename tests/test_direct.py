"""Tests for the DIRECT store's batch query and the greedy's use of it.

HASH is the reference: every batch answer must equal HASH's one-row
``coverage_count`` at the same store state.
"""

import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cakit.store as store_module
from cakit.cli import main
from cakit.greedy import GreedyConfig, IncompleteCoverageError, generate_ca, run_greedy
from cakit.model import CoveringArraySpec, TestCase
from cakit.store import StoreMechanism, build_store

DIRECT = StoreMechanism.DIRECT


mixed_specs = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.tuples(
        st.integers(min_value=1, max_value=min(k, 4)),
        st.just(k),
        st.lists(st.integers(min_value=1, max_value=4), min_size=k, max_size=k),
    )
).map(lambda tkd: CoveringArraySpec(t=tkd[0], k=tkd[1], domains=tuple(tkd[2])))


@st.composite
def spec_and_batches(draw):
    """A spec and a few (batch of rows, row to mark after it) steps."""
    spec = draw(mixed_specs)
    row = st.tuples(*(st.integers(min_value=0, max_value=v - 1) for v in spec.domains))
    steps = draw(st.lists(st.tuples(st.lists(row, max_size=12), row), min_size=1, max_size=5))
    return spec, steps


@given(spec_and_batches(), st.integers(min_value=1, max_value=40))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_batch_counts_match_hash_with_interleaved_marks(monkeypatch, case, chunk_entries):
    # A small chunk bound makes most batches span several row chunks.
    monkeypatch.setattr(store_module, "_DIRECT_CHUNK_ENTRIES", chunk_entries)
    spec, steps = case
    hash_store = build_store(spec, StoreMechanism.HASH)
    direct = build_store(spec, DIRECT)
    for batch, marked in steps:
        assert direct.coverage_counts(batch) == [hash_store.coverage_count(r) for r in batch]
        assert direct.mark_covered(marked) == hash_store.mark_covered(marked)
        assert direct.remaining() == hash_store.remaining()
    assert list(direct.uncovered_elements()) == list(hash_store.uncovered_elements())


def test_batch_crossing_chunks_on_a_t4_spec(monkeypatch):
    spec = CoveringArraySpec(t=4, k=6, domains=(2, 3, 4, 2, 3, 4))
    rows = [tuple((i * 7 + j * 3) % v for j, v in enumerate(spec.domains)) for i in range(25)]
    hash_store = build_store(spec, StoreMechanism.HASH)
    hash_store.mark_covered(rows[3])
    expected = [hash_store.coverage_count(r) for r in rows]
    for entries in (1, 15, 16, 31, 1 << 20):  # C(6,4) = 15 combinations per row
        monkeypatch.setattr(store_module, "_DIRECT_CHUNK_ENTRIES", entries)
        direct = build_store(spec, DIRECT)
        direct.mark_covered(rows[3])
        assert direct.coverage_counts(rows) == expected


def test_accepts_test_cases_and_empty_batch():
    direct = build_store(CoveringArraySpec.uniform(2, 3, 2), DIRECT)
    assert direct.coverage_counts([]) == []
    assert direct.coverage_counts([TestCase((0, 0, 0)), [1, 1, 1]]) == [3, 3]
    assert direct.coverage_count((0, 1, 0)) == 3


@pytest.mark.parametrize("bad", [(0, 0), (0, 0, 0, 0), (0, 0, 2), (0, -1, 0), (0, 0, 1.0)],
                         ids=["short", "long", "too_big", "negative", "float"])
def test_batch_validation(bad):
    direct = build_store(CoveringArraySpec.uniform(2, 3, 2), DIRECT)
    with pytest.raises(ValueError):
        direct.coverage_counts([(0, 0, 0), bad, (1, 1, 1)])
    with pytest.raises(ValueError):
        direct.coverage_count(bad)


def test_keeps_zero_counters():
    direct = build_store(CoveringArraySpec.uniform(2, 4, 3), DIRECT)
    direct.coverage_counts([(0, 1, 2, 0)] * 5)
    direct.mark_covered((0, 1, 2, 0))
    assert (direct.counters.bucket_lookups, direct.counters.elements_scanned) == (0, 0)


@pytest.mark.parametrize("spec_text, candidates", [
    ("t=3;k=10;v=5^10", 50),
    ("t=2;k=4;v=2,2,60,60", 10),
    ("t=2;k=6;v=2,3,4,5,1,3", 7),
    ("t=1;k=3;v=4,2,3", 3),
])
@pytest.mark.parametrize("seed", [1, 2])
def test_suites_identical_to_hash(spec_text, candidates, seed):
    spec = CoveringArraySpec.from_string(spec_text)
    config = GreedyConfig(candidates_per_row=candidates, rng_seed=seed)
    assert generate_ca(spec, DIRECT, config).rows == generate_ca(spec, StoreMechanism.HASH, config).rows


class _CountingProxy:
    """Exposes only the one-row query, like the benchmark's timing proxies."""

    def __init__(self, store):
        self._store = store
        self.spec = store.spec
        self.queries = 0
        self.queries_at_mark: list[int] = []

    def coverage_count(self, row):
        self.queries += 1
        return self._store.coverage_count(row)

    def mark_covered(self, row):
        self.queries_at_mark.append(self.queries)
        return self._store.mark_covered(row)

    def remaining(self):
        return self._store.remaining()


@pytest.mark.parametrize("mech", [StoreMechanism.HASH, DIRECT])
def test_one_row_queries_through_a_proxy(mech):
    spec = CoveringArraySpec.uniform(3, 6, 4)
    config = GreedyConfig(candidates_per_row=7, rng_seed=3, max_rows=5)
    proxy = _CountingProxy(build_store(spec, mech))
    with pytest.raises(IncompleteCoverageError) as excinfo:
        run_greedy(proxy, config)
    # The proxy has no coverage_counts, so every candidate is one call.
    assert proxy.queries == config.candidates_per_row * config.max_rows
    assert [n % config.candidates_per_row for n in proxy.queries_at_mark] == [0] * 5
    with pytest.raises(IncompleteCoverageError) as direct_run:
        run_greedy(build_store(spec, DIRECT), config)
    assert excinfo.value.partial_suite.rows == direct_run.value.partial_suite.rows


class TestWithoutNumpy:
    def test_build_raises_naming_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ImportError, match="numpy"):
            build_store(CoveringArraySpec.uniform(2, 3, 2), DIRECT)

    def test_cli_default_falls_back_to_hash(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setitem(sys.modules, "numpy", None)
        out = tmp_path / "suite.csv"
        assert main(["generate-ca", "--spec", "t=2;k=3;v=2^3", "--out", str(out)]) == 0
        assert json.loads((tmp_path / "suite.csv.meta.json").read_text())["mechanism"] == "hash"

    def test_cli_direct_is_a_usage_error(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setitem(sys.modules, "numpy", None)
        code = main(["generate-ca", "--spec", "t=2;k=3;v=2^3", "--mech", "direct",
                     "--out", str(tmp_path / "suite.csv")])
        assert code == 2
        assert "numpy" in capsys.readouterr().err
