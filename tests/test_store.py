"""Tests for the interaction stores.

FULL_SCAN doubles as the behavioral oracle: the differential tests replay
identical row sequences through all three mechanisms and require identical
answers at every step. Where a single expected number is frozen it was
computed by the brute-force set arithmetic written inline here.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from cakit.model import CoveringArraySpec
from cakit.store import (
    CapacityError,
    StoreCounters,
    StoreMechanism,
    build_store,
    projected_element_count,
)

ALL_MECHS = tuple(StoreMechanism)


def brute_force_elements(spec):
    """Oracle: the full set of (combination, values) pairs of a spec."""
    out = set()
    for combo in itertools.combinations(range(spec.k), spec.t):
        for values in itertools.product(*(range(spec.domains[i]) for i in combo)):
            out.add((combo, values))
    return out


def row_covers(row, element):
    combo, values = element
    return tuple(row[i] for i in combo) == values


class TestBuild:
    def test_total_t2_k10_v10(self):
        spec = CoveringArraySpec.uniform(2, 10, 10)
        for mech in ALL_MECHS:
            assert build_store(spec, mech).remaining() == 4500  # C(10,2) * 100

    def test_four_elements_listed(self):
        spec = CoveringArraySpec(t=2, k=2, domains=(2, 2))
        store = build_store(spec, StoreMechanism.HASH)
        elements = [(e.combo, e.values) for e in store.uncovered_elements()]
        assert elements == [
            ((0, 1), (0, 0)),
            ((0, 1), (0, 1)),
            ((0, 1), (1, 0)),
            ((0, 1), (1, 1)),
        ]

    def test_total_t3_k20_v10(self):
        spec = CoveringArraySpec.uniform(3, 20, 10)
        assert projected_element_count(spec) == 1_140_000  # C(20,3) * 1000
        store = build_store(spec, StoreMechanism.INDEXED)
        assert store.remaining() == 1_140_000

    def test_mixed_domains_match_brute_force(self):
        spec = CoveringArraySpec(t=2, k=4, domains=(2, 3, 1, 4))
        expected = brute_force_elements(spec)
        assert projected_element_count(spec) == len(expected)
        for mech in ALL_MECHS:
            store = build_store(spec, mech)
            got = {(e.combo, e.values) for e in store.uncovered_elements()}
            assert got == expected

    def test_odometer_enumeration_order(self):
        spec = CoveringArraySpec(t=2, k=2, domains=(2, 3))
        store = build_store(spec, StoreMechanism.FULL_SCAN)
        assert [e.values for e in store.uncovered_elements()] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_capacity_error_names_count(self):
        spec = CoveringArraySpec(t=2, k=2, domains=(2, 2))
        with pytest.raises(CapacityError, match="4"):
            build_store(spec, StoreMechanism.HASH, max_elements=3)

    def test_capacity_error_on_combination_count_alone(self):
        spec = CoveringArraySpec.uniform(2, 400, 2)
        with pytest.raises(CapacityError):
            build_store(spec, StoreMechanism.HASH, max_elements=10_000)

    def test_capacity_error_names_exact_count_of_a_wide_mixed_spec(self):
        spec = CoveringArraySpec(t=3, k=300, domains=(2, 3) * 150)
        with pytest.raises(CapacityError, match="would hold 69583000 interaction"):
            build_store(spec, StoreMechanism.HASH)


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8).flatmap(
        lambda domains: st.tuples(st.integers(min_value=1, max_value=len(domains)), st.just(domains))
    )
)
def test_projected_element_count_matches_brute_force(case):
    t, domains = case
    spec = CoveringArraySpec(t=t, k=len(domains), domains=tuple(domains))
    expected = sum(
        math.prod(domains[i] for i in combo)
        for combo in itertools.combinations(range(spec.k), t)
    )
    assert projected_element_count(spec) == expected


class TestQueries:
    @pytest.mark.parametrize("mech", ALL_MECHS)
    def test_fresh_row_covers_45(self, mech):
        spec = CoveringArraySpec.uniform(2, 10, 10)
        store = build_store(spec, mech)
        assert store.coverage_count([3] * 10) == 45
        assert store.remaining() == 4500  # query is read-only

    @pytest.mark.parametrize("mech", ALL_MECHS)
    def test_self_coverage_removed(self, mech):
        spec = CoveringArraySpec.uniform(2, 10, 10)
        store = build_store(spec, mech)
        row = [1, 2, 3, 4, 5, 6, 7, 8, 9, 0]
        assert store.mark_covered(row) == 45
        assert store.coverage_count(row) == 0

    @pytest.mark.parametrize("mech", ALL_MECHS)
    def test_disjoint_rows_t2_k3_v2(self, mech):
        spec = CoveringArraySpec.uniform(2, 3, 2)
        store = build_store(spec, mech)
        store.mark_covered([0, 0, 0])
        assert store.coverage_count([1, 1, 1]) == 3
        assert store.mark_covered([1, 1, 1]) == 3
        assert store.remaining() == 6  # 12 total minus two disjoint rows

    @pytest.mark.parametrize("mech", ALL_MECHS)
    def test_mark_six_pairs_then_idempotent(self, mech):
        spec = CoveringArraySpec.uniform(2, 4, 2)
        store = build_store(spec, mech)
        assert store.mark_covered([0, 0, 0, 0]) == 6  # C(4,2)
        assert store.mark_covered([0, 0, 0, 0]) == 0

    @pytest.mark.parametrize("mech", ALL_MECHS)
    def test_overlapping_rows_t2_k3_v3(self, mech):
        spec = CoveringArraySpec.uniform(2, 3, 3)
        store = build_store(spec, mech)
        store.mark_covered([0, 0, 0])
        # newly covered: (0:0,1:1), (0:0,2:1), (1:1,2:1)
        assert store.mark_covered([0, 1, 1]) == 3

    @pytest.mark.parametrize("mech", ALL_MECHS)
    def test_query_equals_subsequent_mark(self, mech):
        spec = CoveringArraySpec(t=2, k=4, domains=(3, 2, 3, 2))
        store = build_store(spec, mech)
        store.mark_covered([0, 0, 0, 0])
        for row in [(1, 1, 1, 1), (0, 1, 2, 0), (2, 0, 0, 1)]:
            predicted = store.coverage_count(row)
            assert store.mark_covered(row) == predicted

    @pytest.mark.parametrize("mech", ALL_MECHS)
    def test_exhaustive_suite_drains_store(self, mech):
        spec = CoveringArraySpec(t=2, k=3, domains=(2, 3, 2))
        store = build_store(spec, mech)
        for row in itertools.product(*(range(v) for v in spec.domains)):
            store.mark_covered(row)
        assert store.remaining() == 0
        assert list(store.uncovered_elements()) == []

    @pytest.mark.parametrize("mech", ALL_MECHS)
    @pytest.mark.parametrize("row", [(0, 0), (0, 0, 0, 0), (0, 0, 5), (0, 1.0, 0), (0, 0.5, 0),
                                     (0, -1, 0)])
    def test_invalid_row_rejected(self, mech, row):
        spec = CoveringArraySpec.uniform(2, 3, 2)
        store = build_store(spec, mech)
        with pytest.raises(ValueError):
            store.coverage_count(row)

    @pytest.mark.parametrize("mech", ALL_MECHS)
    @pytest.mark.parametrize("row", [(0, 1.0, 0), (0, 0.5, 0), (0, 0, 5)])
    def test_rejected_mark_changes_nothing(self, mech, row):
        spec = CoveringArraySpec.uniform(2, 3, 2)
        store = build_store(spec, mech)
        with pytest.raises(ValueError):
            store.mark_covered(row)
        assert store.remaining() == 12
        assert store.coverage_count((0, 1, 0)) == 3

    @pytest.mark.parametrize("mech", ALL_MECHS)
    def test_bool_and_numpy_integer_values_accepted(self, mech):
        np = pytest.importorskip("numpy")
        # Strides reach 20, so a uint8 value of 19 packs past uint8's range.
        spec = CoveringArraySpec(t=2, k=3, domains=(20, 20, 2))
        store = build_store(spec, mech)
        assert store.coverage_count((np.int64(3), False, True)) == 3
        assert store.mark_covered((np.uint8(19), 19, True)) == 3
        assert store.coverage_count((19, 19, 1)) == 0
        assert store.remaining() == 400 + 40 + 40 - 3


class TestInstrumentation:
    def test_hash_lookups_per_query(self):
        spec = CoveringArraySpec.uniform(2, 10, 10)
        store = build_store(spec, StoreMechanism.HASH)
        before = store.counters.bucket_lookups
        store.coverage_count([0] * 10)
        assert store.counters.bucket_lookups - before == 45
        store.coverage_count([1] * 10)
        assert store.counters.bucket_lookups - before == 90

    @pytest.mark.parametrize("v", [2, 5, 9])
    def test_hash_lookups_independent_of_domain_size(self, v):
        store = build_store(CoveringArraySpec.uniform(2, 6, v), StoreMechanism.HASH)
        store.coverage_count([v - 1] * 6)
        assert store.counters.bucket_lookups == 15  # C(6,2), whatever v is

    def test_full_scan_examines_live_elements(self):
        spec = CoveringArraySpec.uniform(2, 4, 3)
        store = build_store(spec, StoreMechanism.FULL_SCAN)
        before = store.counters.elements_scanned
        store.coverage_count([0, 0, 0, 0])
        assert store.counters.elements_scanned - before == store.remaining()
        store.mark_covered([0, 0, 0, 0])
        before = store.counters.elements_scanned
        store.coverage_count([1, 1, 1, 1])
        assert store.counters.elements_scanned - before == store.remaining()

    def test_exact_cost_models_with_interleaved_marks(self):
        spec = CoveringArraySpec(t=2, k=4, domains=(3, 2, 4, 3))
        combos = list(itertools.combinations(range(spec.k), spec.t))
        rows = [(2, 1, 3, 2), (0, 0, 0, 0), (2, 1, 0, 1), (1, 0, 3, 2), (2, 1, 3, 2), (0, 1, 2, 0)]
        marks = {1, 2, 4}  # positions in rows of the calls that mark; the rest query
        stores = {mech: build_store(spec, mech) for mech in ALL_MECHS}
        expected_scan = {StoreMechanism.INDEXED: 0, StoreMechanism.FULL_SCAN: 0}
        for n, row in enumerate(rows):
            # packed value: first selected parameter has the largest stride
            packed = [row[a] * spec.domains[b] + row[b] for a, b in combos]
            expected_scan[StoreMechanism.INDEXED] += sum(p + 1 for p in packed)
            expected_scan[StoreMechanism.FULL_SCAN] += stores[StoreMechanism.FULL_SCAN].remaining()
            for store in stores.values():
                (store.mark_covered if n in marks else store.coverage_count)(row)
            hash_counters = stores[StoreMechanism.HASH].counters
            assert hash_counters.bucket_lookups == len(combos) * (n + 1)
            assert hash_counters.elements_scanned == 0
            for mech, scanned in expected_scan.items():
                assert stores[mech].counters == StoreCounters(bucket_lookups=0, elements_scanned=scanned)

    def test_indexed_scan_grows_with_values(self):
        small = build_store(CoveringArraySpec.uniform(2, 4, 2), StoreMechanism.INDEXED)
        large = build_store(CoveringArraySpec.uniform(2, 4, 9), StoreMechanism.INDEXED)
        small.coverage_count([1, 1, 1, 1])
        large.coverage_count([8, 8, 8, 8])
        assert large.counters.elements_scanned > small.counters.elements_scanned


mixed_specs = st.integers(min_value=2, max_value=5).flatmap(
    lambda k: st.tuples(
        st.integers(min_value=1, max_value=min(k, 3)),
        st.just(k),
        st.lists(st.integers(min_value=1, max_value=4), min_size=k, max_size=k),
    )
).map(lambda tkd: CoveringArraySpec(t=tkd[0], k=tkd[1], domains=tuple(tkd[2])))


@st.composite
def spec_and_row_sequence(draw):
    spec = draw(mixed_specs)
    n = draw(st.integers(min_value=1, max_value=8))
    rows = [
        tuple(draw(st.integers(min_value=0, max_value=v - 1)) for v in spec.domains)
        for _ in range(n)
    ]
    return spec, rows


@given(spec_and_row_sequence())
@settings(max_examples=60, deadline=None)
def test_mechanisms_observationally_equivalent(case):
    spec, rows = case
    stores = {mech: build_store(spec, mech) for mech in ALL_MECHS}
    oracle = stores[StoreMechanism.FULL_SCAN]
    others = [store for mech, store in stores.items() if mech is not StoreMechanism.FULL_SCAN]
    for i, row in enumerate(rows):
        expected_count = oracle.coverage_count(row)
        act = "mark" if i % 2 else "count"
        for store in others:
            assert store.coverage_count(row) == expected_count
        if act == "mark":
            expected_removed = oracle.mark_covered(row)
            for store in others:
                assert store.mark_covered(row) == expected_removed
        assert len({s.remaining() for s in stores.values()}) == 1
    expected_elements = list(oracle.uncovered_elements())
    for store in others:
        assert list(store.uncovered_elements()) == expected_elements
    assert len(expected_elements) == oracle.remaining()


@given(spec_and_row_sequence())
@settings(max_examples=60, deadline=None)
def test_conservation_and_truth_against_brute_force(case):
    spec, rows = case
    uncovered = brute_force_elements(spec)
    for mech in ALL_MECHS:
        store = build_store(spec, mech)
        assert store.remaining() == len(uncovered)
    stores = [build_store(spec, mech) for mech in ALL_MECHS]
    live = set(uncovered)
    for row in rows:
        newly = {e for e in live if row_covers(row, e)}
        live -= newly
        for store in stores:
            before = store.remaining()
            removed = store.mark_covered(row)
            assert removed == len(newly)
            assert store.remaining() == before - removed == len(live)
