"""Tests for the covering-array domain model and verification oracle."""

import itertools
import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cakit.model import (
    DEFAULT_MAX_ELEMENTS,
    CoveringArraySpec,
    TestCase,
    TestSuite,
    read_suite_csv,
    verify_coverage,
    write_suite_csv,
)


def suite_of(spec, rows):
    return TestSuite(spec=spec, rows=tuple(TestCase(tuple(r)) for r in rows))


def exhaustive_rows(spec):
    return list(itertools.product(*(range(v) for v in spec.domains)))


# Rows (a, b, a+b mod 3, a+2b mod 3) for a, b in 0..2 form an OA(9;2,4,3).
OA_9_2_4_3 = [
    (a, b, (a + b) % 3, (a + 2 * b) % 3) for a in range(3) for b in range(3)
]


class TestCoveringArraySpec:
    def test_basic(self):
        spec = CoveringArraySpec(t=2, k=3, domains=(2, 3, 4))
        assert spec.domains == (2, 3, 4)

    @pytest.mark.parametrize(
        "t,k,domains",
        [
            (0, 3, (2, 2, 2)),
            (4, 3, (2, 2, 2)),
            (2, 3, (2, 2)),
            (2, 3, (2, 2, 0)),
            (1, 0, ()),
            (2, 3, (2, 2, 2.5)),
            (2, 3, (2, 2, "3")),
            (2.0, 3, (2, 2, 2)),
            (2, 3.0, (2, 2, 2)),
        ],
    )
    def test_invalid(self, t, k, domains):
        with pytest.raises(ValueError):
            CoveringArraySpec(t=t, k=k, domains=domains)

    def test_integer_like_shape_stored_as_ints(self):
        np = pytest.importorskip("numpy")
        spec = CoveringArraySpec(t=np.int64(2), k=np.int32(3), domains=(np.uint8(4), True, 2))
        assert spec == CoveringArraySpec(t=2, k=3, domains=(4, 1, 2))
        assert all(type(x) is int for x in (spec.t, spec.k, *spec.domains))
        assert spec.to_string() == "t=2;k=3;v=4,1,2"

    def test_uniform(self):
        assert CoveringArraySpec.uniform(2, 10, 10) == CoveringArraySpec.from_string(
            "t=2;k=10;v=10^10"
        )

    @pytest.mark.parametrize(
        "text",
        ["t=2;k=10;v=10^10", "t=3;k=4;v=2,3,4,5", "t=1;k=1;v=7", "t=2;k=4;v=2,3^2,4"],
    )
    def test_string_round_trip(self, text):
        spec = CoveringArraySpec.from_string(text)
        assert CoveringArraySpec.from_string(spec.to_string()) == spec

    def test_mixed_run_expansion(self):
        spec = CoveringArraySpec.from_string("t=2;k=4;v=2,3^2,4")
        assert spec.domains == (2, 3, 3, 4)

    @pytest.mark.parametrize(
        "text",
        [
            "t=2;k=3",
            "k=3;v=2^3",
            "t=x;k=3;v=2^3",
            "t=2;k=3;v=2,2",
            "t=2;k=3;v=2^2,banana",
            "",
            "t=2;k=3;v=2^3;t=3",
            "t=2;k=3;v=2^3;v=2^3",
            "t=2;k=3;v=2^3;x=9",
            "t=2;k=3;v=2^3;",
            "t=2;k=3;v=2^4",
            "t=2;k=3;v=2,2,2,2",
        ],
    )
    def test_unparseable(self, text):
        with pytest.raises(ValueError):
            CoveringArraySpec.from_string(text)

    def test_long_run_refused_before_it_is_expanded(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="expected 3 domain sizes"):
                CoveringArraySpec.from_string("t=2;k=3;v=2^10000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_k_past_the_element_budget_refused_before_any_run_is_expanded(self):
        k = DEFAULT_MAX_ELEMENTS + 1
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"k={k} parameters"):
                CoveringArraySpec.from_string(f"t=1;k={k};v=2^{k}")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestVerifyCoverage:
    def test_oa_9_2_4_3_is_complete(self):
        spec = CoveringArraySpec.uniform(2, 4, 3)
        # Independent check first: brute-force pair coverage of the frozen rows.
        for i, j in itertools.combinations(range(4), 2):
            pairs = {(r[i], r[j]) for r in OA_9_2_4_3}
            assert pairs == set(itertools.product(range(3), range(3)))
        report = verify_coverage(suite_of(spec, OA_9_2_4_3))
        assert report.is_complete
        assert report.covered == report.total == 54  # C(4,2) * 9

    def test_empty_suite(self):
        spec = CoveringArraySpec.uniform(2, 2, 2)
        report = verify_coverage(TestSuite(spec=spec, rows=()))
        assert len(report.missing) == 4
        assert report.covered == 0
        values = {e.values for e in report.missing}
        assert values == {(0, 0), (0, 1), (1, 0), (1, 1)}

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_exhaustive_suite_complete_mixed(self, t):
        spec = CoveringArraySpec(t=t, k=3, domains=(2, 3, 2))
        report = verify_coverage(suite_of(spec, exhaustive_rows(spec)))
        assert report.is_complete

    def test_exhaustive_suite_complete_all_small_shapes(self):
        for k in range(1, 5):
            for v in range(1, 4):
                for t in range(1, k + 1):
                    spec = CoveringArraySpec.uniform(t, k, v)
                    assert verify_coverage(
                        suite_of(spec, exhaustive_rows(spec))
                    ).is_complete, (k, v, t)

    def test_missing_order_deterministic(self):
        spec = CoveringArraySpec.uniform(2, 3, 2)
        report = verify_coverage(suite_of(spec, [(0, 0, 0)]))
        combos = [e.combo for e in report.missing]
        assert all(type(combo) is tuple for combo in combos)
        assert combos == sorted(combos)


small_specs = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.tuples(
        st.integers(min_value=1, max_value=k),
        st.just(k),
        st.lists(st.integers(min_value=1, max_value=3), min_size=k, max_size=k),
    )
).map(lambda tkd: CoveringArraySpec(t=tkd[0], k=tkd[1], domains=tuple(tkd[2])))


@st.composite
def spec_and_rows(draw, max_rows=6):
    spec = draw(small_specs)
    n = draw(st.integers(min_value=0, max_value=max_rows))
    rows = [
        tuple(draw(st.integers(min_value=0, max_value=v - 1)) for v in spec.domains)
        for _ in range(n)
    ]
    return spec, rows


@given(spec_and_rows())
@settings(max_examples=80, deadline=None)
def test_covered_plus_missing_is_total(case):
    spec, rows = case
    report = verify_coverage(suite_of(spec, rows))
    expected_total = sum(
        math.prod(spec.domains[i] for i in combo)
        for combo in itertools.combinations(range(spec.k), spec.t)
    )
    assert report.covered + len(report.missing) == report.total == expected_total


@given(spec_and_rows(max_rows=4))
@settings(max_examples=60, deadline=None)
def test_appending_rows_never_loses_coverage(case):
    spec, rows = case
    missing_counts = [
        len(verify_coverage(suite_of(spec, rows[:n])).missing)
        for n in range(len(rows) + 1)
    ]
    assert missing_counts == sorted(missing_counts, reverse=True)


class TestSuiteCsv:
    def test_round_trip(self, tmp_path):
        spec = CoveringArraySpec.uniform(2, 4, 3)
        suite = suite_of(spec, OA_9_2_4_3)
        path = tmp_path / "suite.csv"
        write_suite_csv(suite, str(path))
        assert read_suite_csv(str(path), spec) == suite
        first = path.read_text().splitlines()[0]
        assert first == "0,0,0,0"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        suite = read_suite_csv(str(path), CoveringArraySpec.uniform(2, 3, 2))
        assert len(suite.rows) == 0

    def test_bad_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,zero,0\n")
        with pytest.raises(ValueError):
            read_suite_csv(str(path), CoveringArraySpec.uniform(2, 3, 2))

    def test_bad_cell_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,0\n\n1,1,1\n1,0,1.5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: non-integer cell$"):
            read_suite_csv(str(path), CoveringArraySpec.uniform(2, 3, 2))

    def test_row_out_of_domain(self, tmp_path):
        path = tmp_path / "oob.csv"
        path.write_text("0,0,5\n")
        with pytest.raises(ValueError):
            read_suite_csv(str(path), CoveringArraySpec.uniform(2, 3, 2))

    def test_first_bad_line_is_named_whatever_its_fault(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,0\n0,0,2\n1,x,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: value 2 of parameter 2 "):
            read_suite_csv(str(path), CoveringArraySpec.uniform(2, 3, 2))


def test_suite_rejects_invalid_rows():
    spec = CoveringArraySpec.uniform(2, 3, 2)
    with pytest.raises(ValueError):
        suite_of(spec, [(0, 0)])
    with pytest.raises(ValueError):
        suite_of(spec, [(0, 0, 2)])
    with pytest.raises(ValueError):
        suite_of(spec, [(0, 0.5, 0)])
