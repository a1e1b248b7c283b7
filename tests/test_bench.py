"""Tests for the benchmark harness and its report formats."""

import csv
import io
import json

import pytest

from cakit.bench import (
    CSV_COLUMNS,
    SearchBenchConfig,
    environment_stamp,
    run_generation_bench,
    run_search_bench,
)
from cakit.combgen import count_combinations
from cakit.model import CoveringArraySpec
from cakit.store import StoreMechanism


def by_subject(report, subject):
    return [r for r in report.records if r.subject == subject]


class TestGenerationBench:
    def test_smoke_case_times_both_generators(self):
        report = run_generation_bench([3], [2], reps=2, warmup=1)
        stack, nbit = by_subject(report, "stack")[0], by_subject(report, "nbit")[0]
        for record in (stack, nbit):
            assert record.status == "ok"
            assert record.count == 3
            assert record.time_min_s > 0
            assert record.time_min_s <= record.time_median_s <= record.time_max_s
        assert stack.reps == nbit.reps == 2

    def test_counts_match_binomials(self):
        report = run_generation_bench([20], [2, 3], reps=1, warmup=0)
        for record in by_subject(report, "stack"):
            assert record.count == count_combinations(record.k, record.t)

    def test_k400_t2_completes_with_positive_time(self):
        report = run_generation_bench([400], [2], reps=1, warmup=0)
        stack = by_subject(report, "stack")[0]
        assert stack.status == "ok"
        assert stack.count == 79800
        assert stack.time_min_s > 0
        nbit = by_subject(report, "nbit")[0]
        assert nbit.status == "skipped"  # far past the mask-walk threshold

    def test_oversized_case_is_skipped_not_failed(self):
        report = run_generation_bench([400], [6], reps=1, warmup=0, budget_s=1.0)
        record = by_subject(report, "stack")[0]
        assert record.status == "skipped"
        assert "budget" in record.note

    def test_nbit_skipped_past_threshold(self):
        report = run_generation_bench([40], [2], reps=1, warmup=0)
        record = by_subject(report, "nbit")[0]
        assert record.status == "skipped"
        assert "n-bit" in record.note
        # the stack generator handled the same case fine
        assert by_subject(report, "stack")[0].status == "ok"

    def test_invalid_case_raises(self):
        with pytest.raises(ValueError):
            run_generation_bench([3], [5], reps=1)

    def test_no_nbit_flag(self):
        report = run_generation_bench([5], [2], reps=1, warmup=0, include_nbit=False)
        assert not by_subject(report, "nbit")

    @pytest.mark.parametrize("name, value", [("warmup", -2), ("budget_s", 0.0), ("budget_s", -1.0)])
    def test_negative_warmup_or_budget_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            run_generation_bench([5], [2], reps=1, **{name: value})


class TestSearchBench:
    def test_smoke_three_mechanisms(self):
        spec = CoveringArraySpec(t=2, k=2, domains=(2, 2))
        report = run_search_bench(
            spec, reps=1,
            config=SearchBenchConfig(candidates_per_row=4, max_rows=6, warmup_queries=0),
        )
        assert [r.subject for r in report.records] == ["hash", "indexed", "full"]
        for record in report.records:
            assert record.status == "ok"
            assert record.count == 4
            assert record.queries >= 4
            assert record.time_min_s > 0
            assert record.build_s > 0

    def test_counter_sanity(self):
        spec = CoveringArraySpec.uniform(2, 5, 3)
        cfg = SearchBenchConfig(candidates_per_row=5, max_rows=3, warmup_queries=0)
        # every query and every mark does C(k,t) bucket lookups, in every repetition
        per_call = count_combinations(5, 2)
        for reps in (1, 3):
            report = run_search_bench(spec, [StoreMechanism.HASH], reps=reps, config=cfg)
            record = report.records[0]
            assert record.bucket_lookups % per_call == 0
            assert record.bucket_lookups >= record.queries * per_call

    def test_capacity_error_recorded_per_mechanism(self):
        spec = CoveringArraySpec.uniform(3, 60, 10)  # 34,220,000 elements
        report = run_search_bench(spec)
        for record in report.records:
            assert record.status == "error"
            assert "budget" in record.note

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup_queries"):
            SearchBenchConfig(warmup_queries=-1)

    def test_all_queries_discarded_is_an_error(self):
        spec = CoveringArraySpec.uniform(2, 4, 3)
        report = run_search_bench(spec, config=SearchBenchConfig(warmup_queries=1000))
        assert len(report.records) == 3
        for record in report.records:
            assert (record.status, record.reps, record.queries) == ("error", 0, 0)
            assert record.time_median_s is None
            assert "queries issued were discarded as warmup (1000 per repetition)" in record.note

    def test_repetition_stability(self):
        spec = CoveringArraySpec.uniform(2, 4, 3)
        cfg = SearchBenchConfig(candidates_per_row=10, max_rows=10, warmup_queries=3)
        medians = []
        for _ in range(2):
            report = run_search_bench(spec, [StoreMechanism.HASH], config=cfg)
            medians.append(report.records[0].time_median_s)
        ratio = max(medians) / min(medians)
        assert ratio < 5.0


class TestReports:
    def _any_report(self):
        report = run_generation_bench([4, 40], [2], reps=1, warmup=0)
        spec = CoveringArraySpec(t=2, k=3, domains=(2, 2, 2))
        search = run_search_bench(
            spec, config=SearchBenchConfig(candidates_per_row=3, max_rows=4, warmup_queries=0)
        )
        report.records.extend(search.records)
        return report

    def test_json_schema_valid(self):
        report = self._any_report()
        payload = json.loads(report.to_json())
        assert list(payload) == ["environment", "records"]
        assert len(payload["records"]) == len(report.records)
        for record in payload["records"]:
            assert list(record) == CSV_COLUMNS
            # the values the README's report layout documents
            assert record["kind"] in {"generation", "search"}
            assert record["subject"] in {"stack", "nbit", "hash", "indexed", "full"}
            assert record["status"] in {"ok", "skipped", "error"}

    def test_environment_stamp_fields(self):
        stamp = environment_stamp()
        assert set(stamp) == {"os", "cpu", "python", "timestamp"}
        assert all(isinstance(v, str) and v for v in stamp.values())

    def test_csv_has_header_and_one_line_per_record(self):
        report = self._any_report()
        text = report.to_csv()
        assert text.partition("\n")[0] == (
            "kind,subject,status,k,t,v,reps,count,time_min_s,time_median_s,time_max_s,"
            "build_s,rows_built,queries,bucket_lookups,elements_scanned,note"
        )
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(report.records)
        assert list(rows[0]) == CSV_COLUMNS

    def test_write_files(self, tmp_path):
        report = self._any_report()
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        report.write_json(str(jpath))
        report.write_csv(str(cpath))
        assert jpath.read_text() == report.to_json()
        assert cpath.read_text().startswith("kind,")

    def test_times_strictly_positive(self):
        report = self._any_report()
        for record in report.records:
            if record.status == "ok" and record.time_min_s is not None:
                assert record.time_min_s > 0
