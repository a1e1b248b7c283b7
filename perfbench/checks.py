"""Output checks that do not rely on the code they check.

Nothing here imports cakit: specs are expanded, suites parsed and coverage
counted by brute force with ``itertools``. The store cost models restate the
documented packing (mixed radix, first value with the largest stride).
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter


def spec_domains(spec: str) -> tuple[int, list[int]]:
    """Expand ``t=<t>;k=<k>;v=<terms>`` into (t, domains); ``x^n`` repeats x n times."""
    fields = dict(part.split("=", 1) for part in spec.split(";"))
    domains: list[int] = []
    for term in fields["v"].split(","):
        value, _, times = term.partition("^")
        domains.extend([int(value)] * int(times or 1))
    if len(domains) != int(fields["k"]):
        raise ValueError(f"spec {spec!r} lists {len(domains)} domains for k={fields['k']}")
    return int(fields["t"]), domains


def read_rows(path: str) -> list[tuple[int, ...]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(int(x) for x in line.split(",")) for line in fh if line.strip()]


def missing_elements(rows: list[tuple[int, ...]], t: int, domains: list[int]) -> int:
    """Interaction elements of strength t that no row covers; rows must be valid."""
    k = len(domains)
    for row in rows:
        if len(row) != k or any(not 0 <= x < v for x, v in zip(row, domains)):
            raise ValueError(f"invalid row {row}")
    missing = 0
    for combo in itertools.combinations(range(k), t):
        seen = set(map(itemgetter(*combo), rows))
        missing += math.prod(domains[i] for i in combo) - len(seen)
    return missing


def element_count(t: int, domains: list[int]) -> int:
    return sum(math.prod(domains[i] for i in c)
               for c in itertools.combinations(range(len(domains)), t))


def _projections(t: int, domains: list[int]) -> list[list[tuple[int, int]]]:
    out = []
    for combo in itertools.combinations(range(len(domains)), t):
        stride, pairs = 1, []
        for i in reversed(combo):
            pairs.append((i, stride))
            stride *= domains[i]
        out.append(pairs)
    return out


def expected_counters(mechanism: str, probe, t: int, domains: list[int]) -> int:
    """The counter a store should show after the calls a StoreProbe recorded.

    hash: one bucket lookup per combination per call.
    indexed: cells walked by the linear slice search, packed value + 1 per combination.
    full: live elements at the time of each call.
    """
    calls = len(probe.query_rows) + len(probe.mark_rows)
    if mechanism == "hash":
        return math.comb(len(domains), t) * calls
    if mechanism == "indexed":
        projections = _projections(t, domains)
        total = 0
        for row in itertools.chain(probe.query_rows, probe.mark_rows):
            for pairs in projections:
                total += 1 + sum(row[i] * stride for i, stride in pairs)
        return total
    live = probe.initial_remaining
    total = 0
    marks = iter(probe.mark_results)
    for is_query in probe.sequence:
        total += live
        if not is_query:
            live -= next(marks)
    return total
