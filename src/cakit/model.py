"""Domain model for covering arrays: specs, interaction elements, rows, suites.

Also houses the coverage-verification oracle and the two on-disk formats
(suite CSV, compact spec string). Values are 0-based integers throughout;
mapping to symbolic values is somebody else's job.

``verify_coverage`` deliberately enumerates interaction elements with
``itertools`` rather than reusing the generators in :mod:`cakit.combgen`,
so it stays an independent check on everything built on top of them.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import Sequence

_RUN_TERM = re.compile(r"^(\d+)\^(\d+)$")

#: Default ceiling on the number of interaction elements a store may hold.
#: Roughly 1 GiB of worst-case layout; raise it explicitly for bigger runs.
DEFAULT_MAX_ELEMENTS = 10_000_000


@dataclass(frozen=True)
class CoveringArraySpec:
    """Shape of a covering array: strength t, k parameters, per-parameter domain sizes."""

    t: int
    k: int
    domains: tuple[int, ...]

    def __post_init__(self) -> None:
        # integers by operator.index, as in validate_row, stored as plain ints
        try:
            t, k = operator.index(self.t), operator.index(self.k)
            domains = tuple(map(operator.index, self.domains))
        except TypeError:
            raise ValueError(
                f"t, k and domain sizes must be integers, got t={self.t!r}, k={self.k!r}, "
                f"domains={self.domains!r}"
            ) from None
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "domains", domains)
        if self.t < 1 or self.k < 1 or self.t > self.k:
            raise ValueError(f"need 1 <= t <= k, got t={self.t}, k={self.k}")
        if len(self.domains) != self.k:
            raise ValueError(
                f"expected {self.k} domain sizes, got {len(self.domains)}"
            )
        for i, v in enumerate(self.domains):
            if v < 1:
                raise ValueError(f"domain size of parameter {i} must be >= 1, got {v}")

    @classmethod
    def uniform(cls, t: int, k: int, v: int) -> "CoveringArraySpec":
        return cls(t=t, k=k, domains=(v,) * k)

    @classmethod
    def from_string(cls, text: str) -> "CoveringArraySpec":
        """Parse the compact form ``t=<t>;k=<k>;v=<v1>,<v2>,...``.

        A value term ``x^n`` stands for n repetitions of x, so
        ``t=2;k=10;v=10^10`` is ten parameters with ten values each. Each
        field appears once; any other field is an error.

        A k above :data:`DEFAULT_MAX_ELEMENTS` is refused before any run is
        expanded. This parser limit stays when a store's ``max_elements`` is
        raised; build such a spec with the constructor.
        """
        fields: dict[str, str] = {}
        for part in text.strip().split(";"):
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq:
                raise ValueError(f"malformed spec string field {part!r}")
            if key not in ("t", "k", "v"):
                raise ValueError(f"unknown spec string field {key!r}")
            if key in fields:
                raise ValueError(f"repeated spec string field {key!r}")
            fields[key] = value.strip()
        missing = {"t", "k", "v"} - fields.keys()
        if missing:
            raise ValueError(f"spec string missing field(s): {sorted(missing)}")
        try:
            t = int(fields["t"])
            k = int(fields["k"])
        except ValueError as exc:
            raise ValueError(f"non-integer t or k in spec string {text!r}") from exc
        # With t < k there are at least k combinations of at least one element
        # each, so no store of more parameters fits the default budget.
        if k > DEFAULT_MAX_ELEMENTS:
            raise ValueError(f"k={k} parameters exceed the element budget of {DEFAULT_MAX_ELEMENTS}")
        domains: list[int] = []
        for term in fields["v"].split(","):
            term = term.strip()
            run = _RUN_TERM.match(term)
            if run:
                value, n = int(run.group(1)), int(run.group(2))
            elif term.isdigit():
                value, n = int(term), 1
            else:
                raise ValueError(f"malformed domain term {term!r} in spec string")
            if len(domains) + n > k:  # refused before a long run is expanded
                raise ValueError(f"expected {k} domain sizes, got at least {len(domains) + n}")
            domains.extend([value] * n)
        return cls(t=t, k=k, domains=tuple(domains))

    def to_string(self) -> str:
        """Compact string form; uses the ``x^n`` shorthand for uniform domains."""
        if self.k > 1 and len(set(self.domains)) == 1:
            v = f"{self.domains[0]}^{self.k}"
        else:
            v = ",".join(str(d) for d in self.domains)
        return f"t={self.t};k={self.k};v={v}"

    def validate_row(self, assignment: Sequence[int]) -> tuple[int, ...]:
        """The row as a tuple of ints; ``ValueError`` unless it is k integers inside their domains.

        An integer is what :func:`operator.index` accepts: ints, bools and numpy integers, not 1.0.
        """
        if len(assignment) != self.k:
            raise ValueError(f"test case has {len(assignment)} values, spec has k={self.k}")
        for x, v in zip(assignment, self.domains):
            if type(x) is not int or not 0 <= x < v:
                break
        else:  # the common row of plain in-domain ints
            return tuple(assignment)
        row = []
        for i, (x, v) in enumerate(zip(assignment, self.domains)):
            try:
                x = operator.index(x)
            except TypeError:
                raise ValueError(f"value {x!r} of parameter {i} is not an integer") from None
            if not 0 <= x < v:
                raise ValueError(f"value {x} of parameter {i} outside its domain 0..{v - 1}")
            row.append(x)
        return tuple(row)


@dataclass(frozen=True)
class InteractionElement:
    """A combination's parameter indices, increasing, plus one value per selected parameter."""

    combo: tuple[int, ...]
    values: tuple[int, ...]


@dataclass(frozen=True)
class TestCase:
    """One value assignment per parameter (a covering-array row)."""

    __test__ = False  # not a pytest class, despite the name

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(self.assignment))


@dataclass(frozen=True)
class TestSuite:
    """A spec plus N rows, each valid against the spec."""

    __test__ = False  # not a pytest class, despite the name

    spec: CoveringArraySpec
    rows: tuple[TestCase, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            self.spec.validate_row(row.assignment)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a coverage check: totals plus the exact list of missing elements."""

    total: int
    covered: int
    missing: tuple[InteractionElement, ...]

    @property
    def is_complete(self) -> bool:
        return not self.missing


def verify_coverage(suite: TestSuite) -> VerificationReport:
    """Check that every interaction element occurs in at least one row.

    Missing elements are reported in deterministic order: combinations
    lexicographic, value tuples in odometer order (last value fastest).
    """
    spec = suite.spec
    domains = spec.domains
    total = 0
    covered = 0
    missing: list[InteractionElement] = []
    # Column i holds parameter i's value in every row; with no rows, every
    # column is empty.
    columns = list(zip(*(row.assignment for row in suite.rows))) or [()] * spec.k
    for indices in itertools.combinations(range(spec.k), spec.t):
        prod = 1
        for i in indices:
            prod *= domains[i]
        # Every row is valid (TestSuite checks), so each distinct projection
        # is one covered element.
        seen = set(zip(*map(columns.__getitem__, indices)))
        total += prod
        covered += len(seen)
        if len(seen) < prod:
            for values in itertools.product(*(range(domains[i]) for i in indices)):
                if values not in seen:
                    missing.append(InteractionElement(combo=indices, values=values))
    return VerificationReport(total=total, covered=covered, missing=tuple(missing))


def write_suite_csv(suite: TestSuite, path: str) -> None:
    """One row per line, comma-separated 0-based integers, no header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in suite.rows:
            fh.write(",".join(map(str, row.assignment)))
            fh.write("\n")


def read_suite_csv(path: str, spec: CoveringArraySpec) -> TestSuite:
    """Read a suite CSV and validate every row against the spec.

    An error names the file and the line of the first bad row: ``path:lineno: ...``.
    """
    rows: list[TestCase] = []
    linenos: list[int] = []
    bad_cell = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values = tuple(map(int, line.split(",")))
            except ValueError as exc:
                bad_cell = lineno, exc
                break
            rows.append(TestCase(values))
            linenos.append(lineno)
    if bad_cell is None:
        try:
            return TestSuite(spec=spec, rows=tuple(rows))  # validates every row once
        except ValueError:
            pass
    # TestSuite names no line: find the first invalid row again, before any bad cell
    for lineno, row in zip(linenos, rows):
        try:
            spec.validate_row(row.assignment)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    lineno, exc = bad_cell
    raise ValueError(f"{path}:{lineno}: non-integer cell") from exc
