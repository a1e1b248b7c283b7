"""Stores of uncovered interaction elements with coverage queries.

Every interaction element has one fixed flat position. A value tuple is
packed into a single integer by mixed-radix encoding over its
combination's domains (first value has the largest stride, last value
stride 1), a bijection onto ``0..prod-1`` that preserves odometer order.
Combinations are laid end to end in lexicographic rank order, so the
element with packed value ``p`` of the combination of rank ``r`` sits at
``base[r] + p``. One ``alive`` bytearray over those positions holds the
tombstones: removal clears a flag and nothing is ever moved.

The shared base class owns the layout, the tombstones, the remaining
count, row validation, packing and element enumeration. Where numpy
imports, it also holds the tables with which the greedy builder's block
path computes the flat positions of a batch of rows and marks a winner
from its positions. The positions of a batch are one
float64 matrix product of the rows with a table of strides, or, on
shapes where that is slower (see ``_product_wins``), one gather per slot
of the combinations. A position mark clears ``alive`` and nothing else.
Three observationally equivalent mechanisms, the paper's measured
subjects, differ only in how a query locates the row's elements:

* ``HASH`` - buckets keyed by the parameter combination; each bucket is a
  hashed set of the packed values still uncovered, so a query does one
  bucket lookup plus one set membership test per combination. A one-row
  mark removes from the bucket as well as clearing ``alive``; after
  position marks, the next one-row call rebuilds the buckets from
  ``alive`` first.
* ``INDEXED`` - the flat array of packed values (each combination's slice
  is ``range(prod)``) searched linearly within the combination's slice,
  so query time grows with the number of values per combination.
* ``FULL_SCAN`` - the same flat array, paired with each position's
  combination rank; every query walks all of it.

Builds are one-shot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, compress, pairwise
from typing import Iterator, Sequence

from .combgen import iter_combinations_stack
from .model import DEFAULT_MAX_ELEMENTS, CoveringArraySpec, InteractionElement


def _product_wins(k: int, t: int, combos: int) -> bool:
    """Whether flat positions come from one matrix product rather than a gather per slot.

    Per position the product does ``k`` multiply-adds where the gathers do
    ``t`` passes, and it reads a ``k x combos`` weight matrix. Timed per
    block, the product lost at t = 1 (a single gather), from about k = 25t
    at t = 2, and where that matrix outgrew the cache (``t=3;k=34``); these
    bounds keep clear of all three.
    """
    return t > 1 and k <= 16 * t and k * combos <= 1 << 16


class StoreMechanism(enum.Enum):
    HASH = "hash"
    INDEXED = "indexed"
    FULL_SCAN = "full"


class CapacityError(RuntimeError):
    """Projected element count exceeds the configured memory budget."""

    def __init__(self, element_count: int, max_elements: int):
        self.element_count = element_count
        self.max_elements = max_elements
        super().__init__(
            f"store would hold {element_count} interaction elements, "
            f"exceeding the budget of {max_elements}"
        )


@dataclass(frozen=True)
class StoreCounters:
    """Instrumentation snapshot: work performed by queries and marks so far.

    ``bucket_lookups`` counts HASH bucket accesses (one per combination per
    call). ``elements_scanned`` counts array positions walked by INDEXED
    (tombstones included, since the scan cannot skip them) and live elements
    compared by FULL_SCAN. One-row queries and marks charge them; the
    greedy's block gathers and position marks, and HASH's rebuild of its
    buckets after position marks, charge neither, so a greedy run on a
    store with numpy leaves both at 0.
    """

    bucket_lookups: int
    elements_scanned: int


def projected_element_count(spec: CoveringArraySpec) -> int:
    """Total interaction elements of a spec: sum over combinations of the domain product.

    That is the t-th elementary symmetric polynomial of the domain sizes, in
    O(k*t) steps: ``e[j]`` counts the elements of j-combinations of the parameters so far.
    """
    e = [1] + [0] * spec.t
    for d in spec.domains:
        for j in range(spec.t, 0, -1):
            e[j] += e[j - 1] * d
    return e[spec.t]


class InteractionStore:
    """Flat element layout, tombstones and bookkeeping; mechanisms add the lookups."""

    def __init__(self, spec: CoveringArraySpec):
        self.spec = spec
        domains = spec.domains
        self._combos = list(iter_combinations_stack(spec.k, spec.t))
        self._projections: list[tuple[tuple[int, int], ...]] = []
        # base[rank] is the flat position of the combination's first element;
        # the trailing entry is the total element count.
        self._bases = [0]
        for combo in self._combos:
            stride = 1
            pairs: list[tuple[int, int]] = []
            for i in reversed(combo):
                pairs.append((i, stride))
                stride *= domains[i]
            pairs.reverse()
            self._projections.append(tuple(pairs))
            self._bases.append(self._bases[-1] + stride)
        self._remaining = self._bases[-1]
        self._alive = bytearray(b"\x01") * self._remaining
        self._lookups = 0
        self._scanned = 0
        self._gather: tuple | None = None  # see _tables
        self._stale = False  # set by a position mark; see _HashStore

    @property
    def counters(self) -> StoreCounters:
        return StoreCounters(bucket_lookups=self._lookups, elements_scanned=self._scanned)

    def remaining(self) -> int:
        """Exact count of still-uncovered elements; zero iff full coverage."""
        return self._remaining

    def coverage_count(self, row: Sequence[int]) -> int:
        """How many still-uncovered elements the row covers. Read-only."""
        raise NotImplementedError

    def mark_covered(self, row: Sequence[int]) -> int:
        """Remove every uncovered element the row covers; return how many."""
        positions = self._take(self._pack(row))
        alive = self._alive
        for pos in positions:
            alive[pos] = 0
        self._remaining -= len(positions)
        return len(positions)

    def uncovered_elements(self) -> Iterator[InteractionElement]:
        """Yield uncovered elements, combinations lexicographic, values in odometer order."""
        alive, domains = self._alive, self.spec.domains
        for combo, proj, (start, end) in zip(self._combos, self._projections, pairwise(self._bases)):
            for pos in range(start, end):
                if alive[pos]:
                    packed = pos - start
                    values = tuple(packed // stride % domains[i] for i, stride in proj)
                    yield InteractionElement(combo=combo, values=values)

    def _take(self, packed: list[int]) -> list[int]:
        """Flat positions of the still-uncovered elements among the row's packed values.

        Found with the mechanism's own lookup and charged to its counters. A
        mechanism that indexes live elements apart from ``_alive`` drops them
        there; :meth:`mark_covered` clears their tombstones.
        """
        raise NotImplementedError

    def _tables(self) -> tuple:
        """numpy and the arrays the greedy's block path gathers with; () without numpy.

        Built on first use, so building a store never imports numpy. Only
        the position tables of the formula that :func:`_product_wins`
        picks are built.
        """
        if self._gather is not None:
            return self._gather
        try:
            import numpy as np
        except ImportError:
            self._gather = ()
            return self._gather
        # proj[r, j]: (parameter, stride) of slot j of rank r; the last stride is 1.
        # fromiter fills it in place; np.array over the nested tuples peaks at 4x its size.
        combos, t = len(self._combos), self.spec.t
        proj = np.fromiter(chain.from_iterable(chain.from_iterable(self._projections)),
                           dtype=np.intp, count=combos * t * 2).reshape(combos, t, 2)
        weights = slots = None
        if _product_wins(self.spec.k, t, combos):
            # weights[i, r]: the stride of parameter i in rank r, 0 if i is not in it
            weights = np.zeros((self.spec.k, combos))
            weights[proj[:, :, 0], np.arange(combos)[:, None]] = proj[:, :, 1]
        else:
            slots = (np.ascontiguousarray(proj[:, -1, 0]),
                     [(np.ascontiguousarray(proj[:, j, 0]), np.ascontiguousarray(proj[:, j, 1]))
                      for j in range(t - 1)])
        self._gather = (
            np,
            np.frombuffer(self._alive, dtype=np.uint8),  # zero-copy: sees and makes every mark
            np.array(self._bases[:-1], dtype=np.intp),
            weights,
            slots,
        )
        return self._gather

    def _positions(self, batch):
        """Flat positions of an intp batch in the domains: (rows x combinations), ranks in order."""
        np, _, bases, weights, slots = self._gather
        # base + sum over slots of value * stride, for every row and combination
        if weights is not None:
            # Exact in float64: every term and partial sum is an integer
            # below the element count, far under 2**53.
            positions = (batch @ weights).astype(np.intp)
        else:
            last_params, others = slots
            positions = batch.take(last_params, axis=1)
            for params, strides in others:
                part = batch.take(params, axis=1)
                part *= strides
                positions += part
        positions += bases
        return positions

    def _mark_positions(self, positions) -> int:
        """:meth:`mark_covered` of one row given by its :meth:`_positions`; charges no counter.

        It clears tombstones only; an index kept apart from ``_alive`` is
        left stale until its next one-row use.
        """
        alive = self._gather[1]
        live = positions[alive[positions].nonzero()[0]]
        alive[live] = 0
        self._remaining -= len(live)
        self._stale = True
        return len(live)

    def _pack(self, row: Sequence[int]) -> list[int]:
        """Validate the row; return its packed value under each combination, in rank order."""
        row = self.spec.validate_row(row)
        out = []
        for proj in self._projections:
            packed = 0
            for i, stride in proj:
                packed += row[i] * stride
            out.append(packed)
        return out

    def _flat_packed_values(self) -> list[int]:
        """The packed value at every flat position: each combination's ``range(prod)``, end to end."""
        data: list[int] = []
        for start, end in pairwise(self._bases):
            data.extend(range(end - start))
        return data


class _HashStore(InteractionStore):
    def __init__(self, spec: CoveringArraySpec):
        super().__init__(spec)
        self._buckets: dict[tuple[int, ...], set[int]] = {
            combo: set(range(end - start))
            for combo, (start, end) in zip(self._combos, pairwise(self._bases))
        }

    def coverage_count(self, row: Sequence[int]) -> int:
        # Packs inline: the hottest loop in the package, and a call to
        # _pack per query costs about a quarter more time.
        row = self.spec.validate_row(row)
        if self._stale:
            self._sync_buckets()
        buckets = self._buckets
        n = 0
        for combo, proj in zip(self._combos, self._projections):
            packed = 0
            for i, stride in proj:
                packed += row[i] * stride
            bucket = buckets[combo]
            if packed in bucket:
                n += 1
        self._lookups += len(self._combos)
        return n

    def _take(self, packed: list[int]) -> list[int]:
        if self._stale:
            self._sync_buckets()
        buckets = self._buckets
        taken = []
        for combo, base, p in zip(self._combos, self._bases, packed):
            bucket = buckets[combo]
            if p in bucket:
                bucket.remove(p)
                taken.append(base + p)
        self._lookups += len(self._combos)
        return taken

    def _sync_buckets(self) -> None:
        """Rebuild the buckets from ``_alive`` after position marks; charges no counter."""
        alive = memoryview(self._alive)
        self._buckets = {
            combo: set(compress(range(end - start), alive[start:end]))
            for combo, (start, end) in zip(self._combos, pairwise(self._bases))
        }
        self._stale = False


class _IndexedStore(InteractionStore):
    def __init__(self, spec: CoveringArraySpec):
        super().__init__(spec)
        self._data = self._flat_packed_values()

    def coverage_count(self, row: Sequence[int]) -> int:
        # This _take changes nothing, so it answers queries too.
        return len(self._take(self._pack(row)))

    def _take(self, packed: list[int]) -> list[int]:
        data, alive = self._data, self._alive
        taken = []
        scanned = 0
        for (start, end), p in zip(pairwise(self._bases), packed):
            pos = data.index(p, start, end)
            scanned += pos - start + 1
            if alive[pos]:
                taken.append(pos)
        self._scanned += scanned
        return taken


class _FullScanStore(InteractionStore):
    def __init__(self, spec: CoveringArraySpec):
        super().__init__(spec)
        self._data = self._flat_packed_values()
        self._ranks: list[int] = []
        for rank, (start, end) in enumerate(pairwise(self._bases)):
            self._ranks.extend([rank] * (end - start))

    def coverage_count(self, row: Sequence[int]) -> int:
        # Kept apart from _take: walking positions through enumerate makes
        # this loop, the whole cost of a query, much slower.
        targets = self._pack(row)
        n = 0
        for packed, rank, live in zip(self._data, self._ranks, self._alive):
            if live and targets[rank] == packed:
                n += 1
        self._scanned += self._remaining
        return n

    def _take(self, packed: list[int]) -> list[int]:
        self._scanned += self._remaining
        return [
            pos
            for pos, (p, rank, live) in enumerate(zip(self._data, self._ranks, self._alive))
            if live and packed[rank] == p
        ]


_MECHANISMS: dict[StoreMechanism, type[InteractionStore]] = {
    StoreMechanism.HASH: _HashStore,
    StoreMechanism.INDEXED: _IndexedStore,
    StoreMechanism.FULL_SCAN: _FullScanStore,
}


def build_store(
    spec: CoveringArraySpec,
    mechanism: StoreMechanism,
    *,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> InteractionStore:
    """Build a store holding every interaction element of the spec exactly once.

    Raises :class:`CapacityError` before allocating anything if the projected
    element count exceeds ``max_elements``.
    """
    total = projected_element_count(spec)
    if total > max_elements:
        raise CapacityError(total, max_elements)
    return _MECHANISMS[mechanism](spec)
