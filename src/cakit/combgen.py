"""Generation of all t-combinations of k parameter indices.

Two interchangeable generators are provided:

* a stack-driven iterative generator (the fast path, no recursion, no
  bitmasks), and
* an n-bit enumerator that walks every mask in ``0..2^k-1`` and keeps
  those with exactly ``t`` set bits (the classic baseline; simple but
  exponential in ``k``, so refused past :data:`NBIT_MAX_K`).

Both produce strictly increasing index tuples; the stack generator emits
them in lexicographic order directly, the n-bit generator sorts after
filtering. Each serves as the other's oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

#: Largest k the n-bit enumerator accepts, the one bound on its Theta(2^k)
#: mask walk: at the bound the walk takes about a second, and each further
#: parameter doubles that.
NBIT_MAX_K = 24


class UnsupportedSizeError(ValueError):
    """n-bit enumeration was asked for more than :data:`NBIT_MAX_K` parameters."""


def _check_args(k: int, t: int) -> None:
    if k < 1 or t < 1 or t > k:
        raise ValueError(f"need 1 <= t <= k, got k={k}, t={t}")


@dataclass(frozen=True)
class CombinationList:
    """All C(k, t) index combinations, lexicographically sorted, no duplicates."""

    k: int
    t: int
    combos: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.combos)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.combos)


def iter_combinations_stack(k: int, t: int) -> Iterator[tuple[int, ...]]:
    """Stream all t-combinations of {0..k-1} in lexicographic order.

    Iterative depth-first walk of the combination tree driven by an explicit
    stack of candidate start values. Each stack entry is the next value to
    try at the position given by its depth; popping it restores the search
    at that position while the shared ``comb`` buffer still holds the chosen
    prefix. Values pushed past ``k - 1`` simply fail the bound test when
    they resurface, which keeps the bookkeeping branch-free.

    Streaming exists because materializing is not always an option:
    C(100, 6) is around 1.19e9 combinations.
    """
    _check_args(k, t)
    comb = [0] * t
    stack = [0]
    push, pop = stack.append, stack.pop
    while stack:
        i = len(stack) - 1
        v = pop()
        while v < k:
            comb[i] = v
            i += 1
            v += 1
            push(v)
            if i == t:
                yield tuple(comb)
                break


def generate_stack(k: int, t: int) -> CombinationList:
    """Materialize all t-combinations of {0..k-1} via the stack generator."""
    _check_args(k, t)
    return CombinationList(k=k, t=t, combos=tuple(iter_combinations_stack(k, t)))


def _mask_to_indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def iter_combinations_nbit(k: int, t: int) -> Iterator[tuple[int, ...]]:
    """Stream t-combinations by enumerating all 2^k masks and filtering on popcount.

    Yields in mask-enumeration order, which is *not* lexicographic on the
    index tuples; use :func:`generate_nbit` for sorted output. Cost is
    Theta(2^k) regardless of t, so the call itself, before any mask is
    walked, raises :class:`UnsupportedSizeError` when k > :data:`NBIT_MAX_K`.
    """
    _check_args(k, t)
    if k > NBIT_MAX_K:
        raise UnsupportedSizeError(f"2^{k} masks exceed the n-bit budget (max k={NBIT_MAX_K})")
    return (_mask_to_indices(mask) for mask in range(1 << k) if mask.bit_count() == t)


def generate_nbit(k: int, t: int) -> CombinationList:
    """Materialize all t-combinations via n-bit enumeration, sorted lexicographically."""
    return CombinationList(k=k, t=t, combos=tuple(sorted(iter_combinations_nbit(k, t))))


def count_combinations(k: int, t: int) -> int:
    """Binomial coefficient C(k, t) for valid (k, t).

    Python integers are arbitrary precision, so there is no overflow regime;
    any representable (k, t) is computed exactly.
    """
    _check_args(k, t)
    return math.comb(k, t)

