"""Tests for the combination generators.

The two generators oracle each other; where a single expected value is
frozen it was computed by the brute-force popcount filter written inline
here, never by the code under test.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from cakit.combgen import (
    NBIT_MAX_K,
    UnsupportedSizeError,
    count_combinations,
    generate_nbit,
    generate_stack,
    iter_combinations_nbit,
    iter_combinations_stack,
)


def brute_force_combos(k, t):
    """Independent oracle: filter all 2^k subsets by popcount, sort lexicographically."""
    out = []
    for mask in range(2**k):
        if bin(mask).count("1") == t:
            out.append(tuple(i for i in range(k) if mask >> i & 1))
    return sorted(out)


class TestGenerateStack:
    def test_three_parameters_pairwise(self):
        assert generate_stack(3, 2).combos == ((0, 1), (0, 2), (1, 2))

    def test_t_equals_k(self):
        assert generate_stack(5, 5).combos == ((0, 1, 2, 3, 4),)

    def test_k5_t3_against_brute_force(self):
        got = list(generate_stack(5, 3))
        assert got == brute_force_combos(5, 3)
        assert len(got) == 10
        assert got[0] == (0, 1, 2)
        assert got[-1] == (2, 3, 4)

    def test_single_parameter(self):
        assert generate_stack(1, 1).combos == ((0,),)

    @pytest.mark.parametrize("k,t", [(0, 1), (3, 0), (2, 3), (-1, 1), (5, -2)])
    def test_invalid_arguments(self, k, t):
        with pytest.raises(ValueError):
            generate_stack(k, t)

    def test_streaming_matches_materialized(self):
        assert tuple(iter_combinations_stack(8, 3)) == generate_stack(8, 3).combos


class TestGenerateNbit:
    def test_three_parameters_pairwise(self):
        assert generate_nbit(3, 2).combos == ((0, 1), (0, 2), (1, 2))

    def test_k4_t2_masks(self):
        # masks with two set bits among 0..15: 0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100
        assert generate_nbit(4, 2).combos == (
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        )

    def test_single_parameter(self):
        assert generate_nbit(1, 1).combos == ((0,),)

    def test_width_limit(self):
        with pytest.raises(UnsupportedSizeError, match=f"2\\^{NBIT_MAX_K + 1} masks"):
            iter_combinations_nbit(NBIT_MAX_K + 1, 2)  # raised by the call, before any iteration

    def test_stream_is_mask_order_not_lex(self):
        # 0b0110 -> (1,2) precedes 0b1001 -> (0,3) in mask order
        stream = list(iter_combinations_nbit(4, 2))
        assert stream.index((1, 2)) < stream.index((0, 3))


class TestCountCombinations:
    def test_400_choose_2(self):
        assert count_combinations(400, 2) == 400 * 399 // 2 == 79800

    @pytest.mark.parametrize("k", [1, 4, 17, 1000])
    def test_k_choose_k(self, k):
        assert count_combinations(k, k) == 1

    def test_100_choose_6(self):
        # 100*99*98*97*96*95 / 720, cross-checked by hand against the factorial form
        assert count_combinations(100, 6) == 1192052400

    def test_large_k_no_overflow(self):
        assert count_combinations(1000, 6) == math.factorial(1000) // (
            math.factorial(6) * math.factorial(994)
        )

    def test_invalid(self):
        with pytest.raises(ValueError):
            count_combinations(0, 0)


@given(
    st.integers(min_value=1, max_value=16).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(min_value=1, max_value=k))
    )
)
@settings(max_examples=60, deadline=None)
def test_generators_agree(kt):
    k, t = kt
    assert generate_stack(k, t).combos == generate_nbit(k, t).combos


@given(
    st.integers(min_value=1, max_value=14).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(min_value=1, max_value=k))
    )
)
@settings(max_examples=60, deadline=None)
def test_output_invariants(kt):
    k, t = kt
    combos = list(iter_combinations_stack(k, t))
    assert len(combos) == count_combinations(k, t)
    assert len(set(combos)) == len(combos)
    for combo in combos:
        assert len(combo) == t
        assert all(0 <= i < k for i in combo)
        assert all(a < b for a, b in zip(combo, combo[1:]))
    assert combos == sorted(combos)


@pytest.mark.parametrize("k,t", [(20, 2), (20, 6), (40, 3), (400, 2)])
def test_streaming_count_identity(k, t):
    assert sum(1 for _ in iter_combinations_stack(k, t)) == count_combinations(k, t)
