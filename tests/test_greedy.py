"""Tests for the greedy covering-array builder."""

import pytest

from cakit.greedy import GreedyConfig, IncompleteCoverageError, generate_ca
from cakit.model import CoveringArraySpec, verify_coverage
from cakit.store import StoreMechanism

ALL_MECHS = tuple(StoreMechanism)


def test_k_equals_t_is_exactly_the_value_grid():
    spec = CoveringArraySpec(t=2, k=2, domains=(2, 2))
    suite = generate_ca(spec, StoreMechanism.HASH, GreedyConfig(rng_seed=3))
    assert len(suite.rows) == 4  # every value pair is its own row; N = v^t forced
    assert {r.assignment for r in suite.rows} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_t2_k4_v3_complete_and_at_least_nine_rows():
    spec = CoveringArraySpec.uniform(2, 4, 3)
    suite = generate_ca(spec, StoreMechanism.HASH, GreedyConfig(rng_seed=42))
    report = verify_coverage(suite)
    assert report.is_complete
    assert len(suite.rows) >= 9  # v^t lower bound


def test_deterministic_for_fixed_seed():
    spec = CoveringArraySpec(t=2, k=5, domains=(2, 3, 2, 3, 2))
    cfg = GreedyConfig(candidates_per_row=10, rng_seed=7)
    first = generate_ca(spec, StoreMechanism.HASH, cfg)
    second = generate_ca(spec, StoreMechanism.HASH, cfg)
    assert first.rows == second.rows


def test_mechanism_does_not_change_the_suite():
    spec = CoveringArraySpec.uniform(2, 5, 3)
    cfg = GreedyConfig(candidates_per_row=15, rng_seed=11)
    suites = [generate_ca(spec, mech, cfg) for mech in ALL_MECHS]
    assert len(suites) == 3
    assert all(suite.rows == suites[0].rows for suite in suites)


def test_incomplete_coverage_error_carries_partial_state():
    spec = CoveringArraySpec.uniform(2, 4, 3)
    with pytest.raises(IncompleteCoverageError) as excinfo:
        generate_ca(spec, StoreMechanism.HASH, GreedyConfig(rng_seed=1, max_rows=2))
    err = excinfo.value
    assert len(err.partial_suite.rows) <= 2
    assert err.remaining > 0
    assert not verify_coverage(err.partial_suite).is_complete


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lower_bound_on_mixed_domains(seed):
    # t-th largest domain is 3, so any t parameters with the largest
    # domains force at least 3*4 = 12 rows; assert the weaker 3^t bound.
    spec = CoveringArraySpec(t=2, k=4, domains=(4, 3, 2, 3))
    suite = generate_ca(spec, StoreMechanism.INDEXED, GreedyConfig(rng_seed=seed))
    assert verify_coverage(suite).is_complete
    t_th_largest = sorted(spec.domains, reverse=True)[spec.t - 1]
    assert len(suite.rows) >= t_th_largest ** spec.t


def test_single_value_domains():
    spec = CoveringArraySpec(t=2, k=3, domains=(1, 1, 1))
    suite = generate_ca(spec, StoreMechanism.FULL_SCAN, GreedyConfig(rng_seed=5))
    assert len(suite.rows) == 1
    assert verify_coverage(suite).is_complete


@pytest.mark.parametrize("bad", [dict(candidates_per_row=0), dict(max_rows=0)])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        GreedyConfig(**bad)
