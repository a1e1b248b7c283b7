"""Tests for the greedy covering-array builder."""

import array
import contextlib
import hashlib
import json
import random
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cakit.greedy as greedy_module
from cakit.cli import main
from cakit.greedy import GreedyConfig, IncompleteCoverageError, generate_ca, run_greedy
from cakit.model import CoveringArraySpec, TestCase, verify_coverage
from cakit.store import StoreMechanism, build_store

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


@pytest.mark.parametrize("bad", [
    dict(candidates_per_row=0), dict(max_rows=0),
    dict(candidates_per_row=2.5), dict(max_rows="10"), dict(max_rows=None),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        GreedyConfig(**bad)


class _Index:
    """An integer that is not an int: accepted wherever operator.index is."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


def test_config_holds_plain_ints():
    cfg = GreedyConfig(candidates_per_row=_Index(7), max_rows=True)
    assert (cfg.candidates_per_row, cfg.max_rows) == (7, 1)
    assert type(cfg.candidates_per_row) is int and type(cfg.max_rows) is int


def test_domains_past_32_bits_refused_before_any_draw():
    class Store:  # a store this big would hold over 4 G elements; only spec is read
        spec = CoveringArraySpec(t=1, k=2, domains=(2, 2**32))

    with pytest.raises(ValueError, match=r"2\*\*32"):
        run_greedy(Store(), GreedyConfig())


# -- candidate sampling: one 64-bit word per value, mapped by (w * v) >> 64 ---

# Edges: v = 1 maps every word to 0, and 2**31 and 2**32 - 1 are the biggest
# domains, whose products use every bit of the split uint64 arithmetic.
_EDGE_DOMAINS = [1, 2, 3, 60, 2**31, 2**32 - 1]
_EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
_domain = st.one_of(st.sampled_from(_EDGE_DOMAINS), st.integers(min_value=1, max_value=2**32 - 1))
_repeats = st.integers(min_value=1, max_value=6)
_domains = st.one_of(
    st.tuples(_domain, _repeats).map(lambda vk: (vk[0],) * vk[1]),
    st.lists(_domain, min_size=1, max_size=6).map(tuple),
    # runs of equal sizes, as in (2, 2, 60, 60) or (a,)*m + (b,)*n
    st.lists(st.tuples(_domain, _repeats), min_size=2, max_size=4).map(
        lambda runs: tuple(v for v, m in runs for _ in range(m))),
    st.just((2, 2, 60, 60)),
)


def _without_numpy(blocked):
    return mock.patch.dict(sys.modules, {"numpy": None}) if blocked else contextlib.nullcontext()


def _oracle_row(rng, domains):
    return tuple((rng.getrandbits(64) * v) >> 64 for v in domains)


def _oracle_batches(seed, domains, count, iterations):
    rng = random.Random(seed)
    return [[_oracle_row(rng, domains) for _ in range(count)] for _ in range(iterations)]


def _decode(decoder, rng, domains, count, iterations):
    """``iterations`` batches from the named decoder, as lists of tuples of ints."""
    if decoder == "_tuple_batches":
        batches = greedy_module._tuple_batches(rng, domains, count)
        return [next(batches) for _ in range(iterations)]
    np = pytest.importorskip("numpy")
    batches = greedy_module._array_batches(np, rng, domains, count)
    got = [next(batches) for _ in range(iterations)]
    assert all(b.dtype == np.intp and b.shape == (count, len(domains)) for b in got)
    return [[tuple(row) for row in b.tolist()] for b in got]


# "batch" is the block path's decoder, "one_row" the one-row path's; the
# array decoder needs numpy.
_DECODERS = pytest.mark.parametrize("decoder, numpy_blocked", [
    ("_array_batches", False), ("_tuple_batches", False), ("_tuple_batches", True),
], ids=["batch-numpy", "one_row-numpy", "one_row-no_numpy"])


@_DECODERS
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    domains=_domains,
    count=st.integers(min_value=1, max_value=30),
    iterations=st.integers(min_value=1, max_value=25),
)
@settings(max_examples=60, deadline=None)
def test_candidates_are_multiply_shift_rows(decoder, numpy_blocked, seed, domains, count,
                                            iterations):
    expected = _oracle_batches(seed, domains, count, iterations)
    with _without_numpy(numpy_blocked):
        got = _decode(decoder, random.Random(seed), domains, count, iterations)
    assert all(type(x) is int for b in got for row in b for x in row)
    assert got == expected


@_DECODERS
def test_decoders_are_exact_at_the_edge_words(decoder, numpy_blocked):
    # Row i reads _EDGE_WORDS[i] for every value, so the batch holds every
    # (word, domain) pair; the uint64 split must equal Python's big-int product.
    words = [w for w in _EDGE_WORDS for _ in _EDGE_DOMAINS]
    rng = mock.Mock(getrandbits=mock.Mock(
        return_value=sum(w << (64 * i) for i, w in enumerate(words))))
    with _without_numpy(numpy_blocked):
        [got] = _decode(decoder, rng, _EDGE_DOMAINS, len(_EDGE_WORDS), 1)
    rng.getrandbits.assert_called_once_with(64 * len(words))
    assert got == [tuple((w * v) >> 64 for v in _EDGE_DOMAINS) for w in _EDGE_WORDS]


def test_python_decoder_reads_the_same_words_on_a_big_endian_host():
    # A big-endian host's array("Q") reads each 8-byte word byte-reversed;
    # the decoder must undo that, so candidates do not depend on the host.
    def big_endian_array(typecode, data):
        words = array.array(typecode, data)
        words.byteswap()
        return words

    domains = (2, 3, 60, 2**32 - 1)
    with mock.patch.object(greedy_module, "sys", mock.Mock(byteorder="big")), \
            mock.patch.object(greedy_module, "array", big_endian_array):
        got = _decode("_tuple_batches", random.Random(5), domains, 7, 3)
    assert got == _oracle_batches(5, domains, 7, 3)


@_DECODERS
def test_decoders_draw_uniform_values(decoder, numpy_blocked):
    # 120,000 values of domain 60: each count is binomial with mean 2,000
    # and sigma about 44.3; a fixed seed keeps this deterministic.
    with _without_numpy(numpy_blocked):
        [got] = _decode(decoder, random.Random(2024), (60,), 120_000, 1)
    counts = Counter(row[0] for row in got)
    assert sorted(counts) == list(range(60))
    sigma = (120_000 * (1 / 60) * (59 / 60)) ** 0.5
    assert all(abs(c - 2_000) <= 5 * sigma for c in counts.values())


class _ForwardingProxy:
    """Forwards every attribute, the block path's helpers included, as a timing proxy does."""

    def __init__(self, store):
        self._store = store

    def __getattr__(self, name):
        return getattr(self._store, name)


def _oracle_greedy(spec, config):
    """The greedy with one ``getrandbits(64)`` per value and one-row queries: the rows to expect."""
    store = build_store(spec, StoreMechanism.HASH)
    rng = random.Random(config.rng_seed)
    rows = []
    for _ in range(config.max_rows):
        if not store.remaining():
            break
        candidates = [_oracle_row(rng, spec.domains) for _ in range(config.candidates_per_row)]
        gains = [store.coverage_count(c) for c in candidates]
        if max(gains) > 0:
            best = candidates[gains.index(max(gains))]
            store.mark_covered(best)
            rows.append(TestCase(best))
    return tuple(rows)


_small_specs = st.integers(min_value=1, max_value=5).flatmap(
    lambda k: st.tuples(
        st.integers(min_value=1, max_value=min(k, 3)),
        st.just(k),
        st.one_of(
            st.integers(min_value=1, max_value=5).map(lambda v: [v] * k),
            st.lists(st.sampled_from([1, 2, 3, 5, 9]), min_size=k, max_size=k),
        ),
    )
).map(lambda tkd: CoveringArraySpec(t=tkd[0], k=tkd[1], domains=tuple(tkd[2])))


@pytest.mark.parametrize("numpy_blocked", [False, True], ids=["numpy", "no_numpy"])
@given(
    spec=_small_specs,
    seed=st.integers(min_value=0, max_value=2**32),
    candidates=st.integers(min_value=1, max_value=12),
    mech=st.sampled_from(ALL_MECHS),
)
@settings(max_examples=40, deadline=None)
def test_greedy_picks_the_oracle_rows(numpy_blocked, spec, seed, candidates, mech):
    config = GreedyConfig(candidates_per_row=candidates, rng_seed=seed, max_rows=400)
    expected = _oracle_greedy(spec, config)
    with _without_numpy(numpy_blocked):
        for store in (build_store(spec, mech), _ForwardingProxy(build_store(spec, mech))):
            try:
                rows = run_greedy(store, config).rows
            except IncompleteCoverageError as exc:
                rows = exc.partial_suite.rows
            assert rows == expected
            assert all(type(x) is int for row in rows for x in row.assignment)


def test_block_path_decodes_mixed_domains_without_the_tuple_decoder():
    pytest.importorskip("numpy")
    spec = CoveringArraySpec.from_string("t=3;k=6;v=2,3,4,5,6,7")
    config = GreedyConfig(rng_seed=1)
    with mock.patch.object(greedy_module, "_tuple_batches",
                           side_effect=AssertionError("tuple decoder called")):
        rows = run_greedy(build_store(spec, StoreMechanism.HASH), config).rows
    # a proxy gets the one-row path, whose candidates are tuples
    with mock.patch.object(greedy_module, "_tuple_batches",
                           wraps=greedy_module._tuple_batches) as tuple_batches:
        proxied = run_greedy(_ForwardingProxy(build_store(spec, StoreMechanism.HASH)), config).rows
    assert tuple_batches.called
    assert proxied == rows


# sha256 of generate-ca's suite CSV, each value drawn as (rng.getrandbits(64) * v) >> 64.
_GOLDEN_SUITES = {
    ("t=3;k=10;v=5^10", (), 1): "709c381820215abcee1505ec52922e44aa5f679a977353d26f4a2ecd428e3712",
    ("t=3;k=10;v=5^10", (), 2): "d82cdf4ae6aa8cb8187c684bc2f4b7509c16835c0801ce21318b700149365f39",
    ("t=3;k=10;v=5^10", (), 3): "5e76b48858eea3e4195c57eea5ff3fa93d2afcab07d2eea730b7efd53f62fcb0",
    ("t=2;k=4;v=2,2,60,60", ("--candidates", "10"), 1):
        "14d1d9c58f3989dfe06f462f3c563b0de4665a44e030e7782bb91c24c5aeec75",
    ("t=2;k=4;v=2,2,60,60", ("--candidates", "10"), 2):
        "114e63afbbfebd30c30f45e51c8bc778f9d53e9b9330c2c0e5bc06126c8c57ef",
    ("t=2;k=4;v=2,2,60,60", ("--candidates", "10"), 3):
        "e5519d26a82829485c8ec82c392841393b0ea4486c69bbc52656f0276bbd32ae",
    ("t=3;k=6;v=2,3,4,5,6,7", ("--candidates", "20"), 1):
        "6a0aa09846f0259f06ffc295faf02f45fa5764cb0330e1767fcb1393f5ee8349",
    ("t=3;k=6;v=2,3,4,5,6,7", ("--candidates", "20"), 2):
        "ffae0ea6edbb8d71a8c127875da36217d19eb646bae61913ca850fc8d53c9b78",
}


@pytest.mark.parametrize("numpy_blocked", [False, True], ids=["numpy", "no_numpy"])
@pytest.mark.parametrize("spec, extra, seed, digest",
                         [(*key, digest) for key, digest in _GOLDEN_SUITES.items()],
                         ids=[f"{key[0]}-seed{key[2]}" for key in _GOLDEN_SUITES])
def test_generate_ca_suites_match_golden_digests(tmp_path, capsys, numpy_blocked,
                                                 spec, extra, seed, digest):
    out = tmp_path / "suite.csv"
    with _without_numpy(numpy_blocked):
        code = main(["generate-ca", "--spec", spec, "--seed", str(seed), *extra, "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    meta = json.loads((tmp_path / "suite.csv.meta.json").read_text())
    assert meta["rng"] == "random.Random (CPython Mersenne Twister), (64-bit word * v) >> 64"
