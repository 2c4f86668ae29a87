import hashlib
import tracemalloc
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from bench_modules import inputs, load_system
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from references import (
    _GOLDEN,
    ReferenceSplitMix64,
    _mix64,
    count_terms,
    empirical_first_clique,
    paths_by_first_letter,
    per_node_counts,
)
from test_measure import LIMIT_SYSTEMS
from test_petri import cycle_nets
from test_system import random_systems

from tracesys import sampling
from tracesys.analysis import uniform_measure
from tracesys.cli import main
from tracesys.errors import CapExceeded, EmptySet, TraceSysError
from tracesys.fixtures import ALL_SYSTEMS
from tracesys.graphs import build_adsc, build_dsc, count_paths_table
from tracesys.monoid import TraceMonoid
from tracesys.oracle import enumerate_executions
from tracesys.petri import parse_petri, petri_to_system
from tracesys.sampling import (
    SplitMix64,
    UniformExecutionSampler,
    _draw,
    sample_mcsc,
)
from tracesys.system import ConcurrentSystem


# ------------------------------------------------------------ PRNG

def test_splitmix_determinism():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    assert SplitMix64(123, stream=1).next_u64() != SplitMix64(123, stream=2).next_u64()


def test_splitmix_known_values():
    # frozen outputs pin the algorithm across platforms and versions
    rng = SplitMix64(0)
    assert rng.next_u64() == 6235967106033911276
    rng = SplitMix64(42)
    first = rng.random()
    assert 0.0 <= first < 1.0
    assert rng.randrange(10) in range(10)


# bounds around powers of two: just above one, most tries are rejected
RANDRANGE_BOUNDS = sorted(
    {1, 2, 2**64 - 1, 2**64, 2**64 + 1}
    | {2**k + d for k in range(1, 401) for d in (-1, 1)}
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**32))
def test_inlined_draws_equal_the_reference(seed, stream):
    rng, ref = SplitMix64(seed, stream), ReferenceSplitMix64(seed, stream)
    assert rng._state == ref._state
    for n in RANDRANGE_BOUNDS:
        assert rng.randrange(n) == ref.randrange(n), n
        assert rng.next_u64() == ref.next_u64()
        assert rng.random() == ref.random()
    assert rng._state == ref._state


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**32),
    bounds=st.lists(st.sampled_from(RANDRANGE_BOUNDS) | st.integers(1, 2**300), max_size=20),
)
def test_inlined_randrange_leaves_the_reference_state(seed, stream, bounds):
    rng, ref = SplitMix64(seed, stream), ReferenceSplitMix64(seed, stream)
    assert [rng.randrange(n) for n in bounds] == [ref.randrange(n) for n in bounds]
    assert rng._state == ref._state


@pytest.mark.parametrize("k", [8, 16, 64, 1024])
@pytest.mark.parametrize("base", [0, 1, 2**63, 2**64 - 1, 2**64 - _GOLDEN, 0x0123456789ABCDEF])
def test_block_mixes_each_lane_as_the_scalar_mix(base, k):
    # counters that wrap past 2⁶⁴ inside the block must not carry across lanes
    words = [_mix64(base + j * _GOLDEN) for j in range(1, k + 1)]
    assert sampling._block(base, k) == b"".join(w.to_bytes(8, "big") for w in words)


def _bound_of(words: int, frac: int) -> int:
    """A randrange bound that needs ``words`` words per try."""
    return (1 << 64 * (words - 1)) + frac % ((1 << 64 * words) - (1 << 64 * (words - 1)))


DRAWS = st.one_of(
    st.just(("next_u64",)),
    st.just(("random",)),
    st.tuples(st.just("randrange"), st.integers(1, 7), st.integers(0, 2**448)),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**32),
    pattern=st.lists(DRAWS, min_size=1, max_size=30),
)
def test_block_draws_equal_the_reference_after_every_call(seed, stream, pattern):
    # the pattern repeats until 4,000 words are read: past several refills
    # and past the 1,024-word ceiling of the block size
    rng, ref = SplitMix64(seed, stream), ReferenceSplitMix64(seed, stream)
    read = 0  # at least the words read so far
    while read < 4000:
        for draw in pattern:
            if draw[0] == "randrange":
                n = _bound_of(draw[1], draw[2])
                x, want = rng.randrange(n), ref.randrange(n)
                read += draw[1]
            else:
                x, want = getattr(rng, draw[0])(), getattr(ref, draw[0])()
                read += 1
            assert x == want, draw
            assert rng._state == ref._state, draw
    assert rng._size == sampling._MAX_BLOCK


def test_lane_cache_holds_at_most_eight_sizes():
    rng, ref = SplitMix64(11), ReferenceSplitMix64(11)
    for words in [1, 2, 3, 5, 7, 9, 13, 17, 31, 33, 65, 100, 129, 257, 300, 513, 1000, 1025, 2100]:
        n = (1 << 64 * words) - 1
        assert rng.randrange(n) == ref.randrange(n)
    assert rng._state == ref._state
    assert sampling._lanes.cache_info().currsize <= 8


def test_a_draw_spanning_a_refill_reads_the_reference_words():
    rng, ref = SplitMix64(3, 9), ReferenceSplitMix64(3, 9)
    for _ in range(6):
        assert rng.next_u64() == ref.next_u64()
    n = (1 << 320) - 1  # five words, with two left in the first block
    assert rng._stop - rng._pos == 16
    assert rng.randrange(n) == ref.randrange(n)
    assert rng._state == ref._state
    assert rng.random() == ref.random()


RANDOMS_SIZES = [1, 7, 60, 1024, 1025, 3000]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**32),
    pattern=st.lists(
        DRAWS | st.tuples(st.just("randoms"), st.sampled_from(RANDOMS_SIZES)),
        min_size=1, max_size=12,
    ),
)
def test_bulk_randoms_equal_the_reference_after_every_call(seed, stream, pattern):
    # k floats read in chunks of at most 1,024 words, interleaved with the
    # single draws: the values and the state of k reference random() calls
    rng, ref = SplitMix64(seed, stream), ReferenceSplitMix64(seed, stream)
    for draw in pattern + [("randoms", k) for k in RANDOMS_SIZES]:
        if draw[0] == "randoms":
            x, want = rng.randoms(draw[1]), [ref.random() for _ in range(draw[1])]
        elif draw[0] == "randrange":
            n = _bound_of(draw[1], draw[2])
            x, want = rng.randrange(n), ref.randrange(n)
        else:
            x, want = getattr(rng, draw[0])(), getattr(ref, draw[0])()
        assert x == want, draw
        assert rng._state == ref._state, draw
    # blocks sized to a request stay powers of two from 8 to 1,024 words
    assert sampling._lanes.cache_info().currsize <= 8


def test_randrange_big_integers():
    rng = SplitMix64(7)
    n = 10**40
    draws = [rng.randrange(n) for _ in range(100)]
    assert all(0 <= x < n for x in draws)
    assert len(set(draws)) > 90


# ------------------------------------------------------------ MCSC sampling

def test_mcsc_deterministic(e1_measure):
    s1 = sample_mcsc(e1_measure, "s0", 25, seed=9)
    s2 = sample_mcsc(e1_measure, "s0", 25, seed=9)
    assert s1 == s2
    assert s1.seed == 9
    assert sample_mcsc(e1_measure, "s0", 25, seed=10) != s1


def test_mcsc_single_step_is_initial_law(e1_measure):
    counts = Counter()
    for k in range(4000):
        s = sample_mcsc(e1_measure, "s0", 1, seed=k)
        counts[str(s.nodes[0][1])] += 1
    # h gives 1/4 to a, b, ad, bd and 0 to d
    assert counts["d"] == 0
    for c in ("a", "b", "ad", "bd"):
        assert abs(counts[c] / 4000 - 0.25) < 0.05


def test_mcsc_replays_and_matches_normal_form(e1_measure):
    system = e1_measure.system
    s = sample_mcsc(e1_measure, "s0", 40, seed=3)
    assert system.act("s0", s.trace) is not None
    nf = system.monoid.normal_form(s.trace)
    assert [c for _s, c in s.nodes] == list(nf.cliques)
    # consecutive nodes follow arcs of the graph
    dsc = e1_measure.dsc
    for a, b in zip(s.nodes, s.nodes[1:]):
        assert dsc.nodes.index(b) in dsc.succ[dsc.nodes.index(a)]


def test_mcsc_avoids_null_nodes(e1_measure):
    s = sample_mcsc(e1_measure, "s0", 5000, seed=1)
    assert ("s0", "d") not in {(st, str(c)) for st, c in s.nodes}


def _dense_draw(cumulative, u):
    """The draw over the dense n×n chain: numpy's search, and its fallback
    to the last index where the running sum grows."""
    i = int(np.searchsorted(cumulative, u, side="right"))
    if i >= len(cumulative):
        i = int(np.flatnonzero(np.diff(np.concatenate(([0.0], cumulative))))[-1])
    return i


def _dense_mcsc_nodes(measure, start, steps, seed):
    """The nodes of ``sample_mcsc`` as the dense layout drew them: running
    sums over whole rows of the n×n chain matrix, by numpy."""
    system, dsc = measure.system, measure.dsc
    chain = np.zeros((len(dsc.nodes), len(dsc.nodes)))
    for v, (out, row) in enumerate(zip(dsc.succ, measure.transition)):
        chain[v, list(out)] = row
    cum_rows = np.cumsum(chain, axis=1)
    i = system.state_index(start)
    rng = ReferenceSplitMix64(seed)
    nodes = []
    if steps > 0:
        v = sum(len(m) - 1 for m in system.moves[:i])
        v += _dense_draw(np.cumsum(measure.h[i][1:]), rng.random())
        nodes.append(v)
        for _ in range(steps - 1):
            v = _dense_draw(cum_rows[v], rng.random())
            nodes.append(v)
    return tuple(dsc.nodes[v] for v in nodes)


def _draw_over(weights, u):
    """``_draw`` over the running sums of ``weights``, as ``sample_mcsc`` forms them."""
    return _draw(list(accumulate(weights)), weights, u)


def test_draw_falls_back_to_the_last_index_that_adds():
    # ten 0.1 sum to 1 - 2**-53, which a draw can reach: the zero after
    # them adds nothing, so the draw takes the last 0.1
    assert _draw_over([0.1] * 10 + [0.0], 1 - 2**-53) == 9
    assert _dense_draw(np.cumsum([0.1] * 10 + [0.0]), 1 - 2**-53) == 9
    # a running sum equal to u is passed over, zeros and all
    assert _draw_over([0.5, 0.0, 0.5], 0.5) == 2
    assert _dense_draw(np.cumsum([0.5, 0.0, 0.5]), 0.5) == 2


def test_draw_falls_back_past_a_negative_weight():
    # h at a null node is float noise, possibly negative: the running sum
    # then ends below u although it reached u before, and the fallback
    # must take the last positive weight, not the last that moved the sum
    assert _draw_over([0.25] * 4 + [-(2**-40)], 1 - 2**-41) == 3


TINY_NEGATIVE = st.floats(-1e-11, -1e-18)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.floats(1e-3, 1.0) | TINY_NEGATIVE, min_size=1, max_size=12),
    tail=st.lists(TINY_NEGATIVE, max_size=2),
    u=st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([1 - 2**-53, 1 - 2**-41]),
)
def test_draw_picks_a_positive_weight(weights, tail, u):
    assume(any(w > 0 for w in weights))
    total = sum(w for w in weights if w > 0)
    weights = [w / total for w in weights + tail]  # the positive ones sum to 1
    assert weights[_draw_over(weights, u)] > 0


def test_walks_read_the_running_sums_the_measure_caches():
    system = load_system(inputs.phil_file(5))
    measure = uniform_measure(system)
    assert "running_sums" not in vars(measure)  # nothing is built before a walk
    sample_mcsc(measure, system.base_state, 60, seed=1)
    firsts, rows = measure.running_sums
    sample_mcsc(measure, system.base_state, 60, seed=2)
    assert measure.running_sums[1] is rows  # one build serves both walks
    # the sums are the row-order float additions of the tables, bit for bit
    assert [[x.hex() for x in row] for row in rows] == [
        [float(x).hex() for x in accumulate(row)] for row in measure.transition
    ]
    assert [[x.hex() for x in row] for row in firsts] == [
        [float(x).hex() for x in accumulate(row[1:])] for row in measure.h
    ]
    assert all(type(x) is float for row in rows for x in row)


def test_a_walk_past_one_chunk_equals_the_dense_draw(reference_systems):
    # 2,100 steps read three chunks of floats: 1,024, 1,024 and 52 words
    for name in ("aztec", "phil5", "path10"):
        measure = uniform_measure(reference_systems[name])
        start = measure.system.base_state
        for seed in range(2):
            want = _dense_mcsc_nodes(measure, start, 2100, seed)
            assert sample_mcsc(measure, start, 2100, seed).nodes == want, (name, seed)


def test_mcsc_walks_equal_the_dense_draw(reference_systems):
    for name, system in reference_systems.items():
        measure = uniform_measure(system)
        for start in (system.states[0], system.states[-1]):
            for seed in range(3):
                want = _dense_mcsc_nodes(measure, start, 100, seed)
                assert sample_mcsc(measure, start, 100, seed).nodes == want, (name, start, seed)


@settings(max_examples=30, deadline=None)
@given(text=cycle_nets(), seed=st.integers(0, 2**32 - 1))
def test_mcsc_walks_equal_the_dense_draw_on_random_cycle_nets(text, seed):
    system = petri_to_system(parse_petri(text))
    assume(system.classify().irreducible)
    measure = uniform_measure(system)
    for start in system.states[:3]:
        want = _dense_mcsc_nodes(measure, start, 100, seed)
        assert sample_mcsc(measure, start, 100, seed).nodes == want, start


# sha256 of the stdout of ``sample --mode mcsc --json``: (system, start,
# steps, count, seed), where start None is the base state and "last" the
# last state of the system
MCSC_DIGESTS = {
    ("two_state", None, 1, 5, 0): "ffed725dbfb6311a68873b51a281defca567ae3ad5e258f38d55f28a9ed55c84",
    ("two_state", None, 20, 3, 1): "e4ab3ef3181f8977cfc1f1d3afb100b02adf41839868ea480d38f95bc964a998",
    ("two_state", None, 60, 2, 7): "36060a2f1e1d961cbeb23121b1040df9c3951e31545466954105f8c27471af80",
    ("two_state", "last", 30, 2, 3): "b8a708042951cdae09a33882deff6be25816b2d015cfafd2df07a6dd69be297c",
    ("canonical_abc", None, 1, 5, 0): "4b90059f111bc054f829e99f55abb0b54f4675bdff9f88d34085cdf6bbd05243",
    ("canonical_abc", None, 20, 3, 1): "cd99b7ba85a548ca729b1fe507c4e42df99f551efc5f88ae2540bba576708fbe",
    ("canonical_abc", None, 60, 2, 7): "3766c759be4f10088646767af276e56c0752fa2710050a76ac999ad72aa26f74",
    ("canonical_abc", "last", 30, 2, 3): "ef2927e2a2acf85b538a040d214e0d3c021e4f02f8e559ec3086f1fcaf3a817c",
    ("aztec", None, 1, 5, 0): "e42f7657bb4c1b28a4ea21c8ebb5a66900cd9127c96f5098e8892a3900e3d87b",
    ("aztec", None, 20, 3, 1): "f65ef1c69afad1bbf590ddfcaa288767a946e39597d2ed2e89b7aa3ac8854c5a",
    ("aztec", None, 60, 2, 7): "62311e23129adb6bca311b4be9c82076e9ec483832825d7309f641f601b45651",
    ("aztec", "last", 30, 2, 3): "e6c9ffd5dbfdeffd9314fbabc4d1569084aa039d942bbd0a12034b1276092021",
    ("two_terminal", None, 1, 5, 0): "e42f7657bb4c1b28a4ea21c8ebb5a66900cd9127c96f5098e8892a3900e3d87b",
    ("two_terminal", None, 20, 3, 1): "3511802211e011458be044a438fa39b86cacf093ddc8c913d778365bfbc48e2b",
    ("two_terminal", None, 60, 2, 7): "b7903f455e92bdd0b3e87625170f27b9330f1bc530a483da286b821d5542e6a2",
    ("two_terminal", "last", 30, 2, 3): "dcb00bf49c83d1c9f00bc0d6f900f6503b38d0f08984ca3aca9ff9fb4a94b3b4",
    ("phil4", None, 1, 5, 0): "45ffff75ea4a1cea6143bc3cd34be4de273050780fca2f56764ff15d32ba503b",
    ("phil4", None, 20, 3, 1): "d7feee76c047f3ecc7a316a7616c31536f0d31734fdf94ec2e0f5c3d532bfd82",
    ("phil4", None, 60, 2, 7): "b36263d49cf726f06dae793f5e7d688ba1bfb9ad64d519f472e26d20bd052fa3",
    ("phil4", "last", 30, 2, 3): "7564ca42dc4852e0ff55a413406e9bed26b2aefe970b9dc01bbfbe9c6515d8ba",
    ("phil5", None, 1, 5, 0): "774109be1066dd91320c55ffd5c5e84997d0b360a6415d6b4610dc3c7727a46b",
    ("phil5", None, 20, 3, 1): "f372af18eb42f73a3f136030561b382ddbd42c3ef4f439f3004faea584658bb7",
    ("phil5", None, 60, 2, 7): "60b8219312cfca7e170adbfb0d1caad1bba2ed36d9b398ca9eecc061b1768845",
    ("phil5", "last", 30, 2, 3): "5413e664ce4d3395c61929259b6e955bb674dfda61fa2d10afb4a55bba3244ee",
    ("path8", None, 1, 5, 0): "0cf404512caf0303f18d92ee9a97b05d196a45a5939293b2659589aae261ff4e",
    ("path8", None, 20, 3, 1): "6ac3427f5fea71002946e6bde4ef7c67267f531204a557bc8504c3841c7b0a49",
    ("path8", None, 60, 2, 7): "0d2481e21dde18144478145845648de6c92c7d85b3b5c7144e1374d7b87a9109",
    ("path8", "last", 30, 2, 3): "02e8d7bd7bfccae32a4f25eff1b7b9f191cd824ea0569e2d4b770d74fcd84847",
}
MCSC_FILES = {
    f.name: f
    for f in [
        *(inputs.fixture_file(name) for name in inputs.FIXTURE_NAMES),
        inputs.phil_file(4),
        inputs.phil_file(5),
        inputs.path_file(8),
    ]
}


@pytest.mark.parametrize(
    "cell", sorted(MCSC_DIGESTS, key=str), ids=lambda cell: "-".join(map(str, cell))
)
def test_mcsc_samples_equal_recorded_digests(cell, tmp_path, capsys):
    name, start, steps, count, seed = cell
    f = MCSC_FILES[name]
    path = tmp_path / f.filename
    path.write_text(f.text, encoding="utf-8")
    argv = ["sample", *f.argv(str(path)), "--mode", "mcsc", "--steps", str(steps),
            "--count", str(count), "--seed", str(seed), "--json"]
    if start == "last":
        argv += ["--start", load_system(f).states[-1]]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == MCSC_DIGESTS[cell]


# ------------------------------------------------------------ uniform finite sampling

def test_uniform_finite_matches_oracle_support(e1):
    oracle_set = {
        "".join(nf.word()) for nf in enumerate_executions(e1, "s0", 2).traces
    }
    sampler = UniformExecutionSampler(e1, "s0", 2)
    assert sampler.total == len(oracle_set)
    rng = SplitMix64(0)
    seen = {"".join(sampler.sample(rng)) for _ in range(500)}
    assert seen == oracle_set


def test_uniform_finite_zero_length(e1):
    assert UniformExecutionSampler(e1, "s0", 0).sample(SplitMix64(0)) == ()


def test_uniform_finite_length_one(e1):
    sampler = UniformExecutionSampler(e1, "s0", 1)
    counts = Counter(sampler.sample(SplitMix64(k))[0] for k in range(3000))
    assert set(counts) == {"a", "b", "d"}
    for v in counts.values():
        assert abs(v / 3000 - 1 / 3) < 0.05


def test_uniform_finite_empty_set():
    monoid = TraceMonoid("ab", [])
    system = ConcurrentSystem(monoid, ["s", "t"], {("s", "a"): "t"})
    with pytest.raises(EmptySet):
        UniformExecutionSampler(system, "s", 2).sample(SplitMix64(0))


def test_uniform_finite_exactness_4sigma(e1):
    # all lengths up to 4, pooled draws, binomial 4-sigma per trace
    rng = SplitMix64(2024)
    for n in range(1, 5):
        sampler = UniformExecutionSampler(e1, "s0", n)
        total = sampler.total
        samples = 25_000
        counts = Counter("".join(sampler.sample(rng)) for _ in range(samples))
        assert len(counts) == total
        p = 1 / total
        sigma = (samples * p * (1 - p)) ** 0.5
        for trace, got in counts.items():
            assert abs(got - samples * p) <= 4 * sigma, (n, trace)


def test_table_bound_covers_the_held_table():
    # path10 at L = 1,200 holds about 6 MB of counts; the running bound the
    # cap is checked against must not fall below what tracemalloc measures
    system = load_system(inputs.path_file(10))
    UniformExecutionSampler(system, system.base_state, 1)  # the dsc and its lazy parts
    tracemalloc.start()
    try:
        sampler = UniformExecutionSampler(system, system.base_state, 1200)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held > 4 << 20
    assert sampler.held_bytes >= held


def test_table_over_the_cap_is_refused(monkeypatch):
    system = load_system(inputs.path_file(10))
    small = UniformExecutionSampler(system, system.base_state, 40)
    monkeypatch.setattr(sampling, "TABLE_CAP_BYTES", small.held_bytes)
    again = UniformExecutionSampler(system, system.base_state, 40)
    assert again._counts == small._counts
    with pytest.raises(CapExceeded, match="at length 41 of 1000"):
        UniformExecutionSampler(system, system.base_state, 1000)


@pytest.mark.parametrize("name", sorted(ALL_SYSTEMS))
def test_uniform_total_equals_path_count(name):
    system = ALL_SYSTEMS[name]()
    adsc = build_adsc(build_dsc(system))
    for start in system.states:
        table = count_paths_table(adsc, start, 12)
        for length in range(13):
            want = sum(table[length])
            if want == 0:
                with pytest.raises(EmptySet):
                    UniformExecutionSampler(system, start, length)
            else:
                assert UniformExecutionSampler(system, start, length).total == want


COUNT_LENGTH = 40


def _assert_counts_equal_the_adsc_paths(system, length):
    """For every start and every m <= length: the sampler's counts F[m] equal
    the adsc path counts at each dsc node's first triple, and the counts of
    the build with one sum per node; its total is their sum over the
    start's nodes; EmptySet exactly where that sum is 0."""
    adsc = build_adsc(build_dsc(system))
    paths = paths_by_first_letter(adsc, length)
    heads = [k for k, (_s, _c, i) in enumerate(adsc.nodes) if i == 1]  # in dsc order
    want_counts = [[row[k] for k in heads] for row in paths]
    assert per_node_counts(system, length) == want_counts
    for start in system.states:
        firsts = [k for k in heads if adsc.nodes[k][0] == start]
        for m in range(length + 1):
            want = sum(paths[m][k] for k in firsts) if m else 1
            if want == 0:
                with pytest.raises(EmptySet):
                    UniformExecutionSampler(system, start, m)
                continue
            sampler = UniformExecutionSampler(system, start, m)
            assert sampler.total == want, (start, m)
            assert sampler._counts == want_counts[: m + 1], (start, m)


@pytest.mark.parametrize("name", sorted(LIMIT_SYSTEMS))
def test_counts_equal_the_adsc_paths(name):
    _assert_counts_equal_the_adsc_paths(LIMIT_SYSTEMS[name](), COUNT_LENGTH)


@settings(max_examples=25, deadline=None)
@given(text=cycle_nets())
def test_counts_equal_the_adsc_paths_on_random_cycle_nets(text):
    _assert_counts_equal_the_adsc_paths(petri_to_system(parse_petri(text)), 10)


@settings(max_examples=100, deadline=None)
@given(system=random_systems())
def test_counts_equal_the_adsc_paths_on_random_systems(system):
    _assert_counts_equal_the_adsc_paths(system, 12)


def test_nodes_with_equal_terms_share_one_count():
    # path10: 143 dsc nodes in 23 classes of equal term lists; a row holds
    # one int object per class, so the table holds about a sixth of the ints
    system = load_system(inputs.path_file(10))
    terms = count_terms(system)
    classes = len({tuple(sorted(idx)) for idx in terms})
    assert (len(terms), classes) == (143, 23)
    sampler = UniformExecutionSampler(system, system.base_state, 200)
    assert sampler._counts == per_node_counts(system, 200)
    for row in sampler._counts:
        assert len({id(x) for x in row}) <= classes


def test_sampled_words_replay(aztec):
    rng = SplitMix64(5)
    sampler = UniformExecutionSampler(aztec, "0", 7)
    for _ in range(200):
        word = sampler.sample(rng)
        assert aztec.act("0", word) is not None


# ------------------------------------------------------------ first-clique statistics

def test_first_clique_report_e1(e1, e1_measure):
    rep = empirical_first_clique(e1, e1_measure, "s0", 12, 5000, seed=17)
    assert rep.tv_distance <= 0.02
    d = next(c for c in rep.expected if str(c) == "d")
    assert rep.expected[d] == pytest.approx(0.0, abs=1e-9)
    assert rep.frequencies[d] <= 0.01


def test_first_clique_length_one_is_letter_uniform(e1, e1_measure):
    rep = empirical_first_clique(e1, e1_measure, "s0", 1, 6000, seed=4)
    for c, freq in rep.frequencies.items():
        want = 1 / 3 if c.size == 1 and str(c) != "c" else 0.0
        assert abs(freq - want) < 0.05


def test_first_clique_report_refuses_length_zero(e1, e1_measure):
    with pytest.raises(TraceSysError, match="length must be positive"):
        empirical_first_clique(e1, e1_measure, "s0", 0, 10, seed=1)
