from collections import Counter

import pytest

from tracesys.errors import EmptySet, TraceSysError
from tracesys.fixtures import ALL_SYSTEMS
from tracesys.graphs import build_adsc, build_dsc, count_paths
from tracesys.monoid import TraceMonoid
from tracesys.oracle import enumerate_executions
from tracesys.sampling import (
    SplitMix64,
    UniformExecutionSampler,
    empirical_first_clique,
    sample_mcsc,
    sample_uniform_finite,
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
    assert sample_uniform_finite(e1, "s0", 0, seed=0) == ()


def test_uniform_finite_length_one(e1):
    counts = Counter(
        sample_uniform_finite(e1, "s0", 1, seed=k)[0] for k in range(3000)
    )
    assert set(counts) == {"a", "b", "d"}
    for v in counts.values():
        assert abs(v / 3000 - 1 / 3) < 0.05


def test_uniform_finite_empty_set():
    monoid = TraceMonoid("ab", [])
    system = ConcurrentSystem(monoid, ["s", "t"], {("s", "a"): "t"})
    with pytest.raises(EmptySet):
        sample_uniform_finite(system, "s", 2, seed=0)


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


@pytest.mark.parametrize("name", sorted(ALL_SYSTEMS))
def test_uniform_total_equals_path_count(name):
    system = ALL_SYSTEMS[name]()
    adsc = build_adsc(build_dsc(system))
    for start in system.states:
        for length in range(13):
            want = count_paths(adsc, start, None, length)
            if want == 0:
                with pytest.raises(EmptySet):
                    UniformExecutionSampler(system, start, length)
            else:
                assert UniformExecutionSampler(system, start, length).total == want


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


def test_empty_execution_has_no_first_clique(e1):
    sampler = UniformExecutionSampler(e1, "s0", 0)
    with pytest.raises(TraceSysError, match="no first clique"):
        sampler.first_clique(sampler.sample(SplitMix64(1)))


def test_first_clique_report_refuses_length_zero(e1, e1_measure):
    with pytest.raises(TraceSysError, match="length must be positive"):
        empirical_first_clique(e1, e1_measure, "s0", 0, 10, seed=1)
