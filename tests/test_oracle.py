import pytest

from tracesys.errors import CapExceeded
from tracesys.graphs import build_adsc, build_dsc, count_paths_table
from tracesys.monoid import TraceMonoid
from tracesys.oracle import cross_check, enumerate_executions
from tracesys.system import ConcurrentSystem


def test_enumerate_e1_length2(e1):
    exact = enumerate_executions(e1, "s0", 2)
    words = {"".join(nf.word()) for nf in exact.traces}
    # normal-form representatives; the s0 -> s0 slice is the known four
    to_s0 = {
        "".join(nf.word())
        for nf in exact.traces
        if e1.act("s0", nf.word()) == "s0"
    }
    assert to_s0 == {"aa", "ad", "dd", "bc"}
    assert exact.by_target["s0"] == 4
    assert exact.count() == len(words)
    assert sum(exact.by_target.values()) == exact.count()


def test_enumerate_length0(e1):
    exact = enumerate_executions(e1, "s0", 0)
    assert exact.count() == 1
    assert exact.by_target == {"s0": 1}


def test_enumerate_stuck_state():
    monoid = TraceMonoid("a", [])
    system = ConcurrentSystem(monoid, ["s", "t"], {("s", "a"): "t"})
    assert enumerate_executions(system, "t", 1).count() == 0


def test_enumerate_cap():
    monoid = TraceMonoid("a", [])
    system = ConcurrentSystem(monoid, ["s"], {("s", "a"): "s"})
    with pytest.raises(CapExceeded):
        enumerate_executions(system, "s", 9)
    assert enumerate_executions(system, "s", 9, cap=9).count() == 1


def test_dedup_by_normal_form(e1):
    # words ad and da are one trace; the oracle counts it once
    exact = enumerate_executions(e1, "s0", 2)
    ad_like = ["".join(nf.word()) for nf in exact.traces if set(nf.word()) == {"a", "d"}]
    assert ad_like == ["ad"]


def test_cross_check_e1(e1):
    rep = cross_check(e1, 8)
    assert rep.ok and rep.inversion_ok and rep.mismatches == ()


def test_cross_check_canonical_matches_series(canonical_abc):
    rep = cross_check(canonical_abc, 8)
    assert rep.ok
    # growth coefficients are the series expansion of 1/(1 - 3z + z^2)
    table = count_paths_table(build_adsc(build_dsc(canonical_abc)), "*", 8)
    counts = [table[n].get("*", 0) for n in range(9)]
    series = [1]
    mu = (1, -3, 1)
    for n in range(1, 9):
        acc = 0
        for k in range(1, min(n, 2) + 1):
            acc -= mu[k] * series[n - k]
        series.append(acc)
    assert counts == series


def test_cross_check_aztec_small(aztec):
    assert cross_check(aztec, 4).ok


def test_concatenation_decomposition(e1):
    # executions of length p+q are exactly the concatenations through a
    # middle state (a union, not disjoint: splits can coincide as traces)
    p, q = 3, 2
    m = e1.monoid
    for origin in e1.states:
        whole = {nf: None for nf in enumerate_executions(e1, origin, p + q).traces}
        built = set()
        for x in enumerate_executions(e1, origin, p).traces:
            mid = e1.act(origin, x.word())
            for y in enumerate_executions(e1, mid, q).traces:
                built.add(m.normal_form(x.word() + y.word()))
        assert built == set(whole)
