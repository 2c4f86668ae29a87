import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import find_linking_execution, restrict
from test_petri import cycle_nets

from tracesys.analysis import spectral_property_report
from tracesys.errors import DiamondViolation, NotAccessible, UnknownLetter, UnknownState
from tracesys.fixtures import two_state_system
from tracesys.monoid import TraceMonoid
from tracesys.oracle import enumerate_executions
from tracesys.petri import parse_petri, petri_to_system
from tracesys.system import ConcurrentSystem, SystemClassification


def e1_without(*removed):
    base = two_state_system()
    action = {(s, a): t for s, a, t in base.letter_arcs() if (s, a) not in removed}
    return ConcurrentSystem(base.monoid, base.states, action)


# ------------------------------------------------------------ validation

def test_validate_e1(e1):
    assert e1.act("s0", "a") == "s0"
    assert e1.act("s0", "b") == "s1"
    assert e1.act("s1", "c") == "s0"


def test_validate_aztec(aztec):
    assert aztec.act("0", "a") == "1"
    assert aztec.act("0", "b") == "2"
    assert aztec.act("0", "c") is None


def test_diamond_violation():
    monoid = TraceMonoid("abcd", [("a", "d"), ("b", "d")])
    # s0.(ad) hits the sink (s1 has no d) while s0.(da) = s1 survives
    action = {
        ("s0", "a"): "s1",
        ("s0", "d"): "s0",
        ("s1", "c"): "s0",
    }
    with pytest.raises(DiamondViolation) as exc:
        ConcurrentSystem(monoid, ["s0", "s1"], action)
    assert exc.value.state == "s0"
    assert {exc.value.a, exc.value.b} == {"a", "d"}


def test_unknown_names():
    monoid = TraceMonoid("ab", [])
    with pytest.raises(UnknownState):
        ConcurrentSystem(monoid, ["s"], {("t", "a"): "s"})
    with pytest.raises(UnknownLetter):
        ConcurrentSystem(monoid, ["s"], {("s", "z"): "s"})


# ------------------------------------------------------------ action

def test_act_fold(e1):
    assert e1.act("s0", "bcd") == "s0"
    assert e1.act("s0", "") == "s0"
    assert e1.act("s0", "c") is None
    # sink is absorbing
    assert e1.act("s0", "ca") is None


def test_act_representative_independence(e1):
    # trace-equal words act identically
    assert e1.act("s0", "ad") == e1.act("s0", "da")
    assert e1.act("s0", "bd") == e1.act("s0", "db")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from("abcd"), max_size=10))
def test_act_invariant_under_swaps(word):
    system = two_state_system()
    m = system.monoid
    for s in system.states:
        base = system.act(s, word)
        for i in range(len(word) - 1):
            if m.independent(word[i], word[i + 1]):
                swapped = word[:i] + [word[i + 1], word[i]] + word[i + 2:]
                assert system.act(s, swapped) == base


def test_bot_absorption(e1):
    for s in e1.states:
        for w in ("c", "cc", "ac"):
            if e1.act(s, w) is None:
                assert e1.act(s, w + "a") is None
                assert e1.act(s, w + "d") is None


# ------------------------------------------------------------ enabled cliques

def test_enabled_cliques_e1(e1):
    assert [str(c) for c in e1.enabled_cliques("s0")] == ["a", "b", "d", "ad", "bd"]
    assert [str(c) for c in e1.enabled_cliques("s1")] == ["c", "d"]
    assert [(str(c), e1.states[t]) for c, t in e1.moves[e1.state_index("s1")]] == [
        ("ε", "s1"), ("c", "s0"), ("d", "s1")
    ]
    assert tuple(a for s, a, _t in e1.letter_arcs() if s == "s0") == ("a", "b", "d")


def test_enabled_cliques_canonical(canonical_abc):
    assert canonical_abc.enabled_cliques("*") == canonical_abc.monoid.cliques()[1:]


def folded_moves(system):
    """Per state: (clique, target index) for every clique whose letters the
    action folds to a state, by one ``act`` call per clique."""
    return tuple(
        tuple(
            (c, system.state_index(t))
            for c in system.monoid.cliques()
            for t in [system.act(s, c.letters)]
            if t is not None
        )
        for s in system.states
    )


def check_moves(system):
    assert system.moves == folded_moves(system)
    for i, s in enumerate(system.states):
        assert system.moves[i][0] == (system.monoid.cliques()[0], i)
        assert system.enabled_cliques(s) == tuple(c for c, _t in system.moves[i][1:])


def test_moves_equal_the_folded_action(reference_systems):
    for system in reference_systems.values():
        check_moves(system)


@settings(max_examples=30, deadline=None)
@given(text=cycle_nets())
def test_moves_on_random_cycle_nets(text):
    check_moves(petri_to_system(parse_petri(text)))


# ------------------------------------------------------------ classification

def test_classify_e1(e1):
    cls = e1.classify()
    assert cls.accessible and cls.alive and cls.irreducible and not cls.trivial


def test_classify_twelve(twelve):
    assert twelve.classify().irreducible


def test_classify_not_accessible():
    broken = e1_without(("s1", "c"))
    cls = broken.classify()
    assert not cls.accessible
    assert cls.witnesses["unreachable"] == ("s1", "s0")
    assert not cls.irreducible


def test_classify_dead_letter():
    # drop c entirely: still accessible? s1 only reaches s1, so no.
    # instead kill aliveness while keeping accessibility: impossible for e1
    # without also killing accessibility, so use a fresh two-state example.
    monoid = TraceMonoid("ab", [])
    action = {("s", "a"): "t", ("t", "a"): "s"}
    system = ConcurrentSystem(monoid, ["s", "t"], action)
    cls = system.classify()
    assert cls.accessible and not cls.alive
    assert cls.witnesses["dead"] == ("s", "b")


def test_classify_trivial():
    monoid = TraceMonoid("a", [])
    system = ConcurrentSystem(monoid, ["s"], {})
    cls = system.classify()
    assert cls.trivial and not cls.alive


def reference_coxeter_components(monoid):
    """Connected components of the dependence graph by breadth-first search."""
    seen, comps = set(), []
    for start in monoid.letters:
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [start], [start]
        while queue:
            a = queue.pop()
            for b in monoid.letters:
                if b not in seen and monoid.dependent(a, b):
                    seen.add(b)
                    comp.append(b)
                    queue.append(b)
        comps.append(tuple(sorted(comp, key=monoid.letter_index)))
    return tuple(comps)


def reference_classify(system):
    """Classification by one search per state, each keeping its reach set."""
    states, letters = system.states, system.monoid.letters
    reach = {}
    for s in states:
        seen, queue = {s}, [s]
        while queue:
            u = queue.pop()
            for a in letters:
                t = system.act(u, [a])
                if t is not None and t not in seen:
                    seen.add(t)
                    queue.append(t)
        reach[s] = seen
    unreachable = next(
        ((s, t) for s in states for t in states if t not in reach[s]), None
    )
    dead = next(
        (
            (s, a)
            for s in states
            for a in letters
            if all(system.act(t, [a]) is None for t in reach[s])
        ),
        None,
    )
    coxeter = reference_coxeter_components(system.monoid)
    witnesses = {}
    if unreachable:
        witnesses["unreachable"] = unreachable
    if dead:
        witnesses["dead"] = dead
    if len(coxeter) > 1:
        witnesses["coxeter_components"] = coxeter
    return SystemClassification(
        trivial=not system.letter_arcs(),
        accessible=unreachable is None,
        alive=dead is None,
        monoid_irreducible=len(coxeter) == 1,
        irreducible=unreachable is None and dead is None and len(coxeter) == 1,
        witnesses=witnesses,
    )


@st.composite
def random_systems(draw):
    """Random tables with sink entries, so with unreachable states and dead
    letters; any letter pair that commutes at every state may be declared
    independent."""
    n = draw(st.integers(1, 7))
    letters = "abcd"[: draw(st.integers(1, 4))]
    k = len(letters)
    table = draw(st.lists(
        st.lists(st.none() | st.integers(0, n - 1), min_size=k, max_size=k),
        min_size=n, max_size=n,
    ))

    def step(si, ai):
        return None if si is None else table[si][ai]

    commuting = [
        (letters[i], letters[j])
        for i in range(k)
        for j in range(i + 1, k)
        if all(step(step(s, i), j) == step(step(s, j), i) for s in range(n))
    ]
    pairs = draw(st.lists(st.sampled_from(commuting), unique=True)) if commuting else []
    states = [f"s{i}" for i in range(n)]
    action = {
        (states[si], letters[ai]): states[t]
        for si, row in enumerate(table)
        for ai, t in enumerate(row)
        if t is not None
    }
    return ConcurrentSystem(TraceMonoid(letters, pairs), states, action)


@settings(max_examples=400, deadline=None)
@given(random_systems())
def test_classify_matches_per_state_search(system):
    assert system.classify() == reference_classify(system)


@settings(max_examples=300, deadline=None)
@given(random_systems())
def test_spectral_property_iff_irreducible_on_random_systems(system):
    # the paper's main equivalence, where it applies: an accessible,
    # non-trivial system is irreducible iff it has the spectral property
    cls = system.classify()
    if cls.accessible and not cls.trivial:
        assert cls.irreducible == spectral_property_report(system).holds


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coxeter_components_match_bfs(data):
    n = data.draw(st.integers(1, 20))
    letters = [f"x{i}" for i in range(n)]
    # letters in different blocks are independent; within a block, some are
    block = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = data.draw(st.sets(st.sampled_from(all_pairs))) if all_pairs else set()
    pairs = [
        (letters[i], letters[j])
        for i, j in all_pairs
        if block[i] != block[j] or (i, j) in extra
    ]
    monoid = TraceMonoid(letters, pairs)
    assert monoid.coxeter_components() == reference_coxeter_components(monoid)


def torus_system(m):
    """Product of three m-cycles, one letter per coordinate: m**3 states."""
    def name(i, j, k):
        return f"{i % m}.{j % m}.{k % m}"

    cells = [(i, j, k) for i in range(m) for j in range(m) for k in range(m)]
    action = {}
    for i, j, k in cells:
        action[(name(i, j, k), "a")] = name(i + 1, j, k)
        action[(name(i, j, k), "b")] = name(i, j + 1, k)
        action[(name(i, j, k), "c")] = name(i, j, k + 1)
    return ConcurrentSystem(TraceMonoid("abc", []), [name(*c) for c in cells], action)


def test_classify_memory_is_linear():
    system = torus_system(10)
    tracemalloc.start()
    try:
        cls = system.classify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cls.irreducible
    assert peak < 4 * 2**20, f"classifying 1000 states peaked at {peak} bytes"


# ------------------------------------------------------------ restriction

def test_restrict_e1(e1):
    sub = restrict(e1, "c")
    assert sub.monoid.letters == ("a", "b", "d")
    assert tuple(a for s, a, _t in sub.letter_arcs() if s == "s1") == ("d",)
    assert not sub.classify().accessible


def test_restrict_dead_letter_preserves_executions():
    base = two_state_system()
    monoid = TraceMonoid("abcde", [("a", "d"), ("b", "d")])
    action = {(s, a): t for s, a, t in base.letter_arcs()}
    system = ConcurrentSystem(monoid, base.states, action)
    sub = restrict(system, "e")
    for n in range(4):
        full = {nf.word() for nf in enumerate_executions(system, "s0", n).traces}
        restricted = {nf.word() for nf in enumerate_executions(sub, "s0", n).traces}
        assert full == restricted


def test_restrict_aztec_disconnects(aztec):
    sub = restrict(aztec, "c")
    cls = sub.classify()
    assert not cls.accessible
    reachable_from_0 = {t for t in sub.states if any(
        sub.act("0", w) == t for w in ["", "a", "b", "ab", "aa", "ba"]
    )}
    assert "3p" not in reachable_from_0


def test_restrict_never_adds_executions(e1):
    sub = restrict(e1, "d")
    for n in range(4):
        full = {nf.word() for nf in enumerate_executions(e1, "s0", n).traces}
        restricted = {nf.word() for nf in enumerate_executions(sub, "s0", n).traces}
        assert restricted <= full


# ------------------------------------------------------------ linking executions

def verify_linking_conditions(system, state, word, root):
    """Independent check of the three witness conditions."""
    if system.act(state, word) is None:
        return False
    m = system.monoid
    # search for a dependence-chained subsequence covering the alphabet,
    # rooted at ``root``; greedy over positions is enough for small words
    needed = set(m.letters)

    def search(pos, prev, seen):
        if seen == needed:
            return True
        for q in range(pos, len(word)):
            if m.dependent(prev, word[q]):
                if search(q + 1, word[q], seen | {word[q]}):
                    return True
        return False

    return any(
        word[p] == root and search(p + 1, root, {root})
        for p in range(len(word))
    )


def test_linking_execution_e1(e1):
    word = find_linking_execution(e1, "s0", "a")
    assert word is not None
    assert verify_linking_conditions(e1, "s0", word, "a")


def test_linking_execution_canonical(canonical_abc):
    word = find_linking_execution(canonical_abc, "*", "c")
    assert word is not None
    assert set(word) == set("abc")


def test_linking_equivalence_with_irreducibility(irreducible_fixtures):
    for system in irreducible_fixtures.values():
        assert system.classify().irreducible
        for s in system.states:
            for a in system.monoid.letters:
                assert find_linking_execution(system, s, a) is not None


def test_linking_fails_without_aliveness():
    # accessible two-state system with a letter enabled nowhere
    monoid = TraceMonoid("abc", [])
    action = {("s", "a"): "t", ("t", "b"): "s"}
    system = ConcurrentSystem(monoid, ["s", "t"], action)
    assert system.classify().accessible and not system.classify().alive
    for s in system.states:
        for a in monoid.letters:
            assert find_linking_execution(system, s, a) is None


def test_linking_requires_accessible():
    broken = e1_without(("s1", "c"))
    with pytest.raises(NotAccessible):
        find_linking_execution(broken, "s0", "a")


def test_canonical_system(canonical_abc):
    cls = canonical_abc.classify()
    assert cls.accessible and cls.alive and cls.irreducible


def test_linking_none_for_reducible_monoid():
    # accessible and alive, but the dependence graph is disconnected:
    # no witness exists from any state for any letter
    monoid = TraceMonoid("ab", [("a", "b")])
    action = {("s", "a"): "t", ("t", "a"): "s", ("s", "b"): "s", ("t", "b"): "t"}
    system = ConcurrentSystem(monoid, ["s", "t"], action)
    cls = system.classify()
    assert cls.accessible and cls.alive and not cls.monoid_irreducible
    for s in system.states:
        for a in monoid.letters:
            assert find_linking_execution(system, s, a) is None
