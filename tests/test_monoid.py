from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import normal_step, restrict

from tracesys.errors import (
    AlphabetTooLarge,
    DuplicateLetter,
    ReflexivePair,
    UnknownLetter,
    UnknownLetterInPair,
)
from tracesys.monoid import TraceMonoid
from tracesys.system import ConcurrentSystem


def tm1():
    return TraceMonoid("abc", [("a", "b")])


def e1_monoid():
    return TraceMonoid("abcd", [("a", "d"), ("b", "d")])


# ------------------------------------------------------------ validation

def test_validate_accepts_and_symmetrizes():
    m = tm1()
    assert m.independent("a", "b") and m.independent("b", "a")
    assert m.dependent("a", "c")
    assert m.dependent("a", "a")  # dependence is reflexive


def test_validate_free_monoid_single_letter():
    m = TraceMonoid("a", [])
    assert [str(c) for c in m.cliques()] == ["ε", "a"]
    assert m.is_irreducible()


def test_validate_rejections():
    with pytest.raises(ReflexivePair):
        TraceMonoid("ab", [("a", "a")])
    with pytest.raises(DuplicateLetter):
        TraceMonoid("aa", [])
    with pytest.raises(UnknownLetterInPair):
        TraceMonoid("ab", [("a", "z")])
    with pytest.raises(AlphabetTooLarge):
        TraceMonoid([f"x{i}" for i in range(21)], [])


# ------------------------------------------------------------ cliques

def test_cliques_tm1():
    assert [str(c) for c in tm1().cliques()] == ["ε", "a", "b", "c", "ab"]


def test_cliques_free_two_letters():
    m = TraceMonoid("ab", [])
    assert [str(c) for c in m.cliques()] == ["ε", "a", "b"]


def test_cliques_e1():
    assert [str(c) for c in e1_monoid().cliques()] == [
        "ε", "a", "b", "c", "d", "ad", "bd",
    ]


@pytest.mark.parametrize("n_letters,pairs", [
    (4, [("a", "d"), ("b", "d")]),
    (5, [("a", "b"), ("d", "e")]),
    (6, [("a", "b"), ("a", "d"), ("b", "f"), ("c", "d"), ("c", "e"), ("e", "f")]),
])
def test_clique_count_matches_power_set_scan(n_letters, pairs):
    letters = "abcdef"[:n_letters]
    m = TraceMonoid(letters, pairs)
    brute = 0
    for k in range(n_letters + 1):
        for sub in combinations(letters, k):
            if all(m.independent(x, y) for x, y in combinations(sub, 2)):
                brute += 1
    assert len(m.cliques()) == brute


# ------------------------------------------------------------ normal form

def test_normal_form_aab():
    nf = tm1().normal_form("aab")
    assert [str(c) for c in nf.cliques] == ["ab", "a"]
    assert nf.height == 2
    assert nf.length == 3


def test_normal_form_empty():
    nf = tm1().normal_form("")
    assert nf.height == 0 and nf.cliques == ()


def test_normal_form_commutation():
    m = tm1()
    assert m.normal_form("ba") == m.normal_form("ab")
    assert str(m.normal_form("ba").cliques[0]) == "ab"


def test_normal_form_unknown_letter():
    with pytest.raises(UnknownLetter):
        tm1().normal_form("az")


def test_traces_equal():
    m = tm1()
    assert m.normal_form("ab") == m.normal_form("ba")
    assert m.normal_form("abc") == m.normal_form("bac")
    assert m.normal_form("ac") != m.normal_form("ca")
    free = TraceMonoid("ab", [])
    assert free.normal_form("ab") != free.normal_form("ba")


def _letter_multiset(word):
    out = {}
    for a in word:
        out[a] = out.get(a, 0) + 1
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from("abcd"), max_size=12), st.data())
def test_normal_form_properties(word, data):
    m = e1_monoid()
    nf = m.normal_form(word)
    # consecutive cliques are in normal position
    for c, d in zip(nf.cliques, nf.cliques[1:]):
        assert normal_step(m, c, d)
    # reassembly is trace-equal to the input and preserves letters
    assert m.normal_form(nf.word()) == m.normal_form(word)
    assert _letter_multiset(nf.word()) == _letter_multiset(word)
    # invariance under one adjacent independent swap
    swaps = [
        i for i in range(len(word) - 1) if m.independent(word[i], word[i + 1])
    ]
    if swaps:
        i = data.draw(st.sampled_from(swaps))
        swapped = word[:i] + [word[i + 1], word[i]] + word[i + 2:]
        assert m.normal_form(swapped) == nf


def test_normal_form_invariant_under_all_single_swaps():
    m = e1_monoid()
    word = "abdadbdc"
    nf = m.normal_form(word)
    for i in range(len(word) - 1):
        if m.independent(word[i], word[i + 1]):
            swapped = word[:i] + word[i + 1] + word[i] + word[i + 2:]
            assert m.normal_form(swapped) == nf


# ------------------------------------------------------------ polynomial, irreducibility

def test_mobius_polynomial_examples():
    assert tm1().mobius_polynomial() == (1, -3, 1)
    assert TraceMonoid("abc", []).mobius_polynomial() == (1, -3)
    assert e1_monoid().mobius_polynomial() == (1, -4, 2)


def test_mobius_polynomial_product_split():
    # independent split multiplies the polynomials: <a,b | ab=ba> = (1-z)^2
    m = TraceMonoid("ab", [("a", "b")])
    assert m.mobius_polynomial() == (1, -2, 1)


def test_irreducibility():
    assert tm1().is_irreducible()
    assert not TraceMonoid("ab", [("a", "b")]).is_irreducible()
    aztec = TraceMonoid("abcde", [("a", "b"), ("d", "e")])
    assert aztec.is_irreducible()
    split = TraceMonoid("ab", [("a", "b")])
    assert split.coxeter_components() == (("a",), ("b",))


def test_restrict_letters():
    m = e1_monoid()
    sub = restrict(ConcurrentSystem.canonical(m), "c").monoid
    assert sub.letters == ("a", "b", "d")
    assert sub.independent_pairs == (("a", "d"), ("b", "d"))


def test_clique_count_twelve_letters():
    # deterministic pseudo-random independence on a 12-letter alphabet
    letters = "abcdefghijkl"
    pairs = [
        (letters[i], letters[j])
        for i in range(12)
        for j in range(i + 1, 12)
        if (i * 7 + j * 11) % 3 == 0
    ]
    m = TraceMonoid(letters, pairs)
    brute = 0
    for mask in range(1 << 12):
        sub = [letters[i] for i in range(12) if mask >> i & 1]
        if all(m.independent(x, y) for x, y in combinations(sub, 2)):
            brute += 1
    assert len(m.cliques()) == brute
