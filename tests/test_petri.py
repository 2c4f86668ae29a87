import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracesys.cli import main
from tracesys.errors import NotOneBounded, ParseError, StateExplosion
from tracesys.oracle import cross_check
from tracesys.petri import parse_petri, petri_to_system

TWO_LOOPS = """\
[places] pa1 pa2 pb1 pb2
[transitions] t1 t2 u1 u2
[flow]
pa1 -> t1, t1 -> pa2
pa2 -> t2, t2 -> pa1
pb1 -> u1, u1 -> pb2
pb2 -> u2, u2 -> pb1
[marking] pa1 pb1
"""


def test_parse_petri():
    net = parse_petri(TWO_LOOPS)
    assert net.places == ("pa1", "pa2", "pb1", "pb2")
    assert net.pre["t1"] == frozenset({"pa1"})
    assert net.post["t1"] == frozenset({"pa2"})
    assert net.marking == frozenset({"pa1", "pb1"})


def test_two_disjoint_loops_commute():
    system = petri_to_system(parse_petri(TWO_LOOPS))
    assert len(system.states) == 4
    # disjoint neighborhoods: the two loops are fully independent
    pairs = set(system.monoid.independent_pairs)
    assert pairs == {("t1", "u1"), ("t1", "u2"), ("t2", "u1"), ("t2", "u2")}
    # base state is the initial marking
    assert system.base_state == "{pa1,pb1}"
    assert system.act("{pa1,pb1}", ["t1", "u1"]) == system.act(
        "{pa1,pb1}", ["u1", "t1"]
    )


def test_shared_input_place_is_dependent():
    text = """\
[places] p q r
[transitions] t u
[flow]
p -> t, t -> q
p -> u, u -> r
[marking] p
"""
    system = petri_to_system(parse_petri(text))
    assert system.monoid.independent_pairs == ()
    assert system.monoid.dependent("t", "u")


def test_not_one_bounded():
    # t moves a token onto an already marked, untouched place
    text = """\
[places] p q
[transitions] t
[flow]
p -> t, t -> q
[marking] p q
"""
    with pytest.raises(NotOneBounded) as exc:
        petri_to_system(parse_petri(text))
    assert exc.value.transition == "t"


def test_state_explosion_cap():
    with pytest.raises(StateExplosion):
        petri_to_system(parse_petri(TWO_LOOPS), max_markings=2)


def test_petri_parse_errors():
    with pytest.raises(ParseError):
        parse_petri("[places] p\n[transitions] t\n[flow]\np t\n[marking] p\n")
    with pytest.raises(ParseError):
        parse_petri("[places] p\n[transitions] t\n[flow]\np -> p\n[marking] p\n")
    with pytest.raises(ParseError):
        parse_petri("[places] p\n[transitions] p\n[flow]\n[marking] p\n")
    with pytest.raises(ParseError):
        parse_petri("[places] p\n[transitions] t\n[flow]\n[marking] q\n")


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("[places] p\n[transitions t\n", 2, "unterminated section header"),
        ("# net\n[places] p\n\n[arcs] p -> t\n", 4, "unknown section [arcs]"),
        ("\n# net\np q\n[places] p q\n", 3, "content before any section header"),
        (
            "[places] p\n[transitions] t\n[flow]\np -> t,\nt p  # no arrow\n[marking] p\n",
            5,
            "malformed arc 't p'",
        ),
        (
            "[places] p\n[transitions] t\n[flow]\n[marking] q\n",
            4,
            "marked name 'q' is not a place",
        ),
        (
            "[places] p\n[transitions] t\n[marking] p\nt\n[flow]\n",
            4,
            "marked name 't' is not a place",
        ),
    ],
)
def test_petri_parse_error_lines(text, line_no, message):
    with pytest.raises(ParseError) as exc:
        parse_petri(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {message}"


def test_empty_marking_allowed_when_section_present():
    # a net can start with an empty marking: nothing fires
    text = "[places] p\n[transitions] t\n[flow]\np -> t\n[marking]\n"
    with pytest.raises(ParseError):
        # marking section with no tokens at all is still required to exist;
        # an empty section means an empty initial marking
        parse_petri(text + "[bogus]\n")
    net = parse_petri(text)
    system = petri_to_system(net)
    assert system.states == ("{}",)
    assert system.classify().trivial


def test_petri_diamonds_always_valid():
    # structural independence implies commuting diamonds; the constructor
    # re-checks and must never raise for a translated net
    nets = [TWO_LOOPS]
    shared = """\
[places] p q r s
[transitions] t u v
[flow]
p -> t, t -> q
q -> u, u -> p
r -> v, v -> s
s -> t
[marking] p r
"""
    nets.append(shared)
    for text in nets:
        petri_to_system(parse_petri(text))


@pytest.mark.parametrize("text, line_no", [
    ("[places] p p\n[transitions] t\n[flow]\n[marking] p\n", 1),
    ("[places] p\n[transitions] t\nu t\n[flow]\n[marking] p\n", 3),
    ("[places] p\n[transitions] p\n[flow]\n[marking] p\n", 2),
])
def test_name_declared_twice(text, line_no):
    with pytest.raises(ParseError) as exc:
        parse_petri(text)
    assert exc.value.line_no == line_no


@st.composite
def cycle_nets(draw):
    """Text of a safe net, valid by construction.

    2-3 components, each a cycle of 2-3 places holding one token.  Every
    step of every cycle is a transition, and up to three more transitions
    synchronise a step of one component with a step of another, so each
    transition moves one token or two, and no place ever holds two.
    """
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    moves = [[(i, j)] for i, n in enumerate(sizes) for j in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i, k = draw(st.permutations(range(len(sizes))))[:2]
        moves.append([(i, draw(st.integers(0, sizes[i] - 1))),
                      (k, draw(st.integers(0, sizes[k] - 1)))])
    arcs = [
        f"p{i}_{j} -> t{m}, t{m} -> p{i}_{(j + 1) % sizes[i]}"
        for m, move in enumerate(moves)
        for i, j in move
    ]
    return (
        "[places] " + " ".join(f"p{i}_{j}" for i, n in enumerate(sizes) for j in range(n))
        + "\n[transitions] " + " ".join(f"t{m}" for m in range(len(moves)))
        + "\n[flow]\n" + ",\n".join(arcs)
        + "\n[marking] " + " ".join(f"p{i}_0" for i in range(len(sizes))) + "\n"
    )


def _analyze_json(path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", str(path), "--petri", "--json"])
    return code, out.getvalue()


@settings(max_examples=30, deadline=None)
@given(text=cycle_nets())
def test_random_cycle_nets(text, tmp_path_factory):
    system = petri_to_system(parse_petri(text))
    check = cross_check(system, 4)
    assert check.ok, (check.mismatches[:3], check.inversion_ok)
    path = tmp_path_factory.mktemp("net") / "net.pn"
    path.write_text(text)
    first = _analyze_json(path)
    assert first[0] == 0 and first[1].startswith("{")
    assert _analyze_json(path) == first
    # the paper's main equivalence: irreducible iff removing any one letter
    # strictly shrinks the growth rate
    doc = json.loads(first[1])
    assert doc["classification"]["irreducible"] == doc["spectral_property"]["holds"]
