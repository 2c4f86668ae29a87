import pytest

from tracesys.errors import NotOneBounded, ParseError, StateExplosion
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
