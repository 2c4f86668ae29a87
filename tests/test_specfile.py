import pytest

from tracesys.errors import DiamondViolation, ParseError
from tracesys.fixtures import aztec_system, two_state_system
from tracesys.specfile import parse_system, render_system

E1_TEXT = """\
# two states, four letters
[alphabet] a b c d
[independence] a d ; b d

[states] s0 s1
[base] s0
[action]
s0 a s0
s0 b s1
s0 d s0
s1 c s0
s1 d s1
"""


def test_parse_e1():
    system = parse_system(E1_TEXT)
    ref = two_state_system()
    assert system.states == ref.states
    assert system.monoid.letters == ref.monoid.letters
    assert system.monoid.independent_pairs == ref.monoid.independent_pairs
    assert system.letter_arcs() == ref.letter_arcs()
    assert system.base_state == "s0"


def test_parse_missing_states():
    with pytest.raises(ParseError) as exc:
        parse_system("[alphabet] a\n[action]\n")
    assert "states" in str(exc.value)


def test_parse_diamond_violation_propagates():
    text = """\
[alphabet] a d
[independence] a d
[states] s0 s1
[action]
s0 a s1
s0 d s0
"""
    with pytest.raises(DiamondViolation):
        parse_system(text)


def test_parse_bot_entries():
    text = """\
[alphabet] a b
[states] s
[action]
s a s
s b BOT
"""
    system = parse_system(text)
    assert system.act("s", "a") == "s"
    assert system.act("s", "b") is None


def test_parse_errors_are_line_anchored():
    text = "[alphabet] a\n[states] s\n[action]\ns a s\ns z s\n"
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert exc.value.line_no == 5


def test_parse_rejects_duplicate_action():
    text = "[alphabet] a\n[states] s t\n[action]\ns a s\ns a t\n"
    with pytest.raises(ParseError):
        parse_system(text)


def test_parse_rejects_bot_state_name():
    with pytest.raises(ParseError):
        parse_system("[alphabet] a\n[states] BOT\n[action]\n")


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("[alphabet] a b\n a\n[states] s\n[action]\ns a s\n", 2, "duplicate letter 'a'"),
        ("[alphabet] a\n[states] s\nt s\n[action]\ns a s\n", 3, "duplicate state 's'"),
        (
            "[alphabet] a b c\n[independence] a b c\n[states] s\n[action]\ns a s\n",
            2,
            "independence pair 'a b c' is not two letters",
        ),
        (
            "[alphabet] a b\n[independence] a\nb ; a\n[states] s\n[action]\ns a s\n",
            3,
            "independence pair 'a' is not two letters",
        ),
        (
            "[alphabet] a\n[states] s\n  BOT\n[action]\ns a s\n",
            3,
            "'BOT' is reserved for the sink and cannot name a state",
        ),
    ],
)
def test_parse_errors_name_the_token_line(text, line_no, message):
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {message}"


def test_parse_rejects_unknown_section():
    with pytest.raises(ParseError):
        parse_system("[alphabet] a\n[wrong] x\n[states] s\n[action]\n")


def test_parse_rejects_stray_content():
    with pytest.raises(ParseError):
        parse_system("stray\n[alphabet] a\n[states] s\n[action]\n")


def test_parse_multiline_sections():
    text = """\
[alphabet]
a b
c d
[independence]
a d
; b d
[states]
s0
s1
[action]
s0 a s0
"""
    system = parse_system(text)
    assert system.monoid.letters == ("a", "b", "c", "d")
    assert system.monoid.independent_pairs == (("a", "d"), ("b", "d"))


@pytest.mark.parametrize("build", [two_state_system, aztec_system])
def test_round_trip(build):
    system = build()
    again = parse_system(render_system(system))
    assert again.states == system.states
    assert again.monoid.letters == system.monoid.letters
    assert again.monoid.independent_pairs == system.monoid.independent_pairs
    assert again.letter_arcs() == system.letter_arcs()
    assert again.base_state == system.base_state
    # rendering is a fixed point
    assert render_system(again) == render_system(system)
