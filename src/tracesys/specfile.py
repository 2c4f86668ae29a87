"""Line-oriented input format for concurrent systems, and its renderer.

    # comment
    [alphabet] a b c d
    [independence] a d ; b d
    [states] s0 s1
    [base] s0            (optional)
    [action]
    s0 a s0
    s1 c BOT

Sections may continue on following lines; ``BOT`` denotes the sink.
The parser reports line-anchored diagnostics and delegates semantic
validation to the system constructor.
"""

from __future__ import annotations

from .errors import ParseError
from .monoid import TraceMonoid
from .system import ConcurrentSystem

SECTIONS = ("alphabet", "independence", "states", "base", "action")
BOT = "BOT"


def scan_sections(text: str, names: tuple[str, ...]):
    """Yield (line_no, section, text) for the lines of a sectioned file.

    Comments and blank lines are dropped.  A ``[name]`` header opens a
    section and yields the rest of its line, possibly empty, so a bare
    header still shows its section.  Both input formats share this
    scanner; each splits the text itself.
    """
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            end = line.find("]")
            if end < 0:
                raise ParseError(line_no, "unterminated section header")
            section = line[1:end].strip()
            if section not in names:
                raise ParseError(line_no, f"unknown section [{section}]")
            yield line_no, section, line[end + 1 :].strip()
        elif section is None:
            raise ParseError(line_no, "content before any section header")
        else:
            yield line_no, section, line


def _distinct(tokens: list[tuple[int, str]], what: str) -> list[str]:
    """The names of (line_no, name) tokens; a repeat is a ParseError at its line."""
    seen: set[str] = set()
    for line_no, name in tokens:
        if name in seen:
            raise ParseError(line_no, f"duplicate {what} {name!r}")
        seen.add(name)
    return [name for _ln, name in tokens]


def parse_system(text: str) -> ConcurrentSystem:
    # (line_no, token) per section; [independence] splits ";" off its letters
    named: dict[str, list[tuple[int, str]]] = {s: [] for s in SECTIONS if s != "action"}
    triples: list[tuple[int, list[str]]] = []
    seen: set[str] = set()

    for line_no, section, chunk in scan_sections(text, SECTIONS):
        tokens = chunk.split()
        if not tokens:  # a section is present only once it has content
            continue
        seen.add(section)
        if section == "action":
            triples.append((line_no, tokens))
        else:
            if section == "independence":
                tokens = chunk.replace(";", " ; ").split()
            named[section].extend((line_no, t) for t in tokens)

    for required in ("alphabet", "states", "action"):
        if required not in seen:
            raise ParseError(0, f"missing [{required}] section")

    pairs = []
    segment: list[tuple[int, str]] = []
    for line_no, tok in named["independence"] + [(0, ";")]:
        if tok == ";":
            if segment:
                if len(segment) != 2:
                    words = " ".join(t for _ln, t in segment)
                    raise ParseError(
                        segment[-1][0], f"independence pair {words!r} is not two letters"
                    )
                pairs.append((segment[0][1], segment[1][1]))
            segment = []
        else:
            segment.append((line_no, tok))

    alphabet = _distinct(named["alphabet"], "letter")
    for line_no, name in named["states"]:
        if name == BOT:
            raise ParseError(
                line_no, f"{BOT!r} is reserved for the sink and cannot name a state"
            )
    states = _distinct(named["states"], "state")
    base = named["base"]
    if len(base) > 1:
        raise ParseError(base[1][0], "more than one base state")
    if base and base[0][1] not in states:
        raise ParseError(base[0][0], f"base state {base[0][1]!r} is not declared")

    state_set, letter_set = set(states), set(alphabet)
    action: dict[tuple[str, str], str | None] = {}
    for line_no, tokens in triples:
        if len(tokens) != 3:
            raise ParseError(line_no, "action entry must be 'state letter state|BOT'")
        s, a, t = tokens
        if s not in state_set:
            raise ParseError(line_no, f"unknown state {s!r}")
        if a not in letter_set:
            raise ParseError(line_no, f"unknown letter {a!r}")
        if t != BOT and t not in state_set:
            raise ParseError(line_no, f"unknown target state {t!r}")
        if (s, a) in action:
            raise ParseError(line_no, f"duplicate action entry for ({s}, {a})")
        action[(s, a)] = None if t == BOT else t

    monoid = TraceMonoid(alphabet, pairs)
    return ConcurrentSystem(
        monoid, states, action, base_state=base[0][1] if base else None
    )


def render_system(system: ConcurrentSystem) -> str:
    """Spec text whose parse is an identical system (round-trip)."""
    lines = [
        "[alphabet] " + " ".join(system.monoid.letters),
        "[independence] "
        + " ; ".join(f"{a} {b}" for a, b in system.monoid.independent_pairs),
        "[states] " + " ".join(system.states),
        "[base] " + system.base_state,
        "[action]",
    ]
    for s, a, t in system.letter_arcs():
        lines.append(f"{s} {a} {t}")
    return "\n".join(lines) + "\n"
