"""Safe Petri nets and their translation to concurrent systems.

Transitions become letters, reachable markings become states, and two
transitions are independent exactly when their neighborhoods (pre and
post places) are disjoint.  Disjoint neighborhoods make the firing rule
commute, so the translated action always passes the diamond validation.

Input format, in the same line style as system files:

    [places] p1 p2
    [transitions] t u
    [flow]
    p1 -> t, t -> p2
    [marking] p1
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotOneBounded, ParseError, StateExplosion
from .monoid import TraceMonoid
from .specfile import scan_sections
from .system import ConcurrentSystem

DEFAULT_MARKING_CAP = 100_000

_SECTIONS = ("places", "transitions", "flow", "marking")


@dataclass(frozen=True)
class SafePetriNet:
    places: tuple[str, ...]
    transitions: tuple[str, ...]
    pre: dict[str, frozenset[str]]
    post: dict[str, frozenset[str]]
    marking: frozenset[str]


def parse_petri(text: str) -> SafePetriNet:
    sections: dict[str, list[tuple[int, str]]] = {s: [] for s in _SECTIONS}
    for line_no, section, chunk in scan_sections(text, _SECTIONS):
        sections[section].append((line_no, chunk))
    for required in ("places", "transitions", "marking"):
        if not sections[required]:
            raise ParseError(0, f"missing [{required}] section")

    kind: dict[str, str] = {}  # declared name -> its section
    for section in ("places", "transitions"):
        for line_no, chunk in sections[section]:
            for tok in chunk.split():
                if tok in kind:
                    raise ParseError(line_no, f"{tok!r} is declared twice")
                kind[tok] = section
    places = [x for x, k in kind.items() if k == "places"]
    transitions = [x for x, k in kind.items() if k == "transitions"]
    place_set, trans_set = set(places), set(transitions)

    pre = {t: set() for t in transitions}
    post = {t: set() for t in transitions}
    for line_no, chunk in sections["flow"]:
        for arc in chunk.split(","):
            arc = arc.strip()
            if not arc:
                continue
            parts = arc.split()
            if len(parts) != 3 or parts[1] != "->":
                raise ParseError(line_no, f"malformed arc {arc!r}")
            x, _, y = parts
            if x in place_set and y in trans_set:
                pre[y].add(x)
            elif x in trans_set and y in place_set:
                post[x].add(y)
            else:
                raise ParseError(
                    line_no, f"arc {arc!r} must connect a place and a transition"
                )

    marking = []
    for line_no, chunk in sections["marking"]:
        for p in chunk.split():
            if p not in place_set:
                raise ParseError(line_no, f"marked name {p!r} is not a place")
            marking.append(p)

    return SafePetriNet(
        places=tuple(places),
        transitions=tuple(transitions),
        pre={t: frozenset(pre[t]) for t in transitions},
        post={t: frozenset(post[t]) for t in transitions},
        marking=frozenset(marking),
    )


def marking_name(net: SafePetriNet, marking: frozenset[str]) -> str:
    return "{" + ",".join(p for p in net.places if p in marking) + "}"


def petri_to_system(
    net: SafePetriNet, max_markings: int = DEFAULT_MARKING_CAP
) -> ConcurrentSystem:
    """Explore the marking graph breadth-first and build the system.

    Firing is the standard token rule; a firing that would put a second
    token on a place is a one-boundedness violation and an error, not a
    disabled transition.
    """
    neighborhood = {t: net.pre[t] | net.post[t] for t in net.transitions}
    pairs = [
        (t, u)
        for i, t in enumerate(net.transitions)
        for u in net.transitions[i + 1 :]
        if not neighborhood[t] & neighborhood[u]
    ]
    monoid = TraceMonoid(net.transitions, pairs)

    order: list[frozenset[str]] = [net.marking]
    index = {net.marking: 0}
    action: dict[tuple[str, str], str] = {}
    head = 0
    while head < len(order):
        marking = order[head]
        head += 1
        for t in net.transitions:
            if not net.pre[t] <= marking:
                continue
            removed = marking - net.pre[t]
            if removed & net.post[t]:
                raise NotOneBounded(marking, t)
            new = removed | net.post[t]
            if new not in index:
                if len(order) >= max_markings:
                    raise StateExplosion(
                        f"more than {max_markings} reachable markings"
                    )
                index[new] = len(order)
                order.append(new)
            action[(marking_name(net, marking), t)] = marking_name(net, new)
    states = [marking_name(net, m) for m in order]
    return ConcurrentSystem(monoid, states, action, base_state=states[0])
