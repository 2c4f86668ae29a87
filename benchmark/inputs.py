"""Input generators and request lists for the three benchmark workloads.

Everything the program reads is generated here: system files (``.csys``)
and safe Petri nets (``.net``), and the request lists.  The workload seed
fixes only the order of the ladder rungs and the sample-mix request
stream.  Each generated file comes with a ``Model``, an interpreter of the
same system written independently of tracesys, which the checker uses to
validate samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

PETRI_LADDER = "petri-ladder"
PATH_LADDER = "path-ladder"
SAMPLE_MIX = "sample-mix"
WORKLOADS = (PETRI_LADDER, PATH_LADDER, SAMPLE_MIX)

FIXTURE_NAMES = ("two_state", "canonical_abc", "aztec", "two_terminal")
PHIL_SIZES = (3, 4, 5, 6)
PATH_SIZES = (8, 10, 12, 13)

# Exact-sample catalogue of sample-mix: every uniform request is one of
# these (system, length, variant) cells, so its samples can be compared
# with golden digests recorded at a fixed commit.
UNIFORM_LENGTHS = (20, 50, 80, 110, 140, 170, 200)
UNIFORM_VARIANTS = 6
# uniform requests per (system, length) in one stream; path10 is the slow
# system (its sampler DP dominates), so it gets one request per length
UNIFORM_PER_LENGTH = {"aztec": 3, "two_terminal": 3, "phil5": 3, "path10": 1}
MCSC_PER_SYSTEM = 10
MCSC_MAX_STEPS = 500
MAX_COUNT = 50
SAMPLE_SYSTEMS = ("aztec", "two_terminal", "phil5", "path10")

# draw phase: persistent samplers built during set-up, per workload
DRAW_LENGTH = 60
DRAW_STEPS = 60
DRAWS_PER_PASS = 2000


# ---------------------------------------------------------------- models

@dataclass(frozen=True)
class Model:
    """A system as the checker sees it: letters, independence, a start
    state and a step function returning ``None`` for the sink."""

    letters: tuple[str, ...]
    independent: frozenset[frozenset[str]]
    start: object
    step: Callable[[object, str], object]

    def dependent(self, a: str, b: str) -> bool:
        return a == b or frozenset((a, b)) not in self.independent

    def dependence(self) -> dict[str, frozenset[str]]:
        return {a: frozenset(b for b in self.letters if self.dependent(a, b))
                for a in self.letters}


@dataclass(frozen=True)
class InputFile:
    name: str
    filename: str
    text: str
    petri: bool
    model: Model
    size: dict = field(default_factory=dict)

    def argv(self, path: str) -> list[str]:
        return [path, "--petri"] if self.petri else [path]


def _csys_model(text: str) -> Model:
    """Minimal reader of the spec format (sections on their own lines)."""
    sections: dict[str, list[list[str]]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            end = line.index("]")
            current = line[1:end].strip()
            rest = line[end + 1 :].split()
            sections.setdefault(current, [])
            if rest:
                sections[current].append(rest)
        else:
            sections[current].append(line.split())
    letters = tuple(t for row in sections["alphabet"] for t in row)
    indep_tokens = " ".join(" ".join(r) for r in sections.get("independence", []))
    independent = frozenset(
        frozenset(p.split()) for p in indep_tokens.split(";") if p.strip()
    )
    states = [t for row in sections["states"] for t in row]
    base = sections.get("base", [[states[0]]])[0][0]
    action = {(s, a): t for s, a, t in sections["action"] if t != "BOT"}
    return Model(letters, independent, base, lambda s, a: action.get((s, a)))


def fixture_file(name: str) -> InputFile:
    """One of ``tracesys.fixtures.ALL_SYSTEMS``, rendered as spec text."""
    from tracesys import fixtures, render_system

    system = fixtures.ALL_SYSTEMS[name]()
    text = render_system(system)
    return InputFile(
        name, f"{name}.csys", text, False, _csys_model(text),
        {"states": len(system.states), "letters": len(system.monoid.letters)},
    )


def path_file(k: int) -> InputFile:
    """Canonical one-state system over the path-dependence monoid on k
    letters: x_i and x_j are dependent iff |i - j| <= 1."""
    letters = [f"x{i}" for i in range(k)]
    pairs = [f"{letters[i]} {letters[j]}" for i in range(k) for j in range(i + 2, k)]
    lines = [
        "[alphabet] " + " ".join(letters),
        "[independence] " + " ; ".join(pairs),
        "[states] s",
        "[base] s",
        "[action]",
    ] + [f"s {a} s" for a in letters]
    text = "\n".join(lines) + "\n"
    model = _csys_model(text)
    return InputFile(
        f"path{k}", f"path{k}.csys", text, False, model,
        {"states": 1, "letters": k, "cliques": count_cliques(model)},
    )


def count_cliques(model: Model) -> int:
    """Sets of pairwise independent letters, the empty one included."""
    letters = model.letters

    def extend(chosen: list[str], start: int) -> int:
        total = 1
        for i in range(start, len(letters)):
            if all(not model.dependent(a, letters[i]) for a in chosen):
                total += extend(chosen + [letters[i]], i + 1)
        return total

    return extend([], 0)


@dataclass(frozen=True)
class SafeNet:
    places: tuple[str, ...]
    transitions: tuple[str, ...]
    pre: dict[str, frozenset[str]]
    post: dict[str, frozenset[str]]
    marking: frozenset[str]

    def fire(self, marking: frozenset[str], t: str) -> frozenset[str] | None:
        if not self.pre[t] <= marking:
            return None
        rest = marking - self.pre[t]
        if rest & self.post[t]:
            raise ValueError(f"net is not one-bounded at transition {t}")
        return rest | self.post[t]

    def reachable(self) -> list[frozenset[str]]:
        seen = {self.marking}
        order = [self.marking]
        for m in order:
            for t in self.transitions:
                nxt = self.fire(m, t)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
        return order


def philosopher_net(n: int) -> SafeNet:
    """Dining philosophers on a ring of n forks: philosopher i thinks (t_i),
    eats (e_i), and takes/puts forks f_i and f_{i+1} in one transition."""
    places, transitions, pre, post = [], [], {}, {}
    for i in range(n):
        places += [f"f_{i}", f"t_{i}", f"e_{i}"]
        forks = {f"f_{i}", f"f_{(i + 1) % n}"}
        transitions += [f"take_{i}", f"put_{i}"]
        pre[f"take_{i}"] = frozenset({f"t_{i}"} | forks)
        post[f"take_{i}"] = frozenset({f"e_{i}"})
        pre[f"put_{i}"] = frozenset({f"e_{i}"})
        post[f"put_{i}"] = frozenset({f"t_{i}"} | forks)
    marking = frozenset(f"{k}_{i}" for i in range(n) for k in ("f", "t"))
    return SafeNet(tuple(places), tuple(transitions), pre, post, marking)


def net_text(net: SafeNet) -> str:
    arcs = []
    for t in net.transitions:
        arcs += [f"{p} -> {t}" for p in sorted(net.pre[t])]
        arcs += [f"{t} -> {p}" for p in sorted(net.post[t])]
    return (
        "[places] " + " ".join(net.places) + "\n"
        "[transitions] " + " ".join(net.transitions) + "\n"
        "[flow]\n" + "\n".join(arcs) + "\n"
        "[marking] " + " ".join(p for p in net.places if p in net.marking) + "\n"
    )


def lucas(n: int) -> int:
    """Independent sets of the n-cycle: the reachable markings of the
    n-philosopher net."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def phil_file(n: int) -> InputFile:
    net = philosopher_net(n)
    neighborhood = {t: net.pre[t] | net.post[t] for t in net.transitions}
    independent = frozenset(
        frozenset((t, u))
        for t in net.transitions
        for u in net.transitions
        if t != u and not neighborhood[t] & neighborhood[u]
    )
    model = Model(net.transitions, independent, net.marking, net.fire)
    return InputFile(
        f"phil{n}", f"phil{n}.net", net_text(net), True, model,
        {"states": len(net.reachable()), "letters": len(net.transitions)},
    )


def check_sizes(files: list[InputFile]) -> list[str]:
    """Generator self-check: sizes that theory fixes.  Returns problems."""
    problems = []
    for f in files:
        if f.name.startswith("phil"):
            n = int(f.name[4:])
            if f.size["states"] != lucas(n) or f.size["letters"] != 2 * n:
                problems.append(f"{f.name}: {f.size}, want {lucas(n)} markings, {2 * n} letters")
        elif f.name.startswith("path"):
            k = int(f.name[4:])
            if f.size["cliques"] != fibonacci(k + 2):
                problems.append(f"{f.name}: {f.size['cliques']} cliques, want F({k + 2})")
    return problems


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------- requests

@dataclass(frozen=True)
class Request:
    """One CLI invocation.  ``key`` identifies it within a stream; for a
    uniform request it is also its cell of the golden catalogue."""

    key: str
    system: str
    args: tuple[str, ...]
    mode: str = "analyze"
    length: int = 0
    steps: int = 0
    count: int = 0


def ladder_files(workload: str) -> list[InputFile]:
    if workload == PETRI_LADDER:
        return [fixture_file(n) for n in FIXTURE_NAMES] + [phil_file(n) for n in PHIL_SIZES]
    if workload == PATH_LADDER:
        return [path_file(k) for k in PATH_SIZES]
    raise ValueError(workload)


def ladder_order(files: list[InputFile], rng: random.Random) -> list[Request]:
    """One pass: every rung once, in an order drawn from the seed."""
    reqs = [Request(f.name, f.name, ("analyze", "--json")) for f in files]
    rng.shuffle(reqs)
    return reqs


def sample_files() -> list[InputFile]:
    return [fixture_file("aztec"), fixture_file("two_terminal"), phil_file(5), path_file(10)]


def uniform_cell(system: str, length: int, variant: int) -> Request:
    """Catalogue entry: the variant fixes the sample seed; the count depends
    on system and length only, so that the cost of a stream does not
    depend on which variants the workload seed picks."""
    seed = 7919 * variant + length
    count = 1 + (3 * length + 7 * len(system)) % MAX_COUNT
    args = ("sample", "--mode", "uniform", "--length", str(length),
            "--count", str(count), "--seed", str(seed), "--json")
    return Request(f"{system}/L{length}/v{variant}", system, args, "uniform",
                   length=length, count=count)


def uniform_catalogue() -> list[Request]:
    return [
        uniform_cell(s, length, v)
        for s in SAMPLE_SYSTEMS
        for length in UNIFORM_LENGTHS
        for v in range(UNIFORM_VARIANTS)
    ]


def sample_stream(rng: random.Random) -> list[Request]:
    """The sample-mix request list: a fixed composition of cells, with the
    seed choosing catalogue variants, mcsc parameters and the order.

    mcsc steps are stratified over [1, MCSC_MAX_STEPS] and paired with a
    fixed spread of counts, so that the cost profile of a stream, and with
    it its latency percentiles, does not depend on the seed.
    """
    reqs = []
    for system in SAMPLE_SYSTEMS:
        for length in UNIFORM_LENGTHS:
            for v in rng.sample(range(UNIFORM_VARIANTS), UNIFORM_PER_LENGTH[system]):
                reqs.append(uniform_cell(system, length, v))
        width = MCSC_MAX_STEPS / MCSC_PER_SYSTEM
        counts = [1 + (MAX_COUNT - 1) * (3 * i % MCSC_PER_SYSTEM) // (MCSC_PER_SYSTEM - 1)
                  for i in range(MCSC_PER_SYSTEM)]
        for i in range(MCSC_PER_SYSTEM):
            steps = 1 + int(width * i + rng.random() * (width - 1))
            seed = rng.randrange(1 << 31)
            args = ("sample", "--mode", "mcsc", "--steps", str(steps),
                    "--count", str(counts[i]), "--seed", str(seed), "--json")
            reqs.append(Request(f"{system}/mcsc{i}", system, args, "mcsc",
                                steps=steps, count=counts[i]))
    rng.shuffle(reqs)
    return reqs


def largest_request(workload: str, requests: list[Request]) -> str:
    """Key of the request that ``top_rung_s`` times: the top rung of a
    ladder, the longest uniform path10 request of sample-mix."""
    if workload == PETRI_LADDER:
        return f"phil{PHIL_SIZES[-1]}"
    if workload == PATH_LADDER:
        return f"path{PATH_SIZES[-1]}"
    return max((r for r in requests if r.system == "path10" and r.mode == "uniform"),
               key=lambda r: r.length).key


def draw_plan(workload: str) -> tuple[tuple[str, ...], str]:
    """Systems of the draw phase: the uniform samplers' and the measure's.
    The ladders draw from a small rung, so that their set-up stays cheap."""
    return {
        PETRI_LADDER: (("phil4",), "phil4"),
        PATH_LADDER: (("path8",), "path8"),
        SAMPLE_MIX: (SAMPLE_SYSTEMS, "phil5"),
    }[workload]


def workload_files(workload: str) -> list[InputFile]:
    return sample_files() if workload == SAMPLE_MIX else ladder_files(workload)
