"""Random generation of executions, deterministic across platforms.

Two samplers: the states-and-cliques chain (infinite-execution prefixes
under the uniform measure) and an exactly uniform sampler over the
executions of one length, driven by big-integer path counts so no
probability is ever represented in floating point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .analysis import Analysis
from .errors import EmptySet, TraceSysError
from .measure import UniformMeasure
from .monoid import Clique
from .system import ConcurrentSystem

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit-state PRNG with streams hashed from (seed, stream id).

    The generator is fully specified here so that identical inputs give
    identical samples on every platform and Python version.
    """

    def __init__(self, seed: int, stream: int = 0):
        self._state = _mix64(_mix64(seed) ^ _mix64((stream + 1) * _GOLDEN))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits."""
        return (self.next_u64() >> 11) / 9007199254740992.0

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased, for arbitrary-size n."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        bits = n.bit_length()
        words = (bits + 63) // 64
        while True:
            x = 0
            for _ in range(words):
                x = x << 64 | self.next_u64()
            x >>= 64 * words - bits
            if x < n:
                return x


@dataclass(frozen=True)
class SampledExecution:
    start: str
    nodes: tuple[tuple[str, Clique], ...]
    trace: tuple[str, ...]
    seed: int


def sample_mcsc(
    measure: UniformMeasure, start: str, steps: int, seed: int
) -> SampledExecution:
    """Prefix of an infinite execution: ``steps`` cliques of its normal form.

    The first node follows the initial law at ``start``; each next node is
    drawn from the transition row of the current node v and is
    ``dsc.succ[v][k]`` for the drawn index k.  Inverse CDF over each row.
    """
    if steps < 0:
        raise TraceSysError("steps must be non-negative")
    system = measure.system
    i = system.state_index(start)
    dsc = measure.dsc
    rng = SplitMix64(seed)

    first = sum(len(m) - 1 for m in system.moves[:i])  # the dsc nodes before start's

    nodes: list[int] = []
    if steps > 0:
        v = first + _draw(measure.h[i][1:], rng.random())
        nodes.append(v)
        for _ in range(steps - 1):
            v = dsc.succ[v][_draw(measure.transition[v], rng.random())]
            nodes.append(v)
    chosen = tuple(dsc.nodes[v] for v in nodes)
    trace = tuple(a for _s, c in chosen for a in c.letters)
    return SampledExecution(start=start, nodes=chosen, trace=trace, seed=seed)


def _draw(weights, u: float) -> int:
    """The first index whose running sum of ``weights`` exceeds u.  If the
    whole sum rounds to at most u, the last index of positive weight."""
    cumulative = list(accumulate(weights))
    i = bisect_right(cumulative, u)
    if i == len(cumulative):
        i = max(k for k, w in enumerate(weights) if w > 0)
    return i


class UniformExecutionSampler:
    """Exactly uniform sampler over executions of a fixed length.

    Backward sampling on the augmented-graph path counts: node weights are
    big integers, draws are unbiased integer draws, no float probabilities.
    The sampler keeps one table, ``paths[m][v]``: the number of m-letter
    executions whose first letter is adsc node v.  Its memory is one big
    integer per (adsc node, length) and nothing per arc.  Each draw walks
    a candidate list, subtracting weights from a uniform index below their
    sum.
    """

    def __init__(self, system: ConcurrentSystem, start: str, length: int):
        if length < 0:
            raise TraceSysError("length must be non-negative")
        self.system = system
        self.start = start
        self.length = length
        system.state_index(start)
        # held, so that later calls on this system share its dsc and adsc
        self._analysis = Analysis.of(system)
        self._adsc = adsc = self._analysis.adsc

        paths = [[0] * len(adsc.nodes)]
        if length >= 1:
            paths.append([int(c.size == i) for _s, c, i in adsc.nodes])
        for _ in range(2, length + 1):
            prev = paths[-1].__getitem__
            paths.append([sum(map(prev, out)) for out in adsc.succ])
        self._paths = paths

        self._start_nodes = [
            i for i, (s, _c, k) in enumerate(adsc.nodes) if s == start and k == 1
        ]
        if length == 0:
            self.total = 1
        else:
            self.total = sum(paths[length][v] for v in self._start_nodes)
        if self.total == 0:
            raise EmptySet(length)

    def sample(self, rng: SplitMix64) -> tuple[str, ...]:
        """One execution, uniform among all of the configured length."""
        if self.length == 0:
            return ()
        paths, succ = self._paths, self._adsc.succ
        m = self.length
        v = _pick(self._start_nodes, paths[m], rng.randrange(self.total))
        word = [self._letter(v)]
        while m > 1:
            # v's successors weigh paths[m - 1][w] and sum to paths[m][v]
            v = _pick(succ[v], paths[m - 1], rng.randrange(paths[m][v]))
            word.append(self._letter(v))
            m -= 1
        return tuple(word)

    def _letter(self, v: int) -> str:
        _s, c, i = self._adsc.nodes[v]
        return c.letters[i - 1]


def _pick(candidates, weights: list[int], x: int) -> int:
    """The candidate whose slice holds x, with the candidates' weights laid
    end to end in order; x must lie below their sum."""
    for w in candidates:
        if x < weights[w]:
            return w
        x -= weights[w]
    raise AssertionError("draw beyond the total weight")
