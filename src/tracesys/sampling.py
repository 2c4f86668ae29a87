"""Random generation of executions, deterministic across platforms.

Two samplers: the states-and-cliques chain (infinite-execution prefixes
under the uniform measure) and an exactly uniform sampler over the
executions of one length, driven by big-integer execution counts so no
probability is ever represented in floating point.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, islice

from .analysis import Analysis
from .errors import CapExceeded, EmptySet, TraceSysError
from .measure import UniformMeasure
from .monoid import Clique
from .system import ConcurrentSystem

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIN_BLOCK, _MAX_BLOCK = 8, 1024  # words per block, powers of two
_unpack_u64 = struct.Struct(">Q").unpack_from  # one big-endian word

# The most bytes a uniform sampler's count table may hold.
TABLE_CAP_BYTES = 256 << 20
# Bytes of one held count besides its 30-bit digits after the first: a
# list slot, the int header, the first digit and the allocator's rounding.
_ENTRY_BYTES = 56


def _mix64(z: int) -> int:
    z &= _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


@cache
def _lanes(k: int) -> tuple[int, int, int]:
    """ONES, γ·INDEX and MASK of k 128-bit lanes, the first lane most
    significant: 1, j·γ and 2⁶⁴ − 1 in the j-th lane.  Block sizes are
    powers of two, so at most eight sizes are ever cached."""
    ones = int.from_bytes((bytes(15) + b"\1") * k, "big")
    index = int.from_bytes(b"".join(j.to_bytes(16, "big") for j in range(1, k + 1)), "big")
    return ones, _GOLDEN * index, _MASK64 * ones


def _block(base: int, k: int) -> bytes:
    """Words mix(base + j·γ mod 2⁶⁴) for j = 1..k as 8-byte big-endian
    bytes, in order, mixed at once on one integer of k 128-bit lanes.

    Each lane holds a value below 2⁶⁴ before each step: the mask clears
    the bits a right shift pulls in from the next lane, and a 64×64-bit
    product fits in its 128-bit lane, so no lane carries into another.
    The last shift's spill stays in the high halves, which are dropped.
    """
    ones, steps, mask = _lanes(k)
    z = (base * ones + steps) & mask
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    z ^= z >> 31
    # the low half of each 16-byte lane, copied byte for byte
    return memoryview(z.to_bytes(16 * k, "big")).cast("Q")[1::2].tobytes()


class SplitMix64:
    """64-bit-state PRNG with streams hashed from (seed, stream id).

    The generator is fully specified here so that identical inputs give
    identical samples on every platform and Python version.  The stream
    is a counter: its k-th word is mix(origin + k·γ mod 2⁶⁴) with the
    steps of :func:`_mix64`, so words are mixed a block at a time
    (:func:`_block`) and handed out in order from a byte buffer.  Every
    word, and so every sample, is the one the word-at-a-time generator
    gives.  A refill mixes a block of at least the missing words, rounded
    up to a power of two from 8 to 1,024, and later blocks double up to
    1,024; the unread tail is carried into the next block, so one draw
    may span two.  :meth:`randoms` reads the words of k :meth:`random`
    calls in bulk.
    """

    def __init__(self, seed: int, stream: int = 0):
        # the counter of the buffer's last word: the origin before the first block
        self._end = _mix64(_mix64(seed) ^ _mix64((stream + 1) * _GOLDEN))
        self._buf = b""
        self._pos = self._stop = 0  # the next unread byte and the buffer's length
        self._size = _MIN_BLOCK

    @property
    def _state(self) -> int:
        """The counter of the last word handed out: origin + words·γ mod 2⁶⁴."""
        return (self._end - (self._stop - self._pos) // 8 * _GOLDEN) & _MASK64

    def _refill(self, need: int) -> None:
        """Carry the unread tail and append blocks until ``need`` bytes are unread."""
        buf = self._buf[self._pos :]
        while len(buf) < need:
            missing = (need - len(buf) + 7) // 8
            k = min(max(self._size, 1 << (missing - 1).bit_length()), _MAX_BLOCK)
            buf += _block(self._end, k)
            self._end = (self._end + k * _GOLDEN) & _MASK64
            self._size = min(2 * k, _MAX_BLOCK)
        self._buf, self._pos, self._stop = buf, 0, len(buf)

    def next_u64(self) -> int:
        p = self._pos
        if p + 8 > self._stop:
            self._refill(8)
            p = 0
        self._pos = p + 8
        return _unpack_u64(self._buf, p)[0]

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits: the top bits of one word."""
        p = self._pos
        if p + 8 > self._stop:
            self._refill(8)
            p = 0
        self._pos = p + 8
        return (_unpack_u64(self._buf, p)[0] >> 11) / 9007199254740992.0

    def randoms(self, k: int) -> list[float]:
        """The values of k :meth:`random` calls, read with one unpack per
        chunk of at most 1,024 words."""
        out: list[float] = []
        while k > 0:
            words = min(k, _MAX_BLOCK)
            size = 8 * words
            p = self._pos
            if p + size > self._stop:
                self._refill(size)
                p = 0
            self._pos = p + size
            out += [(w >> 11) / 9007199254740992.0
                    for w in struct.unpack_from(f">{words}Q", self._buf, p)]
            k -= words
        return out

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased, for arbitrary-size n.

        Each try reads ceil(bits/64) words, most significant first, keeps
        the top ``n.bit_length()`` bits and is rejected unless below n.
        """
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        bits = n.bit_length()
        size = (bits + 63) // 64 * 8
        shift = 8 * size - bits
        while True:
            p = self._pos
            q = p + size
            if q > self._stop:
                self._refill(size)
                p, q = 0, size
            self._pos = q
            x = int.from_bytes(self._buf[p:q], "big") >> shift
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
    ``dsc.succ[v][k]`` for the drawn index k.  Inverse CDF over each row,
    one ``random()`` per node: the walk reads its ``steps`` floats up front
    (:meth:`SplitMix64.randoms`) and bisects the running sums the measure
    caches (:attr:`UniformMeasure.running_sums`).
    """
    if steps < 0:
        raise TraceSysError("steps must be non-negative")
    system = measure.system
    i = system.state_index(start)
    dsc = measure.dsc

    nodes: list[int] = []
    if steps > 0:
        firsts, rows = measure.running_sums
        us = SplitMix64(seed).randoms(steps)
        v = sum(len(m) - 1 for m in system.moves[:i])  # the dsc nodes before start's
        v += _draw(firsts[i], measure.h[i][1:], us[0])
        nodes.append(v)
        succ, transition = dsc.succ, measure.transition
        for u in islice(us, 1, None):
            cumulative = rows[v]
            k = bisect_right(cumulative, u)
            if k == len(cumulative):  # the row's sum rounds to at most u
                k = _draw(cumulative, transition[v], u)
            v = succ[v][k]
            nodes.append(v)
    chosen = tuple(dsc.nodes[v] for v in nodes)
    trace = tuple(a for _s, c in chosen for a in c.letters)
    return SampledExecution(start=start, nodes=chosen, trace=trace, seed=seed)


def _draw(cumulative, weights, u: float) -> int:
    """The first index whose running sum (``cumulative``, of ``weights``)
    exceeds u.  If the whole sum rounds to at most u, the last index of
    positive weight."""
    i = bisect_right(cumulative, u)
    if i == len(cumulative):
        i = max(k for k, w in enumerate(weights) if w > 0)
    return i


class UniformExecutionSampler:
    """Exactly uniform sampler over executions of a fixed length.

    Backward sampling on exact execution counts: weights are big integers,
    draws are unbiased integer draws, no float probabilities.  The counts
    come from the Möbius recurrence mu(z)·G(z) = I over the dsc of the held
    analysis.  With T[m][s] the executions of length m from state s (T[0]
    = 1, T at negative lengths 0), the executions of length m whose first
    clique is d, at dsc node u = (s, d), number

        F[m][u] = sum over the e ⊇ d enabled at s of (-1)^(|e|-|d|) T[m-|e|][s·e],

    and T[m][s] is the sum of F[m] over the nodes of s.  The sampler keeps
    F: one row per length, and nothing per arc.  The sum for u is fixed by
    its list of terms, so the nodes with equal lists form one class: each
    class is summed once per length, and its nodes share that int in the
    row (on path10, 23 classes for 143 nodes).

    RNG contract: :meth:`sample` calls ``rng.randrange`` once per letter
    and nothing else.  The first call, below ``total``, picks the first
    clique; each clique d entered with M letters left then draws below
    F[M][u] once per letter, except the last letter of the execution.
    The draws of its inner letters are discarded, and the draw of its
    last letter picks the next node among ``dsc.succ[u]``, in order, with
    weights F[M - |d|].  Each draw walks its candidate list, subtracting
    weights from the uniform index.

    F grows as L² in bytes.  The build keeps a running upper bound on the
    bytes F and the totals hold (``held_bytes``) and raises
    :class:`CapExceeded` once it passes ``TABLE_CAP_BYTES``.
    """

    def __init__(self, system: ConcurrentSystem, start: str, length: int):
        if length < 0:
            raise TraceSysError("length must be non-negative")
        self.system = system
        self.start = start
        self.length = length
        i = system.state_index(start)
        # held, so that later calls on this system share its dsc
        self._analysis = Analysis.of(system)
        self._dsc = self._analysis.dsc
        moves, n = system.moves, len(system.states)

        # The counts T[m - k] and -T[m - k] lie at hist[-2n·k + t] and
        # hist[-2n·k + n + t], so each F[m][u] is one C-level sum over a
        # fixed list of negative indices into hist.
        spans = list(accumulate((len(m) - 1 for m in moves), initial=0))
        terms: list[list[int]] = [[] for _ in range(spans[-1])]
        for moves_s, first in zip(moves, spans):
            at = {d.mask: (u, d.size) for u, (d, _t) in enumerate(moves_s[1:], first)}
            for e, t in moves_s[1:]:
                sub = e.mask
                while sub:  # the non-empty submasks d of e, all enabled
                    u, size = at[sub]
                    terms[u].append(-2 * n * e.size + (e.size - size) % 2 * n + t)
                    sub = (sub - 1) & e.mask
        # Nodes with equal sorted term lists have equal counts at every
        # length: each class is summed once, and its nodes share the int.
        classes: dict[tuple[int, ...], int] = {}
        cls = [classes.setdefault(tuple(sorted(idx)), len(classes)) for idx in terms]
        widest = max(c.size for m in moves for c, _t in m)
        hist = [0] * (2 * n * (widest - 1)) + [1] * n + [-1] * n
        get = hist.__getitem__
        counts = [[0] * len(terms)]
        # An upper bound on the bytes that counts and hist hold: every
        # entry of a length is at most that length's largest total.
        entries, held = len(terms) + 2 * n, 0
        for m in range(1, length + 1):
            vals = [sum(map(get, idx)) for idx in classes]
            row = list(map(vals.__getitem__, cls))
            totals = [sum(row[a:b]) for a, b in zip(spans, spans[1:])]
            held += entries * (_ENTRY_BYTES + 4 * (max(totals).bit_length() // 30))
            if held > TABLE_CAP_BYTES:
                raise CapExceeded(
                    f"the uniform sampler's count table passes the "
                    f"{TABLE_CAP_BYTES / 2**20:g} MiB cap at length {m} of {length}"
                )
            hist.extend(totals)
            hist.extend([-x for x in totals])
            counts.append(row)
        self._counts = counts
        self.held_bytes = held

        self._start_nodes = range(spans[i], spans[i + 1])
        self.total = sum(counts[length][u] for u in self._start_nodes) if length else 1
        if self.total == 0:
            raise EmptySet(length)

    def sample(self, rng: SplitMix64) -> tuple[str, ...]:
        """One execution, uniform among all of the configured length."""
        m = self.length
        if m == 0:
            return ()
        counts, succ, nodes = self._counts, self._dsc.succ, self._dsc.nodes
        randrange = rng.randrange
        u = _pick(self._start_nodes, counts[m], randrange(self.total))
        word: list[str] = []
        while True:
            letters = nodes[u][1].letters
            word += letters
            weight = counts[m][u]
            for _ in range(len(letters) - 1):
                randrange(weight)  # an inner letter's draw: its clique is already drawn
            m -= len(letters)
            if m == 0:
                return tuple(word)
            # u's successors weigh counts[m][w] and sum to weight
            u = _pick(succ[u], counts[m], randrange(weight))


def _pick(candidates, weights: list[int], x: int) -> int:
    """The candidate whose slice holds x, with the candidates' weights laid
    end to end in order; x must lie below their sum."""
    for w in candidates:
        if x < weights[w]:
            return w
        x -= weights[w]
    raise AssertionError("draw beyond the total weight")
