"""Trace monoids: alphabet + independence, cliques, normal forms, Möbius polynomial.

A trace is a word over the alphabet modulo commutation of independent
letters.  Cliques (sets of pairwise-independent letters) are represented
as bitmasks over the declared alphabet order, which fixes one canonical
iteration order everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import poly
from .errors import (
    AlphabetTooLarge,
    DuplicateLetter,
    ReflexivePair,
    TraceSysError,
    UnknownLetter,
    UnknownLetterInPair,
)
from .graphs import tarjan_sccs

ALPHABET_CAP = 20


@dataclass(frozen=True)
class Clique:
    """A set of pairwise-independent letters; the empty clique is allowed."""

    letters: tuple[str, ...]
    mask: int

    @property
    def size(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters) if self.letters else "ε"


@dataclass(frozen=True)
class NormalForm:
    """Sequence of non-empty cliques with each consecutive pair in normal position."""

    cliques: tuple[Clique, ...]

    @property
    def height(self) -> int:
        return len(self.cliques)

    @property
    def length(self) -> int:
        return sum(c.size for c in self.cliques)

    def word(self) -> tuple[str, ...]:
        """One representative word: clique letters in canonical order."""
        return tuple(a for c in self.cliques for a in c.letters)

    def __str__(self) -> str:
        return "(" + ")(".join(str(c) for c in self.cliques) + ")" if self.cliques else "ε"


class TraceMonoid:
    """Finite alphabet with an irreflexive symmetric independence relation.

    The dependence relation is the complement; it is always derived, never
    stored.  Instances are immutable after construction.
    """

    def __init__(self, alphabet: Sequence[str], independent_pairs: Iterable[tuple[str, str]]):
        alphabet = list(alphabet)
        if not alphabet:
            raise TraceSysError("alphabet must be non-empty")
        if len(set(alphabet)) != len(alphabet):
            seen = set()
            dup = next(a for a in alphabet if a in seen or seen.add(a))
            raise DuplicateLetter(f"duplicate letter {dup!r}")
        if len(alphabet) > ALPHABET_CAP:
            raise AlphabetTooLarge(
                f"{len(alphabet)} letters; clique enumeration beyond {ALPHABET_CAP} is refused"
            )
        self.letters: tuple[str, ...] = tuple(alphabet)
        self._index = {a: i for i, a in enumerate(self.letters)}
        self._full_mask = (1 << len(self.letters)) - 1

        indep = [0] * len(self.letters)
        pairs = set()
        for a, b in independent_pairs:
            for x in (a, b):
                if x not in self._index:
                    raise UnknownLetterInPair(f"letter {x!r} not in alphabet")
            if a == b:
                raise ReflexivePair(f"({a!r}, {b!r}) is reflexive")
            i, j = self._index[a], self._index[b]
            indep[i] |= 1 << j
            indep[j] |= 1 << i
            pairs.add((min(i, j), max(i, j)))
        self._indep_masks = tuple(indep)
        self.independent_pairs: tuple[tuple[str, str], ...] = tuple(
            (self.letters[i], self.letters[j]) for i, j in sorted(pairs)
        )
        self._cliques: tuple[Clique, ...] | None = None

    # ------------------------------------------------------------ relations

    def letter_index(self, a: str) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise UnknownLetter(f"unknown letter {a!r}") from None

    def independent(self, a: str, b: str) -> bool:
        i, j = self.letter_index(a), self.letter_index(b)
        return bool(self._indep_masks[i] >> j & 1)

    def dependent(self, a: str, b: str) -> bool:
        """Complement of independence; every letter depends on itself."""
        return not self.independent(a, b)

    def _dep_mask(self, i: int) -> int:
        return self._full_mask & ~self._indep_masks[i]

    # ------------------------------------------------------------ cliques

    def clique_from_mask(self, mask: int) -> Clique:
        return Clique(
            tuple(self.letters[i] for i in range(len(self.letters)) if mask >> i & 1), mask
        )

    def cliques(self) -> tuple[Clique, ...]:
        """All cliques including the empty one, ordered by size then by letter indices."""
        if self._cliques is None:
            masks = [0]
            n = len(self.letters)

            def extend(mask: int, start: int) -> None:
                for i in range(start, n):
                    if mask & ~self._indep_masks[i]:
                        continue
                    masks.append(mask | 1 << i)
                    extend(mask | 1 << i, i + 1)

            extend(0, 0)
            masks.sort(key=lambda m: (bin(m).count("1"), _bit_indices(m)))
            self._cliques = tuple(self.clique_from_mask(m) for m in masks)
        return self._cliques

    def dependence_mask(self, c: Clique) -> int:
        """Letters that depend on some letter of ``c``, as a mask.

        Normality c -> d holds iff ``d.mask & ~dependence_mask(c) == 0``.
        """
        out = 0
        rest = c.mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            out |= self._dep_mask(bit.bit_length() - 1)
        return out

    # ------------------------------------------------------------ normal form

    def normal_form(self, word: Iterable[str]) -> NormalForm:
        """Cartier-Foata normal form by greedy heap insertion.

        Each letter falls to the earliest clique it cannot commute past,
        i.e. just after the last clique containing a dependent letter.
        """
        cliques: list[int] = []
        for a in word:
            i = self.letter_index(a)
            dep = self._dep_mask(i)
            j = len(cliques)
            while j > 0 and not cliques[j - 1] & dep:
                j -= 1
            if j == len(cliques):
                cliques.append(1 << i)
            else:
                cliques[j] |= 1 << i
        return NormalForm(tuple(self.clique_from_mask(m) for m in cliques))

    # ------------------------------------------------------------ invariants

    def mobius_polynomial(self) -> poly.Poly:
        """Alternating clique-size count: constant term 1, exact integers."""
        coeffs = [0] * (len(self.letters) + 1)
        for c in self.cliques():
            coeffs[c.size] += (-1) ** c.size
        return poly.normalize(coeffs)

    def coxeter_components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components of the dependence graph, in letter order."""
        n = len(self.letters)
        adj = tuple(
            tuple(j for j in range(n) if j != i and self._dep_mask(i) >> j & 1)
            for i in range(n)
        )
        return tuple(
            tuple(self.letters[i] for i in comp) for comp in sorted(tarjan_sccs(adj))
        )

    def is_irreducible(self) -> bool:
        """True iff the Coxeter graph (letters, dependence) is connected."""
        return len(self.coxeter_components()) == 1

    def __repr__(self) -> str:
        rel = ", ".join(f"{a}{b}={b}{a}" for a, b in self.independent_pairs)
        return f"TraceMonoid<{' '.join(self.letters)}{' | ' + rel if rel else ''}>"


def _bit_indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return tuple(out)
