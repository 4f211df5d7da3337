"""Word calculus over a finite symmetric alphabet.

A letter is a nonzero int: generator number i (counting from 1) is ``i``,
its formal inverse is ``-i``.  A word is a tuple of letters wrapped in
:class:`Word`.  Nothing here reduces implicitly; every function states
whether it works with the literal letter sequence or reduces first.

The canonical order on signed letters is ``1 < -1 < 2 < -2 < ...``
(:func:`letter_key`).  Deterministic constructions below always walk
letters in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


def letter_key(x: int) -> tuple[int, int]:
    """Sort key realising the canonical signed-letter order."""
    return (abs(x), 0 if x > 0 else 1)


def signed_letters(rank: int) -> tuple[int, ...]:
    """All signed letters for the first ``rank`` generators, canonical order."""
    out: list[int] = []
    for i in range(1, rank + 1):
        out.append(i)
        out.append(-i)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Word:
    """Immutable letter sequence.  Multiplication is literal concatenation."""

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for x in self.letters:
            if not isinstance(x, int) or x == 0:
                raise ValueError(f"bad letter {x!r}")

    @classmethod
    def of(cls, *letters: int) -> "Word":
        return cls(tuple(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.letters[i])
        return self.letters[i]

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def max_letter(self) -> int:
        """Largest generator number used, 0 for the empty word."""
        return max((abs(x) for x in self.letters), default=0)


EMPTY = Word()


@dataclass(frozen=True)
class Alphabet:
    """Named generators.  Name ``names[i]`` carries letter ``i + 1``.

    Inverse letters render with a trailing apostrophe, so generator "a"
    gives the two symbols ``a`` and ``a'``.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        # May be empty: quotients can kill every generator.
        seen = set()
        for n in self.names:
            if not n or not n.replace("_", "a").isalnum() or n[0].isdigit():
                raise ValueError(f"bad generator name {n!r}")
            if n in seen:
                raise ValueError(f"duplicate generator name {n!r}")
            seen.add(n)

    @classmethod
    def of(cls, *names: str) -> "Alphabet":
        return cls(tuple(names))

    @property
    def size(self) -> int:
        return len(self.names)

    def signed(self) -> tuple[int, ...]:
        return signed_letters(self.size)

    @cached_property
    def tables(self) -> tuple[dict[str, int], dict[int, str]]:
        """Symbol to letter and letter to symbol, built on first use."""
        by_symbol: dict[str, int] = {}
        for i, name in enumerate(self.names, 1):
            by_symbol[name] = i
            by_symbol[name + "'"] = -i
        return by_symbol, {x: s for s, x in by_symbol.items()}

    def letter(self, symbol: str) -> int:
        """Letter for a rendered symbol, e.g. ``"b'"`` -> -2."""
        try:
            return self.tables[0][symbol]
        except KeyError:
            name = symbol[:-1] if symbol.endswith("'") else symbol
            raise KeyError(f"unknown generator {name!r}") from None

    def symbol(self, letter: int) -> str:
        """Rendered symbol of a letter; ``KeyError`` outside ±1..±size."""
        return self.tables[1][letter]

    def word_str(self, w: Word) -> str:
        if not w:
            return "1"
        return " ".join(map(self.tables[1].__getitem__, w.letters))


def free_reduce(w: Word) -> Word:
    """Delete inverse pairs until none remain."""
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return Word(tuple(out))


def is_reduced(w: Word) -> bool:
    return all(w.letters[i] != -w.letters[i + 1] for i in range(len(w) - 1))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Return ``(core, conj)`` with ``w = conj * core * conj.inverse()`` freely.

    ``core`` is cyclically reduced.  The input is freely reduced first.
    """
    ls = free_reduce(w).letters
    i, j = 0, len(ls) - 1
    while i < j and ls[i] == -ls[j]:
        i += 1
        j -= 1
    return Word(ls[i : j + 1]), Word(ls[:i])


def is_cyclically_reduced(w: Word) -> bool:
    return is_reduced(w) and (len(w) <= 1 or w.letters[0] != -w.letters[-1])


def literal_period(letters: tuple[int, ...]) -> int:
    """Shortest d such that the nonempty ``letters`` are a literal power
    of their first d letters.

    By Fine and Wilf's lemma the periods of a word that divide its length n
    are exactly the multiples of the least one.  So starting from d = n and
    dividing d by each prime factor p of n while d / p is still a period
    ends at the least period, with one slice comparison per division tried.
    """
    n = len(letters)
    d = rest = n
    p = 2
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left of n is prime
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            while d % p == 0 and letters[d // p :] == letters[: n - d // p]:
                d //= p
        p += 1
    return d


def exponent(w: Word) -> int:
    """Largest e with ``w`` a literal e-th power of some subword.

    Works on the literal letter sequence; no reduction is applied.
    """
    if len(w) == 0:
        raise ValueError("exponent of the empty word is undefined")
    return len(w) // literal_period(w.letters)


def cyclically_equal(u: Word, v: Word) -> bool:
    """Literal equality up to rotation, in time linear in the length.

    The first four rotations of ``u`` that start with ``v``'s first letter
    are compared with ``v`` by slicing, at most 4n letter comparisons.
    Past those, ``str.find``, whose search is linear in the worst case,
    looks for ``v`` in ``u`` written twice over, both as comma-separated
    numbers with a comma at each end, so that every match starts and ends
    at a letter.  That search alone is exact, but writing the letters out
    costs about 30 times the slices (0.5 ms against 0.02 ms for a rotation
    of 1600 letters).  On the benchmark's ``complete`` workload every call
    with two nonempty words of one length ends at the first or second
    slice, and on ``small-checks`` all but 30 of 4974 calls end before the
    search.
    """
    n = len(u)
    if not n or n != len(v):
        return n == len(v)
    hay, needle = u.letters + u.letters, v.letters
    start = 0
    for _ in range(4):
        try:
            start = hay.index(needle[0], start, n)
        except ValueError:
            return False
        if hay[start : start + n] == needle:
            return True
        start += 1
    text = ",".join(map(str, u.letters))
    return f",{text},{text},".find(f",{','.join(map(str, needle))},") >= 0


def digrams(w: Word) -> set[tuple[int, int]]:
    """Set of consecutive letter pairs of the literal (linear) word."""
    ls = w.letters
    return {(ls[i], ls[i + 1]) for i in range(len(ls) - 1)}


def contains_all_reduced_digrams(w: Word, letters: Iterable[int]) -> bool:
    """Whether every reduced two-letter word over ``letters`` occurs in ``w``.

    Linear occurrences only; pass a word whose first and last letters agree
    to cover the wraparound digram of a cyclic word.
    """
    lets = list(letters)
    have = digrams(w)
    for p in lets:
        for q in lets:
            if q == -p:
                continue
            if (p, q) not in have:
                return False
    return True


def eulerian_digram_word(rank: int) -> Word:
    """Closed walk through every reduced digram over ``rank`` generators once.

    Vertices are the 2n signed letters, edges the reduced digrams.  In and
    out degrees all equal 2n - 1 and the graph is strongly connected once
    n >= 2, so an Eulerian circuit exists.  Hierholzer's algorithm with the
    canonical letter order and start letter 1 makes the output a pure
    function of ``rank``.  The walk is returned closed: its length is
    2n(2n - 1) + 1 and the first and last letters are both 1, so its linear
    digram set is exactly the full reduced digram set.
    """
    if rank < 2:
        raise ValueError("digram graph not Eulerian for rank < 2")
    lets = signed_letters(rank)
    nxt = {p: [q for q in lets if q != -p] for p in lets}
    ptr = {p: 0 for p in lets}
    stack = [1]
    circuit: list[int] = []
    while stack:
        v = stack[-1]
        if ptr[v] < len(nxt[v]):
            u = nxt[v][ptr[v]]
            ptr[v] += 1
            stack.append(u)
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    return Word(tuple(circuit))


def random_reduced_word(rng, rank: int, length: int) -> Word:
    """Uniform-ish freely reduced word of exactly ``length`` letters."""
    if length == 0:
        return EMPTY
    lets = signed_letters(rank)
    out = [rng.choice(lets)]
    while len(out) < length:
        x = rng.choice(lets)
        if x != -out[-1]:
            out.append(x)
    return Word(tuple(out))

