"""Word calculus over a finite symmetric alphabet.

A letter is a nonzero int: generator number i (counting from 1) is ``i``,
its formal inverse is ``-i``.  A word is a tuple of letters wrapped in
:class:`Word`.  Nothing here reduces implicitly; every function states
whether it works with the literal letter sequence or reduces first.

A word of at least ``_NUMPY_CUTOFF`` letters remembers, once a check has
shown it, that its letters are freely reduced: :func:`free_reduce`,
:func:`is_reduced` and :func:`cyclic_reduce` set that mark on a long
word their check finds reduced and on the reduced long words they
build, and answer a marked word without reading its letters.  The mark
only skips a check whose answer is already known; it is never set
without one, and it takes no part in equality, hashing, ``repr``,
copying or pickling.  So a job that hands one long word to several
reducing steps reads its letters once.

The canonical order on signed letters is ``1 < -1 < 2 < -2 < ...``,
the order :func:`signed_letters` lists them in.  Deterministic
constructions below always walk letters in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import ne, neg
from typing import Callable, Iterable, Iterator

import numpy as np


def signed_letters(rank: int) -> tuple[int, ...]:
    """All signed letters for the first ``rank`` generators, canonical order."""
    out: list[int] = []
    for i in range(1, rank + 1):
        out.append(i)
        out.append(-i)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Word:
    """Immutable letter sequence.  Multiplication is literal concatenation.

    ``Word(...)`` and ``Word.of(...)`` check every letter; words derived
    here from valid words are built by :func:`_word`, unchecked.
    ``_reduced`` is the reducedness mark of the module docstring."""

    letters: tuple[int, ...] = ()
    _reduced: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for x in self.letters:
            if not isinstance(x, int) or x == 0:
                raise ValueError(f"bad letter {x!r}")

    @classmethod
    def of(cls, *letters: int) -> "Word":
        return cls(tuple(letters))

    def __reduce__(self):
        # copies and pickles carry the letters only, never the mark
        return Word, (self.letters,)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _word(self.letters[i])
        return self.letters[i]

    def __mul__(self, other: "Word") -> "Word":
        return _word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return _word(tuple(map(neg, reversed(self.letters))))

    def max_letter(self) -> int:
        """Largest generator number used, 0 for the empty word."""
        return max(map(abs, self.letters), default=0)


def _word(letters: tuple[int, ...], reduced: bool = False) -> Word:
    """``Word(letters)`` without the letter check, for ``letters`` that are
    already known to be a tuple of nonzero ints; ``reduced`` sets the mark,
    for letters proved freely reduced."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "_reduced", reduced)
    return w


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


# Below this many letters a Python pass over the word beats numpy's fixed
# cost of about 2 us: on a 2-core host the two cross at about 48 letters
# for free_reduce of a reduced word and at 96-128 for is_reduced.
_NUMPY_CUTOFF = 96

# free_reduce joins runs between cancellations while there is at most one
# cancellation per this many letters, and pushes letter by letter beyond.
_DENSE_CUTS = 8


def _cancellations(letters: tuple[int, ...]) -> list[int]:
    """The indices i at which letters[i + 1] is the inverse of letters[i],
    in order: one numpy comparison of the word with itself shifted by one
    letter.  Letters are read as int64, where the one negation that wraps,
    of -2**63, gives the letter itself; no nonzero letter is its own
    inverse, so pairs of equal letters are left out.  A word with a letter
    past 64 bits is compared in Python instead."""
    try:
        a = np.fromiter(letters, np.int64, len(letters))
    except OverflowError:
        return [i for i, x in enumerate(islice(letters, 1, None)) if x == -letters[i]]
    right, left = a[1:], a[:-1]
    return np.flatnonzero((right == -left) & (right != left)).tolist()


def _mark(w: Word) -> Word:
    """Record that the long word ``w`` was checked freely reduced."""
    object.__setattr__(w, "_reduced", True)
    return w


def _reduced_word(letters: tuple[int, ...]) -> Word:
    """A word of the freely reduced ``letters``, marked when long."""
    return _word(letters, len(letters) >= _NUMPY_CUTOFF)


def _stack_reduce(out: list[int], letters: Iterable[int]) -> tuple[int, ...]:
    """Push ``letters`` one at a time onto the reduced stack ``out``,
    popping its top wherever the next letter is the top's inverse."""
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def free_reduce(w: Word) -> Word:
    """Delete inverse pairs until none remain.

    Below ``_NUMPY_CUTOFF`` letters a stack pass reads every letter.  A
    longer word is cut after each letter that its inverse follows, into
    runs that are each reduced, and a reduced word, one run, is returned
    itself.  The runs are joined left to right onto a reduced stack: a run
    cancels letter by letter against the stack's top, and once the next
    letter does not cancel, the rest of the run is reduced and meets no
    inverse at the join, so it is copied whole.  Python steps are paid per
    run and per cancelled pair, copies per letter.

    Runs pay off only while they are long: at one cut per 6 letters the
    join costs as much as the stack pass, about 50 ns a letter, and at one
    per 2 it costs three times as much.  So a word with more than one cut
    per ``_DENSE_CUTS`` letters is pushed letter by letter from its first
    cut on.  It has paid numpy's pass by then, so it costs about 1.6 times
    the stack pass alone: a random 25,000-letter word over three generators,
    one cut per 6 letters, takes 2.1 ms against 1.4 ms on a 2-core host,
    inside the 0.18 s of ``hnnembed fold --word``.

    A long word marked reduced comes back at once.  A long word found
    reduced is marked, and a long result is built marked: the stack and
    the joined runs meet no inverse pair, so it is reduced."""
    ls = w.letters
    if len(ls) < _NUMPY_CUTOFF:
        return _word(_stack_reduce([], ls))
    if w._reduced:
        return w
    cuts = _cancellations(ls)
    if not cuts:
        return _mark(w)
    if len(cuts) * _DENSE_CUTS > len(ls):
        return _reduced_word(_stack_reduce(list(ls[: cuts[0]]), islice(ls, cuts[0], None)))
    out = list(ls[: cuts[0] + 1])
    cuts.append(len(ls) - 1)
    for last, stop in zip(cuts, islice(cuts, 1, None)):
        k = last + 1  # the run is ls[k : stop + 1]
        while k <= stop and out and out[-1] == -ls[k]:
            out.pop()
            k += 1
        out += ls[k : stop + 1]
    return _reduced_word(tuple(out))


def relabel(w: Word, table: dict[int, int]) -> Word:
    """Map each letter through the signed-letter ``table``, dropping those it
    leaves out.  Nothing is checked: every caller builds its table from
    signed letters, so its values are nonzero ints."""
    return _word(tuple(filter(None, map(table.get, w.letters))))


def is_reduced(w: Word) -> bool:
    """Whether no letter of ``w`` is followed by its inverse.  A long word
    marked reduced is answered at once, and one found reduced is marked."""
    ls = w.letters
    if len(ls) < _NUMPY_CUTOFF:
        return all(map(ne, islice(ls, 1, None), map(neg, ls)))
    if not w._reduced:
        if _cancellations(ls):
            return False
        _mark(w)
    return True


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Return ``(core, conj)`` with ``w = conj * core * conj.inverse()`` freely.

    ``core`` is cyclically reduced.  The input is freely reduced first, by
    :func:`free_reduce`, which answers a marked word at once; both parts
    are subwords of that reduction, so each long one is built marked.
    """
    ls = free_reduce(w).letters
    i = conjugator_length(ls)
    return _reduced_word(ls[i : len(ls) - i]), _reduced_word(ls[:i])


def cyclic_join(u: tuple[int, ...], v: tuple[int, ...]) -> Word:
    """``cyclic_reduce(u v)[0]`` for freely reduced letter tuples ``u`` and
    ``v``, working at the seams only: letters cancel in pairs across the
    seam between u and v, and then across the two ends of the result."""
    k = 0
    while k < min(len(u), len(v)) and u[-1 - k] == -v[k]:
        k += 1
    ls = u[: len(u) - k] + v[k:]
    i = conjugator_length(ls)
    return _word(ls[i : len(ls) - i])


def conjugator_length(letters: tuple[int, ...]) -> int:
    """How many letters cancel in pairs between the two ends of the freely
    reduced ``letters``: strip that many from each end to cyclically reduce
    them.  A reduced word never cancels away whole."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return i


def _gallop(agree: Callable[[int, int], bool], limit: int) -> int:
    """The largest k <= ``limit`` such that items 0 .. k - 1 agree, where
    ``agree(k, m)`` compares items k .. k + m - 1 as one slice: chunks
    double while they agree, then halve down to the first disagreement."""
    k = 0
    m = 1
    grow = True
    while m:
        if k + m <= limit and agree(k, m):
            k += m
            m = m * 2 if grow else m // 2
        else:
            grow = False
            m //= 2
    return k


def _agree(a: tuple[int, ...], i: int, b: tuple[int, ...], j: int, limit: int) -> int:
    """Items on which a[i:] and b[j:] agree, up to ``limit``."""
    return _gallop(lambda k, m: a[i + k : i + k + m] == b[j + k : j + k + m], limit)


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


def least_rotation_start(letters: tuple[int, ...]) -> int:
    """An offset at which the least rotation of the nonempty ``letters`` in
    tuple order starts, in time linear in their length; 0 for no letters.

    Duval's Lyndon factorization (J. Algorithms 4, 1983) run over the word
    written twice: each round reads a longest prefix of the rest that is a
    power of a Lyndon word, plus a proper prefix of it, and the least
    rotation starts at the last round to start within the first copy.  A
    word of literal period d has that rotation at every offset congruent
    to this one modulo d, and at no other.
    """
    n = len(letters)
    s = letters + letters
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start


def least_rotation(w: Word) -> tuple[int, ...]:
    """The least rotation of ``w``'s letters in tuple order: the rotation at
    :func:`least_rotation_start`."""
    i = least_rotation_start(w.letters)
    return w.letters[i:] + w.letters[:i]


def cyclically_equal(u: Word, v: Word) -> bool:
    """Literal equality up to rotation, in time linear in the length.

    The first four rotations of ``u`` that start with ``v``'s first letter
    are compared with ``v`` by slicing, at most 4n letter comparisons.
    Past those, the two words' least rotations are compared, which is
    exact on its own but costs a Python step per letter.  The one caller
    is the certificate's projection anchor in ``hnn._certify``: one pass
    of the benchmark's ``complete`` workload (seed 101) makes 240 calls,
    and each ends at the first or second slice.
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
    return least_rotation(u) == least_rotation(v)


def contains_all_reduced_digrams(w: Word, letters: Iterable[int]) -> bool:
    """Whether every reduced two-letter word over ``letters`` occurs in ``w``.

    Linear occurrences only; pass a word whose first and last letters agree
    to cover the wraparound digram of a cyclic word.  The scan stops once
    every one has been seen.
    """
    lets = list(letters)
    missing = {(p, q) for p in lets for q in lets if q != -p}
    ls = w.letters
    for pair in zip(ls, islice(ls, 1, None)):
        missing.discard(pair)
        if not missing:
            return True
    return not missing


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
    return _word(tuple(circuit))


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
    return _word(tuple(out))

