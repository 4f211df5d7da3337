"""Word problem and area accounting for metric small-cancellation presentations.

The solver repeatedly finds a stretch of the current cyclic word that covers
more than half of some symmetrized relator and swaps it for the shorter
complement.  Every swap strictly shrinks the word, so the loop terminates,
and for C'(1/6) presentations a word that reaches no swap at all is known to
be nontrivial.  Each run leaves a structured step log that an independent
replayer can verify exactly in the free group.

Each step takes the longest match, ties broken by (relator, position,
orientation, offset).  Both the match search and piece counting read one
index per relator length ell: a generalized suffix automaton (Blumer et al.,
"The smallest automaton recognizing the subwords of a text", TCS 1985) of
the reversed doubled texts of every relator of that length, in both
orientations.  Reading a word right to left through it gives, for every
start position p, the longest prefix of the word from p that some relator
of the class spells (its matching statistic), cut to a cap by climbing
suffix links, and the state that prefix ends in.  A slice of a doubled
relator is a cyclic subword exactly when it is at most ell letters long, so
with a cap of at most ell every reading is a cyclic subword, and it also
occurs at an offset below ell.  All strings of one state occur at the same
places, so the least (relator, orientation, offset) over a state's
occurrences, stored when the index is built, is the least occurrence of the
prefix read.  A step reads the doubled cyclic word through the classes in
descending relator length, and stops at the first class whose cap
min(ell, n) is strictly shorter than the best match so far: no reading of
that class or of any later one is longer than its cap, so none can win.  A
class whose cap equals the best length is still read, since a shorter
relator with a lower index wins that tie.  A step costs O(n) transitions
per class read, and no reading needs a letter check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .presentation import Presentation, check_cprime
from .words import EMPTY, Word, _word, cyclic_reduce, free_reduce, random_reduced_word


@dataclass(frozen=True)
class DehnStep:
    """One replacement: ``length`` letters at ``position`` of the cyclic word
    matched the oriented relator ``relator`` starting at rotation ``offset``."""

    position: int
    relator: int
    orientation: int
    offset: int
    length: int


@dataclass(frozen=True)
class DehnResult:
    trivial: bool
    steps: tuple[DehnStep, ...]
    residue: Word

    @property
    def area(self) -> int:
        return len(self.steps)


class DehnSolver:
    """Reusable solver; builds its match index once per presentation.

    The index holds one suffix automaton per relator length ell, longest
    first, read right to left by ``_read`` (see the module docstring).
    ``_best_match`` reads the doubled cyclic word with the cap min(ell, n).
    A relator of the class matches at position p letter for letter for
    k <= min(ell, n) letters exactly when those k letters are a subword of
    its doubled text, so the reading at p is the longest such match over
    every (relator, orientation, offset) of the class, and the state it
    ends in names the least (relator, orientation, offset) that makes it.
    The least reading in tie order over all classes is then the exhaustive
    search's pick.  The classes it leaves unread have caps strictly below
    the best length, so none of them holds a rival.
    ``piece_count`` walks each automaton from its root at the positions
    its greedy segmentation lands on, and reads no other position.
    """

    def __init__(self, presentation: Presentation):
        if presentation.relators and not check_cprime(presentation.relators, 1, 6).holds:
            raise ValueError("presentation not metric small cancellation")
        self.presentation = presentation
        # doubled[j][s] spells relator j (s=0) or its inverse (s=1) twice,
        # so any rotation is a contiguous slice
        self._doubled = [(r.letters * 2, r.inverse().letters * 2) for r in presentation.relators]
        self._lengths = [len(r) for r in presentation.relators]
        texts: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
        for j, ell in enumerate(self._lengths):
            texts.setdefault(ell, []).extend((j, s, d) for s, d in enumerate(self._doubled[j]))
        self._classes = {ell: _index(texts[ell]) for ell in sorted(texts, reverse=True)}

    def solve(self, w: Word) -> DehnResult:
        cur = cyclic_reduce(w)[0]
        steps: list[DehnStep] = []
        while cur:
            best = self._best_match(cur)
            if best is None:
                return DehnResult(False, tuple(steps), cur)
            length, j, pos, srank, off = best
            ell = self._lengths[j]
            d = self._doubled[j][srank]
            w2 = cur.letters + cur.letters
            complement = tuple(-x for x in reversed(d[off + length : off + ell]))
            replaced = _word(complement + w2[pos + length : pos + len(cur)])
            cur = cyclic_reduce(replaced)[0]
            steps.append(DehnStep(pos, j, 1 if srank == 0 else -1, off, length))
        return DehnResult(True, tuple(steps), EMPTY)

    def _best_match(self, cur: Word) -> tuple[int, int, int, int, int] | None:
        """Pick (length, relator, position, srank, offset) minimizing
        (-length, relator, position, srank, offset).

        Classes come longest first, so their caps min(ell, n) never grow;
        the search stops at the first cap strictly below the best length,
        since no reading is longer than its cap.  A cap equal to the best
        length is read: a shorter relator with a lower index wins the tie."""
        n = len(cur)
        w2 = cur.letters + cur.letters
        best: tuple[int, int, int, int, int] | None = None
        for ell, index in self._classes.items():
            if best is not None and min(ell, n) < best[0]:
                break
            if 2 * n <= ell:
                continue
            lengths, states = _read(index, w2, n, min(ell, n))
            length = max(lengths)
            if 2 * length <= ell or (best is not None and length < best[0]):
                continue
            keys = index[3]
            j, pos = min((keys[states[p]][0], p) for p in range(n) if lengths[p] == length)
            _, srank, off = keys[states[pos]]
            cand = (length, j, pos, srank, off)
            if best is None or (-cand[0], *cand[1:]) < (-best[0], *best[1:]):
                best = cand
        return best

    def piece_count(self, w: Word) -> int | None:
        """Greedy count of relator-subword segments spelling free_reduce(w);
        None when some letter occurs in no relator.  Segments are taken from
        the right end, each the longest suffix of the rest that is a cyclic
        subword of some oriented relator: at most ell letters read right to
        left from the root of a class's automaton.  Relator subwords are
        closed under subwords, so greedy from either end gives the least
        count."""
        letters = free_reduce(w).letters
        pos = len(letters)
        segments = 0
        while pos:
            jump = 0
            for ell, (trans, _, _, _) in self._classes.items():
                state = 0
                k = 0
                stop = min(ell, pos)
                while k < stop:
                    state = trans[state].get(letters[pos - 1 - k])
                    if state is None:
                        break
                    k += 1
                jump = max(jump, k)
            if jump == 0:
                return None
            pos -= jump
            segments += 1
        return segments


# one length class: transitions, suffix links, depths and each state's
# least (relator, orientation, offset) over the occurrences of its strings
_Index = tuple[list[dict[int, int]], list[int], list[int], list[tuple[int, int, int]]]


def _index(texts: list[tuple[int, int, tuple[int, ...]]]) -> _Index:
    """Generalized suffix automaton of the reversed ``texts``, each given
    as (relator, orientation, doubled letters) and inserted from the root.
    A string read through it spells, left to right, a subword of some text
    read right to left.  The prefix of a reversed text that ends at its
    letter i is the forward suffix from offset m - 1 - i, m letters in all,
    so a text's prefix states read backwards are its offsets in order."""
    trans: list[dict[int, int]] = [{}]
    link = [-1]
    depth = [0]
    none = (1 + max(j for j, _, _ in texts), 0, 0)  # above every real key
    keys = [none]

    def new_state(edges: dict[int, int], suffix: int, d: int) -> int:
        trans.append(edges)
        link.append(suffix)
        depth.append(d)
        keys.append(none)
        return len(trans) - 1

    def split(p: int, x: int, q: int) -> int:
        # clone q so that the clone holds the strings of q up to depth[p] + 1
        clone = new_state(dict(trans[q]), link[q], depth[p] + 1)
        while p >= 0 and trans[p].get(x) == q:
            trans[p][x] = clone
            p = link[p]
        link[q] = clone
        return clone

    ends: list[list[int]] = []  # per text, the state each prefix ends in
    for _, _, d in texts:
        last = 0
        ends.append([])
        for x in reversed(d):
            q = trans[last].get(x)
            if q is not None:
                last = q if depth[q] == depth[last] + 1 else split(last, x, q)
            else:
                cur = new_state({}, 0, depth[last] + 1)
                p = last
                while p >= 0 and x not in trans[p]:
                    trans[p][x] = cur
                    p = link[p]
                if p >= 0:
                    q = trans[p][x]
                    link[cur] = q if depth[q] == depth[p] + 1 else split(p, x, q)
                last = cur
            ends[-1].append(last)
    # every state on the suffix-link path up from a prefix's state occurs
    # where that prefix does; walked in ascending key order, each path
    # stops at the first state an earlier, smaller key already set
    for (j, s, _), text_ends in zip(texts, ends):
        for off, v in enumerate(reversed(text_ends)):
            key = (j, s, off)
            while v and key < keys[v]:
                keys[v] = key
                v = link[v]
    return trans, link, depth, keys


def _read(
    index: _Index, letters: tuple[int, ...], count: int, cap: int
) -> tuple[list[int], list[int]]:
    """Matching statistics of ``letters`` against one length class, read
    right to left: for each p below ``count``, the length of the longest
    prefix of letters[p:] of at most ``cap`` letters that the class spells,
    and the state that prefix ends in."""
    trans, link, depth, _ = index
    lengths = [0] * count
    states = [0] * count
    state = 0
    length = 0
    for p in range(min(len(letters), count + cap - 1) - 1, -1, -1):
        x = letters[p]
        nxt = trans[state].get(x)
        while nxt is None and state:
            state = link[state]
            nxt = trans[state].get(x)
            length = depth[state]
        if nxt is None:
            length = 0
        else:
            state = nxt
            length += 1
            if length > cap:
                length = cap
                while depth[link[state]] >= cap:
                    state = link[state]
        if p < count:
            lengths[p] = length
            states[p] = state
    return lengths, states


def verify_steps(
    presentation: Presentation, w: Word, steps: tuple[DehnStep, ...] | list[DehnStep]
) -> tuple[bool, Word]:
    """Replay a step log with no searching: check every claimed match against
    the relators letter for letter and redo the replacements.  Returns
    (valid, final_word); a trivial verdict is certified by (True, empty)."""
    doubled = [(r.letters * 2, r.inverse().letters * 2) for r in presentation.relators]
    cur = cyclic_reduce(w)[0]
    for st in steps:
        n = len(cur)
        if not 0 <= st.relator < len(presentation.relators):
            return False, cur
        ell = len(presentation.relators[st.relator])
        if st.orientation not in (1, -1) or not 0 <= st.offset < ell:
            return False, cur
        if not 0 <= st.position < n or not st.length <= min(ell, n):
            return False, cur
        if 2 * st.length <= ell:
            return False, cur
        d = doubled[st.relator][0 if st.orientation == 1 else 1]
        w2 = cur.letters + cur.letters
        if w2[st.position : st.position + st.length] != d[st.offset : st.offset + st.length]:
            return False, cur
        complement = tuple(-x for x in reversed(d[st.offset + st.length : st.offset + ell]))
        replaced = _word(complement + w2[st.position + st.length : st.position + n])
        nxt = cyclic_reduce(replaced)[0]
        if len(nxt) >= n:
            return False, cur
        cur = nxt
    return True, cur


def check_replay(presentation: Presentation, w: Word, result: DehnResult) -> None:
    """Raise RuntimeError unless :func:`verify_steps` replays ``result``'s
    step log on ``w`` to the solver's residue."""
    if verify_steps(presentation, w, result.steps) != (True, result.residue):
        raise RuntimeError("Dehn step log does not replay")


@dataclass(frozen=True)
class AreaRow:
    word: Word
    length: int
    area: int
    pieces: int | None

    @property
    def ratio(self) -> Fraction | None:
        if self.length == 0:
            return None
        return Fraction(self.area, self.length)


@dataclass(frozen=True)
class AreaReport:
    rows: tuple[AreaRow, ...]
    max_ratio: Fraction | None


def area_bound_check(
    presentation: Presentation, samples: list[Word] | tuple[Word, ...]
) -> AreaReport:
    """Solve every sample, recording step count as a proxy for diagram area.

    Each step log is replayed before it is counted.  Raises on a sample
    the solver cannot certify trivial, and asserts that each area stays
    within the number of relator-subword segments needed to spell the
    sample's free reduction (the linear isoperimetric budget).  A sample
    whose reduction keeps a letter that no relator reads, such as a
    conjugator's, has no such spelling: its budget is None and unchecked.
    """
    solver = DehnSolver(presentation)
    rows = []
    failures = []
    for i, sample in enumerate(samples):
        result = solver.solve(sample)
        check_replay(presentation, sample, result)
        if not result.trivial:
            failures.append(i)
            continue
        reduced = free_reduce(sample)
        rows.append(AreaRow(sample, len(reduced), result.area, solver.piece_count(sample)))
    if failures:
        raise ValueError(f"samples not trivial: {failures}")
    for i, row in enumerate(rows):
        if row.pieces is not None and row.area > row.pieces:
            raise AssertionError(
                f"sample {i}: area {row.area} exceeds piece budget {row.pieces}"
            )
    ratios = [row.ratio for row in rows if row.ratio is not None]
    return AreaReport(tuple(rows), max(ratios, default=None))


def random_trivial_words(
    presentation: Presentation,
    count: int,
    max_conj: int,
    seed: int,
) -> list[Word]:
    """Products of up to max_conj relators, each conjugated by a reduced
    word of at most 4 letters, freely reduced."""
    if not presentation.relators:
        raise ValueError("need at least one relator")
    if count < 0:
        raise ValueError("count must be at least 0")
    if max_conj < 1:
        raise ValueError("max_conj must be at least 1")
    rng = random.Random(seed)
    rank = presentation.alphabet.size
    out = []
    for _ in range(count):
        w = EMPTY
        for _ in range(rng.randint(1, max_conj)):
            r = presentation.relators[rng.randrange(len(presentation.relators))]
            if rng.random() < 0.5:
                r = r.inverse()
            g = random_reduced_word(rng, rank, rng.randint(0, 4))
            w = w * g * r * g.inverse()
        out.append(free_reduce(w))
    return out
