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
orientations.  A string read right to left from its root stays in the
automaton exactly when some text spells it, and all strings of one state
occur at the same places, so the least (relator, orientation, offset) over
a state's occurrences, stored when the index is built, is the least
occurrence of the string read.  A slice of a doubled relator is a cyclic
subword exactly when it is at most ell letters long.

The search reads sampled windows, not every letter.  Under C'(1/6) every
piece is shorter than a sixth of its relator, so in class ell a string of
at least b letters, b one more than the longest piece of the class's
relators, has at most one appearance: one relator, one orientation, and
one offset up to multiples of the relator's literal period.  A match that
can still win has need = max(ell // 2 + 1, best length so far) letters or
more, and need >= b.  So the search walks the b-letter windows of the
doubled cyclic word that start h = need - b + 1 letters apart, each from
the root: every stretch of need letters holds a whole window, and that
window's one occurrence names the only alignment of a relator against the
word, a diagonal, that the stretch can lie on.  From the window, slice
comparisons that double while they agree extend the stretch left and
right along its diagonal.  Its first position holds its longest match
there, and the offset at that position modulo the literal period is the
least one.  After a stretch ending at e, sampling resumes at e - b + 1:
a match on another diagonal shares fewer than b letters with the
stretch, since a longer overlap would be a piece.  So every position
whose match reaches need lies on a stretch found, and the pick is the
exhaustive search's.  A class costs about b transitions per h letters,
plus slice comparisons as long as the stretches found.

Classes are searched in descending relator length, and the search stops at
the first class whose cap min(ell, n) is strictly shorter than the best
match so far: no match of that class or of any later one is longer than
its cap, so none can win.  A class whose cap equals the best length is
still read, since a shorter relator with a lower index wins that tie.
Piece counting reads the same windows: at each position its greedy
segmentation lands on, a class's automaton is walked over at most b
letters, and a walk that reads all b names the one diagonal the segment
can lie on, which slice comparisons follow.  The replayer shares none of
this: each step builds only its own oriented relator and cyclically
reduces the whole word it makes.

A job reads a reduced input word once.  ``solve``, ``piece_count`` and
``verify_steps`` each reduce it through :mod:`hnnembed.words`, whose
first check of a long word marks it reduced, and the later ones read the
mark, not the letters.  The words a replay makes are new and unmarked,
so the replayer still reduces each of them in full.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import neg

from .presentation import Presentation, check_cprime
from .words import (
    EMPTY,
    Word,
    _agree,
    _gallop,
    _word,
    cyclic_join,
    cyclic_reduce,
    free_reduce,
    literal_period,
    random_reduced_word,
)


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
    first, with the window width b of that class (see the module
    docstring).  ``_best_match`` searches the doubled cyclic word class by
    class with the cap min(ell, n): a relator of the class matches at
    position p letter for letter for k <= min(ell, n) letters exactly when
    those k letters are a subword of its doubled text.  ``_class_match``
    walks the sampled windows of one class and extends each window that
    occurs into its stretch; every match of at least ``need`` letters lies
    on one of those stretches, and each stretch's first position and least
    offset give its best candidate, so the least candidate in tie order
    over all classes is the exhaustive search's pick.  The classes left
    unsearched have caps strictly below the best length, so none of them
    holds a rival.
    ``piece_count`` walks each automaton from its root over at most b
    letters at the positions its greedy segmentation lands on, extends a
    walk that reads all b along its window's one diagonal by slice
    comparisons, and reads no other position.
    """

    def __init__(self, presentation: Presentation):
        report = check_cprime(presentation.relators, 1, 6) if presentation.relators else None
        if report is not None and not report.holds:
            raise ValueError("presentation not metric small cancellation")
        self.presentation = presentation
        # doubled[j][s] spells relator j (s=0) or its inverse (s=1) twice,
        # so any rotation is a contiguous slice
        self._doubled = [(r.letters * 2, r.inverse().letters * 2) for r in presentation.relators]
        self._lengths = [len(r) for r in presentation.relators]
        self._periods = [literal_period(r.letters) for r in presentation.relators]
        texts: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
        for j, ell in enumerate(self._lengths):
            texts.setdefault(ell, []).extend((j, s, d) for s, d in enumerate(self._doubled[j]))
        # a class's window is one letter longer than its longest piece
        self._classes = {
            ell: (_index(texts[ell]), 1 + max(report.max_piece[j] for j, _, _ in texts[ell]))
            for ell in sorted(texts, reverse=True)
        }

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
            complement = tuple(map(neg, reversed(d[off + length : off + ell])))
            # both parts are cyclic subwords shorter than their cyclic words,
            # so freely reduced, and only the seams can cancel
            cur = cyclic_join(complement, w2[pos + length : pos + len(cur)])
            steps.append(DehnStep(pos, j, 1 if srank == 0 else -1, off, length))
        return DehnResult(True, tuple(steps), EMPTY)

    def _best_match(self, cur: Word) -> tuple[int, int, int, int, int] | None:
        """Pick (length, relator, position, srank, offset) minimizing
        (-length, relator, position, srank, offset).

        Classes come longest first, so their caps min(ell, n) never grow;
        the search stops at the first cap strictly below the best length,
        since no match is longer than its cap.  A cap equal to the best
        length is searched: a shorter relator with a lower index wins the
        tie."""
        n = len(cur)
        w2 = cur.letters + cur.letters
        best: tuple[int, int, int, int, int] | None = None
        for ell in self._classes:
            cap = min(ell, n)
            if best is not None and cap < best[0]:
                break
            need = ell // 2 + 1 if best is None else max(ell // 2 + 1, best[0])
            if need > cap:
                continue
            cand = self._class_match(ell, w2, n, cap, need)
            if cand is not None and (
                best is None or (-cand[0], *cand[1:]) < (-best[0], *best[1:])
            ):
                best = cand
        return best

    def _class_match(
        self, ell: int, w2: tuple[int, ...], n: int, cap: int, need: int
    ) -> tuple[int, int, int, int, int] | None:
        """The least (length, relator, position, srank, offset) in tie order
        over the matches of class ``ell`` with at least ``need`` letters, in
        the doubled cyclic word ``w2`` of n letters, or None.

        Only the letters below n + cap - 1 matter: a match starts below n
        and is at most ``cap`` letters long.  Windows start below
        n + need - b, so each lies inside the first ``need`` letters of a
        match that could start below n; ``need`` grows to the best length
        found, which only widens the sampling step.

        A stretch is followed at most ell letters past its window on either
        side, as far as the doubled relator reaches.  One cut there already
        holds more than ``cap`` letters, so the match at its first position
        is still exact, and the samples that resume inside it find the rest.
        The first sample in a stretch lies less than a sampling step, so
        less than ell letters, past the stretch's start: the sample before
        it lies before the start, and the later one is either at most a
        step on, or resumes after a stretch that overlaps this one by fewer
        than b letters, which puts it at the start.  So the start of every
        stretch, where its best match lies, is found."""
        (trans, _, _, keys), b = self._classes[ell]
        end = n + cap - 1
        best: tuple[int, int, int, int, int] | None = None
        q = 0
        while q < n + need - b:
            state: int | None = 0
            for x in reversed(w2[q : q + b]):
                state = trans[state].get(x)
                if state is None:
                    break
            if state is None:
                q += need - b + 1
                continue
            # the window's only appearance: w2[q + i] = d[o + i] for i < b,
            # with o below the period, so d holds ell letters on either side
            j, s, o = keys[state]
            d = self._doubled[j][s]
            left = _agree_back(w2, q, d, o + ell, min(q, ell))
            right = _agree(w2, q + b, d, (o + b) % ell, min(end - q - b, ell))
            start, stop = q - left, q + b + right
            length = min(cap, stop - start)
            if start < n and length >= need:
                cand = (length, j, start, s, (o - left) % self._periods[j])
                if best is None or (-length, *cand[1:]) < (-best[0], *best[1:]):
                    best = cand
                need = length
            q = max(q + need - b + 1, stop - b + 1)
        return best

    def piece_count(self, w: Word) -> int | None:
        """Greedy count of relator-subword segments spelling free_reduce(w);
        None when some letter occurs in no relator.  Segments are taken from
        the right end, each the longest suffix of the rest that is a cyclic
        subword of some oriented relator, at most ell letters.  Relator
        subwords are closed under subwords, so greedy from either end gives
        the least count.

        At position pos, each class's automaton is walked from its root
        over at most b letters to the left, b the class's window width.  A
        walk that stops short is the longest suffix the class spells.  A
        walk that reads b letters ends at a state whose key (j, s, o) is
        the window's only appearance in the class (see the module
        docstring): letters[pos - b:pos] = d[o:o + b], d relator j's doubled
        text in orientation s, o below the relator's period.  Every longer
        suffix the class spells ends in that window, so it lies on that
        diagonal, and it is spelled exactly when its letters agree with d
        read back from o + ell, at most ell letters in all: a slice of ell
        letters or fewer of d is a cyclic subword, and d repeats with
        period ell.  So the window plus the letters on which
        letters[:pos - b] and d[:o + ell] agree from their ends, up to
        min(ell, pos) - b, is the class's longest suffix.  Classes come
        longest first, and none after one with ell <= the longest suffix so
        far can give a longer one."""
        letters = free_reduce(w).letters
        pos = len(letters)
        segments = 0
        while pos:
            jump = 0
            for ell, ((trans, _, _, keys), b) in self._classes.items():
                if ell <= jump:
                    break
                state: int | None = 0
                k = 0
                stop = min(b, pos)
                while k < stop:
                    state = trans[state].get(letters[pos - 1 - k])
                    if state is None:
                        break
                    k += 1
                if k == b:
                    j, s, o = keys[state]
                    k += _agree_back(letters, pos - b, self._doubled[j][s], o + ell, min(ell, pos) - b)
                jump = max(jump, k)
            if jump == 0:
                return None
            pos -= jump
            segments += 1
        return segments


def _agree_back(a: tuple[int, ...], i: int, b: tuple[int, ...], j: int, limit: int) -> int:
    """Letters on which a[:i] and b[:j] agree from their ends, up to
    ``limit``, which is at most i and j."""
    return _gallop(lambda k, m: a[i - k - m : i - k] == b[j - k - m : j - k], limit)


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


def verify_steps(
    presentation: Presentation, w: Word, steps: tuple[DehnStep, ...] | list[DehnStep]
) -> tuple[bool, Word]:
    """Replay a step log with no searching: check every claimed match against
    the relators letter for letter and redo the replacements.  Returns
    (valid, final_word); a trivial verdict is certified by (True, empty).
    Each step builds only its own oriented relator, rotated to its offset,
    and fully cyclically reduces the word it makes."""
    relators = presentation.relators
    cur = cyclic_reduce(w)[0]
    for st in steps:
        n = len(cur)
        if not 0 <= st.relator < len(relators):
            return False, cur
        r = relators[st.relator]
        ell = len(r)
        if st.orientation not in (1, -1) or not 0 <= st.offset < ell:
            return False, cur
        if not 0 <= st.position < n or not st.length <= min(ell, n):
            return False, cur
        if 2 * st.length <= ell:
            return False, cur
        oriented = r.letters if st.orientation == 1 else r.inverse().letters
        rel = oriented[st.offset :] + oriented[: st.offset]
        word = cur.letters[st.position :] + cur.letters[: st.position]
        if word[: st.length] != rel[: st.length]:
            return False, cur
        # the step shortens the word without a check: the complement's
        # ell - length letters and the word's other n - length make
        # n + ell - 2 length < n, as 2 length > ell, and reducing only
        # shortens
        complement = tuple(map(neg, reversed(rel[st.length :])))
        cur = cyclic_reduce(_word(complement + word[st.length :]))[0]
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
