"""Word problem and area accounting for metric small-cancellation presentations.

The solver repeatedly finds a stretch of the current cyclic word that covers
more than half of some symmetrized relator and swaps it for the shorter
complement.  Every swap strictly shrinks the word, so the loop terminates,
and for C'(1/6) presentations a word that reaches no swap at all is known to
be nontrivial.  Each run leaves a structured step log that an independent
replayer can verify exactly in the free group.

Each step takes the longest match, ties broken by (relator, position,
orientation, offset).  The search walks the positions of the cyclic word in
order and, per relator and orientation, groups hits by diagonal
(offset - position) mod relator length.  Once a hit is verified letter for
letter and extended, every later hit on the same diagonal that starts inside
the covered stretch ends no later than it (same mismatch, or the same length
cap), so it is no longer and sits at a later position: it cannot win and is
skipped unverified.  Two guards keep this exact: a diagonal goes live only
after the literal comparison succeeds, so a hash collision never suppresses
a real hit, and coverage is never carried across position 0, where the scan
starts fresh.  A step then costs O(n) lookups plus one extension per
diagonal rather than one per hit.

Piece counting walks one suffix automaton per oriented doubled relator
(Blumer et al., "The smallest automaton recognizing the subwords of a
text", TCS 1985).  A slice of the doubled text is a cyclic subword exactly
when it is at most the relator's length, so each walk stops there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .presentation import Presentation, check_cprime
from .words import EMPTY, Word, _word, cyclic_reduce, free_reduce, random_reduced_word

_MOD = (1 << 61) - 1
_BASE = 1_000_003

_POW: list[int] = [1]


def _pow(n: int) -> int:
    while len(_POW) <= n:
        _POW.append(_POW[-1] * _BASE % _MOD)
    return _POW[n]


def _prefix_hashes(letters: tuple[int, ...]) -> list[int]:
    h = [0] * (len(letters) + 1)
    for i, x in enumerate(letters):
        # letters are nonzero ints; offset keeps the digit positive
        h[i + 1] = (h[i] * _BASE + x + (1 << 20)) % _MOD
    return h


def _hash_range(h: list[int], lo: int, hi: int) -> int:
    return (h[hi] - h[lo] * _pow(hi - lo)) % _MOD


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
    """Reusable solver; builds the rotation index once per presentation.

    The index maps the hash of each relator rotation's first half (plus one
    letter) to its (relator, orientation, offset) triples.  ``_best_match``
    verifies a hash hit literally and extends it only when no earlier
    verified hit covers it on the same diagonal; see the module docstring
    for why the skipped hits cannot win.  The suffix automata behind
    ``piece_count`` are built on its first call, so plain solving never pays
    for them.
    """

    def __init__(self, presentation: Presentation):
        if presentation.relators and not check_cprime(presentation.relators, 1, 6).holds:
            raise ValueError("presentation not metric small cancellation")
        self.presentation = presentation
        # doubled[j][s] spells relator j (s=0) or its inverse (s=1) twice,
        # so any rotation is a contiguous slice
        self._doubled = [(r.letters * 2, r.inverse().letters * 2) for r in presentation.relators]
        self._lengths = [len(r) for r in presentation.relators]
        # one index per relator length: half-prefix hash -> [(j, srank, offset)]
        # in tie order (ascending j, forward orientation first, ascending offset)
        self._classes: dict[int, dict[int, list[tuple[int, int, int]]]] = {}
        for j, ell in enumerate(self._lengths):
            index = self._classes.setdefault(ell, {})
            half = ell // 2 + 1
            for srank in (0, 1):
                hashes = _prefix_hashes(self._doubled[j][srank])
                for off in range(ell):
                    index.setdefault(_hash_range(hashes, off, off + half), []).append(
                        (j, srank, off)
                    )
        # (transitions, relator length) per oriented relator, built lazily
        self._automata: list[tuple[list[dict[int, int]], int]] | None = None

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
        (-length, relator, position, srank, offset)."""
        n = len(cur)
        w2 = cur.letters + cur.letters
        hashes = _prefix_hashes(w2)
        best: tuple[int, int, int, int, int] | None = None
        for ell, index in self._classes.items():
            half = ell // 2 + 1
            if half > n:
                continue
            top = min(ell, n)
            shift = _pow(half)
            # (j, srank, diagonal) -> end of the last verified hit on it
            live: dict[tuple[int, int, int], int] = {}
            for pos in range(n):
                # _hash_range(hashes, pos, pos + half) inlined: this runs
                # once per letter per length class at every step
                cands = index.get((hashes[pos + half] - hashes[pos] * shift) % _MOD)
                if not cands:
                    continue
                for j, srank, off in cands:
                    diagonal = (j, srank, (off - pos) % ell)
                    if pos < live.get(diagonal, 0):
                        continue
                    d = self._doubled[j][srank]
                    if w2[pos : pos + half] != d[off : off + half]:
                        continue
                    length = half
                    while length < top and w2[pos + length] == d[off + length]:
                        length += 1
                    live[diagonal] = pos + length
                    cand = (length, j, pos, srank, off)
                    if best is None or (-cand[0], *cand[1:]) < (-best[0], *best[1:]):
                        best = cand
        return best

    def piece_count(self, w: Word) -> int | None:
        """Greedy count of relator-subword segments spelling free_reduce(w);
        None when some letter occurs in no relator.  Each segment is the
        longest prefix of the rest that is a cyclic subword of some oriented
        relator."""
        letters = free_reduce(w).letters
        if self._automata is None:
            self._automata = [
                (_subword_automaton(d), ell)
                for pair, ell in zip(self._doubled, self._lengths)
                for d in pair
            ]
        pos = 0
        segments = 0
        while pos < len(letters):
            jump = 0
            for transitions, ell in self._automata:
                top = min(pos + ell, len(letters))
                if top - pos > jump:
                    jump = max(jump, _walk(transitions, letters, pos, top) - pos)
            if jump == 0:
                return None
            pos += jump
            segments += 1
        return segments


def _walk(
    transitions: list[dict[int, int]], letters: tuple[int, ...], lo: int, hi: int
) -> int:
    """Index where the walk of letters[lo:hi] from the automaton's root
    first finds no transition (``hi`` when it never does)."""
    state = 0
    for i in range(lo, hi):
        state = transitions[state].get(letters[i], -1)
        if state < 0:
            return i
    return hi


def _subword_automaton(text: tuple[int, ...]) -> list[dict[int, int]]:
    """Transitions of the suffix automaton of ``text``: a walk from state 0
    succeeds exactly on the subwords of ``text``."""
    trans: list[dict[int, int]] = [{}]
    link = [-1]
    depth = [0]
    last = 0
    for x in text:
        cur = len(trans)
        trans.append({})
        link.append(0)
        depth.append(depth[last] + 1)
        p = last
        while p >= 0 and x not in trans[p]:
            trans[p][x] = cur
            p = link[p]
        if p >= 0:
            q = trans[p][x]
            if depth[q] == depth[p] + 1:
                link[cur] = q
            else:
                clone = len(trans)
                trans.append(dict(trans[q]))
                link.append(link[q])
                depth.append(depth[p] + 1)
                while p >= 0 and trans[p].get(x) == q:
                    trans[p][x] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
    return trans


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
    sample's free reduction (the linear isoperimetric budget).
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
        if row.pieces is None or row.area > row.pieces:
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
