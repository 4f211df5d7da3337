"""Longest shared-subword scan across a family of cyclic words.

Overlap checks need, for every rotation start of every input word, the
length of the longest subword that also occurs "somewhere else".  Two
occurrences count as the same appearance when they come from the same word,
the same reading direction, and starts that differ by a multiple of the
word's literal period; everything else is a different appearance.  Match
lengths are capped at the shorter of the two words involved, since a shared
subword never needs to be counted beyond one full turn of either cyclic
word.

Layout.  One combined text holds each word doubled, per reading direction,
with a unique negative sentinel after each section.  Each word is first
rotated to start right after a change of letter, which every word but a
power of one letter allows.  The words' own sections come first; the
inverse sections follow, last word first, as the same letters read
backwards and negated, since the inverse of a doubled rotation is the
doubled rotation of the inverse.  From ``_NUMPY_CUTOFF`` letters of
own-half text up, the text is built from int64 arrays: one conversion per
word, slices, one concatenation into the first half and one negation into
the second, with zeros where the sentinels go until the least letter is
known.  Smaller families are laid out by Python steps (Small families,
below).
The text is run-length encoded into (letter, run length) tokens, and runs
never cross a sentinel.  A *live* position is one of the first p letters of
a section, p the word's literal period: one position per appearance class.
Positions p apart read the same letters for more than a word length, so
they match every other position equally far up to the cap, and the scan
reports each class once and repeats it along the word.  Thanks to the rotation the live letters of a section are whole runs.
A live position with m letters of its run left, its *level*, reads x^m and
then the text from the run's next token.  A power of one letter x^n is one
run x^2n up to the sentinel, with one live position at level 2n.

Token order.  Token ids rank tokens by (letter, length), and the suffix
array is built on token ids; letters too far apart for one int64 id are
first ranked densely.  Let F(u, v) be the number of letters on which the
text from token u agrees with the text from token v: the letters of
their t equal leading tokens, plus the shorter of the next two runs when
those share a letter.  Along the token suffix array, F between any two
suffixes is the minimum of the adjacent F values between them.  The
ranking is what makes this hold: it keeps the runs of one letter together,
ordered by length.  If suffixes u < w agree on t tokens and then read runs
of one letter x, every suffix between them agrees with both on those t
tokens and then also reads a run of x, of a length between theirs, so its
F with either is at least F(u, w).  Ranking by length first would put runs
of other letters between runs of x, and the minimum would drop to the t
whole tokens.  :func:`lcp_array` finds t for any pair of suffixes by binary
lifting over the ranks of the doubling rounds.

Small families.  Below ``_NUMPY_CUTOFF`` letters of own-half text, where
numpy's fixed cost per call outweighs its speed per letter, Python steps
over runs build the same three things: the token text, the order of the
live runs and their links F.  Each word's rotation is tokenized once, one
period of it, and its doubled section repeats those tokens; a one-letter
power's section is one run, with no live run.  An inverse section is the
own one's tokens reversed and negated.  Each section ends in a sentinel
token below every letter, unique and falling along the text as above.
The live runs sort by letter and then by the flat (letter, length) tuple
from the next token through the section's sentinel: tuples compare as
token ids do, and the unique sentinel decides a comparison at the
latest, so the order is the suffix order.  A link is read off the first
difference of two neighbours' tuples, found by galloping slice
comparisons.  Both front ends hand the sweeps the same lists.

Match lengths.  Two live positions of letter x at levels m and m' agree on
min(m, m') letters when m != m', and on m + F(their next tokens) letters
when m == m'.  So at level m of a run, every other run of x that reaches
level m is a partner worth min(c', m + F) letters, c' its cap, which is at
least m since a run is shorter than its word; positions at other levels
give at most m.  Only the tallest run of a letter has levels no other run
reaches: there the value is m, and at its first letter the best other
position, its own second letter or a power of one letter.

Sweeps.  The runs of one letter are sorted by the rank of their next token,
and F between any two of them is the minimum of the links, F of
neighbours, between them.  The runs that reach level m are those of length
at least m, in the same order, so one forward and one backward sweep over
the runs find every level's partners at once: a stack of level segments
keeps, for each range of levels, the earlier run that is best there for
every later run.  A run takes over the levels it reaches, except where a
partner's longer cap beats its own and their match is longer than its own
word; then it leaves those levels to the partner.  Each run pushes one
segment and pops the ones below its length, so the sweeps are Python loops
over runs, plus a segment for each range of levels that such a longer
match keeps.  A run's values come out as a few ramps m + f and constants,
written into the output by slices; the per-word rows repeat the classes
along the word.  With inverses, the best piece in a word's inverse is the
inverse of one in the word, so only the words' own sections are filled.
A one-letter power has no live run; its value is the shorter of its cap
and the best other position of its letter, read off the tallest live run
and, per letter, the largest power cap with its slot and the second
largest cap, in one pass over the powers.

The result is the :class:`PieceReport` every reader of the scan gets:
the words' lengths, each word's longest piece and the per-offset rows.

Letters are the nonzero ints of :mod:`hnnembed.words`; this module does
not reduce or validate words beyond requiring the family and each word
nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import neg
from typing import Sequence

import numpy as np

from .words import _agree, literal_period


def suffix_array(text: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Suffix array of a text of positive int64 symbols, by prefix
    doubling, with the rank history of the rounds.

    Row k of the history ranks every window ``text[i : i + 2**k]``, padded
    past the end with a symbol below all others: two entries of a row are
    equal exactly where their windows are.  Row 0 is the text itself.  Each
    round sorts one combined int64 key, the rank of a suffix's first h
    symbols then that of the h after them; symbols too wide for that key
    are first ranked densely.
    """
    n = text.size
    rank = text
    history = [rank]
    if n == 0:
        return np.zeros(0, dtype=np.int64), history
    width = int(rank.max()) + 1
    if width > 2**31:
        # too wide for the combined keys: dense ranks from 1 keep the
        # symbols' order and equalities
        rank = np.unique(text, return_inverse=True)[1].astype(np.int64) + 1
        width = int(rank.max()) + 1
    heads = np.empty(n, dtype=bool)
    heads[0] = True
    h = 1
    while True:
        key = rank * width
        key[: n - h] += rank[h:]
        sa = key.argsort()
        ordered = key[sa]
        # dense ranks from 1: one more at each change along the sorted keys
        np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
        dense = heads.cumsum()
        rank = np.empty(n, dtype=np.int64)
        rank[sa] = dense
        history.append(rank)
        if dense[-1] == n:
            return sa, history
        width = n + 1
        h *= 2


def lcp_array(history: list[np.ndarray], u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Longest common prefix of the suffixes at ``u[i]`` and ``v[i]``, for
    each i, by binary lifting over a :func:`suffix_array` rank history.

    The pairs must be distinct suffixes of a text whose last symbol occurs
    nowhere else, so every common prefix stops before the end.
    """
    lcp = np.zeros(u.size, dtype=np.int64)
    # the last row ranks every suffix apart, so it never matches
    for k in range(len(history) - 2, -1, -1):
        row = history[k]
        lcp += (row[u + lcp] == row[v + lcp]) << k
    return lcp


@dataclass(frozen=True)
class PieceReport:
    """Raw overlap statistics for a relator family.

    A piece is a subword that also occurs with a different appearance.
    ``lengths[j]`` is the length of relator j, ``per_offset[j][o]`` the
    longest piece of relator j starting at rotation offset o (0 when none
    starts there), and ``max_piece[j]`` the longest piece occurring
    anywhere in relator j, in either direction.
    """

    lengths: tuple[int, ...]
    max_piece: tuple[int, ...]
    per_offset: tuple[tuple[int, ...], ...]

    def maximal_occurrences(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per relator: (offset, length) of each piece no longer piece contains.

        The piece starting at offset o is maximal exactly when the one
        starting at o-1 does not reach past it; reaches are monotone, so
        the local comparison is the whole containment check.
        """
        out = []
        for row in self.per_offset:
            n = len(row)
            occ = tuple(
                (o, row[o])
                for o in range(n)
                if row[o] > 0 and row[(o - 1) % n] <= row[o]
            )
            out.append(occ)
        return tuple(out)


_UNBOUNDED = 1 << 62
_UNQUERIED = -(1 << 62)  # output offset of an inverse section
_GAP = np.zeros(1, dtype=np.int64)  # where a sentinel goes; read, never written

# Below this many letters of own-half text, the sum of 2 len(w) + 1 over
# the words, match_table builds its front end by Python steps over runs,
# since numpy's fixed cost per call outweighs its speed per letter there.
# Crossover on a 2-core x86 host, median of 15 alternating passes of 200
# scans of random cyclically reduced families (one word over two
# generators, three over three, six over four), Python against numpy: at
# 40 letters (text 81-86) 358/377, 342/367 and 241/252 us, at 44 letters
# (text 89-94) 251/242, 251/232 and 241/228 us.
_NUMPY_CUTOFF = 88


def _sweep(length, cap, letter, links):
    """The partners on one side of each run, visiting the runs in order.

    ``links[k]`` is F between run k and the run before it.  Returns, per
    run, its pieces ``(hi, c, f, hi, c, f, ...)`` that cover its levels from 1
    up, lowest first: at a level m up to ``hi`` the best earlier run of its
    letter agrees with it on min(c, m + f) letters.  The pieces stop at the
    tallest earlier run of the letter.  For a run of one letter it holds
    that value at level 1 instead, or -1.

    The state is a stack of level segments, lowest levels on top, each with
    an owner: the earlier run that is best there for every later run.  The
    owner's cap and F to the visited run give the piece.  A run takes over
    the levels where its own cap beats the owner's value, which is the lower
    part of each segment it reaches: all of it unless the owner's cap is at
    least its own and their F binds.  F to an owner is a range minimum of
    links: a segment holds F as of its last rewrite and ``lam``, the least
    link since, which holds for the segments below it too.
    """
    # the top segment in scalars, the ones below it flat, bottom first
    inf = _UNBOUNDED
    pieces: list = []
    below: list[int] = []
    hi = c_top = f_top = lam_top = 0
    x = None
    for lk, ck, y, lam in zip(length, cap, letter, links):
        if y != x:
            x = y
            below = []
            hi, c_top, f_top, lam_top = lk, ck, inf, inf
            pieces.append(-1 if lk == 1 else ())
            continue
        if lam_top < lam:
            lam = lam_top
        if hi >= lk:
            # the top segment holds every level of the run
            c = c_top
            f = f_top if f_top < lam else lam
            if ck > c or ck - f > lk:
                # and the run takes all of them over
                if hi > lk:
                    below += (hi, c_top, f_top, lam)
                    hi = lk
                elif below and lam < below[-1]:
                    below[-1] = lam
                c_top, f_top, lam_top = ck, inf, inf
                pieces.append((c if c <= f else f + 1) if lk == 1 else (lk, c, f))
                continue
        stack = below
        stack += (hi, c_top, f_top, lam_top)
        got: list[int] = []
        lost = []  # (lo, hi, c, f): levels lo + 1 .. hi that stay with their owner
        lo = 0
        while stack:
            hi = stack[-4]
            c = stack[-3]
            f = stack[-2]
            if stack[-1] < lam:
                lam = stack[-1]
            if f > lam:
                f = lam
            top = hi if hi < lk else lk
            got += (top, c, f)
            if ck <= c and ck - f <= top:
                lost.append((max(lo, ck - f - 1), top, c, f))
            if hi > lk:
                stack[-1] = lam
                break
            del stack[-4:]
            lo = hi
            if hi == lk:
                if stack and lam < stack[-1]:
                    stack[-1] = lam
                break
        top = lk
        for lo, hi, c, f in reversed(lost):
            if hi < top:
                stack += (top, ck, inf, inf)
            stack += (hi, c, f, inf)
            top = lo
        if top > 0:
            stack += (top, ck, inf, inf)
        hi, c_top, f_top, lam_top = stack[-4:]
        del stack[-4:]
        pieces.append((got[1] if got[1] <= got[2] else got[2] + 1) if lk == 1 else got)
    return pieces


def _fill(out, end, lk, ck, head, left, right, numbers):
    """Write one run's values for levels m = 1 .. lk to ``out[end - m]``.

    Where a side's pieces cover m, the value is the larger of the two
    sides' min(c, m + f), capped at ``ck``.  Above both, no other run of the
    letter reaches level m: the value is m, except ``head`` at m = lk.
    Ramps are slices of ``numbers``, ``list(range(longest word + 1))``, so
    the rows share one int object per value.
    """
    a = 1
    i = j = 0
    nl = len(left)
    nr = len(right)
    while i < nl or j < nr:
        # the larger of two ramps that stop at their caps: the ramp with the
        # larger f up to its cap, that cap until the other ramp passes it,
        # then the other ramp up to its own cap
        if i < nl:
            z, c, f = left[i : i + 3]
            c2 = -1
            if j < nr:
                z2, c2, f2 = right[j : j + 3]
                if z2 < z:
                    z = z2
                if f2 > f or f2 == f and c2 > c:
                    c, f, c2, f2 = c2, f2, c, f
        else:
            z, c, f = right[j : j + 3]
            c2 = -1
        if c > ck:
            c = ck
        if c2 > ck:
            c2 = ck
        e = c - f if c - f < z else z
        if e >= a:
            out[end - e : end - a + 1] = numbers[e + f : a + f - 1 : -1]
            a = e + 1
        if c2 > c:
            e = c - f2 if c - f2 < z else z
            if e >= a:
                out[end - e : end - a + 1] = [c] * (e - a + 1)
                a = e + 1
            c, f = c2, f2
            e = c - f if c - f < z else z
            if e >= a:
                out[end - e : end - a + 1] = numbers[e + f : a + f - 1 : -1]
                a = e + 1
        if z >= a:
            out[end - z : end - a + 1] = [c] * (z - a + 1)
            a = z + 1
        if i < nl and left[i] == z:
            i += 3
        if j < nr and right[j] == z:
            j += 3
    if a < lk:
        out[end - lk + 1 : end - a + 1] = numbers[lk - 1 : a - 1 : -1]
    if a <= lk:
        out[end - lk] = head


def _python_front(words, layout, include_inverses):
    """The live runs in scan order, as lists of lengths, letters, caps and
    output ends (-1 in an inverse section), and the links between
    neighbours, by Python steps over each word's runs.  A section is a
    flat tuple of (letter, run length) pairs closed by its sentinel pair;
    a live run sorts by its letter and then the pairs after it."""
    nw = len(words)
    # sentinels below every letter, falling along the text as in the
    # numpy front end
    low = -1 - max(max(map(max, words)), -min(map(min, words)))
    live = []  # (letter, pairs after the run, length, cap, end)
    for j, (w, (slot, period, shift)) in enumerate(zip(words, layout)):
        if period == 1:
            continue  # no live run: the power's section is one run of 2 lw
        # the pairs of one period of the rotation, which starts and ends
        # on a change of letter, so the doubled section repeats them
        seg = w[shift:period] + w[:shift]
        flat = [seg[0], 1]
        for x in islice(seg, 1, None):
            if x == flat[-2]:
                flat[-1] += 1
            else:
                flat += (x, 1)
        lw = len(w)
        times = 2 * (lw // period)
        heads = range(2, len(flat) + 1, 2)
        own = (*flat * times, low - j, 1)
        ends = islice(accumulate(flat[1::2], initial=slot), 1, None)
        live += zip(flat[::2], [own[k:] for k in heads], flat[1::2], repeat(lw), ends)
        if include_inverses:
            # the inverse section reads the own section backwards, negated
            inv = flat[:]
            inv[::2] = map(neg, flat[-2::-2])
            inv[1::2] = flat[-1::-2]
            mirror = (*inv * times, low - 2 * nw + 1 + j, 1)
            live += zip(inv[::2], [mirror[k:] for k in heads], inv[1::2], repeat(lw), repeat(-1))
    if not live:
        return [], [], [], [], []
    live.sort()
    letter, after, length, capl, endl = map(list, zip(*live))
    links = [0] * (len(live) - 1)
    for k in range(1, len(live)):
        u = after[k - 1]
        v = after[k]
        if letter[k] != letter[k - 1] or u[0] != v[0]:
            continue  # the sweeps skip the link, or it is 0
        d = _agree(u, 0, v, 0, min(len(u), len(v)))
        f = sum(u[1:d:2])
        if d & 1:
            f += u[d] if u[d] < v[d] else v[d]
        links[k - 1] = f
    return length, letter, capl, endl, links


def _numpy_front(words, layout, include_inverses, longest):
    """The same five lists as :func:`_python_front`, from one combined
    int64 text, its token suffix array and pair LCPs."""
    parts = []
    sections: list[int] = []  # per section: end of its live letters, cap, slot - start
    mirrored = []  # per word: its live letter count less its section's end, cap
    start = 0
    for w, (slot, period, shift) in zip(words, layout):
        lw = len(w)
        live = period if period > 1 else 0
        # the rotation by ``shift``, doubled, is w[shift:] w w[:shift]
        a = np.array(w, dtype=np.int64)
        parts += (a[shift:], a, a[:shift], _GAP) if shift else (a, a, _GAP)
        sections += (start + live, lw, slot - start)
        start += 2 * lw + 1
        mirrored.append((live - start, lw))
    text = np.empty(2 * start if include_inverses else start, dtype=np.int64)
    np.concatenate(parts, out=text[:start])
    del parts
    if include_inverses:
        # The inverse of a doubled rotation is the doubled rotation of the
        # inverse, so the inverse sections, last word first, are the own
        # half read backwards and negated: a section that ends just before
        # e mirrors to one that starts at 2 start - e.
        np.negative(text[start - 2 :: -1], out=text[start:-1])
        text[-1] = 0
        for d, lw in reversed(mirrored):
            sections += (2 * start + d, lw, _UNQUERIED)
    n = text.size
    # letters are nonzero, so the gaps are the zeros; the sentinels are
    # negative and below every letter
    low = int(text.min()) - 1
    sep = low - len(sections) // 3
    text[text == 0] = np.arange(low, sep, -1)

    # Runs: token t covers text[bounds[t] : bounds[t + 1]].
    change = np.empty(n + 1, dtype=bool)
    change[0] = change[n] = True
    np.not_equal(text[1:], text[:-1], out=change[1:n])
    bounds = change.nonzero()[0]
    first = bounds[:-1]
    tletter = text[first]
    tlen = bounds[1:] - first
    tokens = np.array((first, tlen, tletter))
    del text, change
    # token ids ranked by (letter, length); a run is at most two word
    # lengths.  Letters too far apart for int64 ids are ranked densely.
    width = 2 * longest + 1
    if (int(tletter.max()) - sep + 1) * width < 2**63:
        symbol = tletter - sep
    else:
        symbol = np.unique(tletter, return_inverse=True)[1].astype(np.int64) + 1
    _, history = suffix_array(symbol * width + tlen)

    # Live runs, sorted by letter and then by the rank of the next token.
    # A live position p with m letters of its run left reads x^m and then
    # the text from the next token.
    sentinel = tletter <= low
    sec = sentinel.cumsum() - sentinel
    live_end, cap, delta = np.array(sections, dtype=np.int64).reshape(-1, 3).T
    runs = (first < live_end[sec]).nonzero()[0]
    nxt = runs + 1
    order = np.lexsort((history[-1][nxt], tletter[runs]))
    runs = runs[order]
    nxt = nxt[order]
    # F between neighbouring runs: the letters of their next tokens' t
    # shared whole tokens, plus the shorter of the next two runs when those
    # share a letter
    u = nxt[:-1]
    v = nxt[1:]
    t = lcp_array(history, u, v)
    at_u = tokens[:, u + t]
    at_v = tokens[:, v + t]
    links = at_u[0] - first[u] + np.minimum(at_u[1], at_v[1]) * (at_u[2] == at_v[2])
    sec = sec[runs]
    at, length, letter = tokens[:, runs]
    length, letter, capl, endl = np.array((length, letter, cap[sec], delta[sec] + at + length)).tolist()
    return length, letter, capl, endl, links.tolist()


def match_table(relators: Sequence[Sequence[int]], include_inverses: bool = True) -> PieceReport:
    """The longest different-appearance match at every rotation of every
    word, and each word's longest, by the run sweeps of the module
    docstring: Python steps visit runs, and each run's values are written
    as a few ramps and constants.  The runs and their links come from the
    Python front end below ``_NUMPY_CUTOFF`` letters of own-half text and
    from the numpy one at or above it.  Raises ValueError on an empty
    family or an empty word."""
    words = [tuple(r) for r in relators]
    if not words:
        raise ValueError("no relators to scan")
    if any(len(w) == 0 for w in words):
        raise ValueError("empty word in scan input")

    # Sections: each word rotated to start after a change of letter, doubled
    # per reading direction, then one unique sentinel.  The live positions
    # are the first period letters of a section, one per appearance class;
    # those of a word's own section take up ``slot`` onwards in the output,
    # and an inverse section is swept but not filled.  A power of one letter
    # has one live position, whose run fills its section; it is set at the
    # end.
    longest = max(map(len, words))
    layout = []  # per word: its first slot, period and rotation
    powers = []  # (letter, cap, slot) of one-letter powers, slot -1 if inverse
    slot = 0
    for w in words:
        period = literal_period(w)
        shift = 0
        if w[-1] == w[0] and period > 1:
            shift = next(i for i, x in enumerate(w) if x != w[0])
        layout.append((slot, period, shift))
        if period == 1:
            powers.append((w[0], len(w), slot))
            if include_inverses:
                powers.append((-w[0], len(w), -1))
        slot += period
    if 2 * sum(map(len, words)) + len(words) < _NUMPY_CUTOFF:
        length, letter, capl, endl, links = _python_front(words, layout, include_inverses)
    else:
        length, letter, capl, endl, links = _numpy_front(words, layout, include_inverses, longest)
    left = _sweep(length, capl, letter, [0, *links])
    out = [0] * slot
    numbers = list(range(longest + 1))
    # a run above every other run of its letter keeps m at its lower levels
    # and at its first letter the best of another position: its second
    # letter, or a one-letter power of cap at least its length.  Per letter,
    # the largest power cap, its slot and the second largest cap.
    power_cap: dict[int, list[int]] = {}
    for x, c, s in powers:
        best = power_cap.setdefault(x, [0, -1, 0])
        if c > best[0]:
            best[:] = c, s, best[0]
        elif c > best[2]:
            best[2] = c
    length.reverse()
    capl.reverse()
    letter.reverse()
    links.append(0)
    links.reverse()
    for lk, ck, end, x, lp, rp in zip(
        length, capl, reversed(endl), letter, reversed(left), _sweep(length, capl, letter, links)
    ):
        if end < 0:
            continue
        if lk == 1:
            if rp > lp:
                lp = rp
            if lp < 0:
                lp = 1 if power_cap and x in power_cap else 0
            out[end - 1] = lp if lp < ck else ck
        else:
            head = lk if x in power_cap and power_cap[x][0] >= lk else lk - 1
            _fill(out, end, lk, ck, head, lp, rp, numbers)
    if powers:
        # a one-letter power x^c reads x^2c, so it matches min(c, m') of
        # any other live x with m' letters of its run left
        tallest: dict[int, int] = {}
        for x, lk in zip(letter, length):
            if lk > tallest.get(x, 0):
                tallest[x] = lk
        for x, c, s in powers:
            if s >= 0:
                c1, s1, c2 = power_cap[x]
                out[s] = min(c, max(tallest.get(x, 0), c2 if s == s1 else c1))

    per_offset: list[tuple[int, ...]] = []
    per_max = []
    for w, (lo, period, shift) in zip(words, layout):
        window = out[lo : lo + period]
        per_max.append(max(window))
        row = window * (len(w) // period)
        if shift:
            row = row[-shift:] + row[:-shift]
        per_offset.append(tuple(row))
    return PieceReport(tuple(map(len, words)), tuple(per_max), tuple(per_offset))
