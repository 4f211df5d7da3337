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
with a unique negative sentinel after each section.  A *live* position is a
letter of a first copy; only live positions start the occurrences the scan
reports.  The text is run-length encoded into (letter, run length) tokens.
Runs never cross a sentinel, but one may cross the seam between the two
copies of a word.  A live position p lies in a run of letter x with m
letters of that run left from p on, so the text from p reads x^m and then
the text from the next token.

Token order.  Token ids rank tokens by (letter, length), and the suffix
array is built on token ids.  Let F(u, v) be the number of letters on which
the text from token u agrees with the text from token v: the letters of
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

Match lengths.  Take two live positions p, q of letter x with m, m' letters
of their runs left.  They agree on:

- min(m, m') letters when m != m' (one run ends inside the other);
- m + F(next token after p, next token after q) letters when m == m'.

Sort the live positions by letter, then m ascending if the next letter is
below x, then m descending if it is above x, then by the rank of the next
token.  Positions with equal letter, side and m form a *level*.  Adjacent
positions of one letter in different levels agree on the smaller m;
adjacent positions in one level agree on m + F, and F is a range minimum
along the level.  So the match length of any two positions is the minimum
of the adjacent lengths between them, just as along a letter-level suffix
array.  One forward and one backward sweep, each keeping the two best
appearance classes, then give every live position its longest
different-appearance match.  The sweeps are Python loops over live
letters only; the tokenizing, sorting and lifting are array work.

Letters are the nonzero ints of :mod:`hnnembed.words`; this module does
not reduce or validate words beyond requiring them nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg
from typing import Sequence

import numpy as np

from .words import literal_period


def suffix_array(text: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Suffix array of a text of positive int64 symbols below 2**31, by
    prefix doubling, with the rank history of the rounds.

    Row k of the history ranks every window ``text[i : i + 2**k]``, padded
    past the end with a symbol below all others: two entries of a row are
    equal exactly where their windows are.  Row 0 is the text itself.  Each
    round sorts one combined int64 key, the rank of a suffix's first h
    symbols then that of the h after them.
    """
    n = text.size
    rank = text
    history = [rank]
    if n == 0:
        return np.zeros(0, dtype=np.int64), history
    width = int(rank.max()) + 1
    if width > 2**31:
        raise ValueError("suffix array symbols must be below 2**31")
    key = np.empty(n, dtype=np.int64)
    heads = np.empty(n, dtype=np.int64)
    heads[0] = 1
    h = 1
    while True:
        np.multiply(rank, width, out=key)
        key[: n - h] += rank[h:]
        sa = key.argsort()
        ordered = key[sa]
        # dense ranks from 1: one more at each change along the sorted keys
        np.subtract(ordered[1:], ordered[:-1], out=heads[1:])
        np.sign(heads[1:], out=heads[1:])
        rank = np.empty(n, dtype=np.int64)
        rank[sa] = heads.cumsum()
        history.append(rank)
        if rank[sa[-1]] == n:
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
class MatchTable:
    """Longest different-appearance match lengths for a word family.

    ``per_offset[j][o]`` is the longest length L such that the subword of
    word j starting at rotation offset o of length L also occurs with a
    different appearance (other word, other direction, or same word at an
    offset not congruent mod its period).  ``per_word_max[j]`` is the
    maximum over all offsets and both reading directions of word j.
    """

    per_offset: tuple[tuple[int, ...], ...]
    per_word_max: tuple[int, ...]


def match_table(relators: Sequence[Sequence[int]], include_inverses: bool = True) -> MatchTable:
    words = [tuple(r) for r in relators]
    if any(len(w) == 0 for w in words):
        raise ValueError("empty word in scan input")

    # Section layout: doubled word then one unique sentinel per section.
    # Live positions are listed section by section, with the cap and the
    # appearance class, named by the live index of its first offset.
    sides = 2 if include_inverses else 1
    sep = min(min(map(min, words)), -max(map(max, words))) - 1
    longest = max(map(len, words))
    chunks: list[int] = []
    pos: list[int] = []
    cap: list[int] = []
    periodic = []
    for w in words:
        lw = len(w)
        period = literal_period(w)
        for ow in (w, tuple(map(neg, reversed(w))))[:sides]:
            if period < lw:
                periodic.append((len(pos), lw, period))
            pos.extend(range(len(chunks), len(chunks) + lw))
            cap.extend([lw] * lw)
            chunks.extend(ow)
            chunks.extend(ow)
            chunks.append(sep)
            sep -= 1
    nlive = len(pos)
    cls = list(range(nlive))
    for lo, lw, period in periodic:
        cls[lo : lo + lw] = [lo + off % period for off in range(lw)]
    text = np.array(chunks, dtype=np.int64)
    n = text.size

    # Runs: token t covers text[bounds[t] : bounds[t + 1]].
    change = np.empty(n + 1, dtype=bool)
    change[0] = change[n] = True
    np.not_equal(text[1:], text[:-1], out=change[1:n])
    bounds = change.nonzero()[0]
    first = bounds[:-1]
    tletter = text[first]
    tlen = bounds[1:] - first
    ntok = tlen.size
    tokens = np.array((first, tlen, tletter))
    # token ids ranked by (letter, length); a run is at most two word lengths
    _, history = suffix_array((tletter - sep) * (2 * longest + 1) + tlen)

    # Per live position: letter, the letters left in its run (m), and the
    # next token (index, rank, letter).  Sort key: letter, then m ascending
    # when the next letter is below, descending after all of those when it
    # is above, then the next token's rank.
    pos_a = np.array(pos, dtype=np.int64)
    run = first.searchsorted(pos_a, side="right")
    letter = text[pos_a]
    left = bounds[run] - pos_a
    rows = 4 * longest + 2
    if -2 * sep * rows * (ntok + 1) >= 2**63:
        raise ValueError("scan input too large")
    level = (letter - sep) * rows + np.where(tletter[run] > letter, rows - left, left)
    order = (level * (ntok + 1) + history[-1][run]).argsort()

    # Adjacent match lengths along that order: min(m, m') across levels,
    # m + F(next tokens) within one level.
    letter, left, run, level = letter[order], left[order], run[order], level[order]
    lcp = np.zeros(nlive + 1, dtype=np.int64)  # lcp[nlive] = 0 ends the backward sweep
    lcp[1:nlive] = np.minimum(left[1:], left[:-1]) * (letter[1:] == letter[:-1])
    within = (level[1:] == level[:-1]).nonzero()[0]
    if within.size:
        # F(u, v): letters of the shared whole tokens, plus the shorter of
        # the next two runs when those share a letter
        u, v = run[within], run[within + 1]
        t = lcp_array(history, u, v)
        at_u = tokens[:, u + t]
        at_v = tokens[:, v + t]
        lcp[within + 1] += (
            at_u[0] - first[u] + np.minimum(at_u[1], at_v[1]) * (at_u[2] == at_v[2])
        )

    lcpl = lcp.tolist()
    orderl = order.tolist()
    clsl = [cls[i] for i in orderl]
    capl = [cap[i] for i in orderl]
    best = [0] * nlive

    def sweep(indices, step):
        # Keep the two best (class, value) pairs with distinct classes;
        # values decay through the min-LCP chain, so anything dropped can
        # never beat the kept pair later.
        c1 = c2 = -1
        v1 = v2 = 0
        for i in indices:
            d = lcpl[i + step]
            if v1 > d:
                v1 = d
            if v2 > d:
                v2 = d
            cp = clsl[i]
            cap_i = capl[i]
            if c1 != cp:
                cand = v1 if v1 < cap_i else cap_i
            elif c2 != -1:
                cand = v2 if v2 < cap_i else cap_i
            else:
                cand = 0
            if cand > best[i]:
                best[i] = cand
            if c1 == cp:
                if cap_i > v1:
                    v1 = cap_i
            elif c2 == cp:
                if cap_i > v2:
                    v2 = cap_i
                if v2 > v1:
                    c1, c2, v1, v2 = c2, c1, v2, v1
            elif cap_i >= v1:
                c2, v2 = c1, v1
                c1, v1 = cp, cap_i
            elif cap_i >= v2:
                c2, v2 = cp, cap_i

    sweep(range(nlive), 0)
    sweep(range(nlive - 1, -1, -1), 1)

    values = [0] * nlive
    for i, b in zip(orderl, best):
        values[i] = b
    per_offset: list[tuple[int, ...]] = []
    per_max = []
    lo = 0
    for w in words:
        hi = lo + sides * len(w)
        per_offset.append(tuple(values[lo : lo + len(w)]))
        per_max.append(max(values[lo:hi]))
        lo = hi
    return MatchTable(tuple(per_offset), tuple(per_max))
