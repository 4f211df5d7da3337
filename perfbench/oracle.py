"""Brute-force reference for the piece table, used to check small-checks.

Quadratic in the number of occurrences and written without the suffix
machinery, so it shares no code with :mod:`hnnembed.suffixes`.
"""

from __future__ import annotations


def _period(w: tuple[int, ...]) -> int:
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w == w[d:] + w[:d]:
            return d
    return n


def piece_table(words: list[tuple[int, ...]]):
    """(per_offset rows, per-word max piece), inverses included.

    An occurrence is (word, reading direction, start offset); two occur as
    the same appearance when word and direction agree and the offsets
    differ by a multiple of the word's period.  A piece starting at an
    offset is the longest common prefix with any other appearance, capped
    at the shorter word length.
    """
    occs = []
    for j, w in enumerate(words):
        p = _period(w)
        inv = tuple(-x for x in reversed(w))
        for direction, lw in ((1, w), (-1, inv)):
            n = len(lw)
            for off in range(n):
                occs.append(((j, direction, off % p), j, direction, off, lw, n))
    rows = [[0] * len(w) for w in words]
    best = [0] * len(words)
    for key, j, direction, off, lw, n in occs:
        longest = 0
        for key2, _, _, off2, lw2, n2 in occs:
            if key2 == key:
                continue
            cap = min(n, n2)
            k = 0
            while k < cap and lw[(off + k) % n] == lw2[(off2 + k) % n2]:
                k += 1
            longest = max(longest, k)
        if direction == 1:
            rows[j][off] = longest
        best[j] = max(best[j], longest)
    return [tuple(r) for r in rows], best


def min_pieces(row: tuple[int, ...]) -> int | None:
    """Fewest pieces spelling some rotation, by dynamic programming."""
    n = len(row)
    if min(row) == 0:
        return None
    best = None
    for start in range(n):
        need = [0] + [n + 1] * n  # need[k]: pieces covering the last k letters
        for k in range(1, n + 1):
            i = n - k
            reach = min(row[(start + i) % n], k)
            need[k] = 1 + min(need[k - j] for j in range(1, reach + 1))
        best = need[n] if best is None else min(best, need[n])
    return best
