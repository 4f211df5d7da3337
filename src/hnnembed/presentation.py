"""Finite presentations and overlap (small-cancellation) checks.

A :class:`Presentation` is a named alphabet plus cyclically reduced
nonempty relator words.  The checks in this module classify how relators
overlap: a *piece* is a subword occurring with two different appearances
across the relator family (see :mod:`hnnembed.suffixes` for what counts
as different).  Verdicts come back as small report objects carrying the
per-relator numbers they were decided from (longest piece and length, or
fewest pieces), so callers can serialize or re-check them.

The metric check compares, per relator, the longest piece against the
fraction ``num/den`` of the relator length, with strict integer
arithmetic throughout.  The non-metric check asks for the minimum number
of pieces in a decomposition of any rotation of a relator; greedy
longest-jump decomposition is exact here because every subword of a
piece is again a piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .suffixes import match_table
from .words import Alphabet, Word, is_cyclically_reduced


@dataclass(frozen=True)
class Presentation:
    alphabet: Alphabet
    relators: tuple[Word, ...]
    relator_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.relator_names:
            object.__setattr__(
                self, "relator_names", tuple(f"r{i + 1}" for i in range(len(self.relators)))
            )
        if len(self.relator_names) != len(self.relators):
            raise ValueError("relator name count mismatch")
        if len(set(self.relator_names)) != len(self.relator_names):
            raise ValueError("duplicate relator names")
        for name, r in zip(self.relator_names, self.relators):
            if len(r) == 0:
                raise ValueError(f"relator {name} is empty")
            if r.max_letter() > self.alphabet.size:
                raise ValueError(f"relator {name} uses letters outside the alphabet")
            if not is_cyclically_reduced(r):
                raise ValueError(f"relator {name} is not cyclically reduced")

    def __str__(self) -> str:
        gens = " ".join(self.alphabet.names)
        rels = ", ".join(self.alphabet.word_str(r) for r in self.relators)
        return f"< {gens} | {rels} >"


@dataclass(frozen=True)
class PieceReport:
    """Raw overlap statistics for a relator family.

    ``per_offset[j][o]`` is the longest piece of relator j starting at
    rotation offset o (0 when none starts there); ``max_piece[j]`` is the
    longest piece occurring anywhere in relator j, in either direction.
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


def piece_stats(relators: Sequence[Word], include_inverses: bool = True) -> PieceReport:
    words = list(relators)
    if not words:
        raise ValueError("no relators to scan")
    table = match_table([w.letters for w in words], include_inverses)
    return PieceReport(
        lengths=tuple(len(w) for w in words),
        max_piece=table.per_word_max,
        per_offset=table.per_offset,
    )


def best_piece_decomposition(per_offset: Sequence[int]) -> int | None:
    """Fewest pieces whose concatenation is some rotation of the relator.

    ``per_offset`` is one relator's row of :class:`PieceReport`.  Greedy
    longest-jump from every start is exact because pieces are closed
    under subwords, so the farthest reachable point per step dominates.
    Returns None when no decomposition exists, which happens exactly
    when some offset starts no piece at all.
    """
    n = len(per_offset)
    if any(v == 0 for v in per_offset):
        return None
    best: int | None = None
    for start in range(n):
        covered = count = 0
        pos = start
        while covered < n and (best is None or count < best):
            step = per_offset[pos % n]
            covered += step
            pos += step
            count += 1
        if covered >= n and (best is None or count < best):
            best = count
    return best


@dataclass(frozen=True)
class CpReport:
    """Verdict for the non-metric overlap condition with parameter p,
    with the fewest pieces each relator decomposes into."""

    p: int
    holds: bool
    min_pieces: tuple[int | None, ...]  # None: relator is no product of pieces


def check_cp(relators: Sequence[Word], p: int) -> CpReport:
    """Does every relator need at least p pieces, if decomposable at all?

    A relator that is not a product of pieces at all passes vacuously.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    return cp_from_stats(piece_stats(relators), p)


def cp_from_stats(rep: PieceReport, p: int) -> CpReport:
    """Same verdict as :func:`check_cp`, reusing a computed piece scan."""
    mins = tuple(best_piece_decomposition(row) for row in rep.per_offset)
    return CpReport(p, all(m is None or m >= p for m in mins), mins)


@dataclass(frozen=True)
class CprimeReport:
    """Verdict for the metric overlap condition with bound num/den."""

    num: int
    den: int
    holds: bool
    max_piece: tuple[int, ...]
    lengths: tuple[int, ...]


def check_cprime(relators: Sequence[Word], num: int, den: int) -> CprimeReport:
    """Is every piece strictly shorter than num/den of its relator?

    Strict integer comparison: piece * den < num * length, for every
    relator the piece occurs in.
    """
    if not 0 < num < den:
        raise ValueError("bound must be a fraction strictly between 0 and 1")
    return cprime_from_stats(piece_stats(relators), num, den)


def cprime_from_stats(rep: PieceReport, num: int, den: int) -> CprimeReport:
    """Same verdict as :func:`check_cprime`, reusing a computed piece scan."""
    holds = all(m * den < num * l for m, l in zip(rep.max_piece, rep.lengths))
    return CprimeReport(num, den, holds, rep.max_piece, rep.lengths)
