"""Finite presentations and overlap (small-cancellation) checks.

A :class:`Presentation` is a named alphabet plus cyclically reduced
nonempty relator words.  The checks in this module classify how relators
overlap: a *piece* is a subword occurring with two different appearances
across the relator family (see :mod:`hnnembed.suffixes` for what counts
as different).  :func:`piece_stats` runs that module's scan, whose
:class:`PieceReport` (re-exported here) holds the lengths, longest piece
and per-offset piece lengths of every relator.  Verdicts come back as
small report objects carrying the per-relator numbers they were decided
from (longest piece and length, or fewest pieces), so callers can
serialize or re-check them.

The metric check compares, per relator, the longest piece against the
fraction ``num/den`` of the relator length, with strict integer
arithmetic throughout.  The non-metric check asks for the minimum number
of pieces in a decomposition of any rotation of a relator; greedy
longest-jump decomposition is exact here because every subword of a
piece is again a piece, and it needs trying only from the few starts
after a shortest piece, so the count is linear in the relator's length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .suffixes import PieceReport, match_table
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


def piece_stats(relators: Sequence[Word], include_inverses: bool = True) -> PieceReport:
    return match_table([w.letters for w in relators], include_inverses)


def best_piece_decomposition(per_offset: Sequence[int]) -> int | None:
    """Fewest pieces whose concatenation is some rotation of the relator.

    ``per_offset`` is one relator's row of :class:`PieceReport`.  Pieces
    are closed under subwords, so from a given start the greedy
    longest jump reaches farthest at every step and is exact.  Only p
    starts need trying, in time linear in the relator's length: let o be
    an offset whose piece is shortest, of length p.  The piece of an
    optimal decomposition that covers letter o ends within o+1 .. o+p,
    since its part from o on is again a piece, so some optimal
    decomposition starts a piece there; and each jump is at least p
    letters long, so each of the p greedy runs takes at most n/p + 1
    jumps.  Returns None when no decomposition exists, which happens
    exactly when some offset starts no piece at all.
    """
    n = len(per_offset)
    p = min(per_offset)
    if p == 0:
        return None
    o = per_offset.index(p)
    best: int | None = None
    for start in range(o + 1, o + p + 1):
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
