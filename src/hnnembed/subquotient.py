"""Subcomplex quotients and the relative cell checks.

A subcomplex of a presentation complex is spanned by a subset of the
generators together with every chosen relator cell supported on them.
Collapsing the subcomplex to a point deletes its letters from the other
relator boundaries.  Everything downstream works with those projected
boundary words verbatim: backtracks introduced by the deletion are kept,
nothing is freely reduced, and exponents are literal.  A spec projects
once, and :func:`quotient` and every check below read that projection.

The two relative checks ask whether collapsing changes boundary-word
structure: power counts must be preserved cell by cell, and distinct
cells must stay distinct up to rotation.  When both hold, every
cancelling alignment of two projected cells comes from a cancelling
alignment upstairs; :func:`liftability_counterexample_search` hunts for
violations of exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .presentation import Presentation
from .words import Alphabet, Word, cyclically_equal, exponent


@dataclass(frozen=True)
class SubcomplexSpec:
    """A subcomplex: generator subset plus the relator cells inside it."""

    parent: Presentation
    sub_generators: frozenset[int]  # positive letter numbers of the parent
    sub_relators: tuple[int, ...]

    def __post_init__(self) -> None:
        for g in self.sub_generators:
            if not 1 <= g <= self.parent.alphabet.size:
                raise ValueError(f"subcomplex generator {g} out of range")
        seen = set()
        for i in self.sub_relators:
            if not 0 <= i < len(self.parent.relators):
                raise ValueError(f"subcomplex relator index {i} out of range")
            if i in seen:
                raise ValueError(f"duplicate subcomplex relator index {i}")
            seen.add(i)
            for x in self.parent.relators[i]:
                if abs(x) not in self.sub_generators:
                    raise ValueError(
                        f"relator {self.parent.relator_names[i]} leaves the subcomplex"
                    )

    @classmethod
    def spanned_by(cls, parent: Presentation, gen_names: Iterable[str]) -> "SubcomplexSpec":
        """Subcomplex on the named generators and every relator inside them."""
        gens = frozenset(abs(parent.alphabet.letter(n)) for n in gen_names)
        rels = tuple(
            i
            for i, r in enumerate(parent.relators)
            if all(abs(x) in gens for x in r)
        )
        return cls(parent, gens, rels)

    def outside_relators(self) -> list[int]:
        inside = set(self.sub_relators)
        return [i for i in range(len(self.parent.relators)) if i not in inside]

    @cached_property
    def projection(self) -> "QuotientPresentation":
        """The collapsed boundaries, built on first use and then kept."""
        parent = self.parent
        kept = [i + 1 for i in range(parent.alphabet.size) if i + 1 not in self.sub_generators]
        new_index = {g: k + 1 for k, g in enumerate(kept)}
        alphabet = Alphabet(tuple(parent.alphabet.names[g - 1] for g in kept))

        def project(w: Word) -> Word:
            out = []
            for x in w:
                n = new_index.get(abs(x))
                if n is not None:
                    out.append(n if x > 0 else -n)
            return Word(tuple(out))

        projected = tuple(
            ProjectedRelator(i, project(parent.relators[i])) for i in self.outside_relators()
        )
        return QuotientPresentation(alphabet, projected, tuple(self.sub_relators))


@dataclass(frozen=True)
class ProjectedRelator:
    source: int  # parent relator index
    word: Word  # letters over the quotient alphabet, backtracks kept


@dataclass(frozen=True)
class QuotientPresentation:
    """Projected boundaries of the cells outside the subcomplex.

    Not a :class:`Presentation`: words may be empty or unreduced, so they
    are held raw, each tagged with its source cell.  ``dropped`` lists
    the cells that lived inside the subcomplex.
    """

    alphabet: Alphabet
    projected: tuple[ProjectedRelator, ...]
    dropped: tuple[int, ...]


def quotient(spec: SubcomplexSpec) -> QuotientPresentation:
    return spec.projection


@dataclass(frozen=True)
class PowerViolation:
    relator: int
    before: int
    after: Optional[int]  # None: the cell projects to a point
    reason: str


@dataclass(frozen=True)
class NoExtraPowersReport:
    verdict: bool
    violations: tuple[PowerViolation, ...]


def check_no_extra_powers(spec: SubcomplexSpec) -> NoExtraPowersReport:
    """Collapsing must not raise any cell's literal power count."""
    q = quotient(spec)
    bad = []
    for pr in q.projected:
        before = exponent(spec.parent.relators[pr.source])
        if not pr.word:
            bad.append(PowerViolation(pr.source, before, None, "projects to point"))
        else:
            after = exponent(pr.word)
            if after != before:
                bad.append(PowerViolation(pr.source, before, after, "exponent changed"))
    return NoExtraPowersReport(not bad, tuple(bad))


@dataclass(frozen=True)
class NoDuplicatesReport:
    verdict: bool
    collisions: tuple[tuple[int, int], ...]
    # Pairs whose projections agree only after reversing one orientation
    # while the originals do not; reported for information, not a failure.
    inverted_collisions: tuple[tuple[int, int], ...]


def check_no_duplicates(spec: SubcomplexSpec) -> NoDuplicatesReport:
    """Cells distinct up to rotation must stay distinct after collapsing."""
    q = quotient(spec)
    cells = [(pr.source, spec.parent.relators[pr.source], pr.word) for pr in q.projected]
    collisions = []
    inverted = []
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            s1, r1, p1 = cells[a]
            s2, r2, p2 = cells[b]
            # projections that are empty or differ in length never collide
            if not p1 or len(p1) != len(p2):
                continue
            if cyclically_equal(p1, p2) and not cyclically_equal(r1, r2):
                collisions.append((s1, s2))
            if cyclically_equal(p1, p2.inverse()) and not cyclically_equal(r1, r2.inverse()):
                inverted.append((s1, s2))
    return NoDuplicatesReport(not collisions, tuple(collisions), tuple(inverted))


@dataclass(frozen=True)
class TwoCellDiagram:
    """Two cells glued along one edge, boundaries rotated to start there."""

    r1: int
    r2: int
    shared_edge: int  # signed letter both rotated boundaries start with
    rot1: int
    rot2: int


def _rotation(w: Word, off: int) -> tuple[int, ...]:
    ls = w.letters
    return ls[off:] + ls[:off]


@dataclass(frozen=True)
class LiftFailure:
    """A cancelling alignment downstairs with no cancelling lift."""

    diagram: TwoCellDiagram  # in quotient coordinates
    parent_rot1: int
    parent_rot2: int


def liftability_counterexample_search(spec: SubcomplexSpec) -> Optional[LiftFailure]:
    """Find a cancelling projected alignment whose lift does not cancel.

    Enumerates all ordered-by-index cell pairs, all rotation offsets of
    both projected boundaries, and checks rotation equality; the lift of
    an alignment rotates each parent boundary to the source position of
    the shared projected edge.  Returns the first failure, or None.
    """
    parent = spec.parent
    q = quotient(spec)
    cells = []
    for pr in q.projected:
        if not pr.word:
            continue
        rel = parent.relators[pr.source]
        sub = spec.sub_generators
        kept_positions = [k for k, x in enumerate(rel.letters) if abs(x) not in sub]
        cells.append((pr.source, pr.word, rel, kept_positions))
    for a in range(len(cells)):
        for b in range(a, len(cells)):
            s1, p1, r1, kp1 = cells[a]
            s2, p2, r2, kp2 = cells[b]
            if len(p1) != len(p2):
                continue
            for o1 in range(len(p1)):
                q1 = _rotation(p1, o1)
                for o2 in range(len(p2)):
                    if a == b and o1 == o2:
                        continue
                    if q1 != _rotation(p2, o2):
                        continue
                    u1 = kp1[o1]
                    u2 = kp2[o2]
                    if _rotation(r1, u1) != _rotation(r2, u2):
                        return LiftFailure(
                            TwoCellDiagram(s1, s2, q1[0], o1, o2), u1, u2
                        )
    return None
