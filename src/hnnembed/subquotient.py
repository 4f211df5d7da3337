"""Subcomplex quotients and the relative cell checks.

A subcomplex of a presentation complex is spanned by a subset of the
generators together with every cell whose boundary reads only those
generators.  Collapsing the subcomplex to a point deletes its letters
from the other relator boundaries, none of which becomes empty.
Everything downstream works with those projected boundary words
verbatim: backtracks introduced by the deletion are kept, nothing is
freely reduced, and exponents are literal.  A spec projects once, and
:func:`quotient` and every check below read that projection.

The two relative checks ask whether collapsing changes boundary-word
structure: power counts must be preserved cell by cell, and distinct
cells must stay distinct up to rotation.  When both hold, every
cancelling alignment of two projected cells comes from a cancelling
alignment upstairs; :func:`liftability_counterexample_search` hunts for
violations of exactly that.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .presentation import Presentation
from .words import (
    Alphabet,
    Word,
    exponent,
    least_rotation,
    least_rotation_start,
    literal_period,
    relabel,
)


@dataclass(frozen=True)
class SubcomplexSpec:
    """A subcomplex: a generator subset and every cell that reads only it."""

    parent: Presentation
    sub_generators: frozenset[int]  # positive letter numbers of the parent

    def __post_init__(self) -> None:
        for g in self.sub_generators:
            if not 1 <= g <= self.parent.alphabet.size:
                raise ValueError(f"subcomplex generator {g} out of range")

    @classmethod
    def spanned_by(cls, parent: Presentation, gen_names: Iterable[str]) -> "SubcomplexSpec":
        """Subcomplex on the named generators."""
        return cls(parent, frozenset(abs(parent.alphabet.letter(n)) for n in gen_names))

    @cached_property
    def projection(self) -> "QuotientPresentation":
        """The collapsed boundaries, built on first use and then kept.

        Every cell is relabelled once.  A cell whose projection is empty
        reads only killed generators, so it lies in the subcomplex and is
        dropped; every other projection is nonempty.
        """
        parent = self.parent
        kept = [i + 1 for i in range(parent.alphabet.size) if i + 1 not in self.sub_generators]
        table = {s * g: s * k for k, g in enumerate(kept, 1) for s in (1, -1)}
        alphabet = Alphabet(tuple(parent.alphabet.names[g - 1] for g in kept))
        words = [relabel(r, table) for r in parent.relators]
        return QuotientPresentation(
            alphabet,
            tuple(ProjectedRelator(i, w) for i, w in enumerate(words) if w),
            tuple(i for i, w in enumerate(words) if not w),
        )


@dataclass(frozen=True)
class ProjectedRelator:
    source: int  # parent relator index
    word: Word  # letters over the quotient alphabet, backtracks kept


@dataclass(frozen=True)
class QuotientPresentation:
    """Projected boundaries of the cells outside the subcomplex.

    Not a :class:`Presentation`: words may be unreduced, so they are held
    raw, each tagged with its source cell.  Every projected word is
    nonempty.  ``dropped`` lists the cells inside the subcomplex.
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
    after: int


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
        after = exponent(pr.word)
        if after != before:
            bad.append(PowerViolation(pr.source, before, after))
    return NoExtraPowersReport(not bad, tuple(bad))


@dataclass(frozen=True)
class NoDuplicatesReport:
    verdict: bool
    collisions: tuple[tuple[int, int], ...]
    # Pairs whose projections agree only after reversing one orientation
    # while the originals do not; reported for information, not a failure.
    inverted_collisions: tuple[tuple[int, int], ...]


def check_no_duplicates(spec: SubcomplexSpec) -> NoDuplicatesReport:
    """Cells distinct up to rotation must stay distinct after collapsing.

    Two words are equal up to rotation exactly when their least rotations
    are.  Rotation and inversion keep a word's length and the sum of its
    letters' absolute values, so only the projections that share both
    with some other cell are grouped by least rotation, which costs a
    Python step per letter.  Each cell then walks the later cells of
    its own group and of its inverse's, skipping in one step each run of
    cells whose parent has the least rotation of its own parent (or of
    that parent's inverse), so the work is linear in the letters plus
    the pairs reported.  Pairs come out in cell order.
    """
    q = quotient(spec)
    cells = [(pr.source, spec.parent.relators[pr.source], pr.word) for pr in q.projected]
    shapes = [(len(p), sum(map(abs, p.letters))) for _, _, p in cells]
    shared = Counter(shapes)
    cells = [c for c, n in zip(cells, shapes) if shared[n] > 1]
    keys = [least_rotation(p) for _, _, p in cells]
    groups: dict[tuple[int, ...], list[int]] = {}
    for b, key in enumerate(keys):
        groups.setdefault(key, []).append(b)
    parent_ids: dict[tuple[int, ...], int] = {}  # least rotation of a parent -> small int
    parents = [parent_ids.setdefault(least_rotation(r), len(parent_ids)) for _, r, _ in cells]
    walks = {key: (members, _skips([parents[b] for b in members])) for key, members in groups.items()}
    collisions = []
    inverted = []
    for a, (s1, r1, p1) in enumerate(cells):
        for key, excluded, out in (
            (keys[a], parents[a], collisions),
            (least_rotation(p1.inverse()), parent_ids.get(least_rotation(r1.inverse())), inverted),
        ):
            if key in walks:
                members, skip = walks[key]
                j = bisect_right(members, a)
                while j < len(members):
                    if parents[members[j]] == excluded:
                        j = skip[j]
                    else:
                        out.append((s1, cells[members[j]][0]))
                        j += 1
    return NoDuplicatesReport(not collisions, tuple(collisions), tuple(inverted))


def _skips(ids: list[int]) -> list[int]:
    """For each position, the first later position whose id differs."""
    skip = [len(ids)] * len(ids)
    for j in range(len(ids) - 2, -1, -1):
        skip[j] = j + 1 if ids[j + 1] != ids[j] else skip[j + 1]
    return skip


@dataclass(frozen=True)
class TwoCellDiagram:
    """Two cells glued along one edge, boundaries rotated to start there."""

    r1: int
    r2: int
    shared_edge: int  # signed letter both rotated boundaries start with
    rot1: int
    rot2: int


@dataclass(frozen=True)
class LiftFailure:
    """A cancelling alignment downstairs with no cancelling lift."""

    diagram: TwoCellDiagram  # in quotient coordinates
    parent_rot1: int
    parent_rot2: int


def liftability_counterexample_search(spec: SubcomplexSpec) -> Optional[LiftFailure]:
    """Find a cancelling projected alignment whose lift does not cancel.

    An alignment pairs offset o1 of cell a's projection with offset o2 of
    cell b's, for cells a <= b in order and (a, o1) != (b, o2), where the
    two rotations agree; its lift rotates each parent boundary to the
    source position of the shared projected edge.  Returns the first
    failure in (a, b, o1, o2) order, or None.

    Alignments are keyed, not compared.  Let a word of literal period d
    reach its least rotation at offset z (:func:`least_rotation_start`).
    Its rotations at o1 and o2 agree exactly when o1 = o2 (mod d), so
    two words' rotations at o1 and o2 agree exactly when they share a
    least rotation and o1 - z1 = o2 - z2 (mod d).  Parents follow the
    same rule with their own start y and period e, so a lift cancels
    exactly when the parents share a least rotation and each shared
    edge's source position u has the same residue (u - y) mod e.  Cells
    are grouped by least rotation; a lone cell whose period is its length
    aligns with nothing.  For each class of offsets mod d, a cell stores
    the first offset whose residue differs from the class's first, so the
    least failing o2 for a given o1 is read off in one step, and a pair
    of cells costs time linear in their length.

    Only each group's first cell a is paired, with every cell of its
    group, itself included.  If all those lifts cancel, so do those of
    any two cells b and c of the group: an alignment of b at o2 and c at
    o3 also aligns a at some o1, and the three lifts are one rotation.
    So a group with a failure has one at its first cell, and groups are
    visited in the order of their first cells.  The search is therefore
    linear in the letters.
    """
    parent = spec.parent
    groups: dict[tuple[int, ...], list[tuple[int, tuple[int, ...], int]]] = {}
    for pr in quotient(spec).projected:
        p = pr.word.letters
        z = least_rotation_start(p)
        groups.setdefault(p[z:] + p[:z], []).append((pr.source, p, z))
    for key, cells in groups.items():
        d = literal_period(key)
        if len(cells) == 1 and d == len(key):
            continue  # a lone cell aligns with itself only at equal offsets
        lifts = []
        for s, p, z in cells:
            r = parent.relators[s].letters
            y, e = least_rotation_start(r), literal_period(r)
            kept = [u for u, x in enumerate(r) if abs(x) not in spec.sub_generators]
            res = [(u - y) % e for u in kept]
            split = [next((j for j in range(c + d, len(p), d) if res[j] != res[c]), None)
                     for c in range(d)]
            lifts.append((s, p, z, r[y:] + r[:y], kept, res, split))
        s1, p1, z1, top1, kept1, res1, _ = lifts[0]
        for s2, _, z2, top2, kept2, res2, split2 in lifts:
            same = top1 == top2  # once per pair of cells, not per offset
            for o1 in range(len(p1)):
                c = (o1 - z1 + z2) % d
                o2 = c if res2[c] != (res1[o1] if same else None) else split2[c]
                if o2 is not None:
                    return LiftFailure(
                        TwoCellDiagram(s1, s2, p1[o1], o1, o2), kept1[o1], kept2[o2]
                    )
    return None
