"""Completing partial ascending extensions of free groups, with certificates.

The input is a free-group presentation with one stable letter t in which
only some generators carry a prescribed t-conjugate.  Both constructions
here complete it to a fully ascending extension by adjoining two fresh
generators and choosing images for every generator left free, and both
emit an :class:`EmbeddingCertificate` whose verdicts, when all true, prove
that the natural map from the input group into the completed group is
injective.

The proof obligation behind the certificate: collapse the subcomplex of
the completed presentation complex spanned by the old generators and
their cells.  What remains is a two-generator presentation whose relators
are the projected boundaries of the new cells.  If that quotient
satisfies the C(7) overlap condition, none of its relators is a proper
power, no two cells project to the same word, and no cell gains or loses
a power in projection, then van Kampen diagram surgery pushes any loop of
the pair back into the subcomplex, and injectivity follows.  Every one of
those hypotheses is checked explicitly; nothing is taken on faith from
the construction.

The irreducible variant additionally threads every reduced two-letter
pattern of the extended alphabet through each new image and attaches the
new loops along fresh basepoint directions of the core graph of the
prescribed images.  The image subgroup's core is then a wedge of that
core with embedded circles, which is the structural half of full
irreducibility; the certificate records the evidence (pattern coverage,
wedge check, basepoint degree, chosen attachment labels).

All choices are deterministic.  The relator family is a closed form in
a scale parameter.  Both constructions share one escalation loop: it
builds a completion from the family, certifies it, and doubles the
scale only when the certificate fails, so equal inputs give equal
outputs, and outputs that exist are verified.  Each attempt scans its
stored words first; one that fails C'(1/7) there is already failed and
builds no more of its certificate, except at the last scale.

Builders build and :func:`_certify` checks.  A builder returns only
images, which become the completed group G (every generator ascending)
once their scan passes.  The stored quotient words and every verdict are
computed from the input and G alone, and the result carries only that G
and its certificate, so :func:`certify_completion` checks a completed
group by passing it through, without running construction code.  Only
G's presentation checks that the images are reduced.  The monomorphism
verdict reads the rank of the image subgroup.  The plain construction
reads it off a free-product split: the prescribed images use only old
letters and have full rank, so when every other image uses only new
letters the rank is theirs plus that of the new images, which are a
free basis when any two of them and their inverses share a prefix
shorter than half of each (such a set is Nielsen reduced; Lyndon and
Schupp, Ch. I §2).  The irreducible one reads it off the new loops:
hung on the core of the prescribed images, each loop's stem becomes a
path out of the basepoint and its cyclically reduced part a circle at
the stem's end.  When the basepoint then reads no label twice, nothing
folds, so that wedge is the image subgroup's core, because a folded core
is unique for its subgroup (Stallings 1983), and its rank is the
prescribed core's plus one per loop.  No graph is built for either
reading.  Where one fails, the full image list is folded instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import neg
from typing import Callable, Sequence

from .presentation import (
    CprimeReport,
    PieceReport,
    Presentation,
    cp_from_stats,
    cprime_from_stats,
    piece_stats,
)
from .stallings import CoreGraph, is_monomorphism, rank, subgroup_core, unused_basepoint_labels
from .subquotient import SubcomplexSpec, quotient
from .words import (
    Alphabet,
    Word,
    _word,
    conjugator_length,
    contains_all_reduced_digrams,
    cyclically_equal,
    eulerian_digram_word,
    exponent,
    is_reduced,
    least_rotation,
    relabel,
    signed_letters,
)

FAMILY_BLOCKS = 32
MAX_ESCALATIONS = 16


@dataclass(frozen=True)
class PartialAscendingHNN:
    """A free group with t-conjugates prescribed for part of its basis.

    ``ascending`` lists the generators whose conjugate is prescribed,
    ``free`` the ones left alone; ``images`` aligns with ``ascending``.
    Image words use the full alphabet numbering (ascending, then free,
    then the stable letter last), so a malformed image that mentions the
    stable letter is representable and gets reported by :func:`validate`
    rather than being unstatable.
    """

    ascending: tuple[str, ...]
    free: tuple[str, ...]
    images: tuple[Word, ...]
    stable: str = "t"

    def __post_init__(self) -> None:
        if len(self.images) != len(self.ascending):
            raise ValueError("need exactly one image per ascending generator")
        if self.stable in self.ascending or self.stable in self.free:
            raise ValueError(f"stable letter {self.stable!r} collides with a generator")
        self.full_alphabet  # name validation

    @cached_property
    def base_alphabet(self) -> Alphabet:
        return Alphabet(self.ascending + self.free)

    @cached_property
    def full_alphabet(self) -> Alphabet:
        return Alphabet(self.ascending + self.free + (self.stable,))

    def presentation(self) -> Presentation:
        """One conjugation cell per ascending generator.

        Inverse letters come from one table, so every cell shares one int
        object per inverse letter rather than a new one per occurrence.
        """
        ab = self.full_alphabet
        t = ab.size
        inv = {x: -x for x in ab.signed()}.__getitem__
        rels = tuple(
            _word((t, i + 1, inv(t), *map(inv, reversed(img.letters))))
            for i, img in enumerate(self.images)
        )
        return Presentation(ab, rels, self.ascending)


def validate(h: PartialAscendingHNN) -> list[str]:
    """Human-readable diagnostics; empty means the input is usable.

    Beyond shape checks, the prescribed images must freely generate a
    subgroup of rank |ascending|: the completion certifies injectivity
    of the whole group map, which is hopeless if the defining
    endomorphism already collapses the prescribed part.
    """
    diags: list[str] = []
    if not h.ascending and not h.free:
        diags.append("no generators besides the stable letter")
    t = len(h.ascending) + len(h.free) + 1
    clean = True
    for name, img in zip(h.ascending, h.images):
        m = img.max_letter()
        if m > t:
            diags.append(f"image of {name} uses letters outside the presentation")
            clean = False
        elif m == t:
            diags.append(f"image of {name} uses the stable letter {h.stable}")
            clean = False
        elif not img:
            diags.append(f"image of {name} is empty")
            clean = False
        elif not is_reduced(img):
            diags.append(f"image of {name} is not reduced")
            clean = False
    if clean and h.ascending and not is_monomorphism(h.base_alphabet, h.images):
        diags.append("prescribed images do not freely generate: rank drops under folding")
    return diags


def build_complex_pair(h: PartialAscendingHNN, g: PartialAscendingHNN) -> SubcomplexSpec:
    """Presentation complex of the completed group over the input's subcomplex.

    The parent is ``g``'s own presentation, one cell t x t' image(x)'
    per generator x; the subcomplex keeps the input's generators and the
    stable letter, and so every cell that reads only those.
    """
    # Those cells are exactly the prescribed ones, the first
    # len(h.ascending): a prescribed image reads only old letters (the
    # input is validated), a free generator's image reads a new generator
    # (certify_completion rejects one that does not, and _escalate builds
    # every such image from family words), and the cell of c1 or c2 reads
    # that generator.
    parent = g.presentation()
    t = parent.alphabet.size
    return SubcomplexSpec(parent, frozenset(range(1, len(h.ascending) + len(h.free) + 1)) | {t})


def generate_relator_family(count: int, alphabet: Alphabet, scale: int = 1) -> list[Word]:
    """Deterministic quotient-relator words over the last two generators
    c1, c2 of ``alphabet``, so a completion's family is written in its
    own letters; over a two-letter alphabet they are letters 1 and 2.

    Word m is the product of 32 blocks c1 c2^e with exponents
    scale*(32m+1) .. scale*(32m+32): strictly increasing within a word
    and disjoint across words.  Every run of the second letter is then
    globally unique, so a shared subword contains at most one full run
    and stays far below a seventh of any word.  That reasoning is not
    trusted: the family is a pure closed form, the certificate checks
    the quotient words built from it, and only the certificate loop
    doubles the scale when a check fails.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if alphabet.size < 2:
        raise ValueError("family needs at least a two-letter alphabet")
    c1, c2 = alphabet.size - 1, alphabet.size
    words = []
    for m in range(count):
        letters: list[int] = []
        for k in range(1, FAMILY_BLOCKS + 1):
            letters.append(c1)
            letters.extend([c2] * (scale * (FAMILY_BLOCKS * m + k)))
        words.append(_word(tuple(letters)))
    return words


@dataclass(frozen=True)
class IrreducibleEvidence:
    """Side conditions specific to the irreducible construction.

    All of it is read off the input and the images.  ``x_labels`` are
    the letters the free generators' new loops attach along: each loop's
    inverted last letter, then each one's first.  ``digram_coverage``
    has one verdict per whole new image (its pattern segment's coverage
    implies it).  ``basepoint_degree`` (against twice |ascending|) reads
    the prescribed images' core; it is recorded, not a verdict.
    ``wedge_check``, written under the JSON names ``wedge_check`` and
    ``core_matches_wedge``, is one basepoint test: the labels that core
    reads at its basepoint and those the new loops add there are all
    distinct, so the image subgroup's core is that core wedged with one
    circle per loop.
    """

    x_labels: tuple[int, ...]
    digram_coverage: tuple[bool, ...]
    wedge_check: bool
    basepoint_degree: int
    degree_bound: int

    def all_true(self) -> bool:
        # No degree verdict: a validated input's prescribed core has rank
        # |ascending|, so its basepoint degree is at most 2 |ascending|.
        return all(self.digram_coverage) and self.wedge_check


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Checkable injectivity evidence for a completed extension.

    ``quotient_words`` lists the boundaries of the adjoined cells after
    collapsing the old subcomplex, oriented as the generated subgroup
    elements (for a new generator c its cell contributes the literal
    c' image, backtrack included).  All piece-based verdicts are
    computed on these words; rotation and inversion do not change piece
    statistics, so checking them is checking the projections.
    ``no_proper_powers`` holds per word that its literal exponent is 1,
    and ``pairwise_distinct`` that no two words are equal up to rotation.
    Collapsing then raises no cell's power and identifies no two cells
    (see :func:`_certify`), so the JSON also writes them under the names
    ``no_extra_powers`` (all of ``no_proper_powers``) and ``no_duplicates``.
    The quotient's generators are the result's ``new_names``.
    """

    quotient_words: tuple[Word, ...]
    c7: bool
    cprime: CprimeReport
    no_proper_powers: tuple[bool, ...]
    pairwise_distinct: bool
    monomorphism: bool
    irreducible: IrreducibleEvidence | None = None

    def failing(self) -> list[str]:
        powers, distinct = all(self.no_proper_powers), self.pairwise_distinct
        verdicts = {
            "c7": self.c7,
            "cprime": self.cprime.holds,
            "no_proper_powers": powers,
            "pairwise_distinct": distinct,
            "no_extra_powers": powers,
            "no_duplicates": distinct,
            "monomorphism": self.monomorphism,
            "irreducible": self.irreducible is None or self.irreducible.all_true(),
        }
        return [name for name, holds in verdicts.items() if not holds]

    def all_true(self) -> bool:
        return not self.failing()


@dataclass(frozen=True)
class ExtensionResult:
    """The completed group (the input's generators then the new ones, all
    ascending) and its certificate; :func:`build_complex_pair` gives its
    complex pair over the input, which is not kept."""

    source: PartialAscendingHNN
    group: PartialAscendingHNN
    certificate: EmbeddingCertificate

    @property
    def new_names(self) -> tuple[str, ...]:
        return self.group.ascending[len(self.source.ascending) + len(self.source.free) :]


class NotACompletion(ValueError):
    """A completed group that does not extend the input it is checked against."""


def _fresh_pair_names(h: PartialAscendingHNN) -> tuple[str, str]:
    taken = set(h.ascending) | set(h.free) | {h.stable}
    stem = "c"
    while stem + "1" in taken or stem + "2" in taken:
        stem += "c"
    return (stem + "1", stem + "2")


def _quotient_words(h: PartialAscendingHNN, images: Sequence[Word]) -> tuple[Word, ...]:
    """The stored quotient words: for each generator g after the prescribed
    ones, g' image(g) projected onto the new letters, which is the inverse
    of g's projected cell boundary up to rotation.  Images use letters 1 to
    len(images), so the table renumbers every letter above the input's
    generators from 1 and drops the rest."""
    base = len(h.ascending) + len(h.free)
    above = {x: x - base if x > 0 else x + base for x in signed_letters(len(images))[2 * base :]}
    return tuple(
        relabel(Word.of(-g) * images[g - 1], above)
        for g in range(len(h.ascending) + 1, len(images) + 1)
    )


# A per-scale builder turns a relator family over the two new generators
# into the images of every non-stable generator, in alphabet order.
Builder = Callable[[list[Word]], list[Word]]


def _escalate(h: PartialAscendingHNN, build: Builder, core: CoreGraph | None) -> ExtensionResult:
    """The one escalation loop: certify the completion built from the
    family at scale 1, 2, 4, ... and return the first whose certificate
    holds, up to a hard cap.  ``core`` is the prescribed images' core for
    the irreducible construction and None for the plain one.

    Each attempt scans its stored words once.  A failing C'(1/7) alone
    fails the certificate, so such an attempt doubles the scale without
    building the rest of it, except at the last scale, whose full
    certificate names every failing check.
    """
    alphabet = Alphabet(h.ascending + h.free + _fresh_pair_names(h))
    for e in range(MAX_ESCALATIONS + 1):
        images = build(generate_relator_family(len(h.free) + 2, alphabet, 2**e))
        stored = _quotient_words(h, images)
        report = piece_stats(list(stored), include_inverses=True)
        if e < MAX_ESCALATIONS and not cprime_from_stats(report, 1, 7).holds:
            continue
        g = PartialAscendingHNN(alphabet.names, (), tuple(images), h.stable)
        result = _certify(h, g, core, stored, report)
        failing = result.certificate.failing()
        if not failing:
            return result
    raise RuntimeError("certificate gate failed at every scale: " + ", ".join(failing))


def _certify(
    h: PartialAscendingHNN,
    g: PartialAscendingHNN,
    core: CoreGraph | None,
    stored: tuple[Word, ...],
    report: PieceReport,
) -> ExtensionResult:
    """Certify the completed group ``g`` of the input ``h``.

    ``core`` is the core graph of ``h``'s prescribed images, which the
    irreducible construction has already built for its attachment labels,
    or None to certify ``g`` as the plain construction.  ``stored`` is
    :func:`_quotient_words` of ``g``'s images and ``report`` its piece
    scan, which the caller has already run to decide whether to certify
    at all.  Every cell verdict is read off ``stored``.  The result
    carries ``g`` itself; the complex pair and its projection, which
    ``g``'s presentation checks for unreduced cells, are freed on return.
    The monomorphism verdict compares the image subgroup's rank with the
    number of images.  That rank is read off the free-product split and
    the prefix test for the plain construction, and off the wedge test on
    ``core`` for the irreducible one, whenever those hold; only otherwise
    is the full image list folded.
    """
    # The input's cells survive verbatim in g's: certify_completion raises
    # NotACompletion unless g keeps h's stable letter, generator names and
    # prescribed images, and _escalate builds g from exactly those.
    pair = build_complex_pair(h, g)
    # Soundness anchor: the stored words are the projected cell boundaries
    # up to rotation and inversion, or every verdict below would be about
    # the wrong presentation.
    q = quotient(pair)
    if len(q.projected) != len(stored) or not all(
        cyclically_equal(pr.word, w.inverse()) for pr, w in zip(q.projected, stored)
    ):
        raise RuntimeError("stored quotient words differ from the projected cell boundaries")
    cprime = cprime_from_stats(report, 1, 7)
    # Strict pieces < length/7 force any piece decomposition to have at
    # least 8 factors, so the metric verdict implies the overlap one and
    # the exact (slower) decomposition only runs when the metric fails.
    c7 = cprime.holds or cp_from_stats(report, 7).holds
    evidence = None
    if core is not None:
        # The core is a function of h alone, so every verdict is still
        # computed from the input and g alone.
        image_rank, evidence = _irreducible_evidence(h, core, g.images)
    else:
        image_rank = _plain_image_rank(h, g.images)
    if image_rank is None:
        # Every image is nonempty, so this is is_monomorphism's own test.
        image_rank = rank(subgroup_core(g.base_alphabet, g.images))
    # The cell verdicts equal the relative checks of the pair.  Each cell
    # t x t' img(x)' reads t once, so its literal exponent is 1, and it is
    # no rotation of another cell or of another cell's inverse.  So
    # collapsing raises a cell's power exactly where its projection is a
    # proper power, and identifies two cells exactly where their
    # projections are equal up to rotation.  Stored word i is cell i's
    # projection up to rotation and inversion (the anchor above), and
    # those change neither a literal exponent nor cyclic equality.  Two
    # words are equal up to rotation exactly when their least rotations
    # are, and those keep the words' lengths, so only words that share
    # their length with another are keyed, and the keys must all differ.
    lengths = Counter(map(len, stored))
    keys = [least_rotation(w) for w in stored if lengths[len(w)] > 1]
    cert = EmbeddingCertificate(
        quotient_words=stored,
        c7=c7,
        cprime=cprime,
        no_proper_powers=tuple(exponent(w) == 1 for w in stored),
        pairwise_distinct=len(set(keys)) == len(keys),
        monomorphism=image_rank == len(g.images),
        irreducible=evidence,
    )
    return ExtensionResult(h, g, cert)


def _plain_image_rank(h: PartialAscendingHNN, images: Sequence[Word]) -> int | None:
    """The image subgroup's rank when the new images split off a free basis.

    The prescribed images use only old letters and have full rank (the
    input is validated).  When no other image meets an old letter, the
    image subgroup is the free product of the two parts.  The new images X
    are then a free basis when, for every two distinct u, v in X and X',
    their common prefix p has 2p < |u| and 2p < |v|: a reduced product of
    them cancels less than half of each factor, so keeps a middle letter
    of every factor and is never trivial.  Otherwise no rank is returned
    and the caller folds.  The completed presentation has rejected
    unreduced images.

    Call the first ceil(|u|/2) letters of u its half.  Two words break the
    bound exactly when one's half is a prefix of the other's: the shorter
    word's half, which is also the shorter half, lies within the common
    prefix.  The halves of X and X' are sorted.  If one half is a prefix of
    another, every half sorted between them has that prefix too, so the
    first of them and its successor break the bound as well.  So comparing
    each half with its successor decides the test.  The half of u' is u
    from offset floor(|u|/2) on, reversed and negated.
    """
    base = len(h.ascending) + len(h.free)
    new = [w.letters for w in images[len(h.ascending) :]]
    old = frozenset(signed_letters(base))
    if not all(map(old.isdisjoint, new)):
        return None
    halves = sorted(
        [ls[: (len(ls) + 1) // 2] for ls in new]
        + [tuple(map(neg, reversed(ls[len(ls) // 2 :]))) for ls in new]
    )
    if any(v[: len(u)] == u for u, v in zip(halves, halves[1:])):
        return None
    return len(images)


def _irreducible_evidence(
    h: PartialAscendingHNN, core: CoreGraph, images: Sequence[Word]
) -> tuple[int | None, IrreducibleEvidence]:
    """Side conditions of the irreducible construction, and the image
    subgroup's rank when its core is a genuine wedge.

    Hang the new loops on ``core``, that of the prescribed images: a loop
    ``s c s'`` with ``c`` cyclically reduced adds a stem path reading
    ``s`` out of the basepoint and a cycle reading ``c`` at its end.  A
    fresh vertex inside a stem or cycle reads ``-x, y`` for consecutive
    letters of a reduced word, so ``y != -x``; a stem's end reads
    ``-s_k, c_1, -c_m``, distinct because ``c`` is cyclically reduced and
    the loop reduced; the core's other vertices gain no edge.  So that
    graph folds nothing exactly when the basepoint reads no label twice:
    the core's labels there plus, per loop, its stem's first letter, or
    both ends of its cycle when it has no stem.  That one test is both the
    wedge check and the core match.  The graph is then the image
    subgroup's core, since a folded core is unique for its subgroup, and
    its rank |E| - |V| + 1 is the prescribed core's plus one per nonempty
    cycle: ``s`` and ``c`` add |s| + |c| edges and |s| + |c| - 1 vertices.
    Otherwise no rank is returned and the caller folds.  The completed
    presentation has rejected unreduced loops.
    """
    loops = images[len(h.ascending) :]
    attached = loops[: len(h.free)]
    star = list(core.outgoing_labels(core.basepoint))
    degree = len(star)  # the core is folded, so each edge end reads its own label
    for w in loops:  # reduced, so only its stem strips off
        star += (w[0],) if conjugator_length(w.letters) else (w[0], -w[-1])
    wedge = len(star) == len(set(star))
    letters = signed_letters(len(images))
    evidence = IrreducibleEvidence(
        x_labels=tuple(-w[-1] for w in attached) + tuple(w[0] for w in attached),
        digram_coverage=tuple(contains_all_reduced_digrams(w, letters) for w in loops),
        wedge_check=wedge,
        basepoint_degree=degree,
        degree_bound=2 * len(h.ascending),
    )
    # Every cycle is nonempty: a reduced nonempty loop strips fewer than
    # half its letters from each end, so each loop adds one to the rank.
    return (rank(core) + len(loops) if wedge else None), evidence


def _check_usable(h: PartialAscendingHNN, irreducible: bool) -> None:
    """Raise ValueError for an input the construction cannot complete."""
    diags = validate(h)
    if diags:
        raise ValueError("invalid input: " + "; ".join(diags))
    if irreducible and not h.free:
        raise ValueError(
            "no free part: the fully irreducible construction needs at least one free generator"
        )


def certify_completion(
    h: PartialAscendingHNN, g: PartialAscendingHNN, irreducible: bool
) -> ExtensionResult:
    """Certify a completed group of the input from its images alone.

    ``g`` is passed through unchanged: it is the group that is presented
    and certified, and the result's ``group``.  It must keep ``h``'s
    stable letter, generators and prescribed images, add exactly two
    generators and map every generator to a nonempty word without the
    stable letter, or NotACompletion is raised.  A free generator whose
    image uses no new generator has an empty quotient cell, and raises
    ValueError naming it.
    """
    _check_usable(h, irreducible)
    old = h.ascending + h.free
    if (
        g.stable != h.stable
        or g.free
        or len(g.ascending) != len(old) + 2
        or g.ascending[: len(old)] != old
        or g.images[: len(h.ascending)] != h.images
        or any(not w or w.max_letter() > len(g.ascending) for w in g.images)
    ):
        raise NotACompletion("the completed group does not extend the input")
    stored = _quotient_words(h, g.images)
    for name, word in zip(h.free, stored):
        if not word:
            raise ValueError(
                f"image of {name} uses no new generator, so its quotient cell is empty"
            )
    report = piece_stats(list(stored), include_inverses=True)
    core = subgroup_core(h.base_alphabet, h.images) if irreducible else None
    return _certify(h, g, core, stored, report)


def construct_embedding(h: PartialAscendingHNN) -> ExtensionResult:
    """Complete the input to an ascending extension, certified injective.

    Adjoins fresh generators c1, c2.  The free generators receive family
    words over them; c_k receives c_k times a further family word, so
    collapsing the old subcomplex leaves exactly the family (with the
    c_k backtrack normal form) as quotient relators.
    """
    _check_usable(h, irreducible=False)
    base = len(h.ascending) + len(h.free)
    nfree = len(h.free)

    def build(family: list[Word]) -> list[Word]:
        tails = [Word.of(base + k) * family[nfree + k - 1] for k in (1, 2)]
        return list(h.images) + family[:nfree] + tails

    return _escalate(h, build, None)


def construct_irreducible_embedding(h: PartialAscendingHNN) -> ExtensionResult:
    """Complete the input so the extension is also fully irreducible.

    New images are built from three layers: an attachment label pair
    x_j, x_{j+|free|} taken from directions unused at the core graph's
    basepoint, a pattern segment containing every reduced digram of the
    extended non-stable alphabet (a rotation of one Eulerian walk
    through the digram graph, one rotation per image), and a long
    family tail keeping the quotient small-cancellation.  The cells for
    c_k wrap their segment in c_k ... c_k', hanging the loop on a stem.
    """
    _check_usable(h, irreducible=True)
    nfree = len(h.free)
    base = len(h.ascending) + nfree
    core = subgroup_core(h.base_alphabet, h.images)
    # A rank-r core (r = |ascending|) leaves 2 |free| labels unused: its basepoint
    # degree is at most 2r, as degrees less 2 sum to 2r - 2 and no other is negative.
    x = tuple(unused_basepoint_labels(core)[: 2 * nfree])
    cyc = eulerian_digram_word(base + 2)[:-1]  # 2n(2n - 1) digrams, n = base + 2
    period = len(cyc)

    def rotation_from(start: int, excluded: set[int]) -> Word:
        # at most 2 of the 2n letters that cyc starts from are excluded
        r = next(r for r in (*range(start, period), *range(start)) if cyc[r] not in excluded)
        rot = cyc[r:] * cyc[:r]
        return rot * Word.of(rot[0])

    c1, c2 = base + 1, base + 2
    excluded = [{-x[nfree + j], -c1} for j in range(nfree)] + [{-c1, -c2}] * 2
    patterns = [rotation_from(j * period // (nfree + 2), ex) for j, ex in enumerate(excluded)]
    # first and last letter of each loop: its x labels, or c_k and c_k'
    ends = [(x[nfree + j], -x[j]) for j in range(nfree)] + [(c1, -c1), (c2, -c2)]

    # Each loop is reduced at every scale.  A pattern is reduced and ends
    # with its first letter, never -c1, before a tail starting with c1; a
    # tail ends with c2 (c1 in c2's loop), which -x or -c_k does not cancel.
    # An x-loop closes on another label's inverse, so it has no stem.  The
    # pattern after c_k never starts with -c1 or -c2, and the tail before
    # c_k' ends with the other new letter, so that loop's stem is c_k.  G's
    # presentation rejects unreduced images; _irreducible_evidence finds stems.
    def build(family: list[Word]) -> list[Word]:
        tails = family[: nfree + 1] + [family[nfree + 1] * Word.of(c1)]
        loops = [
            Word.of(a) * pattern * tail * Word.of(b)
            for (a, b), pattern, tail in zip(ends, patterns, tails)
        ]
        return list(h.images) + loops

    return _escalate(h, build, core)
