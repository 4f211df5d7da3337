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
computed from the input and G alone, and the result carries that G, so
:func:`certify_completion` checks a completed group by passing it
through, without running construction code.  The monomorphism
verdict reads the core of the image subgroup.  The plain construction
folds the full image list for it.  The irreducible one hangs the new
loops on the core of the prescribed images; when no vertex then reads a
label twice, the hung graph is already a folded core, and so it is the
image core, because a folded core is unique for its subgroup (Stallings
1983).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .presentation import (
    CprimeReport,
    PieceReport,
    Presentation,
    cp_from_stats,
    cprime_from_stats,
    piece_stats,
)
from .stallings import (
    CoreGraph,
    hang,
    is_monomorphism,
    rank,
    subgroup_core,
    unused_basepoint_labels,
)
from .subquotient import (
    NoDuplicatesReport,
    NoExtraPowersReport,
    QuotientPresentation,
    SubcomplexSpec,
    check_no_duplicates,
    check_no_extra_powers,
    quotient,
)
from .words import (
    Alphabet,
    Word,
    contains_all_reduced_digrams,
    cyclic_reduce,
    cyclically_equal,
    eulerian_digram_word,
    exponent,
    is_reduced,
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

    @property
    def base_alphabet(self) -> Alphabet:
        return Alphabet(self.ascending + self.free)

    @property
    def full_alphabet(self) -> Alphabet:
        return Alphabet(self.ascending + self.free + (self.stable,))

    def presentation(self) -> Presentation:
        """One conjugation cell per ascending generator."""
        ab = self.full_alphabet
        t = ab.size
        rels = tuple(
            Word.of(t, i + 1, -t) * img.inverse()
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
        if img.max_letter() > t:
            diags.append(f"image of {name} uses letters outside the presentation")
            clean = False
        elif any(abs(x) == t for x in img):
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
    per generator x; the subcomplex keeps the input's generators, the
    stable letter, and exactly the prescribed cells.
    """
    parent = g.presentation()
    t = parent.alphabet.size
    old = frozenset(range(1, len(h.ascending) + len(h.free) + 1)) | {t}
    return SubcomplexSpec(parent, old, tuple(range(len(h.ascending))))


def generate_relator_family(count: int, alphabet: Alphabet, scale: int = 1) -> list[Word]:
    """Deterministic quotient-relator words over a two-letter alphabet.

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
    if alphabet.size != 2:
        raise ValueError("family needs a two-letter alphabet")
    words = []
    for m in range(count):
        letters: list[int] = []
        for k in range(1, FAMILY_BLOCKS + 1):
            letters.append(1)
            letters.extend([2] * (scale * (FAMILY_BLOCKS * m + k)))
        words.append(Word(tuple(letters)))
    return words


@dataclass(frozen=True)
class IrreducibleEvidence:
    """Side conditions specific to the irreducible construction.

    All of it is read off the input and the images.  ``x_labels`` are
    the letters the free generators' new loops attach along: each loop's
    inverted last letter, then each one's first.  ``digram_coverage``
    has one verdict per whole new image (its pattern segment's coverage
    implies it).  ``basepoint_degree`` (against twice |ascending|) reads
    the prescribed images' core.  ``wedge_check``, written under the JSON
    names ``wedge_check`` and ``core_matches_wedge``, is one basepoint
    test: hanging the new loops on that core merges nothing.
    """

    x_labels: tuple[int, ...]
    digram_coverage: tuple[bool, ...]
    wedge_check: bool
    basepoint_degree: int
    degree_bound: int

    def all_true(self) -> bool:
        return (
            all(self.digram_coverage)
            and self.wedge_check
            and self.basepoint_degree <= self.degree_bound
        )


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Checkable injectivity evidence for a completed extension.

    ``quotient_words`` lists the boundaries of the adjoined cells after
    collapsing the old subcomplex, oriented as the generated subgroup
    elements (for a new generator c its cell contributes the literal
    c' image, backtrack included).  All piece-based verdicts are
    computed on these words; rotation and inversion do not change piece
    statistics, so checking them is checking the projections.
    """

    quotient: QuotientPresentation
    quotient_words: tuple[Word, ...]
    c7: bool
    cprime: CprimeReport
    no_proper_powers: tuple[bool, ...]
    pairwise_distinct: bool
    no_extra_powers: NoExtraPowersReport
    no_duplicates: NoDuplicatesReport
    monomorphism: bool
    irreducible: IrreducibleEvidence | None = None

    def failing(self) -> list[str]:
        bad = []
        if not self.c7:
            bad.append("c7")
        if not self.cprime.holds:
            bad.append("cprime")
        if not all(self.no_proper_powers):
            bad.append("no_proper_powers")
        if not self.pairwise_distinct:
            bad.append("pairwise_distinct")
        if not self.no_extra_powers.verdict:
            bad.append("no_extra_powers")
        if not self.no_duplicates.verdict:
            bad.append("no_duplicates")
        if not self.monomorphism:
            bad.append("monomorphism")
        if self.irreducible is not None and not self.irreducible.all_true():
            bad.append("irreducible")
        return bad

    def all_true(self) -> bool:
        return not self.failing()


@dataclass(frozen=True)
class ExtensionResult:
    """The completed group (the input's generators then the new ones, all
    ascending), its complex pair over the input, and its certificate."""

    source: PartialAscendingHNN
    group: PartialAscendingHNN
    pair: SubcomplexSpec
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


def _shift(w: Word, offset: int) -> Word:
    """Renumber letters of a word into an alphabet extended on the left."""
    return Word(tuple(x + offset if x > 0 else x - offset for x in w))


def _keep_above(w: Word, base: int) -> Word:
    """Delete letters numbered base or below; renumber the rest from 1."""
    return Word(
        tuple(
            (abs(x) - base) * (1 if x > 0 else -1)
            for x in w
            if abs(x) > base
        )
    )


def _quotient_words(h: PartialAscendingHNN, images: Sequence[Word]) -> tuple[Word, ...]:
    """The stored quotient words: for each generator g after the prescribed
    ones, g' image(g) projected onto the new letters, which is the inverse
    of g's projected cell boundary up to rotation."""
    base = len(h.ascending) + len(h.free)
    return tuple(
        _keep_above(Word.of(-g) * images[g - 1], base)
        for g in range(len(h.ascending) + 1, len(images) + 1)
    )


# A per-scale builder turns a relator family into the images of every
# non-stable generator, in alphabet order.
Builder = Callable[[list[Word]], list[Word]]


def _escalate(
    h: PartialAscendingHNN, new_names: tuple[str, str], build: Builder, irreducible: bool
) -> ExtensionResult:
    """The one escalation loop: certify the completion built from the
    family at scale 1, 2, 4, ... and return the first whose certificate
    holds, up to a hard cap.

    Each attempt scans its stored words once.  A failing C'(1/7) alone
    fails the certificate, so such an attempt doubles the scale without
    building the rest of it, except at the last scale, whose full
    certificate names every failing check.
    """
    c_alphabet = Alphabet.of(*new_names)
    for e in range(MAX_ESCALATIONS + 1):
        family = generate_relator_family(len(h.free) + 2, c_alphabet, 2**e)
        images = build(family)
        stored = _quotient_words(h, images)
        report = piece_stats(list(stored), include_inverses=True)
        if e < MAX_ESCALATIONS and not cprime_from_stats(report, 1, 7).holds:
            continue
        g = PartialAscendingHNN(h.ascending + h.free + new_names, (), tuple(images), h.stable)
        result = _certify(h, g, irreducible, stored, report)
        failing = result.certificate.failing()
        if not failing:
            return result
    raise RuntimeError("certificate gate failed at every scale: " + ", ".join(failing))


def _certify(
    h: PartialAscendingHNN,
    g: PartialAscendingHNN,
    irreducible: bool,
    stored: tuple[Word, ...],
    report: PieceReport,
) -> ExtensionResult:
    """Certify the completed group ``g`` of the input ``h``.

    ``stored`` is :func:`_quotient_words` of ``g``'s images and ``report``
    its piece scan, which the caller has already run to decide whether
    to certify at all.  The result carries ``g`` itself.  The monomorphism
    verdict reads the image subgroup's core.  For the irreducible
    construction that core is the trim of the prescribed images' core with
    the new loops hung on it, whenever the hanging merges nothing; only
    otherwise is the full image list folded.
    """
    pair = build_complex_pair(h, g)
    parent = pair.parent
    # Soundness anchors: the input's cells survive verbatim (same
    # generator letters, the stable letter renumbered but rendering
    # identically), and the stored words are the projected cell
    # boundaries up to rotation and inversion, or every verdict below
    # would be about the wrong presentation.
    own = h.presentation()
    for i in range(len(h.ascending)):
        if parent.alphabet.word_str(parent.relators[i]) != own.alphabet.word_str(
            own.relators[i]
        ):
            raise RuntimeError(f"input cell {i} did not survive verbatim")
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
    alphabet = g.base_alphabet
    image_core, evidence = None, None
    if irreducible:
        image_core, evidence = _irreducible_evidence(h, alphabet, g.images)
    if image_core is None:
        # Every image is nonempty, so this is is_monomorphism's own test.
        image_core = subgroup_core(alphabet, g.images)
    cert = EmbeddingCertificate(
        quotient=q,
        quotient_words=stored,
        c7=c7,
        cprime=cprime,
        no_proper_powers=tuple(exponent(w) == 1 for w in stored),
        pairwise_distinct=not any(
            cyclically_equal(stored[i], stored[j])
            for i in range(len(stored))
            for j in range(i + 1, len(stored))
        ),
        no_extra_powers=check_no_extra_powers(pair),
        no_duplicates=check_no_duplicates(pair),
        monomorphism=rank(image_core) == len(g.images),
        irreducible=evidence,
    )
    return ExtensionResult(h, g, pair, cert)


def _irreducible_evidence(
    h: PartialAscendingHNN, alphabet: Alphabet, images: Sequence[Word]
) -> tuple[CoreGraph | None, IrreducibleEvidence]:
    """Side conditions of the irreducible construction, and the image
    subgroup's core when it is a genuine wedge.

    The new loops are hung on the core of the prescribed images.  When
    that merges nothing at any vertex, the hung graph is a folded core,
    and so it is the image subgroup's core, since a folded core is unique
    for its subgroup; otherwise no image core is returned and the caller
    folds.  That one basepoint test is both the wedge check and the core
    match; the completed presentation has rejected unreduced loops.
    """
    loops = images[len(h.ascending) :]
    attached = loops[: len(h.free)]
    core = subgroup_core(h.base_alphabet, h.images).with_alphabet(alphabet)
    hung = hang(core, loops)
    letters = signed_letters(alphabet.size)
    evidence = IrreducibleEvidence(
        x_labels=tuple(-w[-1] for w in attached) + tuple(w[0] for w in attached),
        digram_coverage=tuple(contains_all_reduced_digrams(w, letters) for w in loops),
        wedge_check=hung.folded,
        basepoint_degree=core.degree(core.basepoint),
        degree_bound=2 * len(h.ascending),
    )
    return (hung if hung.folded else None), evidence


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
    return _certify(h, g, irreducible, stored, report)


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
        return (
            list(h.images)
            + [_shift(family[j], base) for j in range(nfree)]
            + [Word.of(base + k) * _shift(family[nfree + k - 1], base) for k in (1, 2)]
        )

    return _escalate(h, _fresh_pair_names(h), build, irreducible=False)


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
    new_names = _fresh_pair_names(h)
    base = len(h.ascending) + len(h.free)
    core = subgroup_core(h.base_alphabet, h.images)
    unused = unused_basepoint_labels(core)
    if len(unused) < 2 * nfree:
        raise RuntimeError("not enough fresh basepoint directions")
    x = tuple(unused[: 2 * nfree])

    n = base + 2
    walk = eulerian_digram_word(n)
    cyc = walk[:-1]
    period = len(cyc)  # 2n(2n-1)

    def rotation_from(start: int, excluded: set[int]) -> Word:
        for d in range(period):
            r = (start + d) % period
            if cyc[r] not in excluded:
                rot = cyc[r:] * cyc[:r]
                return rot * Word.of(rot[0])
        raise RuntimeError("no admissible rotation start")

    c1, c2 = base + 1, base + 2
    patterns = tuple(
        rotation_from(j * period // (nfree + 2), {-x[nfree + j], -c1})
        for j in range(nfree)
    ) + tuple(
        rotation_from((nfree + k - 1) * period // (nfree + 2), {-c1, -c2})
        for k in (1, 2)
    )

    def build(family: list[Word]) -> list[Word]:
        beta = [_shift(family[j], base) for j in range(nfree)]
        gamma = [_shift(family[nfree], base), _shift(family[nfree + 1], base) * Word.of(c1)]
        loops: list[Word] = []
        for j in range(nfree):
            loops.append(
                Word.of(x[nfree + j]) * patterns[j] * beta[j] * Word.of(-x[j])
            )
        for k in (1, 2):
            ck = base + k
            loops.append(
                Word.of(ck) * patterns[nfree + k - 1] * gamma[k - 1] * Word.of(-ck)
            )
        if not _irreducible_shape_ok(loops, nfree, base):
            raise RuntimeError("new images fail the irreducible shape check")
        return list(h.images) + loops

    return _escalate(h, new_names, build, irreducible=True)


def _irreducible_shape_ok(loops: list[Word], nfree: int, base: int) -> bool:
    """Reducedness shape of the new images.

    It does not depend on the scale: every family tail starts with c1 and
    ends with c2 or c1, and no pattern starts with -c1, -c2 or -x, so a
    failure is raised at once rather than escalated."""
    for j, w in enumerate(loops):
        if j < nfree:
            if not (is_reduced(w) and w[0] != -w[-1]):
                return False
        else:
            ck = base + (j - nfree) + 1
            if not is_reduced(w):
                return False
            if cyclic_reduce(w)[1] != Word.of(ck):
                return False
    return True

