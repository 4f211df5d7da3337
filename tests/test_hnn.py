"""Completion constructions and their injectivity certificates.

The certificate checkers themselves (pieces, folding, quotients) are
oracle-tested in their own files; here they serve as the oracle for the
constructions, with independent re-derivations where the certificate
could in principle disagree with a fresh computation.
"""

import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys

import pytest

import hnnembed
from hnnembed import hnn, stallings
from hnnembed.cli import _canonical, _certificate_json
from hnnembed.hnn import (
    PartialAscendingHNN,
    build_complex_pair,
    certify_completion,
    construct_embedding,
    construct_irreducible_embedding,
    generate_relator_family,
    validate,
)
from hnnembed.parsing import hnn_source, parse_hnn, parse_word
from hnnembed.presentation import check_cprime, piece_stats
from hnnembed.suffixes import match_table
from hnnembed.stallings import (
    hang,
    is_monomorphism,
    rank,
    subgroup_core,
    trim_to_core,
)
from hnnembed.subquotient import quotient
from hnnembed.words import (
    Alphabet,
    Word,
    cyclically_equal,
    exponent,
    signed_letters,
)

from helpers import (
    complete_workload_inputs,
    count_projections,
    criterion_6_inputs,
    graphs_equal,
    hnn_from_strings,
    letter_match_table,
    sweep_input,
)
from test_cli import ESCALATING

C2 = Alphabet.of("c1", "c2")


def intro_example() -> PartialAscendingHNN:
    return hnn_from_strings(
        ascending=[("a", " ".join(["a b c"] * 8)), ("b", " ".join(["a c"] * 9) + " b")],
        free=("c",),
    )


def test_validate_accepts_the_headline_input():
    assert validate(intro_example()) == []


def test_validate_diagnostics():
    bad = PartialAscendingHNN(("a",), ("b",), (Word.of(1, -1, 2),))
    assert any("not reduced" in d for d in validate(bad))
    uses_t = PartialAscendingHNN(("a",), ("b",), (Word.of(3),))
    assert any("stable letter" in d for d in validate(uses_t))
    foreign = PartialAscendingHNN(("a",), ("b",), (Word.of(9),))
    assert any("outside" in d for d in validate(foreign))
    empty = PartialAscendingHNN(("a",), ("b",), (Word.of(),))
    assert any("empty" in d for d in validate(empty))
    nothing = PartialAscendingHNN((), (), ())
    assert any("no generators" in d for d in validate(nothing))
    collapsing = PartialAscendingHNN(("a", "b"), (), (Word.of(1), Word.of(1)))
    assert any("freely generate" in d for d in validate(collapsing))


def test_structural_errors():
    with pytest.raises(ValueError, match="one image per"):
        PartialAscendingHNN(("a",), (), ())
    with pytest.raises(ValueError, match="collides"):
        PartialAscendingHNN(("t",), (), (Word.of(1),), stable="t")
    with pytest.raises(ValueError, match="invalid input"):
        construct_embedding(PartialAscendingHNN(("a",), (), (Word.of(1, -1, 2),)))


def test_presentation_of_partial_input():
    h = intro_example()
    p = h.presentation()
    assert p.alphabet.names == ("a", "b", "c", "t")
    assert len(p.relators) == 2
    assert p.alphabet.word_str(p.relators[0]).startswith("t a t'")
    assert exponent(p.relators[0]) == 1


def test_build_complex_pair_shapes():
    h = intro_example()
    g = PartialAscendingHNN(
        ("a", "b", "c", "c1", "c2"),
        (),
        (h.images[0], h.images[1], Word.of(4), Word.of(4, 5), Word.of(5, 4)),
    )
    spec = build_complex_pair(h, g)
    assert spec.parent.alphabet.names == ("a", "b", "c", "c1", "c2", "t")
    assert len(spec.parent.relators) == 5
    assert spec.parent.relator_names == ("a", "b", "c", "c1", "c2")
    assert spec.sub_relators == (0, 1)
    assert spec.sub_generators == frozenset({1, 2, 3, 6})


@pytest.mark.parametrize(
    "count,scale", [(count, scale) for count in range(1, 7) for scale in (1, 2, 4)]
)
def test_family_is_verified_and_deterministic(count, scale):
    # The generator is a closed form and checks none of these itself.
    fam = generate_relator_family(count, C2, scale)
    assert len(fam) == count
    assert check_cprime(fam, 1, 7).holds
    for w in fam:
        assert exponent(w) == 1
    for i, j in itertools.combinations(range(count), 2):
        assert not cyclically_equal(fam[i], fam[j])
    assert fam == generate_relator_family(count, C2, scale=scale)
    # 32 blocks c1 c2^e, e = scale*(32m+1) .. scale*(32m+32)
    assert [len(w) for w in fam] == [32 + scale * (1024 * m + 528) for m in range(count)]


def test_family_preconditions():
    with pytest.raises(ValueError, match="count"):
        generate_relator_family(0, C2)
    with pytest.raises(ValueError, match="two-letter"):
        generate_relator_family(1, Alphabet.of("x"))


def test_construct_embedding_headline():
    res = construct_embedding(intro_example())
    assert res.new_names == ("c1", "c2")
    assert len(res.pair.parent.relators) == 5
    assert len(res.certificate.quotient_words) == 3
    assert res.certificate.all_true()
    assert res.certificate.irreducible is None


def test_construct_embedding_already_ascending():
    h = PartialAscendingHNN(("a",), (), (Word.of(1, 1),))
    res = construct_embedding(h)
    assert len(res.pair.parent.relators) == 3
    assert len(res.certificate.quotient_words) == 2
    assert res.certificate.all_true()


def test_construct_embedding_identity_image():
    h = PartialAscendingHNN(("a",), (), (Word.of(1),))
    res = construct_embedding(h)
    assert res.certificate.monomorphism
    assert res.certificate.all_true()


def test_construct_embedding_no_ascending_part():
    h = PartialAscendingHNN((), ("b",), ())
    res = construct_embedding(h)
    assert res.pair.sub_relators == ()
    assert res.certificate.all_true()


def test_new_generator_names_avoid_collisions():
    h = PartialAscendingHNN(("c1",), ("c2",), (Word.of(1),))
    res = construct_embedding(h)
    assert res.new_names == ("cc1", "cc2")
    assert res.certificate.all_true()


def test_round_trip_relators_verbatim():
    h = intro_example()
    own = h.presentation()
    for res in (construct_embedding(h), construct_irreducible_embedding(h)):
        g = res.pair.parent
        rendered = [g.alphabet.word_str(r) for r in g.relators]
        for r in own.relators:
            assert own.alphabet.word_str(r) in rendered


def test_certificate_soundness_against_fresh_quotient():
    res = construct_embedding(intro_example())
    q = quotient(res.pair)
    stored = res.certificate.quotient_words
    assert len(q.projected) == len(stored)
    for pr, w in zip(q.projected, stored):
        assert cyclically_equal(pr.word, w.inverse())
    assert check_cprime(list(stored), 1, 7).holds


_TAMPER_SCRIPT = """
import dataclasses
from hnnembed import hnn
from hnnembed.presentation import Presentation
from hnnembed.words import Word

h = hnn.PartialAscendingHNN(("a",), ("b",), (Word.of(1, 2, 1),))
res = hnn.construct_embedding(h)
stored = res.certificate.quotient_words
tampered = (stored[0] * Word.of(1),) + stored[1:]
report = hnn.piece_stats(list(tampered), include_inverses=True)
try:
    hnn._certify(h, res.group, False, tampered, report)
except RuntimeError as e:
    print("stored:", e)

build = hnn.build_complex_pair
def flipped(*args):
    pair = build(*args)
    rels = (pair.parent.relators[0].inverse(),) + pair.parent.relators[1:]
    return dataclasses.replace(pair, parent=Presentation(pair.parent.alphabet, rels))
hnn.build_complex_pair = flipped
try:
    hnn.construct_embedding(h)
except RuntimeError as e:
    print("cells:", e)
"""


def test_soundness_anchors_raise_under_optimize():
    """The anchors are explicit raises, so ``python -O`` keeps them."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hnnembed.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPER_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "stored: stored quotient words differ from the projected cell boundaries",
        "cells: input cell 0 did not survive verbatim",
    ]


def test_irreducible_shape_failure_does_not_escalate(monkeypatch):
    """The shape of the new images does not depend on the scale, so a
    failing shape check raises at the first scale instead of doubling."""
    calls = []
    family = hnn.generate_relator_family

    def counted(*args):
        calls.append(args)
        return family(*args)

    monkeypatch.setattr(hnn, "generate_relator_family", counted)
    monkeypatch.setattr(hnn, "_irreducible_shape_ok", lambda *args: False)
    with pytest.raises(RuntimeError, match="shape check"):
        construct_irreducible_embedding(intro_example())
    assert len(calls) == 1


def test_every_relator_has_exponent_one():
    res = construct_embedding(intro_example())
    for r in res.pair.parent.relators:
        assert exponent(r) == 1
    for w in res.certificate.quotient_words:
        assert exponent(w) == 1


def test_construction_is_deterministic():
    h = intro_example()
    assert construct_embedding(h) == construct_embedding(h)
    assert construct_irreducible_embedding(h) == construct_irreducible_embedding(h)


def digram_set(w: Word) -> set:
    return {(w[i], w[i + 1]) for i in range(len(w) - 1)}


def test_irreducible_headline():
    res = construct_irreducible_embedding(intro_example())
    cert = res.certificate
    assert cert.all_true()
    ev = cert.irreducible
    assert ev is not None
    assert ev.basepoint_degree <= ev.degree_bound == 4
    assert len(ev.x_labels) == 2
    # Independent digram coverage: every reduced pair over the 5-letter
    # extended alphabet occurs inside each new image.
    lets = signed_letters(5)
    for name in res.new_names + res.source.free:
        img = dict(zip(res.group.ascending, res.group.images))[name]
        have = digram_set(img)
        missing = [
            (p, q) for p in lets for q in lets if q != -p and (p, q) not in have
        ]
        assert missing == []


def test_irreducible_core_is_a_wedge():
    h = intro_example()
    res = construct_irreducible_embedding(h)
    gamma = subgroup_core(h.base_alphabet, h.images)
    nonstable = Alphabet(h.ascending + h.free + res.new_names)
    phi_core = subgroup_core(nonstable, list(res.group.images))
    assert rank(phi_core) == rank(gamma) + len(h.free) + 2
    assert res.certificate.irreducible.wedge_check
    new_loops = list(res.group.images[len(h.ascending) :])
    assert hang(gamma.with_alphabet(nonstable), new_loops).folded


def test_full_image_list_is_folded_once(monkeypatch):
    """The plain path folds the full image list once.  The irreducible
    path reads the image core off the loops hung on the prescribed
    images' core, so it folds neither the full list nor the hung graph:
    every fold it runs is of the prescribed images alone."""
    folded, fold_sizes, families = [], [], []
    bouquet, fold, family = stallings.bouquet, stallings.fold, hnn.generate_relator_family

    def counted_bouquet(alphabet, generators):
        folded.append(tuple(generators))
        return bouquet(alphabet, generators)

    def counted_fold(g, *args):
        fold_sizes.append(len(g.edges))
        return fold(g, *args)

    def counted_family(*args):
        families.append(args)
        return family(*args)

    monkeypatch.setattr(stallings, "bouquet", counted_bouquet)
    monkeypatch.setattr(stallings, "fold", counted_fold)
    monkeypatch.setattr(hnn, "generate_relator_family", counted_family)
    h = intro_example()
    res = construct_embedding(h)
    assert len(families) == 1
    assert folded.count(res.group.images) == 1
    folded.clear()
    fold_sizes.clear()
    res = construct_irreducible_embedding(h)
    assert len(families) == 2
    assert folded.count(res.group.images) == 0
    assert res.certificate.irreducible.wedge_check
    assert fold_sizes and max(fold_sizes) <= sum(len(w) for w in h.images)


@pytest.mark.parametrize("irreducible", [False, True], ids=["plain", "irreducible"])
def test_one_projection_per_certificate(irreducible, monkeypatch):
    """Each certificate projects its subcomplex once; the quotient it
    stores and both relative checks read that one projection."""
    certified = []
    real = hnn._certify

    def counted_certify(*args):
        certified.append(args)
        return real(*args)

    monkeypatch.setattr(hnn, "_certify", counted_certify)
    projections = count_projections(monkeypatch)
    h = intro_example()
    construct = construct_irreducible_embedding if irreducible else construct_embedding
    res = construct(h)
    again = certify_completion(h, res.group, irreducible)
    assert len(certified) == len(projections) == 2
    assert projections == [res.pair, again.pair]
    assert res.certificate.quotient is quotient(res.pair)


def test_built_graphs_are_not_walked_for_connectivity(monkeypatch):
    """bouquet, fold, trim_to_core and hang cannot disconnect a graph, so
    rank never walks the graphs they build."""

    def walk(g):
        raise AssertionError("connectivity walk on a built graph")

    monkeypatch.setattr(stallings, "_reachable", walk)
    h = intro_example()
    for construct, irreducible in (
        (construct_embedding, False),
        (construct_irreducible_embedding, True),
    ):
        res = construct(h)
        assert res.certificate.all_true()
        again = certify_completion(h, res.group, irreducible)
        assert again.certificate == res.certificate


@pytest.mark.parametrize(
    "loops,injective",
    [(("a b c1", "c1 c2 c2", "c2 c1 c1"), True), (("a c1", "a c1 c2", "c2 c1 c1"), False)],
)
def test_loops_merging_at_the_basepoint_fold_the_full_image_list(loops, injective):
    """Each hand-built first loop starts with a, which the prescribed core
    already reads at the basepoint.  That is no wedge, and monomorphism
    falls back to folding the whole image list."""
    h = PartialAscendingHNN(("a",), ("b",), (Word.of(1),))
    wide = Alphabet.of("a", "b", "c1", "c2")
    images = [Word.of(1)] + [parse_word(wide, w) for w in loops]
    g = PartialAscendingHNN(wide.names, (), tuple(images))
    pair = build_complex_pair(h, g)
    stored = tuple(pr.word.inverse() for pr in quotient(pair).projected)
    report = piece_stats(list(stored), include_inverses=True)
    cert = hnn._certify(h, g, True, stored, report).certificate
    assert not cert.irreducible.wedge_check
    assert cert.monomorphism == is_monomorphism(wide, images) == injective


# Generated inputs, each completed once by both constructions and shared
# by the tests below.
GENERATED = {"criterion6": criterion_6_inputs, "complete101": lambda: complete_workload_inputs(101)}


@functools.cache
def completions(name: str, irreducible: bool) -> list:
    construct = construct_irreducible_embedding if irreducible else construct_embedding
    return [construct(h) for h in GENERATED[name]()]


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_hung_wedge_trim_is_the_image_core(name):
    """Oracle for the certificate's shortcut, with the full fold as the
    oracle.  On every generated input the loops hang on the prescribed
    images' core without merging, trimming the hung graph removes nothing,
    the hung graph is the fold of the full image list, and its rank gives
    is_monomorphism's verdict."""
    for res in completions(name, True):
        h = res.source
        wide = Alphabet(h.ascending + h.free + res.new_names)
        images = list(res.group.images)
        prescribed = subgroup_core(h.base_alphabet, h.images).with_alphabet(wide)
        hung = hang(prescribed, images[len(h.ascending) :])
        assert hung.folded and hung.cored and res.certificate.irreducible.wedge_check
        trimmed = trim_to_core(hung)
        assert (trimmed.num_vertices, len(trimmed.edges)) == (hung.num_vertices, len(hung.edges))
        assert graphs_equal(hung, subgroup_core(wide, images))
        assert (rank(hung) == len(images)) == is_monomorphism(wide, images)


@pytest.mark.parametrize("name", sorted(GENERATED))
@pytest.mark.parametrize("irreducible", [False, True], ids=["plain", "irreducible"])
def test_certify_completion_gives_the_written_certificate(name, irreducible):
    """Certifying the completed group from the input and its images alone
    gives, byte for byte, the certificate that embed writes."""
    for res in completions(name, irreducible):
        again = certify_completion(res.source, res.group, irreducible)
        assert _canonical(_certificate_json(again)) == _canonical(_certificate_json(res))


@pytest.mark.parametrize("irreducible", [False, True], ids=["plain", "irreducible"])
def test_certify_completion_passes_the_group_through(irreducible, monkeypatch):
    """The completed group given to certify_completion is the one object
    that build_complex_pair presents and the result carries, and the
    certificate of a construction's own group is the one it came with."""
    h = intro_example()
    construct = construct_irreducible_embedding if irreducible else construct_embedding
    res = construct(h)
    presented = []
    build = hnn.build_complex_pair

    def spy(h, g):
        presented.append(g)
        return build(h, g)

    monkeypatch.setattr(hnn, "build_complex_pair", spy)
    g = parse_hnn(hnn_source(res.group))  # equal to res.group, another object
    again = certify_completion(h, g, irreducible)
    assert len(presented) == 1 and presented[0] is g and again.group is g
    assert g == res.group and g is not res.group
    assert certify_completion(h, res.group, irreducible).certificate == res.certificate
    assert presented[1] is res.group


def test_certify_completion_checks_the_input_first():
    """An irreducible certificate needs a free generator, as the
    construction does, and an unusable input fails before the group."""
    h = PartialAscendingHNN(("a",), (), (Word.of(1, 1),))
    g = construct_embedding(h).group
    with pytest.raises(ValueError, match="no free part"):
        certify_completion(h, g, True)
    bad = PartialAscendingHNN(("a",), (), (Word.of(2),))
    with pytest.raises(ValueError, match="invalid input: image of a uses the stable letter t"):
        certify_completion(bad, g, False)
    assert certify_completion(h, g, False).certificate.all_true()


def test_failing_scan_skips_the_rest_of_the_attempt(monkeypatch):
    """The escalating 4+4 input fails only C'(1/7) at scale 1.  Its scan
    alone decides that, so quotient, certificate and folds run at scale 2
    only, and the full image list is never folded."""
    h = parse_hnn(ESCALATING)
    events = []

    def spy(name, fn, tag=None):
        def wrapped(*args, **kwargs):
            events.append(name if tag is None else tag(*args))
            return fn(*args, **kwargs)

        monkeypatch.setattr(hnn, name, wrapped)

    spy("generate_relator_family", hnn.generate_relator_family, lambda *args: ("scale", args[2]))
    spy("piece_stats", hnn.piece_stats)
    spy("_certify", hnn._certify)
    spy("quotient", hnn.quotient)
    spy(
        "subgroup_core",
        hnn.subgroup_core,
        lambda alphabet, gens: "prescribed core" if tuple(gens) == h.images else "full core",
    )
    res = construct_irreducible_embedding(h)
    assert res.certificate.all_true()
    assert events == [
        "prescribed core",
        ("scale", 1),
        "piece_stats",
        ("scale", 2),
        "piece_stats",
        "_certify",
        "quotient",
        "prescribed core",
    ]


@pytest.mark.parametrize(
    "construct,checks",
    [
        (construct_embedding, "c7, cprime, monomorphism"),
        (construct_irreducible_embedding, "c7, cprime"),
    ],
    ids=["plain", "irreducible"],
)
def test_gate_failure_names_the_checks_failing_at_the_last_scale(monkeypatch, construct, checks):
    """A family of equal words fails C'(1/7) at every scale.  The last
    allowed scale still builds its whole certificate, and the error
    lists everything that fails there."""
    scales = []
    family = hnn.generate_relator_family

    def equal_words(count, alphabet, scale=1):
        scales.append(scale)
        return [family(1, alphabet, scale)[0]] * count

    monkeypatch.setattr(hnn, "generate_relator_family", equal_words)
    monkeypatch.setattr(hnn, "MAX_ESCALATIONS", 1)
    with pytest.raises(RuntimeError) as err:
        construct(intro_example())
    assert str(err.value) == "certificate gate failed at every scale: " + checks
    assert scales == [1, 2]


def test_irreducible_single_loop_trace():
    h = PartialAscendingHNN(("a",), ("b",), (Word.of(1),))
    res = construct_irreducible_embedding(h)
    ev = res.certificate.irreducible
    assert ev.x_labels == (2, -2)
    assert ev.basepoint_degree == 2
    assert res.certificate.all_true()


def test_irreducible_needs_a_free_generator():
    h = PartialAscendingHNN(("a",), (), (Word.of(1, 1),))
    with pytest.raises(ValueError, match="no free part"):
        construct_irreducible_embedding(h)


def test_irreducible_with_no_ascending_part():
    h = PartialAscendingHNN((), ("b",), ())
    res = construct_irreducible_embedding(h)
    ev = res.certificate.irreducible
    assert ev.degree_bound == 0
    assert ev.basepoint_degree == 0
    assert set(ev.x_labels) == {1, -1}
    assert res.certificate.all_true()


def test_random_valid_inputs_all_green():
    rng = random.Random(424242)
    done = 0
    while done < 6:
        ni = rng.randint(0, 3)
        nj = rng.randint(0 if ni else 1, 3)
        names_i = tuple(f"a{k+1}" for k in range(ni))
        names_j = tuple(f"b{k+1}" for k in range(nj))
        size = ni + nj
        images = []
        for _ in range(ni):
            n = rng.randint(1, 12)
            letters = []
            while len(letters) < n:
                x = rng.choice([-1, 1]) * rng.randint(1, size)
                if letters and letters[-1] == -x:
                    continue
                letters.append(x)
            images.append(Word.of(*letters))
        h = PartialAscendingHNN(names_i, names_j, tuple(images))
        if validate(h):
            continue
        done += 1
        res = construct_embedding(h)
        assert res.certificate.all_true()
        if nj:
            res2 = construct_irreducible_embedding(h)
            assert res2.certificate.all_true()


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize(
    "construct", [construct_embedding, construct_irreducible_embedding], ids=["plain", "irreducible"]
)
def test_sweep_attempt_scans_equal_the_letter_scan(n, construct, monkeypatch):
    """Every escalation attempt's stored words on the n+n sweep input scan
    to the same table on run-length tokens as letter by letter."""
    scanned = []

    def recorded(words, include_inverses=True):
        scanned.append(([w.letters for w in words], include_inverses))
        return piece_stats(words, include_inverses)

    monkeypatch.setattr(hnn, "piece_stats", recorded)
    assert construct(sweep_input(n)).certificate.all_true()
    assert scanned
    for words, include_inverses in scanned:
        assert match_table(words, include_inverses) == letter_match_table(words, include_inverses)


# sha256 of the certificate JSON and of G.pres on the n+n sweep inputs,
# byte for byte as scripts/sweep.py prints them.
SWEEP_GOLDEN = {
    (2, "irreducible"): (
        "b778790976c75558d554afb505e4f4a4f89cc87cca86a1b995990beb35f9c5cc",
        "76b92464069e1bfad029e13e7a86d13aee38ee166c92bcdfc67422f93cb5f454",
    ),
    (2, "plain"): (
        "f37777e24e7844fb63bed30455b3156ad87800bbbc8a736b4aaf87bf0971c801",
        "115010798009cf9e80f97f4dac5b6f959c28cb4ffad31ee4695dda627aa76766",
    ),
    (4, "irreducible"): (
        "170122a7ebc0df6e0595863602893cbf0f450c064063e29cafa65d268de7917b",
        "2dc1a60fe4865c625bc5f0eb0935b4cd1d5d319723b35086a9dffd8710ad4191",
    ),
    (4, "plain"): (
        "4ee5ab40b8349b72ff9c392b0f258af1a39b827f569031a1c46533ff8d455d3b",
        "fd7d30ef64baba5ea5cc6fcffe5dd9a37c281cfded1510c2c0d71ce5ff0e14f5",
    ),
}


@pytest.mark.parametrize("n,construction", sorted(SWEEP_GOLDEN))
def test_sweep_outputs_are_pinned(n, construction):
    construct = {"plain": construct_embedding, "irreducible": construct_irreducible_embedding}
    res = construct[construction](sweep_input(n))
    digests = tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (_canonical(_certificate_json(res)), hnn_source(res.group))
    )
    assert digests == SWEEP_GOLDEN[n, construction]
