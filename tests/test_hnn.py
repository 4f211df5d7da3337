"""Completion constructions and their injectivity certificates.

The certificate checkers themselves (pieces, folding, quotients) are
oracle-tested in their own files; here they serve as the oracle for the
constructions, with independent re-derivations where the certificate
could in principle disagree with a fresh computation.
"""

import collections
import functools
import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
import weakref
from dataclasses import replace

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
    fold,
    is_monomorphism,
    rank,
    subgroup_core,
    trim_to_core,
)
from hnnembed.subquotient import check_no_duplicates, check_no_extra_powers, quotient
from hnnembed.words import (
    Alphabet,
    Word,
    cyclic_reduce,
    cyclically_equal,
    exponent,
    free_reduce,
    is_cyclically_reduced,
    is_reduced,
    random_reduced_word,
    relabel,
    signed_letters,
)

from helpers import (
    complete_workload_inputs,
    count_projections,
    criterion_6_inputs,
    graphs_equal,
    hang,
    hnn_from_strings,
    hostile_group,
    inside_cells,
    letter_match_table,
    pairwise_distinct,
    pairwise_plain_image_rank,
    random_cyclically_reduced_word,
    sweep_input,
)
from test_cli import (
    ESCALATING,
    POWER_OR_EQUAL_IMAGES,
    POWER_OR_EQUAL_INPUT,
    hnn_text,
    power_or_equal_images,
)

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
    assert quotient(spec).dropped == (0, 1)
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
    # over a wider alphabet, the same words on its last two generators
    for size in range(2, 6):
        wide = Alphabet(tuple(f"g{i}" for i in range(1, size + 1)))
        lift = {1: size - 1, 2: size}
        assert generate_relator_family(count, wide, scale) == [relabel(w, lift) for w in fam]


def test_family_preconditions():
    with pytest.raises(ValueError, match="count"):
        generate_relator_family(0, C2)
    with pytest.raises(ValueError, match="two-letter"):
        generate_relator_family(1, Alphabet.of("x"))


@pytest.mark.parametrize(
    "construct", [construct_embedding, construct_irreducible_embedding], ids=["plain", "irreducible"]
)
def test_only_the_quotient_words_are_relabelled(monkeypatch, construct):
    """The family is written in the completed group's letters, so an
    attempt relabels no family word, only its stored quotient words: one
    per generator after the prescribed ones."""
    counts = collections.Counter()

    def spy(name):
        fn = getattr(hnn, name)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(hnn, name, counted)

    spy("relabel")
    spy("generate_relator_family")
    for n in (2, 4, 8):
        counts.clear()
        h = sweep_input(n)
        assert construct(h).certificate.all_true()
        assert counts["relabel"] == (len(h.free) + 2) * counts["generate_relator_family"]


def test_construct_embedding_headline():
    h = intro_example()
    res = construct_embedding(h)
    assert res.new_names == ("c1", "c2")
    assert len(build_complex_pair(h, res.group).parent.relators) == 5
    assert len(res.certificate.quotient_words) == 3
    assert res.certificate.all_true()
    assert res.certificate.irreducible is None


def test_construct_embedding_already_ascending():
    h = PartialAscendingHNN(("a",), (), (Word.of(1, 1),))
    res = construct_embedding(h)
    assert len(build_complex_pair(h, res.group).parent.relators) == 3
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
    assert quotient(build_complex_pair(h, res.group)).dropped == ()
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
        g = build_complex_pair(h, res.group).parent
        rendered = [g.alphabet.word_str(r) for r in g.relators]
        for r in own.relators:
            assert own.alphabet.word_str(r) in rendered


def test_certificate_soundness_against_fresh_quotient():
    h = intro_example()
    res = construct_embedding(h)
    q = quotient(build_complex_pair(h, res.group))
    stored = res.certificate.quotient_words
    assert len(q.projected) == len(stored)
    for pr, w in zip(q.projected, stored):
        assert cyclically_equal(pr.word, w.inverse())
    assert check_cprime(list(stored), 1, 7).holds


_TAMPER_SCRIPT = """
from hnnembed import hnn
from hnnembed.words import Word

h = hnn.PartialAscendingHNN(("a",), ("b",), (Word.of(1, 2, 1),))
res = hnn.construct_embedding(h)
stored = res.certificate.quotient_words
tampered = (stored[0] * Word.of(1),) + stored[1:]
report = hnn.piece_stats(list(tampered), include_inverses=True)
try:
    hnn._certify(h, res.group, None, tampered, report)
except RuntimeError as e:
    print("stored:", e)
"""


def test_soundness_anchors_raise_under_optimize():
    """The stored-words anchor is an explicit raise, so ``python -O``
    keeps it."""
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
    ]


def wrap_builds(monkeypatch, after) -> None:
    """Pass every escalation attempt's images through ``after(h, images)``."""
    escalate = hnn._escalate

    def wrapping(h, build, core):
        return escalate(h, lambda family: after(h, build(family)), core)

    monkeypatch.setattr(hnn, "_escalate", wrapping)


def test_irreducible_loops_are_reduced_with_the_stems_they_are_built_with(monkeypatch):
    """The construction does not check its loops' shape; the build comment
    argues it.  Every attempt on the intro example and the 2+2, 4+4 and
    8+8 sweep inputs bears it out: each loop is reduced, each x-loop is
    cyclically reduced, and the loop of c_k has the stem c_k alone."""
    attempts = []

    def record(h, images):
        attempts.append((h, images[len(h.ascending) :]))
        return images

    wrap_builds(monkeypatch, record)
    for h in (intro_example(), sweep_input(2), sweep_input(4), sweep_input(8)):
        assert construct_irreducible_embedding(h).certificate.all_true()
    assert len(attempts) == 1 + 1 + 2 + 3
    for h, loops in attempts:
        base = len(h.ascending) + len(h.free)
        assert len(loops) == len(h.free) + 2
        for j, w in enumerate(loops):
            assert is_reduced(w)
            want = Word(()) if j < len(h.free) else Word.of(base + 1 + j - len(h.free))
            assert cyclic_reduce(w)[1] == want


def test_an_unreduced_loop_is_never_certified(monkeypatch):
    """With no shape check in the construction, an unreduced loop is
    rejected by the completed presentation at the first scale, as a
    ValueError naming the cell, and is not escalated."""
    calls = []
    family = hnn.generate_relator_family

    def counted(*args):
        calls.append(args)
        return family(*args)

    def spoil(h, images):
        w = images[-1]
        return images[:-1] + [w * Word.of(-w[-1])]

    monkeypatch.setattr(hnn, "generate_relator_family", counted)
    wrap_builds(monkeypatch, spoil)
    with pytest.raises(ValueError, match="not cyclically reduced"):
        construct_irreducible_embedding(intro_example())
    assert len(calls) == 1


def test_the_complex_pair_is_freed_with_the_certificate(monkeypatch):
    """The result keeps the completed group and its certificate only, so
    every complex pair built on the way is garbage once it is returned."""
    refs = []
    build = hnn.build_complex_pair

    def tracked(*args):
        spec = build(*args)
        refs.append(weakref.ref(spec))
        return spec

    monkeypatch.setattr(hnn, "build_complex_pair", tracked)
    res = construct_irreducible_embedding(sweep_input(4))
    gc.collect()
    assert res.certificate.all_true()
    assert refs and all(ref() is None for ref in refs)


def test_every_relator_has_exponent_one():
    h = intro_example()
    res = construct_embedding(h)
    for r in build_complex_pair(h, res.group).parent.relators:
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
    assert hang(replace(gamma, alphabet=nonstable), new_loops).folded


def test_no_construction_folds_more_than_the_prescribed_images(monkeypatch):
    """Neither certificate folds the full image list.  The plain one reads
    the image rank off the free-product split and the prefix test on the
    new images; the irreducible one off the loops hung on the prescribed
    images' core.  So every fold either construction runs is of at most
    the prescribed images' letters."""
    fold_sizes, families = [], []
    fold, family = stallings.fold, hnn.generate_relator_family

    def counted_fold(g, *args):
        fold_sizes.append(len(g.edges))
        return fold(g, *args)

    def counted_family(*args):
        families.append(args)
        return family(*args)

    monkeypatch.setattr(stallings, "fold", counted_fold)
    monkeypatch.setattr(hnn, "generate_relator_family", counted_family)
    h = intro_example()
    prescribed = sum(len(w) for w in h.images)
    for construct, attempts in (
        (construct_embedding, 1),
        (construct_irreducible_embedding, 2),
    ):
        fold_sizes.clear()
        res = construct(h)
        assert len(families) == attempts
        assert res.certificate.monomorphism
        assert fold_sizes and max(fold_sizes) <= prescribed
    assert res.certificate.irreducible.wedge_check


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
    assert projections == [build_complex_pair(h, r.group) for r in (res, again)]


def test_built_graphs_are_not_walked_for_connectivity(monkeypatch):
    """bouquet, fold, trim_to_core and hang cannot disconnect a graph, so
    rank never walks the graphs they build."""

    def walk(g):
        raise AssertionError("connectivity walk on a built graph")

    monkeypatch.setattr(stallings, "_walk", walk)
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
    cert = hnn._certify(h, g, subgroup_core(h.base_alphabet, h.images), stored, report).certificate
    assert not cert.irreducible.wedge_check
    assert cert.monomorphism == is_monomorphism(wide, images) == injective


def _prefix_condition(words) -> bool:
    """The plain certificate's sufficient condition for a free basis, read
    literally: any two distinct members of X and X' share a common prefix
    shorter than half of each."""
    ends = [w.letters for w in words] + [w.inverse().letters for w in words]
    for u, v in itertools.combinations(ends, 2):
        p = len(os.path.commonprefix([u, v]))
        if 2 * p >= len(u) or 2 * p >= len(v):
            return False
    return True


def test_plain_monomorphism_verdict_equals_the_fold():
    """Differential test of the plain certificate's rank shortcut against
    the fold, on hand-built and seeded image sets for a = a a with one free
    generator b or none.  The sets cover new images over c1, c2 that pass
    the prefix test, that fail it yet fold to full rank (c1 c2, c1 c2 c2),
    that fold to lower rank (equal images, w and w w), and free images
    that mix old and new letters, so the split fails."""
    rng = random.Random(17017)
    seen = collections.Counter()
    for free in ((), ("b",)):
        h = PartialAscendingHNN(("a",), free, (Word.of(1, 1),))
        c1, c2 = len(free) + 2, len(free) + 3
        lift = {x: x + c1 - 1 if x > 0 else x - c1 + 1 for x in signed_letters(2)}
        sets = [
            [Word.of(c1, c2), Word.of(c1, c2, c2)],
            [Word.of(c1, c2), Word.of(c1, c2)],
            [Word.of(c1, -c2, c1), Word.of(c1, -c2, c1, c1, -c2, c1)],
        ]
        sets = [[Word.of(c1, c1, c2)] * len(free) + xs for xs in sets]
        for trial in range(150):
            xs = [
                relabel(random_reduced_word(rng, 2, rng.randint(1, 6)), lift)
                for _ in range(len(free) + 2)
            ]
            w = rng.choice(xs)
            if trial % 3 == 1:  # a repeated image, or an image and its square
                xs[rng.randrange(len(xs))] = w * w if is_cyclically_reduced(w) else w
            elif trial % 3 == 2 and free:  # the free image mixes old and new letters
                xs[0] = xs[0] * Word.of(rng.choice([1, -1, 2, -2]))
            sets.append(xs)
        for xs in sets:
            g = PartialAscendingHNN(("a", *free, "c1", "c2"), (), h.images + tuple(xs))
            folded = rank(subgroup_core(g.base_alphabet, g.images))
            cert = certify_completion(h, g, False).certificate
            assert cert.monomorphism == (folded == len(g.images)), g.images
            read = hnn._plain_image_rank(h, g.images)
            if any(min(map(abs, x)) < c1 for x in xs):
                seen["split fails"] += 1
                assert read is None
            elif _prefix_condition(xs):
                seen["prefix test passes"] += 1
                assert read == folded == len(g.images)
            else:
                seen["full rank" if folded == len(g.images) else "lower rank"] += 1
                assert read is None
    kinds = ("split fails", "prefix test passes", "full rank", "lower rank")
    assert min(seen[k] for k in kinds) >= 10, seen


def test_prefix_condition_never_claims_a_basis_the_fold_refutes():
    """The prefix test's sufficient condition, read literally, on seeded
    sets of 1-4 reduced words over two and three letters: whenever it says
    free basis, the fold finds full rank."""
    rng = random.Random(17018)
    passed = 0
    for trial in range(600):
        ab = Alphabet(tuple("xyz"[: 2 + trial % 2]))
        count = rng.randint(1, 4)
        xs = [random_reduced_word(rng, ab.size, rng.randint(1, 7)) for _ in range(count)]
        if _prefix_condition(xs):
            passed += 1
            assert rank(subgroup_core(ab, xs)) == len(xs), xs
    assert passed >= 50


def _prefix_rich_images(rng, count: int, base: int) -> list[Word]:
    """``count`` reduced words over the two letters after ``base``: seeded
    words, repeats, inverses, prefixes of earlier words or of their
    inverses, and earlier words extended; now and then one ends with an
    old letter, so the split fails."""
    new = {1: base + 1, -1: -base - 1, 2: base + 2, -2: -base - 2}
    xs: list[Word] = []
    while len(xs) < count:
        pick = rng.randrange(12) if xs else 5
        w = rng.choice(xs) if xs else None  # pick 0 repeats it
        if pick == 1:
            w = w.inverse()
        elif pick == 2:
            w = w[: rng.randint(1, len(w))]
        elif pick == 3:
            w = w.inverse()[: rng.randint(1, len(w))]
        elif pick == 4:
            w = free_reduce(w * relabel(random_reduced_word(rng, 2, rng.randint(1, 4)), new))
        elif pick >= 5:
            w = relabel(random_reduced_word(rng, 2, rng.randint(1, 16)), new)
        if rng.random() < 0.05:
            w = free_reduce(w * Word.of(rng.choice([1, -1])))
        if w:
            xs.append(w)
    return xs


@pytest.mark.parametrize("seed", [17019, 17020])
def test_sorted_halves_decide_the_prefix_test_as_every_pair_does(seed):
    """The plain rank shortcut, which compares each sorted half with its
    successor, returns what comparing every two ends returns, on seeded
    sets of three to five new images rich in equal words, inverses and
    prefixes, and in images that meet an old letter."""
    rng = random.Random(seed)
    seen = collections.Counter()
    for _ in range(2500):
        free = ("b1", "b2", "b3")[: rng.randint(1, 3)]
        h = PartialAscendingHNN(("a",), free, (Word.of(1),))
        images = [Word.of(1)] + _prefix_rich_images(rng, len(free) + 2, len(free) + 1)
        read = hnn._plain_image_rank(h, images)
        assert read == pairwise_plain_image_rank(h, images), images
        old = any(abs(x) <= len(free) + 1 for w in images[1:] for x in w)
        seen["split fails" if old else "rank" if read else "prefix"] += 1
    assert min(seen[k] for k in ("split fails", "rank", "prefix")) >= 100, seen


def test_distinctness_verdict_equals_every_pair_compared():
    """The certificate's distinctness verdict, which keys by least rotation
    only the stored words that share a length, equals comparing every two
    stored words up to rotation.  The groups have one to four free
    generators whose images, like those of c1 and c2, are seeded short
    words over c1 and c2: repeats, rotations, inverses and powers."""
    rng = random.Random(17021)
    seen = collections.Counter()
    for _ in range(400):
        free = tuple(f"x{k}" for k in range(rng.randint(1, 4)))
        new = {1: len(free) + 1, -1: -len(free) - 1, 2: len(free) + 2, -2: -len(free) - 2}
        xs: list[Word] = []
        while len(xs) < len(free) + 2:
            pick = rng.randrange(5) if xs else 0
            if pick == 0:
                xs.append(relabel(random_cyclically_reduced_word(rng, 2, rng.randint(1, 6)), new))
            elif pick == 1:
                xs.append(rng.choice(xs))
            elif pick == 2:
                k = rng.randrange(len(w := rng.choice(xs)))
                xs.append(w[k:] * w[:k])
            elif pick == 3:
                xs.append(rng.choice(xs).inverse())
            else:
                xs.append(Word(rng.choice(xs).letters * rng.randint(2, 3)))
        h = PartialAscendingHNN((), free, ())
        g = PartialAscendingHNN(free + ("c1", "c2"), (), tuple(xs))
        cert = certify_completion(h, g, False).certificate
        assert cert.pairwise_distinct == pairwise_distinct(cert.quotient_words), xs
        seen[cert.pairwise_distinct] += 1
    assert min(seen.values()) >= 100, seen


def test_distinctness_keys_only_words_that_share_a_length(monkeypatch):
    """On the 2+2, 4+4 and 8+8 sweep inputs and the seed-101 ``complete``
    inputs every stored word has its own length, so neither construction
    computes a least rotation for the distinctness verdict.  The hostile
    group's stored words share one length, so each is keyed once."""
    calls = []
    least = hnn.least_rotation

    def counted(w):
        calls.append(w)
        return least(w)

    monkeypatch.setattr(hnn, "least_rotation", counted)
    for h in [sweep_input(n) for n in (2, 4, 8)] + complete_workload_inputs(101):
        assert construct_embedding(h).certificate.all_true()
        assert construct_irreducible_embedding(h).certificate.all_true()
    assert calls == []
    h, g = hostile_group(50)
    assert certify_completion(h, g, False).certificate.pairwise_distinct
    assert len(calls) == 52


def test_certify_completion_on_a_hostile_group_is_fast():
    """2,000 free generators whose images, like those of c1 and c2, are
    distinct 40-letter words over c1 and c2.  Comparing every two stored
    words and every two image ends took 3 s at 500 generators, and four
    times as long per doubling; keyed and sorted, 2,000 take under 2 s.
    The images pass the prefix test, so nothing is folded."""
    h, g = hostile_group(2000)
    start = time.perf_counter()
    cert = certify_completion(h, g, False).certificate
    assert time.perf_counter() - start < 2
    assert cert.pairwise_distinct and cert.monomorphism
    assert hnn._plain_image_rank(h, g.images) == len(g.images)


# Generated inputs, each completed once by both constructions and shared
# by the tests below.
GENERATED = {"criterion6": criterion_6_inputs, "complete101": lambda: complete_workload_inputs(101)}


@functools.cache
def completions(name: str, irreducible: bool) -> list:
    construct = construct_irreducible_embedding if irreducible else construct_embedding
    return [construct(h) for h in GENERATED[name]()]


@functools.cache
def sweep_completion(n: int, construction: str):
    """The n+n sweep input completed by one construction, "plain" or
    "irreducible"."""
    construct = {"plain": construct_embedding, "irreducible": construct_irreducible_embedding}
    return construct[construction](sweep_input(n))


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
        prescribed = replace(subgroup_core(h.base_alphabet, h.images), alphabet=wide)
        hung = hang(prescribed, images[len(h.ascending) :])
        assert hung.folded and hung.cored and res.certificate.irreducible.wedge_check
        trimmed = trim_to_core(hung)
        assert (trimmed.num_vertices, len(trimmed.edges)) == (hung.num_vertices, len(hung.edges))
        assert graphs_equal(hung, subgroup_core(wide, images))
        assert (rank(hung) == len(images)) == is_monomorphism(wide, images)


def _wedge_against_hang(h: PartialAscendingHNN, wide: Alphabet, images: list) -> tuple:
    """The certificate's wedge verdict and image rank against the loops
    hung on the prescribed images' core, with the fold as the oracle for
    the hung graph: the verdict holds exactly when folding it merges
    nothing, and the rank is then that of its folded core.  Returns the
    verdict and the oracle rank."""
    core = subgroup_core(h.base_alphabet, h.images)
    image_rank, evidence = hnn._irreducible_evidence(h, core, images)
    prescribed = replace(core, alphabet=wide)
    hung = hang(prescribed, images[len(h.ascending) :])
    merged = fold(hung)
    merges_nothing = (merged.num_vertices, len(merged.edges)) == (hung.num_vertices, len(hung.edges))
    assert evidence.wedge_check == hung.folded == merges_nothing
    oracle = rank(trim_to_core(merged))
    assert image_rank == (oracle if hung.folded else None)
    return hung.folded, oracle


@pytest.mark.parametrize("name", ["criterion6", "sweep2", "sweep4"])
def test_wedge_verdict_and_rank_match_the_hung_graph(name):
    """On the generated criterion-6 inputs and the 2+2 and 4+4 sweep
    inputs, the wedge holds, the rank read off the loops is the rank of
    the hung graph's fold, and it gives the monomorphism verdict."""
    if name == "criterion6":
        results = completions(name, True)
    else:
        results = [sweep_completion(int(name[-1]), "irreducible")]
    for res in results:
        images = list(res.group.images)
        wedge, oracle = _wedge_against_hang(res.source, res.group.base_alphabet, images)
        assert wedge
        assert res.certificate.monomorphism == (oracle == len(images))


@pytest.mark.parametrize(
    "loops,wedge",
    [
        (("b c1 c2", "c1 c2 c2 c1'", "c2 c1 c1 b"), True),
        (("a b c1", "c1 c2 c2", "c2 c1 c1"), False),  # a cycle end meets the core's a
        (("b c1 b'", "c1 c2 c2", "c2 c1' c1'"), False),  # two cycle ends read c1
        (("b c1 b'", "b c2 b'", "c2 c1 c1"), False),  # two stems start with b
        (("a c1", "a c1 c2", "c2 c1 c1"), False),
    ],
)
def test_wedge_verdict_and_rank_match_the_hung_graph_on_hand_built_loops(loops, wedge):
    """Stems and cycle ends that meet at the basepoint: no wedge, no rank
    read off the loops, and the monomorphism verdict of the fallback fold
    is the hung graph's."""
    h = PartialAscendingHNN(("a",), ("b",), (Word.of(1),))
    wide = Alphabet.of("a", "b", "c1", "c2")
    images = [Word.of(1)] + [parse_word(wide, w) for w in loops]
    assert _wedge_against_hang(h, wide, images)[0] == wedge
    g = PartialAscendingHNN(wide.names, (), tuple(images))
    stored = tuple(pr.word.inverse() for pr in quotient(build_complex_pair(h, g)).projected)
    report = piece_stats(list(stored), include_inverses=True)
    cert = hnn._certify(h, g, subgroup_core(h.base_alphabet, h.images), stored, report).certificate
    assert cert.irreducible.wedge_check == wedge
    oracle = rank(trim_to_core(fold(hang(subgroup_core(wide, [Word.of(1)]), images[1:]))))
    assert cert.monomorphism == (oracle == len(images))


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
    only, the prescribed images are folded once, before the first scale,
    and the full image list is never folded."""
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


@pytest.mark.parametrize(
    "construct", [construct_embedding, construct_irreducible_embedding], ids=["plain", "irreducible"]
)
def test_complete_workload_scans_equal_the_letter_scan(construct, monkeypatch):
    """Every scan of the benchmark's seed-101 ``complete`` pass, in the
    construction and in the check of its result, gives the same table on
    runs as letter by letter."""
    scanned = []

    def recorded(words, include_inverses=True):
        scanned.append(([w.letters for w in words], include_inverses))
        return piece_stats(words, include_inverses)

    monkeypatch.setattr(hnn, "piece_stats", recorded)
    irreducible = construct is construct_irreducible_embedding
    inputs = complete_workload_inputs(101)
    for h in inputs:
        res = construct(h)
        assert certify_completion(h, res.group, irreducible).certificate.all_true()
    assert len(scanned) == 2 * len(inputs)
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
    res = sweep_completion(n, construction)
    digests = tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (_canonical(_certificate_json(res)), hnn_source(res.group))
    )
    assert digests == SWEEP_GOLDEN[n, construction]


def test_irreducible_certify_builds_no_graph_of_the_loops(monkeypatch):
    """The wedge test reads the loops and builds no graph of them: while
    the 4+4 sweep input's irreducible completion is certified, no graph
    has more edges than the prescribed images have letters."""
    res = sweep_completion(4, "irreducible")
    h = res.source
    sizes = []
    init = stallings.CoreGraph.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sizes.append(len(self.edges))

    monkeypatch.setattr(stallings.CoreGraph, "__init__", spy)
    again = certify_completion(h, res.group, True)
    assert again.certificate == res.certificate
    assert sizes and max(sizes) <= sum(len(w) for w in h.images)


def test_cell_verdicts_agree_with_the_subquotient_checks(monkeypatch):
    """The certificate reads its two cell verdicts off the stored quotient
    words.  The relative checks on the complex pair are the oracle: on
    every certificate built while completing the 2+2, 4+4 and 8+8 sweep
    inputs and the seed-101 and seed-102 ``complete`` inputs with both
    constructions, the equal-words family at its last scale, and the two
    hand-built group files, each cell's power verdict is the power check's
    verdict on that cell and the distinctness verdict is the duplicate
    check's."""
    certify = hnn._certify
    seen = []

    def oracle(h, g, core, stored, report):
        res = certify(h, g, core, stored, report)
        cert, pair = res.certificate, build_complex_pair(h, g)
        raised = {v.relator for v in check_no_extra_powers(pair).violations}
        assert cert.no_proper_powers == tuple(
            pr.source not in raised for pr in quotient(pair).projected
        )
        assert cert.pairwise_distinct == check_no_duplicates(pair).verdict
        seen.append((all(cert.no_proper_powers), cert.pairwise_distinct))
        return res

    monkeypatch.setattr(hnn, "_certify", oracle)
    inputs = [sweep_input(n) for n in (2, 4, 8)]
    inputs += complete_workload_inputs(101) + complete_workload_inputs(102)
    for construct in (construct_embedding, construct_irreducible_embedding):
        for h in inputs:
            construct(h)
    family = hnn.generate_relator_family

    def equal_words(count, alphabet, scale=1):
        return [family(1, alphabet, scale)[0]] * count

    with monkeypatch.context() as m:
        m.setattr(hnn, "generate_relator_family", equal_words)
        m.setattr(hnn, "MAX_ESCALATIONS", 1)
        for construct in (construct_embedding, construct_irreducible_embedding):
            with pytest.raises(RuntimeError, match="certificate gate failed"):
                construct(intro_example())
    h = parse_hnn(POWER_OR_EQUAL_INPUT)
    for free_images in POWER_OR_EQUAL_IMAGES.values():
        g = parse_hnn(hnn_text(power_or_equal_images(free_images)))
        certify_completion(h, g, False)
    assert len(seen) > 2 * len(inputs)
    assert (False, True) in seen and (True, False) in seen and (True, True) in seen


def test_the_complex_pair_drops_exactly_the_prescribed_cells(monkeypatch):
    """The complex pair names only its generators, and its projection
    drops the cells that read only them.  On every certificate built
    while completing the 2+2 ... 8+8 sweep inputs and the seed-101
    ``complete`` inputs with both constructions, those are the prescribed
    cells, as scanning each cell letter by letter finds them, and every
    other cell projects to a nonempty word."""
    certify = hnn._certify
    seen = []

    def oracle(h, g, core, stored, report):
        pair = build_complex_pair(h, g)
        q = quotient(pair)
        assert q.dropped == inside_cells(pair) == tuple(range(len(h.ascending)))
        assert all(pr.word for pr in q.projected)
        seen.append(h)
        return certify(h, g, core, stored, report)

    monkeypatch.setattr(hnn, "_certify", oracle)
    inputs = [sweep_input(n) for n in (2, 4, 6, 8)] + complete_workload_inputs(101)
    for construct in (construct_embedding, construct_irreducible_embedding):
        for h in inputs:
            assert construct(h).certificate.all_true()
    assert len(seen) >= 2 * len(inputs)


def test_certify_takes_each_cell_exponent_once(monkeypatch):
    """Certifying the 4+4 sweep input's irreducible completion computes at
    most one literal period per cell, its stored word's."""
    res = sweep_completion(4, "irreducible")
    cells = len(res.certificate.quotient_words)
    calls = []
    period = hnnembed.words.literal_period

    def spy(letters):
        calls.append(len(letters))
        return period(letters)

    monkeypatch.setattr(hnnembed.words, "literal_period", spy)
    again = certify_completion(res.source, res.group, True)
    assert again.certificate == res.certificate
    assert len(calls) <= cells


def test_cells_share_one_int_per_inverse_letter():
    """Every cell of G's presentation reads its inverse letters from one
    table, so a letter below -5, outside CPython's small-int cache, is one
    int object however often it occurs: on the intro example's
    completions, no more objects than letter values, and so at most one
    per generator."""
    h = intro_example()
    for res in (construct_embedding(h), construct_irreducible_embedding(h)):
        p = res.group.presentation()
        low = [x for r in p.relators for x in r.letters if x < -5]
        assert low
        assert len({id(x) for x in low}) <= len(set(low)) <= p.alphabet.size


def test_irreducible_construction_checks_only_the_words_that_enter(monkeypatch):
    """Letters are checked where words enter, not on every derived word:
    building the 4+4 sweep input's irreducible completion checks fewer
    letters than 1% of the completed group's image letters."""
    h = sweep_input(4)
    checked = []
    post_init = Word.__post_init__

    def spy(self):
        checked.append(len(self.letters))
        post_init(self)

    monkeypatch.setattr(Word, "__post_init__", spy)
    res = construct_irreducible_embedding(h)
    assert sum(checked) < sum(len(w) for w in res.group.images) / 100
