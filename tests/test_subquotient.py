import random
import time

import pytest

from hnnembed.presentation import Presentation
from hnnembed.subquotient import (
    LiftFailure,
    SubcomplexSpec,
    TwoCellDiagram,
    check_no_duplicates,
    check_no_extra_powers,
    liftability_counterexample_search,
    quotient,
)
from hnnembed.words import (
    Alphabet,
    Word,
    cyclically_equal,
    exponent,
    is_cyclically_reduced,
    random_reduced_word,
)

from helpers import (
    cancellable_alignment,
    count_projections,
    inside_cells,
    pairwise_liftability_search,
    pairwise_no_duplicates,
    presentation_from_strings,
    random_cyclically_reduced_word,
)

X1 = presentation_from_strings("a b c", ["b c a b c b c"])
X2 = presentation_from_strings("a b c", ["a b c", "a b c c"])


def test_checks_on_one_spec_share_one_projection(monkeypatch):
    calls = count_projections(monkeypatch)
    spec = SubcomplexSpec.spanned_by(X2, ["c"])
    assert check_no_extra_powers(spec).verdict
    assert check_no_duplicates(spec).collisions == ((0, 1),)
    liftability_counterexample_search(spec)
    assert quotient(spec) is quotient(spec)
    assert calls == [spec]
    other = SubcomplexSpec.spanned_by(X2, ["a"])
    assert quotient(other) is not quotient(spec)
    assert calls == [spec, other]


def test_spec_validation():
    spec = SubcomplexSpec.spanned_by(X1, ["a"])
    assert spec.sub_generators == frozenset({1})
    with pytest.raises(ValueError):
        SubcomplexSpec(X1, frozenset({9}))


def test_quotient_kill_a():
    q = quotient(SubcomplexSpec.spanned_by(X1, ["a"]))
    assert q.alphabet.names == ("b", "c")
    assert [q.alphabet.word_str(p.word) for p in q.projected] == ["b c b c b c"]
    assert q.dropped == ()


def test_quotient_kill_c():
    q = quotient(SubcomplexSpec.spanned_by(X1, ["c"]))
    assert q.alphabet.names == ("a", "b")
    assert [q.alphabet.word_str(p.word) for p in q.projected] == ["b a b b"]


def test_quotient_x2():
    qc = quotient(SubcomplexSpec.spanned_by(X2, ["c"]))
    assert [qc.alphabet.word_str(p.word) for p in qc.projected] == ["a b", "a b"]
    qa = quotient(SubcomplexSpec.spanned_by(X2, ["a"]))
    assert [qa.alphabet.word_str(p.word) for p in qa.projected] == ["b c", "b c c"]


def test_quotient_by_nothing_is_identity():
    q = quotient(SubcomplexSpec.spanned_by(X2, []))
    assert [p.word for p in q.projected] == list(X2.relators)
    assert q.alphabet == X2.alphabet


def test_quotient_drops_inside_cells():
    p = presentation_from_strings("a b", ["a a", "a b"])
    spec = SubcomplexSpec.spanned_by(p, ["a"])
    q = quotient(spec)
    assert q.dropped == (0,)
    assert [(pr.source, pr.word.letters) for pr in q.projected] == [(1, (1,))]


def test_dropped_cells_are_the_cells_inside_the_subcomplex():
    """The projection drops exactly the cells that read only killed
    generators, as scanning each cell letter by letter finds them, and
    projects every other cell to a nonempty word.  Seeded presentations
    over a, b, c, y and z, with one-letter powers among random cells,
    collapsed along a random set of generators, none or all of them."""
    rng = random.Random(304)
    names = ["a", "b", "c", "y", "z"]
    seen = {"dropped": 0, "projected": 0, "none killed": 0, "all killed": 0}
    for _ in range(2000):
        rels = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.3:
                rels.append(Word((rng.choice([1, -1]) * rng.randint(1, 5),) * rng.randint(1, 4)))
            else:
                rels.append(random_cyclically_reduced_word(rng, 5, rng.randint(1, 10)))
        killed = [n for n in names if rng.random() < 0.5]
        if rng.random() < 0.1:
            killed = rng.choice([[], names])
        spec = SubcomplexSpec.spanned_by(Presentation(Alphabet.of(*names), tuple(rels)), killed)
        q = quotient(spec)
        assert q.dropped == inside_cells(spec), (rels, killed)
        assert all(pr.word for pr in q.projected)
        assert sorted(q.dropped + tuple(pr.source for pr in q.projected)) == list(range(len(rels)))
        seen["dropped"] += len(q.dropped)
        seen["projected"] += len(q.projected)
        seen["none killed"] += not killed
        seen["all killed"] += len(killed) == len(names)
    assert min(seen.values()) > 100, seen


def test_projection_length_identity():
    rng = random.Random(301)
    for _ in range(100):
        rels = [random_cyclically_reduced_word(rng, 3, rng.randrange(1, 12)) for _ in range(2)]
        try:
            p = Presentation(X1.alphabet, tuple(rels))
        except ValueError:
            continue
        spec = SubcomplexSpec.spanned_by(p, ["b"])
        q = quotient(spec)
        for pr in q.projected:
            rel = p.relators[pr.source]
            killed = sum(1 for x in rel if abs(x) == 2)
            assert len(pr.word) == len(rel) - killed


def test_no_extra_powers_examples():
    rep = check_no_extra_powers(SubcomplexSpec.spanned_by(X1, ["a"]))
    assert not rep.verdict
    assert rep.violations[0].before == 1 and rep.violations[0].after == 3
    assert check_no_extra_powers(SubcomplexSpec.spanned_by(X1, ["c"])).verdict
    assert check_no_extra_powers(SubcomplexSpec.spanned_by(X2, ["a"])).verdict


def test_no_duplicates_examples():
    rep = check_no_duplicates(SubcomplexSpec.spanned_by(X2, ["c"]))
    assert not rep.verdict and rep.collisions == ((0, 1),)
    assert check_no_duplicates(SubcomplexSpec.spanned_by(X2, ["a"])).verdict
    # Vacuous when everything is inside the subcomplex.
    full = SubcomplexSpec.spanned_by(X2, ["a", "b", "c"])
    assert check_no_duplicates(full).verdict
    assert liftability_counterexample_search(full) is None


def test_inverted_duplicate_is_warning_only():
    # Projections are inverse rotations of each other, originals are not.
    p = presentation_from_strings("a b c", ["a b c", "b' a' c"])
    spec = SubcomplexSpec.spanned_by(p, ["c"])
    rep = check_no_duplicates(spec)
    assert rep.verdict  # rotation-equality mode sees no collision
    assert rep.inverted_collisions == ((0, 1),)


def test_cancellable_alignment():
    p = presentation_from_strings("a b c", ["a b c", "a b c c"])
    same = presentation_from_strings("a b c", ["a b c", "a b c"])
    d = TwoCellDiagram(0, 1, 1, 0, 0)
    assert cancellable_alignment(same, d)
    assert not cancellable_alignment(p, TwoCellDiagram(0, 1, 1, 0, 0))
    pp = presentation_from_strings("a b", ["a b a b", "a b a b"])
    assert cancellable_alignment(pp, TwoCellDiagram(0, 1, 1, 0, 2))
    # Symmetry of the relation.
    assert cancellable_alignment(pp, TwoCellDiagram(1, 0, 1, 2, 0))
    with pytest.raises(ValueError):
        cancellable_alignment(p, TwoCellDiagram(0, 1, 1, 0, 9))
    with pytest.raises(ValueError):
        cancellable_alignment(p, TwoCellDiagram(0, 1, 2, 0, 0))  # wrong shared edge


def test_seeded_lift_counterexample():
    p = presentation_from_strings("a b c", ["a b c a b c c"])
    spec = SubcomplexSpec.spanned_by(p, ["c"])
    assert exponent(p.relators[0]) == 1
    q = quotient(spec)
    assert exponent(q.projected[0].word) == 2  # extra power appears
    failure = liftability_counterexample_search(spec)
    assert failure is not None
    d = failure.diagram
    assert d.r1 == 0 and d.r2 == 0 and {d.rot1, d.rot2} == {0, 2}
    # The lift really is not cancelling.
    r = p.relators[0].letters
    rot1 = r[failure.parent_rot1 :] + r[: failure.parent_rot1]
    rot2 = r[failure.parent_rot2 :] + r[: failure.parent_rot2]
    assert rot1 != rot2


def test_passing_checks_mean_no_counterexample():
    rng = random.Random(302)
    found = 0
    passing = 0
    while passing < 120:
        found += 1
        assert found < 20000
        outside_rank = rng.randrange(1, 4)
        names = ["a", "b", "c"][:outside_rank] + ["y", "z"][: rng.randrange(1, 3)]
        ab = " ".join(names)
        rels = []
        for _ in range(rng.randrange(1, 4)):
            w = random_cyclically_reduced_word(rng, len(names), rng.randrange(1, 11))
            rels.append(w)
        try:
            p = presentation_from_strings(ab, [])
            p = Presentation(p.alphabet, tuple(rels))
        except ValueError:
            continue
        spec = SubcomplexSpec.spanned_by(p, [n for n in names if n in ("y", "z")])
        if not check_no_extra_powers(spec).verdict:
            continue
        if not check_no_duplicates(spec).verdict:
            continue
        passing += 1
        assert liftability_counterexample_search(spec) is None, (p, spec)


def test_counterexamples_require_failed_checks():
    # Whenever the search does find something, one of the two checks failed.
    rng = random.Random(303)
    hits = 0
    for _ in range(4000):
        names = ["a", "b", "y"]
        rels = []
        for _ in range(rng.randrange(1, 3)):
            rels.append(random_cyclically_reduced_word(rng, 3, rng.randrange(2, 9)))
        try:
            p = presentation_from_strings(" ".join(names), [])
            p = Presentation(p.alphabet, tuple(rels))
        except ValueError:
            continue
        spec = SubcomplexSpec.spanned_by(p, ["y"])
        failure = liftability_counterexample_search(spec)
        if failure is not None:
            hits += 1
            ok1 = check_no_extra_powers(spec).verdict
            ok2 = check_no_duplicates(spec).verdict
            assert not (ok1 and ok2), (p,)
    assert hits > 5  # the contrapositive direction was exercised


def test_duplicate_originals_are_fine():
    # Identical cells stay identical: that is not a duplication failure.
    p = presentation_from_strings("a b y", ["a b y", "a b y"])
    spec = SubcomplexSpec.spanned_by(p, ["y"])
    rep = check_no_duplicates(spec)
    assert rep.verdict
    assert liftability_counterexample_search(spec) is None


def _duplicate_rich_spec(rng):
    """Up to 24 cells over a, b and y, many equal or inverse up to rotation
    once y is killed: rotations and inverses of earlier cells, earlier
    cells with y letters added or changed, and cells of y alone, which
    lie inside the subcomplex."""
    relators = []
    while len(relators) < rng.randint(1, 24):
        pick = rng.random()
        if relators and pick < 0.5:
            ls = list(rng.choice(relators).letters)
            if pick < 0.15:
                k = rng.randrange(len(ls))
                ls = ls[k:] + ls[:k]
            elif pick < 0.3:
                ls = [-x for x in reversed(ls)]
            else:
                for _ in range(rng.randint(1, 2)):
                    ls.insert(rng.randint(0, len(ls)), rng.choice([3, -3]))
        elif pick < 0.6:
            ls = [rng.choice([3, -3])] * rng.randint(1, 3)
        else:
            ls = list(random_cyclically_reduced_word(rng, 3, rng.randint(1, 8)).letters)
        w = Word(tuple(ls))
        if is_cyclically_reduced(w):
            relators.append(w)
    return SubcomplexSpec.spanned_by(Presentation(Alphabet.of("a", "b", "y"), tuple(relators)), ["y"])


def test_no_duplicates_against_every_pair():
    """Grouping by least rotation finds the pairs, in the order, that
    comparing every pair of cells finds."""
    rng = random.Random(300)
    seen = {"collisions": 0, "inverted": 0, "dropped": 0}
    for _ in range(1500):
        spec = _duplicate_rich_spec(rng)
        got = check_no_duplicates(spec)
        assert got == pairwise_no_duplicates(spec), spec.parent
        seen["collisions"] += len(got.collisions)
        seen["inverted"] += len(got.inverted_collisions)
        seen["dropped"] += len(quotient(spec).dropped)
    assert min(seen.values()) > 100, seen


def test_no_duplicates_on_thousands_of_cells_is_fast():
    """4,000 seeded 13-letter relators over x, y and z with y killed:
    comparing every pair takes about 11 s, grouping a fraction of one."""
    rng = random.Random(301)
    words = [random_cyclically_reduced_word(rng, 3, 13) for _ in range(4000)]
    spec = SubcomplexSpec.spanned_by(Presentation(Alphabet.of("x", "y", "z"), tuple(words)), ["y"])
    quotient(spec)
    start = time.perf_counter()
    got = check_no_duplicates(spec)
    assert time.perf_counter() - start < 2
    assert not got.verdict and (len(got.collisions), len(got.inverted_collisions)) == (308, 304)


def test_no_duplicates_skips_cells_with_equal_parents_in_one_step():
    """12,000 rotations of x x y and of its inverse, then x x y y, with y
    killed: all project to x x or its inverse, but only the last cell has
    another parent, so only the pairs with it count.  Walking every later
    cell of a group, equal parents too, takes about 4 s; skipping each run
    of equal parents, a tenth of one."""
    rng = random.Random(302)
    words = []
    for _ in range(12000):
        ls = [1, 1, 2]
        k = rng.randrange(3)
        ls = ls[k:] + ls[:k]
        words.append(Word(tuple(ls)) if rng.random() < 0.5 else Word(tuple(ls)).inverse())
    words.append(Word((1, 1, 2, 2)))
    spec = SubcomplexSpec.spanned_by(Presentation(Alphabet.of("x", "y"), tuple(words)), ["y"])
    quotient(spec)
    start = time.perf_counter()
    got = check_no_duplicates(spec)
    assert time.perf_counter() - start < 2
    upright = [i for i, w in enumerate(words[:-1]) if sum(w.letters) > 0]
    inverse = [i for i, w in enumerate(words[:-1]) if sum(w.letters) < 0]
    assert got.collisions == tuple((i, 12000) for i in upright)
    assert got.inverted_collisions == tuple((i, 12000) for i in inverse)


def _alignment_rich_spec(rng):
    """Up to 7 cells over a, b, y and z, with y or both y and z killed:
    random cells, rotations, inverses and repeats of earlier cells, earlier
    cells with a killed letter added, powers, and powers of a word over a
    and b with killed letters placed unevenly in each turn, whose
    projections are periodic while their parents are not."""
    killed = ["y"] if rng.random() < 0.6 else ["y", "z"]
    relators = []
    for _ in range(rng.randint(1, 7)):
        pick = rng.randrange(7) if relators else 0
        if pick == 0:
            ls = random_reduced_word(rng, 4, rng.randint(1, 12)).letters
        elif pick == 1:
            ls = rng.choice(relators).letters
            k = rng.randrange(len(ls))
            ls = ls[k:] + ls[:k]
        elif pick == 2:
            ls = rng.choice(relators).inverse().letters
        elif pick == 3:
            ls = random_reduced_word(rng, 4, rng.randint(1, 4)).letters * rng.randint(2, 5)
        elif pick == 4:
            turn = random_reduced_word(rng, 2, rng.randint(1, 3)).letters
            ls = ()
            for _ in range(rng.randint(2, 5)):
                for x in turn:
                    ls += (x, rng.choice([3, -3, 4, -4])) if rng.random() < 0.4 else (x,)
        elif pick == 5:
            ls = list(rng.choice(relators).letters)
            ls.insert(rng.randint(0, len(ls)), rng.choice([3, -3, 4, -4]))
            ls = tuple(ls)
        else:
            ls = rng.choice(relators).letters
        w = Word(ls)
        if w and is_cyclically_reduced(w):
            relators.append(w)
    parent = Presentation(Alphabet.of("a", "b", "y", "z"), tuple(relators))
    return SubcomplexSpec.spanned_by(parent, killed)


@pytest.mark.parametrize("seed", [310, 311, 312])
def test_keyed_liftability_search_finds_the_first_failure_of_every_pair(seed):
    """Keying alignments by least rotation and residue finds the failure,
    or none, that comparing every rotation of every pair of cells finds
    first: the same cells, offsets and lift, in (a, b, o1, o2) order."""
    rng = random.Random(seed)
    seen = {"none": 0, "self": 0, "other": 0, "later offset": 0}
    for _ in range(1500):
        spec = _alignment_rich_spec(rng)
        got = liftability_counterexample_search(spec)
        assert got == pairwise_liftability_search(spec), spec.parent.relators
        if got is None:
            seen["none"] += 1
        else:
            d = got.diagram
            seen["self" if d.r1 == d.r2 else "other"] += 1
            seen["later offset"] += d.rot1 > 0 or d.rot2 > d.rot1 + 1
    assert min(seen.values()) > 50, seen


def test_liftability_search_on_long_random_relators_is_fast():
    """Three seeded random relators of 1,600 letters over a, b and y, with y
    killed: comparing every rotation with every other took over 2 s at 400
    letters; keyed, 1,600 letters take a small fraction of a second."""
    rng = random.Random(313)
    words = tuple(random_cyclically_reduced_word(rng, 3, 1600) for _ in range(3))
    spec = SubcomplexSpec.spanned_by(Presentation(Alphabet.of("a", "b", "y"), words), ["y"])
    quotient(spec)
    start = time.perf_counter()
    assert liftability_counterexample_search(spec) is None
    assert time.perf_counter() - start < 2


def test_liftability_search_on_periodic_projections_is_fast():
    """(a y)^k, (a a y y)^(k/2) and (y a)^k with y killed and k = 1,600 all
    project to a^k, which aligns with itself at every pair of offsets.  The
    first cell's alignments with itself all lift, and its first with the
    second cell does not.  With the second cell dropped, every alignment
    lifts."""
    k = 1600
    ab = Alphabet.of("a", "y")
    family = [Word((1, 2) * k), Word((1, 1, 2, 2) * (k // 2)), Word((2, 1) * k)]
    for words, expected in (
        (family, LiftFailure(TwoCellDiagram(0, 1, 1, 0, 0), 0, 0)),
        ([family[0], family[2], family[0]], None),
    ):
        spec = SubcomplexSpec.spanned_by(Presentation(ab, tuple(words)), ["y"])
        quotient(spec)
        start = time.perf_counter()
        assert liftability_counterexample_search(spec) == expected
        assert time.perf_counter() - start < 2
