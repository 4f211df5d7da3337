"""Word-problem solver tests.

The surface-style one-relator presentation used throughout has pieces of
length 1 against relator length 8, so the half-overlap machinery is exercised
on an input small enough to check by hand.
"""

import copy
import functools
import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from hnnembed import words
from hnnembed.dehn import (
    AreaRow,
    DehnSolver,
    DehnStep,
    _index,
    area_bound_check,
    random_trivial_words,
    verify_steps,
)
from hnnembed.hnn import generate_relator_family
from hnnembed.parsing import parse_word
from hnnembed.presentation import Presentation, check_cprime
from hnnembed.words import EMPTY, Alphabet, Word, cyclic_reduce, free_reduce

from helpers import _read, letter_walk_segment_ends, reading_best_match


SURF = Alphabet.of("a", "b", "c", "d")
P_SURF = Presentation(SURF, (parse_word(SURF, "a b a' b' c d c' d'"),))
R = P_SURF.relators[0]


def test_relator_is_trivial_in_one_step():
    res = DehnSolver(P_SURF).solve(R)
    assert res.trivial
    assert res.steps == (DehnStep(position=0, relator=0, orientation=1, offset=0, length=8),)
    assert res.area == 1
    assert res.residue == EMPTY


def test_inverse_relator_uses_reverse_orientation():
    res = DehnSolver(P_SURF).solve(R.inverse())
    assert res.trivial
    assert res.steps == (DehnStep(position=0, relator=0, orientation=-1, offset=0, length=8),)


def test_conjugated_relator_product_is_trivial():
    g = parse_word(SURF, "c a b")
    w = g * R * g.inverse() * parse_word(SURF, "d") * R.inverse() * parse_word(SURF, "d'")
    res = DehnSolver(P_SURF).solve(w)
    assert res.trivial
    assert res.area == 2
    ok, final = verify_steps(P_SURF, w, res.steps)
    assert ok and final == EMPTY


def test_known_nontrivial_words_are_reported_with_residue():
    for text in ("a", "a b a' b'", "c d c' d'", "a b c d"):
        res = DehnSolver(P_SURF).solve(parse_word(SURF, text))
        assert not res.trivial
        assert res.steps == ()
        assert res.residue == parse_word(SURF, text)


def test_empty_word_is_trivial_with_no_steps():
    res = DehnSolver(P_SURF).solve(EMPTY)
    assert res.trivial and res.steps == ()
    # a word that freely collapses costs nothing either
    res = DehnSolver(P_SURF).solve(parse_word(SURF, "a b b' a'"))
    assert res.trivial and res.steps == ()


def test_solver_rejects_presentations_without_the_metric_bound():
    two = Alphabet.of("a", "b")
    bad = Presentation(two, (parse_word(two, "a b a b' a b' a' b a' b'"),))
    with pytest.raises(ValueError, match="metric small cancellation"):
        DehnSolver(bad)


def test_free_presentation_reduces_to_free_reduction():
    rose = Presentation(Alphabet.of("a", "b"), ())
    solver = DehnSolver(rose)
    assert solver.solve(Word.of(1, -1)).trivial
    res = solver.solve(Word.of(1, 2))
    assert not res.trivial and res.residue == Word.of(1, 2)
    assert solver.piece_count(Word.of(1)) is None


def test_step_log_lengths_strictly_decrease():
    g = parse_word(SURF, "b d a")
    w = g * R * g.inverse() * R * parse_word(SURF, "a") * R.inverse() * parse_word(SURF, "a'")
    res = DehnSolver(P_SURF).solve(w)
    assert res.trivial
    lengths = []
    for k in range(len(res.steps) + 1):
        ok, word_k = verify_steps(P_SURF, w, res.steps[:k])
        assert ok
        lengths.append(len(word_k))
    assert all(a > b for a, b in zip(lengths, lengths[1:]))
    assert lengths[-1] == 0


def test_solver_is_deterministic_across_instances():
    w = parse_word(SURF, "c") * R * parse_word(SURF, "c'") * R.inverse()
    first = DehnSolver(P_SURF).solve(w)
    second = DehnSolver(P_SURF).solve(w)
    assert first == second


def test_replay_rejects_tampered_logs(setup):
    res = DehnSolver(P_SURF).solve(R)
    (step,) = res.steps
    bad_position = DehnStep(3, step.relator, step.orientation, 1, step.length)
    assert not verify_steps(P_SURF, R, (bad_position,))[0]
    bad_relator = DehnStep(step.position, 5, step.orientation, step.offset, step.length)
    assert not verify_steps(P_SURF, R, (bad_relator,))[0]
    too_short = DehnStep(step.position, step.relator, step.orientation, step.offset, 4)
    assert not verify_steps(P_SURF, R, (too_short,))[0]
    # a valid log for a different word fails on the match check
    assert not verify_steps(P_SURF, parse_word(SURF, "a b c d a b c d"), res.steps)[0]

    # count-3 family logs, with both orientations, offsets up to ell - 1
    # (each oriented relator rotated to start at its last letter) and
    # matches shorter than their cap (turns with a letter changed): moving
    # one step's position or offset by one, lengthening it or flipping its
    # orientation fails the replay.  A step one letter shorter that still
    # covers more than half its relator is a valid step to the same word:
    # the complement gains the inverse of the letter left in place, and
    # the two cancel.
    presentation, solver = setup
    words = random_trivial_words(presentation, 8, 4, seed=5)
    words += turns_and_wraps(presentation, random.Random(5))
    for r in presentation.relators:
        ell = len(r)
        words += [Word(d[ell - 1 : 2 * ell - 1]) for d in (r.letters * 2, r.inverse().letters * 2)]
    seen = set()
    for w in words:
        res = solver.solve(w)
        steps = res.steps
        assert verify_steps(presentation, w, steps) == (True, res.residue)
        for i, st in enumerate(steps):
            ell = len(presentation.relators[st.relator])
            seen.add((st.orientation, st.offset == ell - 1))

            def replay(**change):
                return verify_steps(presentation, w, (*steps[:i], replace(st, **change), *steps[i + 1 :]))

            for change in (
                {"position": st.position - 1},
                {"position": st.position + 1},
                {"offset": st.offset - 1},
                {"offset": st.offset + 1},
                {"length": st.length + 1},
                {"orientation": -st.orientation},
            ):
                assert not replay(**change)[0], (w, i, change)
            shorter = replay(length=st.length - 1)
            assert shorter == (True, res.residue) if 2 * st.length > ell + 2 else not shorter[0]
    assert seen == {(1, False), (1, True), (-1, False), (-1, True)}


def test_piece_count_greedy_segments():
    solver = DehnSolver(P_SURF)
    assert solver.piece_count(EMPTY) == 0
    assert solver.piece_count(R) == 1
    assert solver.piece_count(R * R) == 2
    assert solver.piece_count(parse_word(SURF, "a")) == 1
    # b' a' is a subword of the inverse relator, so one segment covers it
    assert solver.piece_count(parse_word(SURF, "b' a'")) == 1


def test_area_report_on_relator_samples():
    rep = area_bound_check(P_SURF, [R, R.inverse(), EMPTY])
    assert [row.area for row in rep.rows] == [1, 1, 0]
    assert [row.pieces for row in rep.rows] == [1, 1, 0]
    assert rep.rows[2].ratio is None
    assert rep.max_ratio == Fraction(1, 8)


def test_area_check_rejects_nontrivial_samples():
    with pytest.raises(ValueError, match=r"samples not trivial: \[1\]"):
        area_bound_check(P_SURF, [R, parse_word(SURF, "a b")])


def test_random_trivial_words_deterministic_and_trivial():
    words = random_trivial_words(P_SURF, 25, 3, seed=11)
    assert words == random_trivial_words(P_SURF, 25, 3, seed=11)
    assert words != random_trivial_words(P_SURF, 25, 3, seed=12)
    assert len(words) == 25
    solver = DehnSolver(P_SURF)
    for w in words:
        assert free_reduce(w) == w
        assert solver.solve(w).trivial


def test_random_trivial_words_argument_validation():
    with pytest.raises(ValueError, match="max_conj"):
        random_trivial_words(P_SURF, 1, 0, seed=0)
    with pytest.raises(ValueError, match="count"):
        random_trivial_words(P_SURF, -3, 1, seed=0)
    assert random_trivial_words(P_SURF, 0, 1, seed=0) == []
    rose = Presentation(Alphabet.of("a"), ())
    with pytest.raises(ValueError, match="relator"):
        random_trivial_words(rose, 1, 1, seed=0)


def test_area_ratios_stay_linear_on_random_samples():
    samples = random_trivial_words(P_SURF, 40, 4, seed=3)
    rep = area_bound_check(P_SURF, samples)
    for row in rep.rows:
        assert row.pieces is not None and row.area <= row.pieces
        if row.ratio is not None:
            assert row.ratio <= 1
    assert rep.max_ratio is not None and rep.max_ratio <= 1


@functools.cache
def family(scale):
    pair = Alphabet.of("c1", "c2")
    presentation = Presentation(pair, tuple(generate_relator_family(3, pair, scale)))
    return presentation, DehnSolver(presentation)


@pytest.fixture(scope="module")
def setup():
    return family(1)


class TestConstructedFamilyPresentation:
    """The long-relator regime the embedding machinery actually produces."""

    def test_relators_solve_in_one_step(self, setup):
        presentation, solver = setup
        for r in presentation.relators:
            res = solver.solve(r)
            assert res.trivial and res.area == 1

    def test_single_generator_is_nontrivial(self, setup):
        _, solver = setup
        assert not solver.solve(Word.of(1)).trivial
        assert not solver.solve(Word.of(2)).trivial

    def test_small_random_batch_meets_the_linear_budget(self, setup):
        presentation, solver = setup
        samples = random_trivial_words(presentation, 5, 4, seed=0)
        for w in samples:
            res = solver.solve(w)
            assert res.trivial
            ok, final = verify_steps(presentation, w, res.steps)
            assert ok and final == EMPTY
            pieces = solver.piece_count(w)
            assert pieces is not None and res.area <= pieces

    def test_area_row_fields_round_numbers(self, setup):
        presentation, _ = setup
        rep = area_bound_check(presentation, [presentation.relators[0]])
        row = rep.rows[0]
        assert row == AreaRow(
            word=presentation.relators[0], length=560, area=1, pieces=1
        )
        assert rep.max_ratio == Fraction(1, 560)


# sha256 of repr([(steps, pieces), ...]) over the criterion-7 job below,
# computed with the exhaustive match scan and per-length hash tables that
# the current search and piece counter replaced; any drift fails here.
CRITERION_7_DIGEST = "58e816b1105a83bba934d4c49150662970edbaf511ebc90b901cacf6d5a62164"


def test_criterion_7_step_logs_and_piece_counts_are_pinned(setup):
    presentation, solver = setup
    rows = []
    for w in random_trivial_words(presentation, 100, 4, seed=0):
        res = solver.solve(w)
        steps = tuple(
            (s.position, s.relator, s.orientation, s.offset, s.length) for s in res.steps
        )
        rows.append((steps, solver.piece_count(w)))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CRITERION_7_DIGEST


# --- brute-force oracles -------------------------------------------------


def brute_best_match(presentation, cur):
    """Every position against every (relator, orientation, offset), each
    extended as far as it goes up to min(relator length, word length); the
    winner (length, relator, position, srank, offset) minimizes
    (-length, relator, position, srank, offset)."""
    n = len(cur)
    w2 = cur.letters * 2
    best = None
    for j, r in enumerate(presentation.relators):
        ell = len(r)
        top = min(ell, n)
        for srank, oriented in enumerate((r, r.inverse())):
            d = oriented.letters * 2
            for pos in range(n):
                for off in range(ell):
                    k = 0
                    while k < top and w2[pos + k] == d[off + k]:
                        k += 1
                    if 2 * k > ell and (best is None or (-k, j, pos, srank, off) < best):
                        best = (-k, j, pos, srank, off)
    return None if best is None else (-best[0], *best[1:])


def brute_solve(presentation, w):
    """The solver's loop with the brute-force match search, replayed step by
    step through ``verify_steps``."""
    cur = cyclic_reduce(free_reduce(w))[0]
    steps = []
    while cur:
        best = brute_best_match(presentation, cur)
        if best is None:
            return False, tuple(steps), cur
        length, j, pos, srank, off = best
        step = DehnStep(pos, j, 1 if srank == 0 else -1, off, length)
        ok, cur = verify_steps(presentation, cur, (step,))
        assert ok
        steps.append(step)
    return True, tuple(steps), EMPTY


def brute_piece_count(presentation, w):
    """Greedy longest prefix found among all cyclic subwords of length at
    most the relator's length, over every oriented relator."""
    subwords = set()
    for r in presentation.relators:
        for oriented in (r, r.inverse()):
            ell = len(oriented)
            d = oriented.letters * 2
            subwords.update(d[off : off + k] for off in range(ell) for k in range(1, ell + 1))
    letters = free_reduce(w).letters
    pos = 0
    segments = 0
    while pos < len(letters):
        jump = max(
            (k for k in range(1, len(letters) - pos + 1) if letters[pos : pos + k] in subwords),
            default=0,
        )
        if jump == 0:
            return None
        pos += jump
        segments += 1
    return segments


def random_metric_presentations(seed, count):
    """Seeded C'(1/6) presentations: 1-3 cyclically reduced relators of
    13-20 letters over 4-6 generators, half of them sharing one length so
    that several relators fall in one length class."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rank = rng.randint(4, 6)
        signed = [x for x in range(-rank, rank + 1) if x]
        m = rng.randint(1, 3)
        shared = rng.randint(13, 20) if rng.random() < 0.5 else None
        relators = []
        for _ in range(m):
            ell = shared or rng.randint(13, 20)
            letters = [rng.choice(signed)]
            while len(letters) < ell:
                x = rng.choice(signed)
                if x != -letters[-1] and (len(letters) < ell - 1 or x != -letters[0]):
                    letters.append(x)
            relators.append(Word(tuple(letters)))
        if check_cprime(relators, 1, 6).holds:
            names = tuple(f"x{i}" for i in range(1, rank + 1))
            out.append(Presentation(Alphabet(names), tuple(relators)))
    return out


def oracle_words(presentation, rng):
    """Conjugated-relator products, random words and relator rotations with
    one letter changed, so hits, near misses and nontrivial residues all
    occur."""
    rank = presentation.alphabet.size
    signed = [x for x in range(-rank, rank + 1) if x]
    words = random_trivial_words(presentation, 8, 4, seed=rng.randrange(1 << 30))
    for _ in range(6):
        words.append(Word(tuple(rng.choice(signed) for _ in range(rng.randint(0, 30)))))
    for r in presentation.relators:
        letters = list(r.letters)
        k = rng.randrange(len(letters))
        letters = letters[k:] + letters[:k]
        letters[rng.randrange(len(letters))] = rng.choice(signed)
        words.append(Word(tuple(letters)) * r.inverse())
    return words


ORACLE_PRESENTATIONS = random_metric_presentations(seed=2024, count=12)


@pytest.mark.parametrize("index", range(len(ORACLE_PRESENTATIONS)))
def test_solver_matches_the_brute_force_search(index):
    presentation = ORACLE_PRESENTATIONS[index]
    solver = DehnSolver(presentation)
    rng = random.Random(index)
    for w in oracle_words(presentation, rng):
        res = solver.solve(w)
        assert (res.trivial, res.steps, res.residue) == brute_solve(presentation, w)


@pytest.mark.parametrize("index", range(len(ORACLE_PRESENTATIONS)))
def test_piece_count_matches_the_brute_force_greedy(index):
    presentation = ORACLE_PRESENTATIONS[index]
    solver = DehnSolver(presentation)
    rng = random.Random(100 + index)
    words = oracle_words(presentation, rng)
    # a letter outside the alphabet occurs in no relator
    words.append(Word.of(presentation.alphabet.size + 1))
    words.extend(r * r for r in presentation.relators)
    for w in words:
        assert solver.piece_count(w) == brute_piece_count(presentation, w)


def test_match_wrapping_across_position_zero():
    # the relator starts at position 5 and wraps past the end of the word
    w = parse_word(SURF, "c d c' d' a a b a' b'")
    res = DehnSolver(P_SURF).solve(w)
    assert res.steps == (DehnStep(position=5, relator=0, orientation=1, offset=0, length=8),)
    assert res.residue == parse_word(SURF, "a")
    assert (res.trivial, res.steps, res.residue) == brute_solve(P_SURF, w)


def test_full_length_matches_are_capped_at_the_relator_or_word_length():
    solver = DehnSolver(P_SURF)
    # every position of R R lies on one diagonal with a full-length hit;
    # the cap top = min(8, 16) makes them tie and position 0 wins
    assert solver._best_match(R * R) == (8, 0, 0, 0, 0)
    # a word shorter than the relator is matched whole: top = n = 6
    short = parse_word(SURF, "a b a' b' c d")
    assert solver._best_match(short) == (6, 0, 0, 0, 0)
    for w in (R * R, short):
        assert solver._best_match(w) == brute_best_match(P_SURF, w)


def test_equal_length_orientations_tie_on_position_first():
    # the inverse relator sits at position 0, the relator later: both match
    # all 8 letters, and position outranks orientation in the tie order
    w = R.inverse() * parse_word(SURF, "c") * R * parse_word(SURF, "c")
    solver = DehnSolver(P_SURF)
    assert solver._best_match(w) == (8, 0, 0, 1, 0)
    res = solver.solve(w)
    assert res.steps[0] == DehnStep(position=0, relator=0, orientation=-1, offset=0, length=8)
    assert (res.trivial, res.steps, res.residue) == brute_solve(P_SURF, w)


def test_proper_power_ties_at_congruent_offsets_take_the_least():
    # ( a b c d )^2 spells each of its rotations twice, at offsets k and
    # k + 4, and its inverse likewise: the least offset must win the tie
    power = Presentation(SURF, (parse_word(SURF, "( a b c d )^2"),))
    r = power.relators[0]
    solver = DehnSolver(power)
    cases = (
        (parse_word(SURF, "b c d a b c d a"), (8, 0, 0, 0, 1)),
        (parse_word(SURF, "c d a b c d a b b"), (8, 0, 0, 0, 2)),
        (r.inverse() * parse_word(SURF, "c"), (8, 0, 0, 1, 0)),
    )
    for w, want in cases:
        assert solver._best_match(w) == want == brute_best_match(power, w)
        res = solver.solve(w)
        assert (res.trivial, res.steps, res.residue) == brute_solve(power, w)
        assert solver.piece_count(w) == brute_piece_count(power, w)


def test_a_shorter_class_whose_cap_ties_the_best_match_is_still_read():
    # lengths 7 < 10 < 2 * 7, the short relator first.  The long class is
    # read first and finds a 7-letter stretch of relator 1 that does not
    # extend; the short class's cap min(7, n) ties that length, and its
    # whole relator 0 wins on relator index, so it must still be read
    two = Presentation(
        SURF,
        (parse_word(SURF, "d' a c b' a' c' c'"), parse_word(SURF, "c b a d' c' a a c' d b")),
    )
    assert check_cprime(two.relators, 1, 6).holds
    short, long = two.relators
    stretch = Word(long.letters[:7]) * parse_word(SURF, "a")
    solver = DehnSolver(two)
    assert solver._best_match(stretch) == (7, 1, 0, 0, 0) == brute_best_match(two, stretch)
    w = short * stretch
    assert solver._best_match(w) == (7, 0, 0, 0, 0) == brute_best_match(two, w)
    res = solver.solve(w)
    assert (res.trivial, res.steps, res.residue) == brute_solve(two, w)


def test_classes_whose_cap_is_below_the_best_match_are_not_read(setup, monkeypatch):
    # classes are searched longest first, and one whose cap min(ell, n) is
    # shorter than the best match so far cannot beat it
    presentation, solver = setup
    assert [len(r) for r in presentation.relators] == [560, 1584, 2608]
    caps = []
    search = DehnSolver._class_match

    def spy(self, ell, w2, n, cap, need):
        caps.append(cap)
        return search(self, ell, w2, n, cap, need)

    monkeypatch.setattr(DehnSolver, "_class_match", spy)
    r0, r1, r2 = presentation.relators
    assert solver._best_match(r2) == (2608, 2, 0, 0, 0)
    assert caps == [2608]
    caps.clear()
    res = solver.solve(r0 * r1 * r2)
    assert res.trivial and [s.relator for s in res.steps] == [2, 1, 0]
    # the last search skips the two longer classes, whose relators are
    # more than twice the remaining 560 letters, without searching them
    assert caps == [2608, 2144, 1584, 560]


def assert_searches_read_every_letter(solver, w):
    """Run the solver's loop on ``w`` with the search that reads every
    letter, replaying each pick through ``verify_steps``, and check the
    sampled search against it on every word the loop meets, then the
    solver's own step log against the loop's."""
    cur = cyclic_reduce(w)[0]
    steps = []
    while cur:
        best = reading_best_match(solver, cur)
        assert solver._best_match(cur) == best
        if best is None:
            break
        length, j, pos, srank, off = best
        step = DehnStep(pos, j, 1 if srank == 0 else -1, off, length)
        ok, cur = verify_steps(solver.presentation, cur, (step,))
        assert ok
        steps.append(step)
    assert solver.solve(w).steps == tuple(steps)


def turns_and_wraps(presentation, rng):
    """Per oriented relator, one to three turns of it and less than one
    turn more, with one letter changed half the time and a few letters
    after, cut at a random point and rotated, so that some stretches run
    past position 0."""
    rank = presentation.alphabet.size
    signed = [x for x in range(-rank, rank + 1) if x]
    words = []
    for r in presentation.relators:
        ell = len(r)
        for oriented in (r, r.inverse()):
            for turns in (1, 2, 3):
                off = rng.randrange(ell)
                d = oriented.letters * (turns + 2)
                letters = list(d[off : off + turns * ell + rng.randrange(ell)])
                if rng.random() < 0.5:
                    letters[rng.randrange(len(letters))] = rng.choice(signed)
                letters += [rng.choice(signed) for _ in range(rng.randint(1, 4))]
                cut = rng.randrange(len(letters))
                words.append(Word(tuple(letters[cut:] + letters[:cut])))
    return words


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_search_matches_reading_every_letter_on_the_family(setup, seed):
    presentation, solver = setup
    rng = random.Random(seed)
    words = random_trivial_words(presentation, 12, 4, seed=seed)
    for w in words + turns_and_wraps(presentation, rng):
        assert_searches_read_every_letter(solver, w)


POWERS = [Presentation(SURF, (Word((1, 2, 3, 4) * k),)) for k in (2, 3, 5)]


@pytest.mark.parametrize("index", range(len(ORACLE_PRESENTATIONS) + len(POWERS)))
def test_sampled_search_matches_reading_every_letter(index):
    presentation = (ORACLE_PRESENTATIONS + POWERS)[index]
    solver = DehnSolver(presentation)
    rng = random.Random(200 + index)
    for w in oracle_words(presentation, rng) + turns_and_wraps(presentation, rng):
        assert_searches_read_every_letter(solver, w)


def changed_near_segment_ends(solver, words, rng):
    """Each word with one letter changed, to a letter that keeps it
    reduced, so that b - 1, b or b + 1 letters lie between it and the right
    end of one of the word's first two segments, for each class's window
    width b: a walk from that end then stops one letter short of its
    window, reads exactly the window, or extends it by one letter."""
    rank = solver.presentation.alphabet.size
    signed = [x for x in range(-rank, rank + 1) if x]
    out = []
    for w in words:
        letters = free_reduce(w).letters
        for end in (letter_walk_segment_ends(solver, w) or [])[:2]:
            for _, b in solver._classes.values():
                for i in (end - b, end - b - 1, end - b - 2):
                    if i < 0:
                        continue
                    near = {letters[i]} | {-letters[j] for j in (i - 1, i + 1) if 0 <= j < len(letters)}
                    choices = [x for x in signed if x not in near]
                    if choices:
                        out.append(Word(letters[:i] + (rng.choice(choices),) + letters[i + 1 :]))
    return out


def assert_piece_count_is_the_letter_walk(solver, words):
    for w in words:
        ends = letter_walk_segment_ends(solver, w)
        assert solver.piece_count(w) == (None if ends is None else len(ends)), w


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_windowed_piece_count_matches_the_letter_walk_on_the_family(scale, seed):
    presentation, solver = family(scale)
    rng = random.Random(seed)
    words = random_trivial_words(presentation, 12, 4, seed=seed)
    words += turns_and_wraps(presentation, rng)
    changed = changed_near_segment_ends(solver, [*presentation.relators, *words[:3]], rng)
    assert_piece_count_is_the_letter_walk(solver, words + changed)


@pytest.mark.parametrize("index", range(len(ORACLE_PRESENTATIONS) + len(POWERS)))
def test_windowed_piece_count_matches_the_letter_walk(index):
    presentation = (ORACLE_PRESENTATIONS + POWERS)[index]
    solver = DehnSolver(presentation)
    rng = random.Random(400 + index)
    words = oracle_words(presentation, rng) + turns_and_wraps(presentation, rng)
    words += [r * r for r in presentation.relators]
    assert_piece_count_is_the_letter_walk(solver, words + changed_near_segment_ends(solver, words, rng))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_step_word_is_the_full_cyclic_reduction(setup, seed, monkeypatch):
    # solve cancels only at the seams of each replaced word; verify_steps
    # reduces the whole word, and the two must meet the same words
    presentation, solver = setup
    seen = []
    search = DehnSolver._best_match

    def spy(self, cur):
        seen.append(cur)
        return search(self, cur)

    monkeypatch.setattr(DehnSolver, "_best_match", spy)
    for w in random_trivial_words(presentation, 25, 4, seed=seed):
        seen.clear()
        res = solver.solve(w)
        assert res.trivial and len(seen) == len(res.steps)
        cur = cyclic_reduce(w)[0]
        for step, word in zip(res.steps, seen):
            assert word == cur
            ok, cur = verify_steps(presentation, cur, (step,))
            assert ok
        assert cur == EMPTY


def test_a_dehn_job_reads_its_word_once(setup, monkeypatch):
    # solve, piece_count and verify_steps each reduce the reduced input,
    # and only the first reads its letters; area_bound_check's samples
    # come marked from random_trivial_words, so it reads none of them
    presentation, solver = setup
    seen = []
    kernel = words._cancellations

    def counting(letters):
        seen.append(letters)
        return kernel(letters)

    monkeypatch.setattr(words, "_cancellations", counting)
    rels = presentation.relators
    for w in (rels[0] * rels[1].inverse(), rels[2], Word.of(1, 2) * rels[1] * Word.of(-2, -1)):
        w = Word(free_reduce(w).letters)  # reduced, but nothing has checked this copy
        assert len(w) >= words._NUMPY_CUTOFF
        seen.clear()
        result = solver.solve(w)
        assert solver.piece_count(w) is not None
        assert verify_steps(presentation, w, result.steps) == (True, EMPTY)
        assert sum(letters == w.letters for letters in seen) == 1
    samples = random_trivial_words(presentation, 20, 4, seed=5)
    assert all(len(w) >= words._NUMPY_CUTOFF for w in samples)
    seen.clear()
    area_bound_check(presentation, samples)
    assert seen  # the replays reduce the words they make
    assert not any(letters == w.letters for letters in seen for w in samples)


def test_solver_builds_its_index_once():
    # solving and piece counting read the index built by the constructor
    # and never add to it
    for presentation in (P_SURF, *ORACLE_PRESENTATIONS[:3]):
        solver = DehnSolver(presentation)
        built = copy.deepcopy(vars(solver))
        for w in oracle_words(presentation, random.Random(300)):
            solver.piece_count(w)
            solver.solve(w)
        assert vars(solver) == built


def test_words_of_about_half_a_relator_are_matched_as_the_search_does():
    # every slice of ell // 2 or ell // 2 + 1 letters of an oriented
    # relator: the shorter never counts as a match, the longer always does
    for presentation in (P_SURF, *ORACLE_PRESENTATIONS):
        solver = DehnSolver(presentation)
        for r in presentation.relators:
            ell = len(r)
            for d in (r.letters * 2, r.inverse().letters * 2):
                for off in range(ell):
                    for k in (ell // 2, ell // 2 + 1):
                        w = Word(d[off : off + k])
                        best = solver._best_match(w)
                        assert (best is None) == (k == ell // 2)
                        assert best == brute_best_match(presentation, w)


def test_reader_gives_capped_matches_and_their_least_occurrence():
    # texts that need not be small cancellation, read against every
    # subword of every doubled text and its least (relator, orientation,
    # offset)
    rng = random.Random(41)
    for _ in range(400):
        texts = []
        for j in range(rng.randint(1, 3)):
            r = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 6)))
            texts += [(j, 0, r * 2), (j, 1, tuple(-x for x in reversed(r)) * 2)]
        least = {}
        for j, s, d in texts:
            for off in range(len(d)):
                for end in range(off + 1, len(d) + 1):
                    least.setdefault(d[off:end], (j, s, off))
        index = _index(texts)
        letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 14)))
        count = rng.randint(0, len(letters))
        cap = rng.randint(1, 8)
        lengths, states = _read(index, letters, count, cap)
        for p in range(count):
            k = 0
            while k < min(cap, len(letters) - p) and letters[p : p + k + 1] in least:
                k += 1
            assert lengths[p] == k
            if k:
                assert index[3][states[p]] == least[letters[p : p + k]]
