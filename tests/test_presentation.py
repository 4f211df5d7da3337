import random
import time

import numpy as np
import pytest

from hnnembed import suffixes
from hnnembed.presentation import (
    best_piece_decomposition,
    check_cp,
    check_cprime,
    cp_from_stats,
    piece_stats,
)
from hnnembed.suffixes import lcp_array, match_table, suffix_array
from hnnembed.words import Word, exponent

from helpers import (
    all_starts_piece_decomposition,
    letter_match_table,
    min_piece_decomposition,
    presentation_from_strings,
    random_cyclically_reduced_word,
)


# Quadratic oracle: every occurrence pair compared letter by letter on
# doubled words, with the same appearance-class and cap rules.

def brute_table(words, include_inverses=True):
    periods = [len(w) // exponent(Word(w)) for w in words]
    occs = []
    orients = (1, -1) if include_inverses else (1,)
    for j, w in enumerate(words):
        for o in orients:
            lw = w if o == 1 else tuple(-x for x in reversed(w))
            for off in range(len(lw)):
                occs.append(((j, o, off % periods[j]), lw + lw, off, len(lw), j, o, off))
    per_off = [[0] * len(w) for w in words]
    per_max = [0] * len(words)
    for ka, da, offa, la, ja, oa, rawa in occs:
        for kb, db, offb, lb, jb, _ob, _rawb in occs:
            if ka == kb:
                continue
            cap = min(la, lb)
            matched = 0
            while matched < cap and da[offa + matched] == db[offb + matched]:
                matched += 1
            if oa == 1 and matched > per_off[ja][rawa]:
                per_off[ja][rawa] = matched
            if matched > per_max[ja]:
                per_max[ja] = matched
    return [tuple(r) for r in per_off], per_max


def dp_min_decomposition(row):
    n = len(row)
    if any(v == 0 for v in row):
        return None
    best = None
    for start in range(n):
        inf = 10**9
        dp = [inf] * (n + 1)
        dp[n] = 0
        for i in range(n - 1, -1, -1):
            limit = min(row[(start + i) % n], n - i)
            for j in range(1, limit + 1):
                if 1 + dp[i + j] < dp[i]:
                    dp[i] = 1 + dp[i + j]
        if best is None or dp[0] < best:
            best = dp[0]
    return best


def wordlists(*strs):
    # "1 2 -1" style shorthand for raw letter tuples
    return [tuple(int(t) for t in s.split()) for s in strs]


def test_presentation_validation():
    p = presentation_from_strings("a b c", ["b c a b c b c"])
    assert p.alphabet.size == 3 and str(p) == "< a b c | b c a b c b c >"
    assert p.relator_names == ("r1",)
    with pytest.raises(ValueError):
        presentation_from_strings("a b", ["a b a'"])  # not cyclically reduced
    with pytest.raises(ValueError):
        presentation_from_strings("a b", [""])
    with pytest.raises(ValueError):
        presentation_from_strings("a b", ["a b", "b a"], names=["r", "r"])


def test_no_piece_cases():
    # A single proper power: rotation-shifted occurrences are one appearance.
    rep = piece_stats([Word.of(1, 2, 1, 2)])
    assert rep.per_offset == ((0, 0, 0, 0),)
    assert rep.max_piece == (0,)
    # One letter against its inverse only.
    rep = piece_stats([Word.of(1)])
    assert rep.max_piece == (0,)
    assert min_piece_decomposition(rep.per_offset[0]) is None


def test_commutator_pieces():
    rep = piece_stats([Word.of(1, 2, -1, -2)])
    assert rep.per_offset == ((1, 1, 1, 1),)
    assert rep.max_piece == (1,)
    assert min_piece_decomposition(rep.per_offset[0]) == 4
    cp = check_cp([Word.of(1, 2, -1, -2)], 4)
    assert cp.holds and cp.min_pieces == (4,)
    cp5 = check_cp([Word.of(1, 2, -1, -2)], 5)
    assert not cp5.holds
    assert check_cprime([Word.of(1, 2, -1, -2)], 1, 3).holds
    assert not check_cprime([Word.of(1, 2, -1, -2)], 1, 4).holds


def test_duplicate_relators_are_pieces():
    rep = piece_stats([Word.of(1, 2), Word.of(1, 2)])
    assert rep.max_piece == (2, 2)
    assert min_piece_decomposition(rep.per_offset[0]) == 1
    assert not check_cp([Word.of(1, 2), Word.of(1, 2)], 2).holds


def test_shared_subword_across_relators():
    # abc inside abcc: the whole first relator is a piece.
    p = presentation_from_strings("a b c", ["a b c", "a b c c"])
    rep = piece_stats(p.relators)
    assert rep.max_piece == (3, 3)
    assert min_piece_decomposition(rep.per_offset[0]) == 1
    assert not check_cp(p.relators, 7).holds


def test_self_overlap_pieces():
    # b c a b c b c: bcbc occurs at offsets 3 and 5.
    p = presentation_from_strings("a b c", ["b c a b c b c"])
    rep = piece_stats(p.relators)
    assert rep.max_piece == (4,)
    assert rep.per_offset[0][3] == 4 and rep.per_offset[0][5] >= 2


def test_maximal_occurrences():
    rep = piece_stats([Word.of(1, 2, -1, -2)])
    occ = rep.maximal_occurrences()[0]
    assert occ == ((0, 1), (1, 1), (2, 1), (3, 1))


def test_precondition_errors():
    w = [Word.of(1, 2)]
    with pytest.raises(ValueError):
        check_cp(w, 1)
    with pytest.raises(ValueError):
        check_cprime(w, 1, 1)
    with pytest.raises(ValueError):
        check_cprime(w, 2, 1)
    with pytest.raises(ValueError):
        piece_stats([])


def each_front(monkeypatch):
    """Yield the name of each front end of the piece scan, with its size
    cutoff moved so that every family takes that front end."""
    for front, cutoff in (("python", 1 << 62), ("numpy", 0)):
        monkeypatch.setattr(suffixes, "_NUMPY_CUTOFF", cutoff)
        yield front


def test_match_table_vs_oracle_random(monkeypatch):
    rng = random.Random(201)
    for trial in range(250):
        nwords = rng.randrange(1, 4)
        words = [
            random_cyclically_reduced_word(rng, rng.randrange(1, 4), rng.randrange(1, 9)).letters
            for _ in range(nwords)
        ]
        inv = rng.random() < 0.7
        want_off, want_max = brute_table(words, include_inverses=inv)
        for front in each_front(monkeypatch):
            got = match_table(words, include_inverses=inv)
            assert list(got.per_offset) == want_off, (words, inv, front)
            assert list(got.max_piece) == want_max, (words, inv, front)


def test_match_table_handles_unreduced_words():
    # Quotient boundaries keep backtracks; the scan is literal.
    words = wordlists("-1 1 2 2 1", "2 2 1 1")
    got = match_table(words)
    want_off, want_max = brute_table(words)
    assert list(got.per_offset) == want_off
    assert list(got.max_piece) == want_max


def _run_heavy_family(rng):
    """1-4 words over 1-3 generators, each one of: long runs, a proper
    power, a copy or the inverse of an earlier word, a random word; words
    are not reduced."""
    words = []
    for _ in range(rng.randrange(1, 5)):
        rank = rng.randrange(1, 4)
        pick = rng.random()
        if pick < 0.3:
            w = []
            for _ in range(rng.randrange(1, 6)):
                w += [rng.choice([-1, 1]) * rng.randrange(1, rank + 1)] * rng.randrange(1, 9)
        elif pick < 0.5:
            root = [rng.choice([-1, 1]) * rng.randrange(1, rank + 1) for _ in range(rng.randrange(1, 4))]
            w = root * rng.randrange(1, 5)
        elif pick < 0.65 and words:
            w = list(rng.choice(words))
            if rng.random() < 0.5:
                w = [-x for x in reversed(w)]
        else:
            w = [rng.choice([-1, 1]) * rng.randrange(1, rank + 1) for _ in range(rng.randrange(1, 12))]
        words.append(tuple(w))
    return words


def test_match_table_equals_letter_scan_on_run_heavy_families(monkeypatch):
    rng = random.Random(206)
    for trial in range(400):
        words = _run_heavy_family(rng)
        for inv in (True, False):
            want = letter_match_table(words, inv)
            for front in each_front(monkeypatch):
                assert match_table(words, inv) == want, (words, inv, front)


def test_match_table_vs_brute_on_run_heavy_families(monkeypatch):
    rng = random.Random(207)
    for trial in range(150):
        words = _run_heavy_family(rng)
        inv = rng.random() < 0.7
        want_off, want_max = brute_table(words, include_inverses=inv)
        for front in each_front(monkeypatch):
            got = match_table(words, include_inverses=inv)
            assert list(got.per_offset) == want_off, (words, inv, front)
            assert list(got.max_piece) == want_max, (words, inv, front)


@pytest.mark.parametrize(
    "words",
    [
        ["1 1 1 1 1 1"],  # a^6: one appearance class
        ["1 1 1", "1 1 1 1 1"],  # powers of one letter, different lengths
        ["1 1 2 1 1 2 1 1 2"],  # (a a b)^3
        ["1 1 2 1 1 2 1 1 2", "1 1 2"],
        ["1", "1"],  # equal single-letter words
        ["1", "-1"],  # mutually inverse single-letter words
        ["1 1 2 2 2", "-2 -2 -2 -1 -1"],  # mutually inverse run words
        ["1 1 2 1"],  # the run of a crosses the seam of the doubled word
        ["2 2 2 1 -2 -2 -2 -2 -2", "1 -1 1 1"],  # unreduced
        ["3 3 3 3 -1 -1 2 2 2 2 2 2", "3 3 -1 -1 2 2 2", "2 2 2 2 2 3"],
    ],
)
def test_match_table_pinned_run_families(words):
    words = wordlists(*words)
    want_off, want_max = brute_table(words)
    for inv in (True, False):
        got = match_table(words, include_inverses=inv)
        assert got == letter_match_table(words, include_inverses=inv)
    got = match_table(words)
    assert (list(got.per_offset), list(got.max_piece)) == (want_off, want_max)


def _inverse(w):
    return tuple(-x for x in reversed(w))


# Families where a match runs past a whole word, so that word's length caps
# it, and families where the scan keeps one position per appearance class.
CAP_FAMILIES = {
    "powers of one word": [(1, 1, 2) * k for k in (1, 2, 3, 5)] + [(1, 2, -1) * 2],
    "powers at coprime lengths": [(1, 2) * 3, (1, 2) * 2, (2, 1) * 5, (1, 2, 1, 2, 2)],
    "a^k": [(1,) * k for k in range(1, 13)],
    "a^k b": [(1,) * k + (2,) for k in range(1, 16)],
    "a^k b, falling": [(1,) * k + (2,) for k in range(15, 0, -1)] + [(2, 2, 1)],
    "a^k among runs": [(1,) * k for k in (3, 7, 8)] + [(1, 1, 1, 2, 1, 1, -2), (2, 1, 1, 1, 1)],
    "equal and inverse": [(1, 1, 2, -1, 2, 2)] * 2 + [_inverse((1, 1, 2, -1, 2, 2))] * 2,
    "inverse runs": [(1, 1, 2, 2, 2), (-2, -2, -2, -1, -1), (1, 1, 2, 2, 2, 1)],
    "seam runs": [(1, 1, 2, 1, 1, 1), (2, 1, 2, 2), (1, 2, 2, 1, 1, 2, 2, 1), (1, 2, 1)],
    "seam power": [(1, 1, 2, 1) * 3, (1, 2, 1, 1) * 2, (1, 1, 1, 2, 1, 1)],
}


@pytest.mark.parametrize("family", sorted(CAP_FAMILIES))
def test_match_table_on_binding_caps_and_periodic_families(family):
    words = CAP_FAMILIES[family]
    for inv in (True, False):
        got = match_table(words, include_inverses=inv)
        assert got == letter_match_table(words, include_inverses=inv)
        want_off, want_max = brute_table(words, include_inverses=inv)
        assert (list(got.per_offset), list(got.max_piece)) == (want_off, want_max)


def _power_rich_family(rng):
    """1-12 words, most of them powers of a, a' or b, the rest runs of
    a, a', b and b'; words are not reduced."""
    words = []
    for _ in range(rng.randint(1, 12)):
        if rng.random() < 0.7:
            words.append((rng.choice([1, -1, 2]),) * rng.randint(1, 9))
        else:
            w = []
            for _ in range(rng.randint(1, 4)):
                w += [rng.choice([1, -1, 2, -2])] * rng.randint(1, 9)
            words.append(tuple(w))
    return words


def test_match_table_equals_letter_scan_on_power_rich_families(monkeypatch):
    """A power's best partner is read off the largest and second largest
    power caps of its letter, inverse powers included."""
    rng = random.Random(212)
    for trial in range(500):
        words = _power_rich_family(rng)
        for inv in (True, False):
            want = letter_match_table(words, inv)
            for front in each_front(monkeypatch):
                assert match_table(words, inv) == want, (words, inv, front)


def test_match_table_on_many_one_letter_powers_is_fast():
    """16,000 powers of a, a' and b: a pass over every power of a letter
    for each power took about 20 s."""
    rng = random.Random(213)
    words = [(rng.choice([1, -1, 2]),) * rng.randint(1, 40) for _ in range(16000)]
    start = time.perf_counter()
    got = match_table(words)
    assert time.perf_counter() - start < 2
    assert got.per_offset == tuple((len(w),) * len(w) for w in words)


def test_match_table_on_a_long_cap_binding_family_is_fast():
    """About 188k letters where whole words recur inside longer ones: eight
    powers of one word, three powers of a^k b and one long run.  The budget
    guards against a sweep whose work grows with the square of a letter's
    runs or levels."""
    words = (
        [(1, 1, 1, 2, 1, 2) * k for k in range(1000, 1008)]
        + [((1,) * k + (2,)) * 512 for k in (63, 64, 65)]
        + [(1,) * 40000 + (2,)]
    )
    start = time.perf_counter()
    got = match_table(words)
    assert time.perf_counter() - start < 10
    assert got.max_piece == (
        6000, 6006, 6012, 6018, 6024, 6030, 6036, 6036, 127, 129, 131, 39999
    )


def test_suffix_array_and_pair_lcp_against_sorting():
    rng = random.Random(208)
    for trial in range(200):
        # repetitive texts over 1-3 symbols, closed by a unique last symbol
        text = [rng.randrange(1, rng.randrange(2, 5)) for _ in range(rng.randrange(0, 40))] + [9]
        pairs = [rng.sample(range(len(text)), 2) for _ in range(10)] if len(text) > 1 else []
        u = np.array([a for a, _ in pairs], dtype=np.int64)
        v = np.array([b for _, b in pairs], dtype=np.int64)
        # the same text over symbols of 2**31 and more, whose combined keys
        # would wrap around 2**64 out of order
        for scale in (1, 3**25):
            sa, history = suffix_array(np.array(text, dtype=np.int64) * scale)
            assert sa.tolist() == sorted(range(len(text)), key=lambda i: text[i:])
            got = lcp_array(history, u, v)
            for (a, b), t in zip(pairs, got.tolist()):
                want = 0
                while text[a + want] == text[b + want]:
                    want += 1
                assert t == want, (text, a, b, scale)


def test_match_table_on_letters_beyond_two_to_the_31():
    """Letters near 2**40 give token ids far above 2**31, which the suffix
    array ranks densely; the match lengths depend only on which letters are
    equal, so they are those of the small letters."""
    rng = random.Random(209)
    for trial in range(60):
        words = _run_heavy_family(rng)
        wide = [tuple(x * 2**40 + (1 if x > 0 else -1) for x in w) for w in words]
        for inv in (True, False):
            got = match_table(wide, inv)
            assert got == letter_match_table(wide, inv), (words, inv)
            assert got == match_table(words, inv), (words, inv)


def test_match_table_entries_are_python_ints(monkeypatch):
    families = [
        [(1,) * 7, (1,) * 3, (-1,) * 5],  # powers of one letter
        [(1, 1, 2, 1), (2, 1, 1, 2, 1, 1), (1, 2, 1, 2)],  # rotated before the scan
        *CAP_FAMILIES.values(),
        *(_run_heavy_family(random.Random(seed)) for seed in range(20)),
    ]
    for front in each_front(monkeypatch):
        for words in families:
            for inv in (True, False):
                got = match_table(words, inv)
                entries = [x for row in got.per_offset for x in row] + list(got.max_piece)
                assert {type(x) for x in entries} == {int}, (words, inv, front)


def _straddling_family(rng):
    """1-6 words over 1-4 generators, from a few letters to about 70 in
    all, so that the scan's text falls on either side of the front-end
    cutoff.  Each word is a one-letter power, a proper power, a copy or the
    inverse of an earlier word, a word that begins and ends with one
    letter, or a random word; words are not reduced."""
    rank = rng.randint(1, 4)

    def letter():
        return rng.choice([-1, 1]) * rng.randint(1, rank)

    words = []
    for _ in range(rng.randint(1, 6)):
        pick = rng.random()
        if pick < 0.15:
            w = (letter(),) * rng.randint(1, 14)
        elif pick < 0.3:
            w = tuple(letter() for _ in range(rng.randint(1, 4))) * rng.randint(2, 5)
        elif pick < 0.45 and words:
            w = rng.choice(words)
            if rng.random() < 0.5:
                w = _inverse(w)
        elif pick < 0.6:
            x = letter()
            w = (x, *(letter() for _ in range(rng.randint(0, 12))), x)
        else:
            w = tuple(letter() for _ in range(rng.randint(1, 16)))
        words.append(w)
    return words


def test_front_ends_agree_on_families_straddling_the_cutoff(monkeypatch):
    """The Python and numpy front ends give equal reports, also on letters
    near 2**31, 2**62 and 2**63 - 1 and past 2**64, whose match lengths are
    those of the small letters.  Three cases in every ten, one at each
    shift below 2**63, where the letter scan's int64 text holds them, are
    checked against the letter scan.  The numpy front end relabels the
    letters that int64, its sentinels or its token ids cannot hold, and
    only those: never the unshifted or 2**31-shifted ones, and never a
    family it has relabelled."""
    cutoff = suffixes._NUMPY_CUTOFF
    rng = random.Random(215)
    sides = set()
    relabelled = []
    relabel = suffixes._relabelled

    def spy(words, *rest):
        relabelled.append(max(max(map(abs, w)) for w in words))
        return relabel(words, *rest)

    monkeypatch.setattr(suffixes, "_relabelled", spy)
    for trial in range(400):
        words = _straddling_family(rng)
        sides.add(sum(2 * len(w) + 1 for w in words) < cutoff)
        scale = (0, 2**31, 2**62, 2**63 - 5, 2**64)[trial % 5]
        wide = [tuple(x + scale if x > 0 else x - scale for x in w) for w in words]
        before = len(relabelled)
        for inv in (True, False):
            got = {front: match_table(wide, inv) for front in each_front(monkeypatch)}
            assert got["python"] == got["numpy"], (wide, inv)
            if scale:
                assert got["python"] == match_table(words, inv), (wide, inv)
            if trial % 10 < 3:
                assert got["python"] == letter_match_table(wide, inv), (wide, inv)
        if scale < 2**62:
            assert len(relabelled) == before, wide
    assert sides == {True, False}
    assert min(relabelled) > 2**62 and 2**63 - 1 in relabelled and max(relabelled) > 2**64


def test_match_table_under_the_cutoff_is_fast():
    """The Python front end's worst families just under its cutoff: copies
    of one word, whose runs agree with their copies' up to the sentinels,
    (a b)^k, and a one-letter power beside copies of its letter.  A
    neighbour comparison is a few slice comparisons, so 200 scans of each
    take well under the budget."""
    cutoff = suffixes._NUMPY_CUTOFF
    word = (1, 2, 1, 1, 2, -1, 1, 2, 2, 1)
    families = [
        [word] * ((cutoff - 1) // (2 * len(word) + 1)),
        [(1, 2) * ((cutoff - 2) // 4)],
        [(1,) * ((cutoff - 16) // 2), (1,), (1,), (1,), (1, 2)],
    ]
    for words in families:
        text = sum(2 * len(w) + 1 for w in words)
        assert cutoff - 2 * len(word) - 1 <= text < cutoff, words
        start = time.perf_counter()
        for _ in range(200):
            got = match_table(words)
        assert time.perf_counter() - start < 2, words
        assert got == letter_match_table(words)


def test_match_table_run_at_the_seam():
    got = match_table([(2, 2, 2, 1, -2, -2, -2, -2, -2)])
    assert got.per_offset == ((3, 2, 1, 0, 4, 4, 6, 5, 4),)
    assert got.max_piece == (6,)


def test_greedy_matches_dp_random():
    rng = random.Random(202)
    for trial in range(250):
        nwords = rng.randrange(1, 4)
        words = [
            random_cyclically_reduced_word(rng, rng.randrange(1, 4), rng.randrange(1, 11)).letters
            for _ in range(nwords)
        ]
        rep = piece_stats([Word(w) for w in words])
        for row in rep.per_offset:
            greedy = min_piece_decomposition(row)
            assert greedy == dp_min_decomposition(row), (words, row)


def _closed_row(rng, n):
    """A row of n entries from 0 to n, closed under subwords like a scan's:
    row[o + 1] >= row[o] - 1 around the word."""
    row = [0 if rng.random() < 0.05 else rng.randint(1, n) for _ in range(n)]
    for _ in range(2):  # once around settles all but the wrap, twice settles it
        for o in range(n):
            row[(o + 1) % n] = max(row[(o + 1) % n], row[o] - 1)
    return tuple(row)


def test_decomposition_from_a_shortest_piece_vs_every_start():
    """Trying only the starts after a shortest piece gives the fewest
    pieces that greedy from every start and the DP give, on the rows of
    seeded run-heavy scans and on synthetic rows closed under subwords."""
    rng = random.Random(210)
    rows = [row for _ in range(400) for row in match_table(_run_heavy_family(rng)).per_offset]
    rows += [_closed_row(rng, rng.randint(1, 14)) for _ in range(3000)]
    assert {best_piece_decomposition(row) is None for row in rows} == {True, False}
    for row in rows:
        assert best_piece_decomposition(row) == all_starts_piece_decomposition(row), row
        if len(row) <= 14:
            assert best_piece_decomposition(row) == dp_min_decomposition(row), row


def test_decomposition_of_long_relators_is_fast():
    """Two seeded 20,000-letter relators over 3 generators: greedy from
    every start took about 13 s, from the starts after a shortest piece
    a few ms."""
    rng = random.Random(211)
    rep = piece_stats([random_cyclically_reduced_word(rng, 3, 20000) for _ in range(2)])
    start = time.perf_counter()
    cp = cp_from_stats(rep, 7)
    assert time.perf_counter() - start < 2
    assert cp.min_pieces == (2976, 2950)


def test_cprime_implies_cp():
    rng = random.Random(204)
    checked = 0
    for trial in range(400):
        words = [
            random_cyclically_reduced_word(rng, 3, rng.randrange(1, 11))
            for _ in range(rng.randrange(1, 4))
        ]
        if check_cprime(words, 1, 7).holds:
            checked += 1
            assert check_cp(words, 7).holds, words
    assert checked > 10  # the implication was actually exercised


def test_piece_subword_closure():
    # If a piece of length L starts at offset o, pieces of every shorter
    # length start there too, and a piece of length >= L-1 starts at o+1.
    # Each word's longest piece is its row's maximum, with and without
    # inverses, so ``pieces`` reads ``max_piece`` instead of the rows.
    rng = random.Random(205)
    for trial in range(150):
        words = [
            random_cyclically_reduced_word(rng, 2, rng.randrange(1, 9))
            for _ in range(rng.randrange(1, 3))
        ]
        for include in (True, False):
            rep = piece_stats(words, include_inverses=include)
            assert rep.max_piece == tuple(map(max, rep.per_offset)), (words, include)
        rep = piece_stats(words)
        for row in rep.per_offset:
            n = len(row)
            for o in range(n):
                assert row[(o + 1) % n] >= row[o] - 1, (words, row)


def test_worst_ratio():
    rep = check_cprime([Word.of(1, 2, -1, -2), Word.of(1, 2), Word.of(1, 2)], 1, 2)
    # relators 1 and 2 are one piece each, the worst ratio 2/2
    assert (rep.max_piece, rep.lengths) == ((2, 2, 2), (4, 2, 2))
    assert not rep.holds
