import collections
import copy
import itertools
import pickle
import random
import time

import pytest

from hnnembed.parsing import ParseError, parse_word
from hnnembed.words import (
    _NUMPY_CUTOFF,
    EMPTY,
    Alphabet,
    Word,
    contains_all_reduced_digrams,
    cyclic_join,
    cyclic_reduce,
    cyclically_equal,
    eulerian_digram_word,
    exponent,
    free_reduce,
    is_cyclically_reduced,
    is_reduced,
    least_rotation,
    least_rotation_start,
    literal_period,
    random_reduced_word,
    relabel,
    signed_letters,
)

from helpers import digrams, random_cyclically_reduced_word, stack_free_reduce


# Oracles.  Each recomputes the target property by a different route than
# the implementation so the two can check each other.

def reduce_oracle(w: Word) -> Word:
    # Repeated single-pass deletion instead of the stack scan.
    ls = list(w.letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(ls) - 1):
            if ls[i] == -ls[i + 1]:
                del ls[i : i + 2]
                changed = True
                break
    return Word(tuple(ls))


def exponent_oracle(w: Word) -> int:
    # Number of rotations literally equal to w equals the maximal power.
    ls = w.letters
    n = len(ls)
    return sum(1 for r in range(n) if ls[r:] + ls[:r] == ls)


def period_oracle(letters: tuple[int, ...]) -> int:
    # Every d from 1 to n, in order: the first divisor that is a period.
    n = len(letters)
    return next(d for d in range(1, n + 1) if n % d == 0 and letters[d:] == letters[: n - d])


def test_letter_order():
    assert signed_letters(3) == (1, -1, 2, -2, 3, -3)
    assert signed_letters(2) == (1, -1, 2, -2)


def test_word_basics():
    w = Word.of(1, -2, 1)
    assert len(w) == 3 and list(w) == [1, -2, 1]
    assert w.inverse() == Word.of(-1, 2, -1)
    assert (w * w.inverse()) == Word.of(1, -2, 1, -1, 2, -1)
    assert w[1] == -2 and w[1:] == Word.of(-2, 1)
    assert w * w == Word.of(1, -2, 1, 1, -2, 1)
    assert EMPTY.max_letter() == 0 and w.max_letter() == 2
    with pytest.raises(ValueError):
        Word.of(0)


@pytest.mark.parametrize("bad", [0, 1.5, "a"])
@pytest.mark.parametrize("make", [lambda *ls: Word(ls), Word.of], ids=["Word", "Word.of"])
def test_public_constructors_check_every_letter(make, bad):
    with pytest.raises(ValueError, match="bad letter"):
        make(1, bad, -2)


def test_relabel():
    table = {1: 2, -1: -2, 3: -1, -3: 1}
    assert relabel(Word.of(1, -1, 3, -3), table) == Word.of(2, -2, -1, 1)
    # letters the table leaves out are dropped, backtracks kept
    assert relabel(Word.of(2, 1, -2, -2, 3, 2), table) == Word.of(2, -1)
    assert relabel(Word.of(2, -2), table) == EMPTY
    assert relabel(EMPTY, table) == EMPTY
    assert relabel(EMPTY, {}) == EMPTY


def test_alphabet_roundtrip():
    ab = Alphabet.of("a", "b", "c")
    assert ab.size == 3
    assert ab.letter("b'") == -2 and ab.letter("c") == 3
    assert ab.symbol(-1) == "a'"
    w = parse_word(ab, "a b' c c")
    assert w == Word.of(1, -2, 3, 3)
    assert ab.word_str(w) == "a b' c c"
    assert parse_word(ab, "1") == EMPTY and ab.word_str(EMPTY) == "1"
    with pytest.raises(KeyError):
        ab.letter("d")
    with pytest.raises(ParseError, match="unknown generator 'd'"):
        parse_word(ab, "d")
    with pytest.raises(ValueError):
        Alphabet.of("a", "a")
    with pytest.raises(ValueError):
        Alphabet.of("2x")


def test_symbol_outside_the_alphabet_raises():
    ab = Alphabet.of("a", "b", "c")
    # 0 must not wrap round to names[-1]
    for letter in (0, 4, -4):
        with pytest.raises(KeyError):
            ab.symbol(letter)
    with pytest.raises(KeyError):
        ab.word_str(Word.of(1, 4))
    with pytest.raises(KeyError):
        Alphabet(()).symbol(1)


def test_free_reduce_known():
    assert free_reduce(Word.of(1, -1)) == EMPTY
    assert free_reduce(Word.of(1, 2, -2, -1)) == EMPTY
    assert free_reduce(Word.of(1, 2, -2, 3)) == Word.of(1, 3)
    assert free_reduce(Word.of(2, -1, 1, -2, 3)) == Word.of(3)


def test_free_reduce_random_vs_oracle():
    rng = random.Random(101)
    for _ in range(300):
        w = Word(tuple(rng.choice(signed_letters(3)) for _ in range(rng.randrange(0, 30))))
        got = free_reduce(w)
        assert got == reduce_oracle(w)
        assert is_reduced(got)
        # Reduction of w * w^-1 must vanish.
        assert free_reduce(w * w.inverse()) == EMPTY


def kernel_cases(seed: int):
    """Words of 0 to 4x the numpy cutoff over 1-3 generators: uniform ones,
    which cancel often, and reduced ones with a cancellation put first,
    last, in the middle, or as a cascade u u^-1 that empties the letters
    copied before the first cut and runs on into what follows; plus
    letters at and past the edges of 32 and 64 bits."""
    rng = random.Random(seed)
    for _ in range(300):
        lets = signed_letters(rng.randint(1, 3))
        n = rng.randint(0, 4 * _NUMPY_CUTOFF)
        yield Word(tuple(rng.choice(lets) for _ in range(n)))
        if n < 2:
            continue
        rank = max(2, len(lets) // 2)
        w = random_reduced_word(rng, rank, n).letters
        u = random_reduced_word(rng, rank, rng.randint(1, n)).letters
        v = random_reduced_word(rng, rank, rng.randint(0, n)).letters
        yield Word(w)
        yield Word((-w[0],) + w)
        yield Word(w + (-w[-1],))
        yield Word(w[: n // 2] + (rank + 1, -rank - 1) + w[n // 2 :])
        yield Word(u + tuple(-x for x in reversed(u)) + v)
        yield Word(u + tuple(-x for x in reversed(u)) + w + (-w[-1],))
    edge = (2**31 - 1, -(2**31), 2**31, 2**63, -(2**63))
    for x in edge:
        for y in edge:
            yield Word((x, y) * _NUMPY_CUTOFF)
            yield Word((x, -x) + (y, 1) * _NUMPY_CUTOFF)


def test_free_reduce_and_is_reduced_vs_the_stack_loop():
    # long unreduced words must occur whose first cut, where free_reduce's
    # stack starts, is at index 0, in the middle, at the last pair, and at
    # the start of a cascade u u^-1 that pops the letters before it
    firsts = collections.Counter()
    for w in kernel_cases(97):
        reduced = stack_free_reduce(w)
        assert free_reduce(w) == reduced
        assert is_reduced(w) == (reduced == w)
        if len(w) < _NUMPY_CUTOFF:
            continue
        if reduced == w:
            assert free_reduce(w) is w  # a reduced long word is not copied
            continue
        ls = w.letters
        c = next(i for i, (x, y) in enumerate(zip(ls, ls[1:])) if y == -x)
        if c == 0:
            firsts["first"] += 1
        elif c == len(ls) - 2:
            firsts["last"] += 1
        elif ls[c - 1] == -ls[c + 2]:
            firsts["cascade"] += 1
        else:
            firsts["middle"] += 1
    assert min(firsts[k] for k in ("first", "middle", "last", "cascade")) > 100, firsts


def mark_cases(seed: int):
    """Words of 96 to 400 letters over 2-3 generators: reduced ones, ones
    that cancel every few letters, ones with one cancelling pair, and
    reduced and unreduced ones between conjugator ends g ... g^-1, whose
    ends cancel."""
    rng = random.Random(seed)
    for _ in range(40):
        rank = rng.randint(2, 3)
        n = rng.randint(_NUMPY_CUTOFF, 390)
        w = random_reduced_word(rng, rank, n).letters
        g = random_reduced_word(rng, rank, rng.randint(1, 5)).letters
        ginv = tuple(-x for x in reversed(g))
        i = rng.randrange(1, n)
        cut = w[:i] + (-w[i - 1],) + w[i:]
        yield w
        yield tuple(rng.choice(signed_letters(rank)) for _ in range(n))
        yield cut
        yield g + w + ginv
        yield g + cut + ginv


def cyclic_reduce_oracle(letters: tuple[int, ...]) -> tuple[Word, Word]:
    # the stack loop, then one end pair stripped at a time
    ls = list(stack_free_reduce(Word(letters)).letters)
    conj = []
    while len(ls) > 1 and ls[0] == -ls[-1]:
        conj.append(ls.pop(0))
        ls.pop()
    return Word(tuple(ls)), Word(tuple(conj))


REDUCERS = {"free": free_reduce, "is": is_reduced, "cyclic": cyclic_reduce}


def test_the_reduced_mark_never_changes_an_answer():
    # every order of the three calls, each order run twice so that the
    # second round meets whatever marks the first one set; the results
    # they build are checked the same way
    kinds = set()
    for letters in mark_cases(211):
        reduced = stack_free_reduce(Word(letters))
        want = {
            "free": reduced,
            "is": reduced.letters == letters,
            "cyclic": cyclic_reduce_oracle(letters),
        }
        kinds.add((want["is"], len(reduced) < len(letters) - 2))
        for order in itertools.permutations(REDUCERS):
            w = Word(letters)
            for name in order + order:
                assert REDUCERS[name](w) == want[name], (name, order, letters)
            assert w._reduced == want["is"]
            assert is_cyclically_reduced(w) == (want["is"] and want["cyclic"][1] == EMPTY)
            for built in (free_reduce(w), *cyclic_reduce(w)):
                assert built._reduced == (len(built) >= _NUMPY_CUTOFF)
                for name in order:
                    expect = {"free": built, "is": True, "cyclic": cyclic_reduce_oracle(built.letters)}
                    assert REDUCERS[name](built) == expect[name], (name, order, letters)
    assert kinds == {(True, False), (False, False), (False, True)}


def test_a_word_with_a_cancelling_pair_is_never_reported_reduced():
    # the pair at every place of a long reduced word, before and after the
    # word and its neighbours have been through every reducer
    rng = random.Random(212)
    w = random_reduced_word(rng, 2, 2 * _NUMPY_CUTOFF).letters
    for i in range(len(w) + 1):
        x = 3 if i % 2 else -3
        bad = Word(w[:i] + (x, -x) + w[i:])
        for _ in range(2):
            assert not is_reduced(bad) and not bad._reduced
            assert free_reduce(bad) == Word(w) and not bad._reduced
            assert cyclic_reduce(bad) == cyclic_reduce_oracle(bad.letters)
            assert not is_reduced(bad) and not is_cyclically_reduced(bad)


def test_short_words_are_never_marked():
    # below the cutoff every call reads the letters and sets nothing
    rng = random.Random(213)
    for n in range(_NUMPY_CUTOFF):
        w = random_reduced_word(rng, 2, n)
        assert is_reduced(w) and free_reduce(w) == w
        core, conj = cyclic_reduce(Word((3,) + w.letters + (-3,)))
        assert not (w._reduced or free_reduce(w)._reduced or core._reduced or conj._reduced)


def test_the_reduced_mark_is_invisible():
    letters = random_reduced_word(random.Random(214), 2, 3 * _NUMPY_CUTOFF).letters
    marked, plain = Word(letters), Word(letters)
    assert is_reduced(marked) and marked._reduced and not plain._reduced
    assert marked == plain and hash(marked) == hash(plain) and repr(marked) == repr(plain)
    assert len({marked, plain}) == 1
    assert pickle.dumps(marked) == pickle.dumps(plain)
    for twin in (
        copy.copy(marked),
        copy.deepcopy(marked),
        pickle.loads(pickle.dumps(marked)),
        pickle.loads(pickle.dumps(plain)),
    ):
        assert type(twin) is Word and not twin._reduced
        assert twin == marked and hash(twin) == hash(marked) and repr(twin) == repr(marked)
        assert free_reduce(twin) == plain and is_reduced(twin) and twin._reduced
    # a copy of an unreduced word is as unreduced as the word
    bad = Word(letters + (-letters[-1],))
    assert not is_reduced(copy.copy(bad)) and not is_reduced(pickle.loads(pickle.dumps(bad)))


def test_cyclic_reduce_conjugator_identity():
    rng = random.Random(102)
    core0 = Word.of(1, 2)
    conj0 = Word.of(3, -2)
    w = conj0 * core0 * conj0.inverse()
    core, conj = cyclic_reduce(w)
    assert core == core0 and conj == conj0
    for _ in range(200):
        w = Word(tuple(rng.choice(signed_letters(3)) for _ in range(rng.randrange(0, 24))))
        core, conj = cyclic_reduce(w)
        assert is_cyclically_reduced(core)
        assert free_reduce(conj * core * conj.inverse()) == free_reduce(w)


def test_cyclic_join_of_reduced_parts_is_the_cyclic_reduction():
    # the parts share their ends' letters often, so cancellation across
    # the middle seam, across the outer ends, and of a whole part occur
    rng = random.Random(103)
    seams = ends = 0
    for _ in range(2000):
        u = random_reduced_word(rng, 2, rng.randrange(0, 8)).letters
        v = random_reduced_word(rng, 2, rng.randrange(0, 8)).letters
        joined = cyclic_join(u, v)
        assert joined == cyclic_reduce(Word(u + v))[0]
        seams += bool(u and v and u[-1] == -v[0])
        ends += len(joined) < len(free_reduce(Word(u + v)))
    assert seams > 100 and ends > 100


def test_cyclic_reduce_long_stem_is_linear():
    # 40 000-letter stem: peeling it must not re-slice the word per letter
    k = 40_000
    w = Word((1,) * k + (2,) + (-1,) * k)
    start = time.perf_counter()
    core, conj = cyclic_reduce(w)
    assert time.perf_counter() - start < 1
    assert core == Word.of(2) and conj == Word((1,) * k)


def test_exponent_known():
    assert exponent(Word.of(1)) == 1
    assert exponent(Word.of(1, 2, 1, 2)) == 2
    assert exponent(Word.of(1, 2, 3)) == 1
    assert exponent(Word.of(1, 1, 1, 1, 1)) == 5
    # Literal, not up to free equality: a b b a is not a square.
    assert exponent(Word.of(1, 2, 2, 1)) == 1
    with pytest.raises(ValueError):
        exponent(EMPTY)


def test_exponent_random_vs_oracle():
    rng = random.Random(103)
    for _ in range(300):
        base = Word(tuple(rng.choice(signed_letters(2)) for _ in range(rng.randrange(1, 7))))
        k = rng.randrange(1, 5)
        w = Word(base.letters * k)
        assert exponent(w) == exponent_oracle(w)
        assert exponent(w) % k == 0  # k divides the true exponent


def test_literal_period_exhaustive_vs_oracle():
    for n in range(1, 12):
        for letters in itertools.product((1, -1, 2), repeat=n):
            assert literal_period(letters) == period_oracle(letters)


@pytest.mark.parametrize("n", [12, 36, 64, 210])
def test_literal_period_of_powers_vs_oracle(n):
    # lengths with many divisors, so several prime factors are divided out
    rng = random.Random(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for _ in range(200):
        d = rng.choice(divisors)
        u = tuple(rng.choice((1, -1, 2)) for _ in range(d))
        letters = u * (n // d)
        assert literal_period(letters) == period_oracle(letters)
        assert literal_period(letters) <= d


def test_is_proper_power():
    assert exponent(Word.of(1, 2, 1, 2)) > 1
    assert not exponent(Word.of(1, 2)) > 1


def test_rotations_and_cyclic_equality():
    w = Word.of(1, 2, 3)
    for r in (Word.of(1, 2, 3), Word.of(2, 3, 1), Word.of(3, 1, 2)):
        assert cyclically_equal(w, r)
    assert not cyclically_equal(w, Word.of(1, 3, 2))
    assert not cyclically_equal(w, Word.of(1, 2))
    assert cyclically_equal(EMPTY, EMPTY)
    rng = random.Random(104)
    for _ in range(200):
        u = random_reduced_word(rng, 3, rng.randrange(1, 15))
        r = rng.randrange(len(u))
        assert cyclically_equal(u, Word(u.letters[r:] + u.letters[:r]))


def cyclic_oracle(u: Word, v: Word) -> bool:
    """The definition: some rotation of u is v."""
    return len(u) == len(v) and any(
        u.letters[r:] + u.letters[:r] == v.letters for r in range(max(len(u), 1))
    )


# Large letters, and letters whose digits run into one another when
# written side by side: 1 11 reads like 11 1
LETTER_SETS = [
    ((1, 2), 7, 106),
    ((1, -1, 2), 5, 107),
    ((1, 11, -1), 5, 108),
    ((10**6 + 1, -(10**6 + 1)), 7, 109),
    ((10**18, -(10**18) - 1, 3), 5, 110),
]


def cyclic_cases(letters: tuple[int, ...], max_len: int, seed: int):
    """Every pair of words over ``letters`` up to ``max_len``, then seeded
    powers u^k against their rotations and against rotations with one
    letter changed, which agree with u^k on almost every rotation."""
    for n in range(max_len + 1):
        words = [Word(t) for t in itertools.product(letters, repeat=n)]
        yield from itertools.product(words, words)
    rng = random.Random(seed)
    for _ in range(300):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        w = u * rng.randint(1, 60)
        r = rng.randrange(len(w))
        rotated = w[r:] + w[:r]
        i = rng.randrange(len(w))
        changed = rotated[:i] + (rng.choice(letters),) + rotated[i + 1 :]
        for v in (rotated, changed, changed[::-1]):
            yield Word(w), Word(v)


@pytest.mark.parametrize("letters,max_len,seed", LETTER_SETS)
def test_cyclic_equality_vs_oracle(letters, max_len, seed):
    """Exact against the definition, both where slicing finds the rotation
    and where the least rotations are compared: words of five letters or
    more whose rotations mostly share the first letter reach that."""
    for u, v in cyclic_cases(letters, max_len, seed):
        assert cyclically_equal(u, v) == cyclic_oracle(u, v), (u, v)


@pytest.mark.parametrize("letters,max_len,seed", LETTER_SETS)
def test_least_rotation_vs_every_rotation(letters, max_len, seed):
    """The least rotation is the least of all rotations, on every word over
    ``letters`` up to ``max_len`` and on seeded powers with one letter
    changed, and the rotation at the start offset returned is that one."""
    for w in {w for pair in cyclic_cases(letters, max_len, seed) for w in pair}:
        ls = w.letters
        least = min((ls[r:] + ls[:r] for r in range(len(ls))), default=())
        assert least_rotation(w) == least, w
        start = least_rotation_start(ls)
        assert 0 <= start < max(len(ls), 1) and ls[start:] + ls[:start] == least, w


def test_digrams():
    """The coverage scan stops once every reduced digram is seen; its verdict
    equals the whole word's digram set checked against the full set, on
    seeded words that cover it early, late (an Eulerian walk behind a long
    prefix) or not at all (a walk missing one digram)."""
    w = Word.of(1, 1, -2, 1)
    assert digrams(w) == {(1, 1), (1, -2), (-2, 1)}
    assert digrams(Word.of(1)) == set()
    assert not contains_all_reduced_digrams(w, signed_letters(2))
    assert contains_all_reduced_digrams(Word.of(1), ())
    rng = random.Random(2727)
    for rank in (1, 2, 3):
        lets = signed_letters(rank)
        full = {(p, q) for p in lets for q in lets if q != -p}
        walk = eulerian_digram_word(rank) if rank > 1 else Word.of(1, 1, -1, -1)
        words = [random_reduced_word(rng, rank, rng.randint(0, 60)) for _ in range(200)]
        words += [walk, random_reduced_word(rng, rank, 40) * walk, walk[:-1], walk[1:]]
        for w in words:
            assert contains_all_reduced_digrams(w, lets) == (full <= digrams(w)), w


def test_eulerian_digram_word_rank2_frozen():
    # Hand-run of the deterministic circuit for rank 2.
    w = eulerian_digram_word(2)
    assert w.letters == (1, 1, 2, 1, -2, -1, -1, 2, 2, -1, -2, -2, 1)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_eulerian_digram_word_properties(rank):
    w = eulerian_digram_word(rank)
    n2 = 2 * rank
    assert len(w) == n2 * (n2 - 1) + 1
    assert w.letters[0] == 1 and w.letters[-1] == 1
    # Every reduced digram exactly once, nothing else.
    seen = [(w.letters[i], w.letters[i + 1]) for i in range(len(w) - 1)]
    assert len(seen) == len(set(seen))
    assert contains_all_reduced_digrams(w, signed_letters(rank))
    assert is_reduced(w)
    # Cyclic form stays reduced at the wrap.
    cyc = Word(w.letters[:-1])
    assert is_cyclically_reduced(cyc)
    assert eulerian_digram_word(rank) == w  # deterministic


def test_eulerian_digram_word_rank1_rejected():
    with pytest.raises(ValueError):
        eulerian_digram_word(1)


def test_random_word_helpers():
    rng = random.Random(105)
    for _ in range(100):
        w = random_reduced_word(rng, 2, 12)
        assert len(w) == 12 and is_reduced(w)
        c = random_cyclically_reduced_word(rng, 2, 12)
        assert is_cyclically_reduced(c)
    assert random_reduced_word(rng, 2, 0) == EMPTY


def test_reducedness_checks_match_their_definitions():
    # no letter next to its inverse, and for the cyclic form none across
    # the wrap either; every length from 0 to 12, short words exhaustively
    rng = random.Random(163)
    words = [Word(ls) for n in range(4) for ls in itertools.product((1, -1, 2, -2), repeat=n)]
    words += [
        Word(tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(n)))
        for n in range(13)
        for _ in range(200)
    ]
    for w in words:
        ls = w.letters
        reduced = not any(ls[i] + ls[i + 1] == 0 for i in range(len(ls) - 1))
        assert is_reduced(w) == reduced
        assert is_cyclically_reduced(w) == (reduced and not (len(ls) > 1 and ls[0] == -ls[-1]))
