import itertools
import random
import time

import pytest

from hnnembed.parsing import ParseError, parse_word
from hnnembed.words import (
    EMPTY,
    Alphabet,
    Word,
    contains_all_reduced_digrams,
    cyclic_reduce,
    cyclically_equal,
    digrams,
    eulerian_digram_word,
    exponent,
    free_reduce,
    is_cyclically_reduced,
    is_reduced,
    letter_key,
    literal_period,
    random_reduced_word,
    signed_letters,
)

from helpers import random_cyclically_reduced_word


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
    assert sorted([3, -1, 2, 1, -2, -3], key=letter_key) == [1, -1, 2, -2, 3, -3]
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
    and where the text search runs: words of five letters or more whose
    rotations mostly share the first letter reach the search."""
    for u, v in cyclic_cases(letters, max_len, seed):
        assert cyclically_equal(u, v) == cyclic_oracle(u, v), (u, v)


def test_digrams():
    w = Word.of(1, 1, -2, 1)
    assert digrams(w) == {(1, 1), (1, -2), (-2, 1)}
    assert digrams(Word.of(1)) == set()
    assert not contains_all_reduced_digrams(w, signed_letters(2))


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
