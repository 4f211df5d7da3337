import collections
import random
import time

import pytest

from hnnembed.hnn import PartialAscendingHNN
from hnnembed.parsing import (
    ParseError,
    _chunk_tokens,
    _push_tokens,
    hnn_source,
    parse_generating_set,
    parse_hnn,
    parse_presentation,
    parse_source,
    parse_word,
    presentation_source,
)
from hnnembed.presentation import Presentation
from hnnembed.words import EMPTY, Alphabet, Word

from helpers import (
    hnn_from_strings,
    presentation_from_strings,
    random_cyclically_reduced_word,
)


AB = Alphabet.of("a", "b", "c")


class TestWordGrammar:
    def test_plain_symbols(self):
        assert parse_word(AB, "a b' c") == Word.of(1, -2, 3)

    def test_group_power_expands_literally(self):
        assert parse_word(AB, "( a b )^3") == Word.of(1, 2, 1, 2, 1, 2)
        assert parse_word(AB, "( a b c )^8").letters[:6] == (1, 2, 3, 1, 2, 3)

    def test_negative_and_zero_exponents(self):
        assert parse_word(AB, "( a b )^-2") == Word.of(-2, -1, -2, -1)
        assert parse_word(AB, "( a b )^0") == EMPTY
        assert parse_word(AB, "( a )^1 b") == Word.of(1, 2)

    def test_nested_groups(self):
        assert parse_word(AB, "( a ( b c' )^2 )^2") == Word.of(
            1, 2, -3, 2, -3, 1, 2, -3, 2, -3
        )

    def test_one_is_the_empty_word(self):
        assert parse_word(AB, "1") == EMPTY
        assert parse_word(AB, "") == EMPTY
        assert parse_word(AB, "a 1 b") == Word.of(1, 2)

    def test_no_implicit_free_reduction(self):
        assert parse_word(AB, "a a'") == Word.of(1, -1)

    def test_whitespace_is_optional_around_parens(self):
        assert parse_word(AB, "(a b)^2") == Word.of(1, 2, 1, 2)

    def test_unknown_generator(self):
        with pytest.raises(ParseError, match="unknown generator 'd'"):
            parse_word(AB, "a d", line=7)
        try:
            parse_word(AB, "d'", line=7)
        except ParseError as e:
            assert e.line == 7 and "unknown generator 'd'" in e.message

    def test_long_word_parses_in_linear_time(self):
        # 40 000 symbols: building the word must stay linear in its length
        symbols = ["a", "b'", "c"] * 13_333 + ["a"]
        start = time.perf_counter()
        w = parse_word(AB, " ".join(symbols))
        assert time.perf_counter() - start < 2
        assert w.letters == (1, -2, 3) * 13_333 + (1,)

    def test_paren_mismatches(self):
        with pytest.raises(ParseError, match="missing"):
            parse_word(AB, "( a b")
        with pytest.raises(ParseError, match="unmatched"):
            parse_word(AB, "a b )^2")
        with pytest.raises(ParseError, match="bad word syntax"):
            parse_word(AB, "a)^x")

    def test_deep_nesting_needs_no_recursion(self):
        assert parse_word(AB, "(" * 3000 + "a" + ")" * 3000) == Word.of(1)
        with pytest.raises(ParseError, match=r"missing '\)'"):
            parse_word(AB, "(" * 3000 + "a", line=4)


# names that are prefixes of one another, with digits and underscores
PREFIXES = Alphabet.of("a", "a1", "a_b", "ab")


def _grouped(ab: Alphabet, rng: random.Random, w: Word) -> str:
    """Text for ``w`` that mixes plain symbols with ``1``, ``( u )^1`` and
    ``( u^-1 )^-1`` pieces, spaced and unspaced."""
    out = []
    i = 0
    while i < len(w):
        j = rng.randint(i + 1, min(len(w), i + 4))
        piece = w[i:j]
        kind = rng.randrange(4)
        if kind == 0:
            out.append(ab.word_str(piece))
        elif kind == 1:
            out.append(f"1 {ab.word_str(piece)}")
        elif kind == 2:
            out.append(f"( {ab.word_str(piece)} )^1")
        else:
            out.append(f"({ab.word_str(piece.inverse())})^-1")
        i = j
    return " ".join(out)


@pytest.mark.parametrize(
    "ab", [AB, PREFIXES, Alphabet.of("x_1", "x_10", "yy", "y"), Alphabet.of("g")]
)
def test_rendered_words_parse_back(ab):
    rng = random.Random(f"parse-back:{ab.names}")
    for _ in range(300):
        w = Word(tuple(rng.choice(ab.signed()) for _ in range(rng.randrange(0, 25))))
        assert parse_word(ab, ab.word_str(w)) == w
        assert parse_word(ab, _grouped(ab, rng, w)) == w


def test_prefix_names_are_whole_symbols():
    symbols = "a a1 a_b ab a' a1' a_b' ab'"
    assert parse_word(PREFIXES, symbols) == Word.of(1, 2, 3, 4, -1, -2, -3, -4)
    assert parse_word(PREFIXES, "(a a1)^2 (ab')^-1") == Word.of(1, 2, 1, 2, 4)
    with pytest.raises(ParseError, match="unknown generator 'a1_b'"):
        parse_word(PREFIXES, "a a1_b")


def _tokenize_then_push(ab: Alphabet, text: str, line: int) -> Word:
    """The reference reading: every chunk through the tokenizer, no symbol
    table lookup, then every token pushed."""
    tokens = [tok for chunk in text.split() for tok in _chunk_tokens(chunk, line)]
    return Word(tuple(_push_tokens(ab, tokens, line)))


def _random_word_text(rng: random.Random, depth: int = 0) -> str:
    pieces = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if kind < 0.5:
            pieces.append(rng.choice(["a", "b", "c", "a'", "b'", "c'", "1"]))
        elif kind < 0.7 and depth < 3:
            k = rng.choice(["", *(f"^{k}" for k in range(-3, 4))])
            pieces.append(f"( {_random_word_text(rng, depth + 1)} ){k}")
        else:
            pieces.append(rng.choice(["d", "a''", "^", ")", "(", "b^2", "c)^-", "1'"]))
    sep = rng.choice([" ", ""]) if depth else " "
    return sep.join(pieces)


def test_lookup_pass_reads_as_the_tokenizer():
    """Seeded texts mixing symbols, ``1``, nested powers, unknown names and
    stray ``^`` or ``)``: parse_word gives the same word, or the same
    error, as tokenizing every chunk and then pushing the tokens."""
    rng = random.Random(2027)
    seen = collections.Counter()
    start = time.perf_counter()
    for _ in range(2000):
        text = _random_word_text(rng)
        try:
            want = _tokenize_then_push(AB, text, 3)
        except ParseError as e:
            with pytest.raises(ParseError) as err:
                parse_word(AB, text, 3)
            assert str(err.value) == str(e), text
            seen[" ".join(e.message.split()[:2])] += 1
        else:
            assert parse_word(AB, text, 3) == want, text
            seen["word"] += 1
    assert time.perf_counter() - start < 1
    kinds = ("word", "bad word", "unknown generator", "unmatched ')'", "missing ')'")
    assert sorted(seen) == sorted(kinds) and min(seen.values()) >= 20, seen


class TestPresentationFiles:
    def test_parse_with_comments_and_names(self):
        src = """\
# a seven letter cell
gens: a b c

rel: b c a b c b c
rel second: a b c c  # trailing comment
"""
        p = parse_presentation(src)
        assert p.alphabet == AB
        assert p.relator_names == ("r1", "second")
        assert p.relators[1] == Word.of(1, 2, 3, 3)

    def test_round_trip(self):
        p = presentation_from_strings("a b c", ["b c a b c b c", "a b c c"])
        assert parse_presentation(presentation_source(p)) == p

    def test_source_round_trips_byte_for_byte(self):
        rng = random.Random(12)
        for ab in (AB, PREFIXES):
            rels = [
                random_cyclically_reduced_word(rng, ab.size, rng.randint(1, 30)) for _ in range(4)
            ]
            src = presentation_source(Presentation(ab, tuple(rels), ("r1", "r2", "x", "y_2")))
            assert presentation_source(parse_source(src)) == src

    def test_empty_alphabet_and_no_relators(self):
        assert parse_presentation("gens:\n").alphabet == Alphabet(())
        p = parse_presentation("gens: a b\n")
        assert p.relators == ()
        assert parse_presentation(presentation_source(p)) == p

    @pytest.mark.parametrize(
        "src, line, fragment",
        [
            ("", None, "empty input"),
            ("rel: a\n", 1, "expected a 'gens:' or 'hnn:' header"),
            ("gens: a a\n", 1, "duplicate generator"),
            ("gens: 1x\n", 1, "bad generator name"),
            ("gens: a\nrule: a\n", 2, "expected 'rel"),
            ("gens: a\nrel r1: a\nrel r1: a\n", 3, "duplicate relator name"),
            ("gens: a\nrel: 1\n", 2, "is empty"),
            ("gens: a\nrel: a a'\n", 2, "not cyclically reduced"),
            ("gens: a\nrel: b\n", 2, "unknown generator"),
        ],
    )
    def test_diagnostics_carry_line_numbers(self, src, line, fragment):
        with pytest.raises(ParseError) as err:
            parse_presentation(src)
        assert err.value.line == line
        assert fragment in err.value.message

    def test_kind_mismatch(self):
        with pytest.raises(ParseError, match="found an hnn header"):
            parse_presentation("hnn: t; ascending: a; free:\nmap a: a\n")
        with pytest.raises(ParseError, match="found a plain presentation"):
            parse_hnn("gens: a\n")


class TestHnnFiles:
    INTRO = """\
hnn: t; ascending: a b; free: c
map a: ( a b c )^8
map b: ( a c )^9 b
"""

    def test_parse_matches_programmatic_construction(self):
        h = parse_hnn(self.INTRO)
        built = hnn_from_strings(
            [
                ("a", " ".join(["a b c"] * 8)),
                ("b", " ".join(["a c"] * 9) + " b"),
            ],
            free=["c"],
        )
        assert h == built

    def test_round_trip(self):
        h = parse_hnn(self.INTRO)
        assert parse_hnn(hnn_source(h)) == h

    def test_source_round_trips_byte_for_byte(self):
        rng = random.Random(13)
        for _ in range(20):
            images = tuple(
                Word(tuple(rng.choice(PREFIXES.signed()) for _ in range(rng.randint(1, 40))))
                for _ in range(2)
            )
            src = hnn_source(PartialAscendingHNN(("a", "a1"), ("a_b", "ab"), images, "t"))
            assert hnn_source(parse_source(src)) == src

    def test_map_lines_in_any_order(self):
        shuffled = """\
hnn: t; ascending: a b; free: c
map b: ( a c )^9 b
map a: ( a b c )^8
"""
        assert parse_hnn(shuffled) == parse_hnn(self.INTRO)

    def test_empty_free_part_round_trips(self):
        h = hnn_from_strings([("a", "a a")], free=[])
        assert parse_hnn(hnn_source(h)) == h

    def test_image_may_mention_the_stable_letter_for_later_diagnosis(self):
        # the parser accepts it; validate() is the layer that rejects it
        h = parse_hnn("hnn: t; ascending: a; free:\nmap a: t a t'\n")
        assert h.images[0] == Word.of(2, 1, -2)

    @pytest.mark.parametrize(
        "src, line, fragment",
        [
            ("hnn: t; ascending: a\nmap a: a\n", 1, "header must be"),
            ("hnn: ; ascending: a; free:\nmap a: a\n", 1, "exactly one stable"),
            ("hnn: t u; ascending: a; free:\nmap a: a\n", 1, "exactly one stable"),
            ("hnn: t; ascending: a t; free:\nmap a: a\n", 1, "duplicate generator"),
            ("hnn: t; ascending: a; free:\n", 1, "missing map for 'a'"),
            ("hnn: t; ascending: a; free:\nmap a: a\nmap a: a\n", 3, "duplicate map"),
            ("hnn: t; ascending: a; free: b\nmap b: a\n", 2, "free, not ascending"),
            ("hnn: t; ascending: a; free:\nmap q: a\n", 2, "unknown ascending"),
            ("hnn: t; ascending: a; free:\nrel: a\n", 2, "not allowed in an hnn file"),
            ("hnn: t; ascending: a; free:\ngens: a\n", 2, "expected 'map"),
        ],
    )
    def test_diagnostics(self, src, line, fragment):
        with pytest.raises(ParseError) as err:
            parse_hnn(src)
        assert err.value.line == line
        assert fragment in err.value.message


class TestGeneratingSetFiles:
    def test_conjugates_are_legal_generators(self):
        ab, words, names = parse_generating_set(
            "gens: a b\nrel: a b a'\nrel twist: b b\n"
        )
        assert ab == Alphabet.of("a", "b")
        assert words == [Word.of(1, 2, -1), Word.of(2, 2)]
        assert names == ["r1", "twist"]

    def test_empty_generator_rejected(self):
        with pytest.raises(ParseError, match="is empty"):
            parse_generating_set("gens: a\nrel: 1\n")

    @pytest.mark.parametrize(
        "src, diagnostic",
        [
            ("", "empty input"),
            ("rel: a\n", "line 1: expected a 'gens:' header"),
            ("gens: a a\n", "line 1: duplicate generator name 'a'"),
            ("gens: a\nrule: a\n", "line 2: expected 'rel [name]: <word>'"),
            ("gens: a\nrel x: a\nrel x: a\n", "line 3: duplicate relator name 'x'"),
            ("gens: a\nrel: a\nrel r1: a\n", "line 3: duplicate relator name 'r1'"),
            ("gens: a\nrel: 1\n", "line 2: generator word r1 is empty"),
            ("gens: a\nrel: a a'\nrel twist: 1\n", "line 3: generator word twist is empty"),
            ("gens: a\nrel: b\n", "line 2: unknown generator 'b'"),
            # one inverse mark is stripped, so the name is the unknown a'
            ("gens: a b\nrel: a'' b\n", "line 2: unknown generator \"a'\""),
            ("gens: a\nrel: d'\n", "line 2: unknown generator 'd'"),
            # a syntax error anywhere in the word outranks any other error
            ("gens: a\nrel: zz a^2\n", "line 2: bad word syntax near 'a^2'"),
            ("gens: a\nrel: a )^2 a^\n", "line 2: bad word syntax near 'a^'"),
            ("gens: a\nrel: a )^2 ( a\n", "line 2: unmatched ')'"),
        ],
    )
    def test_diagnostics_are_pinned(self, src, diagnostic):
        with pytest.raises(ParseError) as err:
            parse_generating_set(src)
        assert str(err.value) == diagnostic

    def test_hnn_header_rejected(self):
        with pytest.raises(ParseError, match="expected a 'gens:'"):
            parse_generating_set("hnn: t; ascending: a; free:\nmap a: a\n")


def test_dispatch_by_header():
    assert isinstance(parse_source("gens: a\n"), Presentation)
    assert isinstance(
        parse_source("hnn: t; ascending: a; free:\nmap a: a\n"), PartialAscendingHNN
    )
