"""Text format for presentations and partial ascending extensions.

Two file kinds share one grammar.  A plain presentation::

    # genus-two surface group
    gens: a b c d
    rel r1: a b a' b' c d c' d'

and a partial ascending extension, marked by its header line::

    hnn: t; ascending: a b; free: c
    map a: ( a b c )^8
    map b: ( a c )^9 b

Words are whitespace-separated symbols, a trailing ``'`` inverts, and a
parenthesized group raised to an integer power expands literally, up to
:data:`MAX_WORD_LETTERS` letters per word.  ``1`` denotes the empty word.
``#`` starts a comment.  Every error carries the 1-based source line it
was found on.
"""

from __future__ import annotations

import re
from typing import Iterator

from .hnn import PartialAscendingHNN
from .presentation import Presentation
from .words import Alphabet, Word, _word, is_cyclically_reduced


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.message = message
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# per word; above the 1.41M image letters of a whole 16+16 irreducible completion
MAX_WORD_LETTERS = 2**21

_TOKEN = re.compile(r"\(|\)(?:\^(-?)(\d+))?|[^\s()^]+")


def _chunk_tokens(chunk: str, line: int | None) -> list[tuple[str, object]]:
    """Tokens of one whitespace-free chunk of word text."""
    tokens: list[tuple[str, object]] = []
    pos = 0
    for m in _TOKEN.finditer(chunk):
        if m.start() != pos:
            raise ParseError(f"bad word syntax near {chunk!r}", line)
        pos = m.end()
        tok = m.group(0)
        if tok == "(":
            tokens.append(("open", None))
        elif tok.startswith(")"):
            digits = (m.group(2) or "1").lstrip("0") or "0"
            # the digit count alone rules out a huge exponent before int() reads it
            if len(digits) > len(str(MAX_WORD_LETTERS)) or int(digits) > MAX_WORD_LETTERS:
                raise ParseError(f"exponent above {MAX_WORD_LETTERS}", line)
            tokens.append(("close", -int(digits) if m.group(1) else int(digits)))
        else:
            tokens.append(("symbol", tok))
    if pos != len(chunk):
        raise ParseError(f"bad word syntax near {chunk!r}", line)
    return tokens


def _push_tokens(
    alphabet: Alphabet, tokens: list[tuple[str, object]], line: int | None
) -> list[int]:
    """Letters of a token list, with one explicit stack for the letters of
    each open group."""
    stack: list[list[int]] = [[]]
    for kind, value in tokens:
        if kind == "open":
            stack.append([])
        elif kind == "close":
            if len(stack) == 1:
                raise ParseError("unmatched ')'", line)
            inner = stack.pop()
            if len(stack[-1]) + len(inner) * abs(value) > MAX_WORD_LETTERS:
                raise ParseError(f"word longer than {MAX_WORD_LETTERS} letters", line)
            if value < 0:
                inner = [-x for x in reversed(inner)]
            stack[-1] += inner * abs(value)
        elif value != "1":
            try:
                stack[-1].append(alphabet.letter(value))
            except KeyError as e:
                raise ParseError(e.args[0], line) from None
    if len(stack) != 1:
        raise ParseError("missing ')'", line)
    return stack[0]


def parse_word(alphabet: Alphabet, text: str, line: int | None = None) -> Word:
    """Parse a word over ``alphabet``; concatenation is literal (no implicit
    free reduction), so malformed inputs stay visible to later validators.

    Every whitespace-separated chunk of the text is first looked up in
    the symbol table of ``alphabet``, in one pass.  Only if some chunk is
    not a symbol (parentheses, ``)^k``, ``1``, unknown or malformed text)
    is every chunk tokenized, and the tokens then pushed, so a syntax
    error anywhere in the text is reported before any other error.

    Nesting depth is bounded by memory rather than by the interpreter's
    stack.  A power is refused before it is built if it would take its
    group past :data:`MAX_WORD_LETTERS`, and so is a longer word."""
    chunks = text.split()
    letters = list(map(alphabet.tables[0].get, chunks))
    if not all(letters):  # letters are nonzero, so only a chunk not found is falsy
        tokens = [tok for chunk in chunks for tok in _chunk_tokens(chunk, line)]
        letters = _push_tokens(alphabet, tokens, line)
    if len(letters) > MAX_WORD_LETTERS:
        raise ParseError(f"word longer than {MAX_WORD_LETTERS} letters", line)
    return _word(tuple(letters))


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((no, stripped))
    return out


def parse_source(text: str) -> Presentation | PartialAscendingHNN:
    """Dispatch on the header line; see the module docstring for the grammar."""
    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty input")
    no, first = lines[0]
    if first.startswith("hnn:"):
        return _parse_hnn(lines)
    if first.startswith("gens:"):
        return _parse_presentation(lines)
    raise ParseError("expected a 'gens:' or 'hnn:' header", no)


def parse_presentation(text: str) -> Presentation:
    obj = parse_source(text)
    if not isinstance(obj, Presentation):
        raise ParseError("expected a plain presentation, found an hnn header")
    return obj


def parse_hnn(text: str) -> PartialAscendingHNN:
    obj = parse_source(text)
    if not isinstance(obj, PartialAscendingHNN):
        raise ParseError("expected an hnn header, found a plain presentation")
    return obj


def _gens_header(line: tuple[int, str]) -> Alphabet:
    """Alphabet of a ``gens: <names>`` header line."""
    no, text = line
    try:
        return Alphabet(tuple(text[len("gens:") :].split()))
    except ValueError as e:
        raise ParseError(str(e), no) from None


def _rel_lines(
    alphabet: Alphabet, lines: list[tuple[int, str]], kind: str
) -> Iterator[tuple[int, str, Word]]:
    """Line number, name and nonempty word of each ``rel [name]: <word>``
    line; an unnamed line is named by its position."""
    names: set[str] = set()
    for no, line in lines:
        head, sep, body = line.partition(":")
        parts = head.split()
        if not sep or not parts or parts[0] != "rel" or len(parts) > 2:
            raise ParseError("expected 'rel [name]: <word>'", no)
        name = parts[1] if len(parts) == 2 else f"r{len(names) + 1}"
        if name in names:
            raise ParseError(f"duplicate relator name {name!r}", no)
        w = parse_word(alphabet, body, no)
        if not w:
            raise ParseError(f"{kind} {name} is empty", no)
        names.add(name)
        yield no, name, w


def _parse_presentation(lines: list[tuple[int, str]]) -> Presentation:
    alphabet = _gens_header(lines[0])
    relators: list[Word] = []
    names: list[str] = []
    for no, name, w in _rel_lines(alphabet, lines[1:], "relator"):
        if not is_cyclically_reduced(w):
            raise ParseError(f"relator {name} is not cyclically reduced", no)
        relators.append(w)
        names.append(name)
    return Presentation(alphabet, tuple(relators), tuple(names))


def _parse_hnn(lines: list[tuple[int, str]]) -> PartialAscendingHNN:
    no0, first = lines[0]
    fields = [part.strip() for part in first.split(";")]
    keys = [f.partition(":")[0].strip() for f in fields]
    if keys != ["hnn", "ascending", "free"]:
        raise ParseError(
            "header must be 'hnn: <stable>; ascending: <names>; free: <names>'", no0
        )
    stable_names = fields[0].partition(":")[2].split()
    if len(stable_names) != 1:
        raise ParseError("need exactly one stable letter", no0)
    stable = stable_names[0]
    ascending = tuple(fields[1].partition(":")[2].split())
    free = tuple(fields[2].partition(":")[2].split())
    try:
        full = Alphabet(tuple(ascending) + tuple(free) + (stable,))
    except ValueError as e:
        raise ParseError(str(e), no0) from None
    maps: dict[str, Word] = {}
    for no, line in lines[1:]:
        head, sep, body = line.partition(":")
        parts = head.split()
        if parts and parts[0] == "rel":
            raise ParseError("rel lines are not allowed in an hnn file; use 'map'", no)
        if not sep or parts[:1] != ["map"] or len(parts) != 2:
            raise ParseError("expected 'map <generator>: <word>'", no)
        g = parts[1]
        if g in free:
            raise ParseError(f"generator {g!r} is free, not ascending", no)
        if g not in ascending:
            raise ParseError(f"map for unknown ascending generator {g!r}", no)
        if g in maps:
            raise ParseError(f"duplicate map for {g!r}", no)
        maps[g] = parse_word(full, body, no)
    missing = [g for g in ascending if g not in maps]
    if missing:
        raise ParseError(f"missing map for {missing[0]!r}", no0)
    try:
        return PartialAscendingHNN(
            ascending, free, tuple(maps[g] for g in ascending), stable
        )
    except ValueError as e:
        raise ParseError(str(e), no0) from None


def parse_generating_set(text: str) -> tuple[Alphabet, list[Word], list[str]]:
    """Same grammar as a plain presentation, but rel lines name subgroup
    generators, so they are only required to be nonempty (a conjugate like
    ``a b a'`` is a fine generator and no relator)."""
    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty input")
    no0, first = lines[0]
    if not first.startswith("gens:"):
        raise ParseError("expected a 'gens:' header", no0)
    alphabet = _gens_header(lines[0])
    rels = list(_rel_lines(alphabet, lines[1:], "generator word"))
    return alphabet, [w for _, _, w in rels], [name for _, name, _ in rels]


def presentation_source(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.alphabet.names)]
    for name, r in zip(p.relator_names, p.relators):
        lines.append(f"rel {name}: {p.alphabet.word_str(r)}")
    return "\n".join(lines) + "\n"


def hnn_source(h: PartialAscendingHNN) -> str:
    lines = [
        f"hnn: {h.stable}; ascending: {' '.join(h.ascending)}; free: {' '.join(h.free)}"
    ]
    ab = h.full_alphabet
    for name, image in zip(h.ascending, h.images):
        lines.append(f"map {name}: {ab.word_str(image)}")
    return "\n".join(lines) + "\n"
