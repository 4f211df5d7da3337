"""Count code lines per module of a package directory.

    python3 scripts/loc.py src/hnnembed

A code line is a physical line that holds a token other than a comment,
NL, NEWLINE, INDENT or DEDENT, and that is not part of a string statement
standing alone on its logical line, such as a docstring.  So comments,
docstrings and blank lines do not count, while every line of a
multi-line call or of a string that is assigned does.  One line per
``.py`` file, in name order, gives its count and path; a last line gives
the total.
"""

from __future__ import annotations

import argparse
import io
import os
import tokenize

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            # a logical line ends; a string standing alone is no code
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", help="directory whose .py files are counted, not recursively")
    args = parser.parse_args()
    total = 0
    for name in sorted(os.listdir(args.dir)):
        if name.endswith(".py"):
            path = os.path.join(args.dir, name)
            with open(path, encoding="utf-8") as f:
                n = code_lines(f.read())
            print(f"{n:6d}  {path}")
            total += n
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
