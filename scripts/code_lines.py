#!/usr/bin/env python3
"""Count the code lines of Python modules: lines that hold a token other
than a comment, a docstring or layout, so blank lines, comments and
docstrings do not count.

A docstring is a string standing alone as a statement; a line of any
other token counts, and a token spanning lines counts every line it spans.

Usage:
    python3 scripts/code_lines.py PATH...

Prints one `count path` line per module (each .py file under a directory
PATH, sorted) and a `count total` line.
"""

import argparse
import io
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, tok, after in zip([None] + tokens, tokens, tokens[1:] + [None]):
        if tok.type in LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (before is None or before.type in STATEMENT_START)
                and (after is None or after.type in (tokenize.NEWLINE, tokenize.ENDMARKER))):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def modules(paths) -> list:
    out = []
    for path in map(Path, paths):
        out.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args()
    total = 0
    for path in modules(args.paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count} {path}")
    print(f"{total} total")


if __name__ == "__main__":
    main()
