"""Print the code tokens of each module of ``src/qeuler``, and their total.

A code token is a ``tokenize`` token other than COMMENT, NL, NEWLINE,
INDENT, DEDENT and ENDMARKER, and other than a STRING that starts a
logical line (a docstring, or a bare string statement).  Layout, comments
and docstrings therefore do not count, so a change in the count is a
change in the code itself.

    python3 tests/code_tokens.py [module ...]
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "qeuler"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}
LINE_BREAKS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_tokens(source):
    """The number of code tokens in the text ``source``."""
    count, line_start = 0, True
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type in LINE_BREAKS:
            line_start = True
        elif tok.type not in LAYOUT:
            if not (line_start and tok.type == tokenize.STRING):
                count += 1
            line_start = False
    return count


def main(names):
    paths = [SOURCES / f"{name}.py" for name in names] or sorted(SOURCES.glob("*.py"))
    total = 0
    for path in paths:
        n = code_tokens(path.read_text())
        total += n
        print(f"{path.stem:15} {n:6,}")
    print(f"{'total':15} {total:6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
