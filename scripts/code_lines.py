"""Count the code lines of src/fluctlab, module by module, by Python's tokenizer.

A line counts when it holds a token of code.  Blank lines, comments and
docstrings do not count, nor does any other statement that is only a string
(such as the note under a module constant).  A string inside code counts on
every line it spans.

    python scripts/code_lines.py
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "fluctlab"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of path that hold code."""
    lines, statement = set(), []
    with tokenize.open(path) as handle:
        for token in tokenize.generate_tokens(handle.readline):
            if token.type not in NOT_CODE:
                statement.append(token)
            elif token.type == tokenize.NEWLINE or token.type == tokenize.ENDMARKER:
                if any(t.type != tokenize.STRING for t in statement):  # a statement of strings only documents
                    lines.update(row for t in statement for row in range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main() -> int:
    counts = {path.name: code_lines(path) for path in sorted(SOURCE.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
