"""Count the code lines of the package: lines that hold a token other than a
comment, a string or layout (NL, NEWLINE, INDENT, DEDENT, ENDMARKER).

    python tools/code_lines.py [directory]    # default: src/bfamlab
"""

import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.STRING, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
# from Python 3.12 an f-string is split into tokens; all of them count as the string
FSTRING_START = getattr(tokenize, "FSTRING_START", None)
FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def code_lines(path):
    lines, depth = set(), 0
    with tokenize.open(path) as source:
        for tok in tokenize.generate_tokens(source.readline):
            depth += (tok.type == FSTRING_START) - (tok.type == FSTRING_END)
            if not depth and tok.type not in SKIP and tok.type != FSTRING_END:
                lines.add(tok.start[0])
    return len(lines)


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent / "src" / "bfamlab")
    counts = {path.relative_to(root): code_lines(path) for path in sorted(root.rglob("*.py"))}
    for path, count in counts.items():
        print(f"{count:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total")
