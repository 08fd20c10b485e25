"""Count the lines of the Python files under a directory by kind.

    python tools/src_lines.py src/fusecast

Each line is one of four kinds, tested in this order:

- blank: a line of whitespace only;
- docstring: any other line inside a module, class or function docstring;
- code: any other line that holds a token other than a comment (a line
  inside a multi-line string that is not a docstring is code);
- comment: the rest.

Prints one row per file and then the totals.
"""

import ast
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
# tokens that are not code: comments and the layout tokens tokenize adds
NOT_CODE = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the module's, classes' and functions'
    docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """Lines of one file by kind."""
    text = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            kind = "blank"
        elif number in docstrings:
            kind = "docstring"
        elif number in code:
            kind = "code"
        else:
            kind = "comment"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: python tools/src_lines.py DIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    total = dict.fromkeys(KINDS, 0)
    print(f"{'lines':>6} {' '.join(f'{k:>9}' for k in KINDS)}  file")
    for path in sorted(root.rglob("*.py")):
        counts = count(path)
        cells = " ".join(f"{counts[k]:9d}" for k in KINDS)
        print(f"{sum(counts.values()):6d} {cells}  {path.relative_to(root)}")
        for kind in KINDS:
            total[kind] += counts[kind]
    print(f"{sum(total.values())} lines: {total['code']} code, {total['docstring']} docstring, "
          f"{total['comment']} comment and {total['blank']} blank")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
