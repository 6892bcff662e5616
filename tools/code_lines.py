"""Count each Python module's lines by kind: total, code, docstring, comment and blank.

A docstring line lies inside the string that opens a module, class or function
body; a comment line holds a comment and no code; a code line holds a token of
code outside a docstring.  So code + docstring + comment + blank = total.

Usage: python tools/code_lines.py [DIR]   (default: src/overlaylab)
Standard library only.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
KINDS = ("total", "code", "docstring", "comment", "blank")


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    docstring: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstring.update(range(body[0].lineno, body[0].end_lineno + 1))
    code: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    comment -= code | docstring
    total = len(source.splitlines())
    return {"total": total, "code": len(code), "docstring": len(docstring), "comment": len(comment),
            "blank": total - len(code | docstring | comment)}


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/overlaylab")
    sums = dict.fromkeys(KINDS, 0)
    print("module," + ",".join(KINDS))
    for path in sorted(root.glob("*.py")):
        counts = count(path.read_text())
        print(f"{path.name}," + ",".join(str(counts[k]) for k in KINDS))
        for k in KINDS:
            sums[k] += counts[k]
    print("all," + ",".join(str(sums[k]) for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
