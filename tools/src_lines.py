"""Source line counts of the package: all lines and code lines.

    python3 tools/src_lines.py [DIR]

Prints one JSON line per *.py file of DIR (default: this checkout's
src/hilbfock), in name order, and one for their total, each with
"lines", every line of the file, and "code", the lines that hold a
token other than a comment or a NL, NEWLINE, INDENT or DEDENT token and
lie outside a module, class or function docstring.  A blank line, a
comment line or a docstring line is not code; a line that a multi-line
string or bracket spans is.  Uses the standard library only.
"""

import argparse
import ast
import io
import json
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def counts(text):
    """(lines, code) of one source text, as the module docstring counts
    them."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code.difference_update(range(first.lineno,
                                             first.end_lineno + 1))
    return len(text.splitlines()), len(code)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", nargs="?",
                    default=os.path.join(ROOT, "src", "hilbfock"))
    args = ap.parse_args(argv)
    total = [0, 0]
    for name in sorted(os.listdir(args.dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(args.dir, name), encoding="utf-8") as f:
            lines, code = counts(f.read())
        total[0] += lines
        total[1] += code
        print(json.dumps({"file": name, "lines": lines, "code": code}))
    print(json.dumps({"file": "total", "lines": total[0], "code": total[1]}))


if __name__ == "__main__":
    main()
