"""Source lines of code of the boolfc package, per module and in total.

A line counts when it holds a token other than a comment; blank lines,
comment-only lines and docstrings (a module's, class's or function's first
statement, when it is a string) do not.  A statement over three lines
counts three.

    python tools/sloc.py              # the working tree
    python tools/sloc.py --base REV   # git revision REV beside it, with the delta
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boolfc"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def sloc(text: str) -> int:
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(text)))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def counts_at(rev: str) -> dict[str, int]:
    """SLOC per module of the package as committed at ``rev``."""
    package = PACKAGE.relative_to(ROOT).as_posix()
    paths = git("ls-tree", "--name-only", rev, package + "/").split()
    return {Path(p).name: sloc(git("show", f"{rev}:{p}"))
            for p in paths if p.endswith(".py")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", metavar="REV",
                        help="also count git revision REV, with the delta")
    args = parser.parse_args()
    now = {p.name: sloc(p.read_text(encoding="utf-8"))
           for p in sorted(PACKAGE.glob("*.py"))}
    if args.base is None:
        for name, count in now.items():
            print(f"{name:16} {count:5}")
        print(f"{'total':16} {sum(now.values()):5}")
        return
    try:
        base = counts_at(args.base)
    except subprocess.CalledProcessError as err:
        parser.error(err.stderr.strip())
    print(f"{'module':16} {'base':>5} {'now':>5} {'delta':>6}")
    rows = [(name, base.get(name, 0), now.get(name, 0))
            for name in sorted(base.keys() | now.keys())]
    rows.append(("total", sum(base.values()), sum(now.values())))
    for name, b, c in rows:
        print(f"{name:16} {b:5} {c:5} {c - b:+6}")


if __name__ == "__main__":
    main()
