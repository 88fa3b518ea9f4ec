"""Count the code lines of each src/crossdim module at a revision and now.

    python3 tools/loc.py [REV]

prints, for every module under src/crossdim, its code lines at the git
revision REV (default HEAD) and in the working tree, with the change, then
the package total, and last one ``tests`` line with the total code lines of
the test modules under tests/, counted the same way. A code line is a line
that holds a token other than a comment, and that token is not part of a
module, class or function docstring as ``ast`` finds them; so blank lines,
comment lines and docstring prose are not counted, and deleting prose is no
code reduction.
When git cannot read REV, or the tree is no git checkout, it prints git's
message and exits 2.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/crossdim"
TESTS = "tests"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree) -> list:
    """The (start, end) positions of every module, class and function
    docstring, as (line, column) pairs."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    spans = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def counts_at(rev: str, directory: str = PACKAGE) -> dict:
    """Code lines of each module under ``directory`` at the revision ``rev``."""
    names = _git("ls-tree", "-r", "--name-only", rev, "--", directory).split()
    return {name: code_lines(_git("show", f"{rev}:{name}")) for name in names
            if name.endswith(".py")}


def counts_now(directory: str = PACKAGE) -> dict:
    """Code lines of each module under ``directory`` in the working tree."""
    return {path.relative_to(ROOT).as_posix(): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / directory).rglob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision (default HEAD)")
    args = parser.parse_args(argv)
    try:
        before = counts_at(args.rev)
        tests_before = counts_at(args.rev, TESTS)
    except subprocess.CalledProcessError as exc:
        print(exc.stderr.strip().splitlines()[0], file=sys.stderr)
        return 2
    after = counts_now()
    width = max(map(len, [*before, *after, "total"]))
    print(f"{'module':<{width}} {args.rev[:10]:>10} {'tree':>6} {'change':>7}")
    for name in sorted({*before, *after}):
        old, new = before.get(name, 0), after.get(name, 0)
        print(f"{name:<{width}} {old:>10} {new:>6} {new - old:>+7}")
    for label, at_rev, in_tree in (("total", before, after),
                                   (TESTS, tests_before, counts_now(TESTS))):
        old, new = sum(at_rev.values()), sum(in_tree.values())
        print(f"{label:<{width}} {old:>10} {new:>6} {new - old:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
