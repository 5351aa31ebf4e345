"""Line count: the code lines and total lines of each module of
`src/stegrouter`.

A code line is a line that is not blank, not a comment-only line, and not
inside a module, class or function docstring (found with `ast`).  Prints
one `module code total` row per module, then the totals.

    python tools/loc.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stegrouter"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, total lines) of one module's source."""
    docstrings = docstring_lines(ast.parse(source))
    lines = source.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )
    return code, len(lines)


def main() -> None:
    rows = [(path.name, *count(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}} {'code':>6} {'total':>6}")
    for name, code, total in rows:
        print(f"{name:<{width}} {code:>6,} {total:>6,}")


if __name__ == "__main__":
    main()
