"""Report imports that a module never uses.

    python scripts/check_imports.py [PATH ...]   (default: src/cornerwalk)

Each module under the given files or directories is parsed with ``ast``.
A name an import binds counts as used when the module reads it anywhere
(annotations included) or lists it in ``__all__``; ``__future__``
imports are skipped, and so is an import whose first line carries an
explicit ``# noqa: F401`` (flake8's code for an unused import).  Prints
one ``path:line: name`` per unused import and exits 1 if there is any,
0 otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

_NOQA_F401 = re.compile(r"#\s*noqa:[\sA-Z0-9,]*\bF401\b")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every import binding in ``source`` that nothing reads."""
    tree = ast.parse(source)
    bound: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound.append((node.lineno, a.asname or a.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound.append((node.lineno, a.asname or a.name))
    used = _exported(tree) | {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
    }
    lines = source.splitlines()
    return [
        (line, name) for line, name in bound
        if name not in used and not _NOQA_F401.search(lines[line - 1])
    ]


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [Path(__file__).parents[1] / "src" / "cornerwalk"]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    found = 0
    for path in files:
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            print(f"{path}:{line}: {name}")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
