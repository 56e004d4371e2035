"""The repository's two static gates, which CI and Tier-1 run.

Usage::

    python tools/gates.py [imports | callers]

* ``imports``: a module-level import whose name the module never uses, as
  a name or as a string (a monkeypatch target), in any ``.py`` file under
  src, tests, demos, bench or tools.  ``__init__.py`` imports are
  re-exports and are not scanned.
* ``callers``: code that only tests use leaves the library.  A
  module-level function, class or assignment in src/parsimid
  (``__init__.py`` aside) that no file in src, demos or bench loads.  A
  load is a name, an attribute or a string (a tracing or monkeypatch
  target).

Each gate prints its findings as ``path:line: name``, or one line saying
it found none.  With no argument both run.  The exit status is 1 if any
gate found something, else 0.  Paths are read and printed relative to the
repository root, from any working directory.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _files(*dirs: str):
    return (p for d in dirs for p in (ROOT / d).rglob("*.py"))


def _where(path: Path, node: ast.AST, name: str) -> str:
    return f"{path.relative_to(ROOT)}:{node.lineno}: {name}"


def unused_imports() -> list[str]:
    """``path:line: name`` of each module-level import that its module never uses."""
    unused = []
    for path in sorted(_files("src", "tests", "demos", "bench", "tools")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(_where(path, node, name))
    return unused


def uncalled_definitions() -> list[str]:
    """``path:line: name`` of each library definition that no file in src, demos or bench loads."""
    loaded = set()
    for path in _files("src", "demos", "bench"):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute):
                loaded.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                loaded.add(n.value)
    unused = []
    for path in sorted((ROOT / "src" / "parsimid").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [_where(path, node, name) for name in names if name not in loaded]
    return unused


GATES = {
    "imports": (unused_imports, "no unused imports"),
    "callers": (uncalled_definitions, "every library definition has a caller outside the tests"),
}


def main(argv: list[str]) -> int:
    names = argv or list(GATES)
    unknown = [name for name in names if name not in GATES]
    if unknown:
        print(f"usage: python tools/gates.py [{' | '.join(GATES)}]; unknown gate {unknown[0]!r}", file=sys.stderr)
        return 2
    failed = False
    for name in names:
        gate, clean = GATES[name]
        findings = gate()
        print("\n".join(findings) or clean)
        failed = failed or bool(findings)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
