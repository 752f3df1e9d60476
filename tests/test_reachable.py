"""The package ships only what the pipeline runs: a reference that only tests call lives in
``tests/oracles.py``. Parsed with ``ast``, since docstrings name moved code."""

import ast
from pathlib import Path

import trackfuse

PACKAGE = Path(trackfuse.__file__).resolve().parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# name -> why no code in the package or the scripts refers to it
UNREFERENCED = {
    "records.forget_kept": "the test hook that empties the kept store, as a new process starts",
}


def _defined(node) -> set[str]:
    """The function, class or constant a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()}
    return set()


def test_every_top_level_name_of_the_package_is_referenced_by_its_code_or_scripts():
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = _defined(node)
            if path.parent == PACKAGE:
                defined.update((f"{path.stem}.{name}", name) for name in names)
            # a statement's own name, as in a recursive call, does not count
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
                if name is not None and name not in names:
                    used.add(name)
    assert sorted(qual for qual, name in defined.items() if name not in used) == sorted(UNREFERENCED)
