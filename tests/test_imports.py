"""Every name a module under ``src/jitstream`` imports is used by it, and
every private module-level name (``_name``) it defines is referenced in it.
Package ``__init__.py`` files are exempt from the import check: their
imports are re-exports, and each of those must be read outside the module
that defines it: in another module, a test or README's code."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jitstream"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unused_private_names(source: str) -> list[str]:
    """Module-level functions, classes and assignments named ``_name`` that
    the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                defined[target.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"{name} (line {line})" for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_detector_flags_only_unused_names():
    source = ("import os\nfrom dataclasses import dataclass, field\n\n"
              "@dataclass\nclass A:\n    x = os.sep\n")
    assert unused_imports(source) == ["field (line 2)"]


def test_detector_flags_only_unread_private_names():
    source = ("__all__ = ['f']\n_used = 1\n_unused: int = 2\n\n"
              "def _dead():\n    _local = 3\n    return _local\n\n"
              "class _Kept:\n    _attr = _used\n\n"
              "def f():\n    return _Kept()\n")
    assert unused_private_names(source) == ["_unused (line 3)", "_dead (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_reads_every_private_name(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def names_read(source: str) -> set[str]:
    """Names a module reads, looks up as attributes or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def reexports(init: Path) -> list[tuple[str, Path]]:
    """(name, defining module) for each name a package ``__init__.py``
    imports from its own modules."""
    return [(alias.asname or alias.name,
             init.parent.joinpath(*node.module.split(".")).with_suffix(".py"))
            for node in ast.parse(init.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("init", sorted(PACKAGE.rglob("__init__.py")),
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_package_reexports_are_read_outside_their_module(init):
    readers = {p: names_read(p.read_text(encoding="utf-8"))
               for p in (*MODULES, *sorted((ROOT / "tests").glob("*.py")))}
    # README counts where it shows code: the text between backticks
    code = (ROOT / "README.md").read_text(encoding="utf-8").split("`")[1::2]
    readme = set(re.findall(r"\w+", " ".join(code)))
    unread = [name for name, module in reexports(init)
              if name not in readme.union(*(names for p, names in readers.items()
                                             if p != module))]
    assert unread == []
