"""Imports: no module imports a name it never uses, and the package states
each public name once, in its module's `__all__`."""

import ast
import importlib
from pathlib import Path

import savbdf

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("tableau", "spectral", "problems", "stepper", "harness")


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import and never read as a plain name in the file.

    Skipped: star and `__future__` imports, names the module lists in
    `__all__`, and lines marked `# noqa: F401`.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and bound not in exported:
                unused.append(f"{path.relative_to(ROOT)}:{alias.lineno}: {bound}")
    return unused


def test_no_unused_imports():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert not unused, f"imported but never used: {unused}"


def test_package_reexports_each_module_list_once():
    modules = [importlib.import_module(f"savbdf.{name}") for name in MODULES]
    listed = [name for module in modules for name in module.__all__]
    assert savbdf.__all__ == listed + ["__version__"]
    assert len(set(savbdf.__all__)) == len(savbdf.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(savbdf, name) is getattr(module, name), name
    # `from .tableau import *` rebinds the submodule's name to the function
    assert savbdf.tableau is modules[0].tableau
    assert savbdf.__version__ == "0.1.0"
