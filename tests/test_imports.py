"""Imports: no module imports a name it never uses, the package states
each public name once, in its module's `__all__`, and it calls each scipy.fft
function where it reads it, never through a name bound to it."""

import ast
import importlib
from pathlib import Path

import pytest

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


def _fft_bindings(source: str, filename: str = "<source>") -> list[str]:
    """Places where a scipy.fft function is bound to a name instead of called.

    A function is read as an attribute of the scipy.fft module (`scipy.fft`
    itself, or a name bound to it by `import scipy.fft as m` or `from scipy
    import fft as m`) and must be called where it is read.  Flagged:
    `from scipy.fft import f`, and any other read of such an attribute:
    an alias `f = m.f` at module or function scope, a default argument, an
    argument passed on.  A transform bound so escapes perfbench's tracer,
    which patches `scipy.fft`'s attributes, and
    `test_steady_step_transform_budget`, which swaps the module `spectral`
    reads them from.
    """
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name == "scipy.fft" and alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "fft")

    def is_module(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in modules
        return (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id == "scipy")

    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.fft"):
            found += [f"{filename}:{node.lineno}: from {node.module} import {alias.name}"
                      for alias in node.names]
        elif isinstance(node, ast.Attribute) and is_module(node.value) and id(node) not in called:
            found.append(f"{filename}:{node.lineno}: {ast.unparse(node)} read without a call")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("from scipy import fft as _fft\ny = _fft.rfft2(x)\n", False),
    ("import scipy.fft\ny = scipy.fft.irfft2(x)\n", False),
    ("from scipy.fft import rfft2\n", True),
    ("from scipy.fft import rfft2 as forward\n", True),
    ("from scipy import fft as _fft\nforward = _fft.rfft2\n", True),
    ("from scipy import fft\ndef f(x):\n    t = fft.dst\n    return t(x)\n", True),
    ("import scipy.fft as sf\ndef f(x, t=sf.rfft2):\n    return t(x)\n", True),
    ("import scipy\nforward = scipy.fft.rfft2\n", True),
])
def test_fft_binding_scan_flags_each_form(source, flagged):
    assert bool(_fft_bindings(source)) == flagged


def test_package_calls_scipy_fft_functions_where_it_reads_them():
    paths = sorted((ROOT / "src" / "savbdf").rglob("*.py"))
    found = [entry for path in paths
             for entry in _fft_bindings(path.read_text(), str(path.relative_to(ROOT)))]
    assert not found, f"scipy.fft functions bound to names: {found}"
