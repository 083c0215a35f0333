"""Errors: every exception class the package defines is a `SavError` with the
base and the exit code README's table gives, and no module raises a bare
builtin exception, so the CLI can handle every failure by its class."""

import ast
import builtins
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

from savbdf import (Grid, SavError, SettingError, allen_cahn, burgers, cahn_hilliard, scalar_decay,
                    step_count, tableau)

ROOT = Path(__file__).resolve().parents[1]
BARE = {"ValueError", "RuntimeError", "TypeError"}


def _bare_raises(source: str, filename: str = "<source>") -> list[str]:
    """Each `raise E(...)` or `raise E` of a builtin exception E in BARE."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BARE:
                found.append(f"{filename}:{node.lineno}: raise {exc.id}")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("raise ValueError('x')\n", True),
    ("raise RuntimeError\n", True),
    ("raise TypeError('x') from None\n", True),
    ("def f():\n    raise ValueError(\n        'x')\n", True),
    ("raise SettingError('dt', 'x')\n", False),
    ("try:\n    pass\nexcept ValueError:\n    raise\n", False),
])
def test_bare_raise_scan_flags_each_form(source, flagged):
    assert bool(_bare_raises(source)) == flagged


def test_package_raises_no_bare_builtin_exception():
    paths = sorted((ROOT / "src" / "savbdf").rglob("*.py"))
    found = [entry for path in paths
             for entry in _bare_raises(path.read_text(), str(path.relative_to(ROOT)))]
    assert not found, f"bare builtin raises: {found}"


def _readme_table() -> dict[str, tuple[str, int]]:
    """README's exit-code table: class name -> (base class name, exit code)."""
    rows = re.findall(r"^\| `(\w+)` +\| `(\w+)` +\| (\d) +\|", (ROOT / "README.md").read_text(), re.M)
    return {name: (base, int(code)) for name, base, code in rows}


def test_every_package_error_is_a_sav_error_with_the_readme_exit_code():
    modules = [importlib.import_module(f"savbdf.{path.stem}")
               for path in sorted((ROOT / "src" / "savbdf").glob("*.py")) if path.stem != "__init__"]
    defined = {obj.__name__: obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == module.__name__}
    table = _readme_table()
    assert sorted(defined) == sorted(table)
    for name, cls in defined.items():
        base, code = table[name]
        assert issubclass(cls, SavError), name
        assert issubclass(cls, defined.get(base) or getattr(builtins, base)), name
        assert cls.exit_code == code, name


FOURIER, SINE = Grid.fourier2d(8), Grid.sine1d(8)
#: (the function, the setting it passes its argument as, a call of it with that argument)
NUMERIC_SETTINGS = [
    ("fourier2d", "extents", Grid.fourier2d),
    ("sine1d", "extents", Grid.sine1d),
    ("tableau", "order", tableau),
    ("allen_cahn", "alpha", lambda v: allen_cahn(FOURIER, alpha=v)),
    ("allen_cahn", "stabilization", lambda v: allen_cahn(FOURIER, stabilization=v)),
    ("allen_cahn", "c_shift", lambda v: allen_cahn(FOURIER, c_shift=v)),
    ("cahn_hilliard", "alpha", lambda v: cahn_hilliard(FOURIER, alpha=v)),
    ("cahn_hilliard", "mobility", lambda v: cahn_hilliard(FOURIER, mobility=v)),
    ("cahn_hilliard", "stabilization", lambda v: cahn_hilliard(FOURIER, stabilization=v)),
    ("cahn_hilliard", "c_shift", lambda v: cahn_hilliard(FOURIER, c_shift=v)),
    ("burgers", "nu", lambda v: burgers(SINE, v)),
    ("burgers", "c_shift", lambda v: burgers(SINE, 0.1, c_shift=v)),
    ("scalar_decay", "rate", scalar_decay),
    ("step_count", "dt", lambda v: step_count(v, 1.0, 1)),
    ("step_count", "T", lambda v: step_count(0.1, v, 1)),
]
# a c_shift of None is the documented default, not a bad value
NOT_A_FLOAT = [pytest.param(setting, call, value, id=f"{function}-{setting}-{label}")
               for function, setting, call in NUMERIC_SETTINGS
               for value, label in ((10 ** 400, "10**400"), ("1", "str"), (None, "None"),
                                    (True, "bool"), (np.bool_(True), "numpy_bool"))
               if not (setting == "c_shift" and value is None)]


@pytest.mark.parametrize("setting, call, value", NOT_A_FLOAT)
def test_a_value_no_float_stands_for_is_a_setting_error_on_its_setting(setting, call, value):
    # not the OverflowError or TypeError of the arithmetic that would read it
    with pytest.raises(SettingError) as exc:
        call(value)
    assert exc.value.setting == setting


def test_numpy_real_scalars_are_numbers():
    assert step_count(np.float32(0.5), np.int64(1), 1) == 2
