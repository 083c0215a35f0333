"""README: its command-line tables are the CLI's own keys and resolved
defaults, it states no timing, its examples run and the tests it cites exist."""

import re
import shlex
from pathlib import Path

import pytest

from savbdf import cli, tableau
from savbdf.stepper import MAX_STEPS
from savbdf.tableau import MAX_ORDER

TESTS = Path(__file__).resolve().parent
README = (TESTS.parent / "README.md").read_text()
NOT_READ = "—"
SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def _section(title: str) -> str:
    """The text of README's `## title` section."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _table(first: str) -> list[list[str]]:
    """The Command line section's table whose header starts with `first`: its rows of
    stripped cells, header first, without the rule."""
    tables, rows = [], []
    for line in _section("Command line").splitlines() + [""]:
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if not all(set(c) <= {"-"} for c in cells):
                rows.append(cells)
        elif rows:
            tables.append(rows)
            rows = []
    (table,) = [t for t in tables if t[0][0] == first]
    return table


def _scalar(text: str):
    if re.fullmatch(r"\d+x\d+", text):
        return tuple(int(n) for n in text.split("x"))
    if re.fullmatch(r"\d+/\d+", text):
        num, den = text.split("/")
        return int(num) / int(den)
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _value(cell: str):
    """A cell's default: a number, a fraction a/b, a grid AxB, a word, or a list of those."""
    items = [_scalar(v) for v in cell.strip("`").split()]
    return items[0] if len(items) == 1 else tuple(items)


def _code_block(section: str, lang: str = "") -> str:
    return re.search(rf"```{lang}\n(.*?)```", _section(section), re.S).group(1)


def test_keys_table_is_cli_experiments():
    rows = {row[0].strip("`"): row[1] for row in _table("experiment")[1:]}
    assert sorted(rows) == sorted(cli.EXPERIMENTS)
    for experiment, cell in rows.items():
        keys = tuple(re.match(r"`([^`]*)`", cell).group(1).split())
        assert keys == cli.EXPERIMENTS[experiment]
        assert ("+ the problem's" in cell) == ("problem" in keys)


def test_problem_table_is_cli_problems():
    header, *rows = _table("problem")
    assert header[1] == "grid"
    assert sorted(row[0].strip("`") for row in rows) == sorted(cli.PROBLEMS)
    for row in rows:
        read = [key for key, cell in zip(header[2:], row[2:]) if cell != NOT_READ]
        assert sorted(read) == sorted(cli.PROBLEMS[row[0].strip("`")])


# each experiment at its defaults, then on each problem it runs
CASES = [(experiment, problem) for experiment, keys in cli.EXPERIMENTS.items()
         for problem in (None, *(cli.PROBLEMS if "problem" in keys else ()))
         if (experiment, problem) != ("converge", "burgers")]


@pytest.mark.parametrize("experiment, problem", CASES)
def test_defaults_tables_are_the_resolved_settings(experiment, problem):
    overrides = {"experiment": experiment, **({} if problem is None else {"problem": problem})}
    cfg = cli.parse_config(None, overrides)
    keys = cli._settable_keys(experiment, [cfg.problem])
    checked = {"out", "dt_list"} & set(keys)  # by their own tests below
    header, *rows = _table("key")
    column = header.index(experiment)
    for row in rows:
        key, cell = row[0].strip("`"), row[column]
        if key == "problem" and cell == NOT_READ:
            assert "problem" not in keys and cfg.problem == "burgers"
            continue
        assert (cell != NOT_READ) == (key in keys), key
        if cell != NOT_READ:
            assert key in overrides or getattr(cfg, key) == _value(cell), key
            checked.add(key)
    header, *rows = _table("problem")
    (row,) = [row for row in rows if row[0] == f"`{cfg.problem}`"]
    for key, cell in zip(header[1:], row[1:]):
        if key not in keys:
            continue
        want = _value(cell)
        if key == "grid":
            assert cfg.grid == (want if isinstance(want, tuple) else (want,))
        elif key == "c_shift":  # resolved by the factory: c_shift |Omega| = 1
            assert cfg.c_shift is None
            assert cli._build_problem(cfg).c_shift == want
        else:
            assert getattr(cfg, key) == want, key
        checked.add(key)
    assert checked == set(keys)


def test_order_table_is_the_resolved_eta_exponent_and_ladder():
    rows = _table("k")[1:]
    assert [int(row[0]) for row in rows] == list(range(1, MAX_ORDER + 1))
    for k, p, ladder in rows:
        k = int(k)
        # p follows the order, the smallest that keeps order k
        assert tableau(k).eta_exponent == _value(p) >= k + 1
        assert cli.parse_config(None, {"experiment": "converge", "order": k}).dt_list == _value(ladder)


def test_step_cap_and_output_default():
    power = re.search(r"`MAX_STEPS` = 10([⁰¹²³⁴⁵⁶⁷⁸⁹]+)", README).group(1)
    assert MAX_STEPS == 10 ** int(power.translate(SUPERSCRIPTS))
    assert re.search(r"`--out DIR` \(default `(\w+)`\)", README).group(1) == cli.RunConfig.out


def test_readme_states_no_timing():
    assert not re.findall(r"\d\s*(?:µs|us|ms)\b|microsecond|millisecond", README)


def test_library_example_runs(capsys):
    exec(compile(_code_block("Library", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_command_line_examples_exit_0(tmp_path):
    lines = [line for line in _code_block("Command line").splitlines() if line.startswith("savbdf ")]
    assert len(lines) == len(cli.EXPERIMENTS)
    for line in lines:
        argv = shlex.split(line)[1:]
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / argv[out])
        assert cli.main(argv) == cli.EXIT_OK, line


def test_cited_tests_exist():
    # a bare `test_...` name is in test_stepper.py, one with a path in that file, and `cN`
    # is test_acceptance.py's test_cN_...; a renamed or deleted test leaves a dead citation
    cited = re.findall(r"`(?:tests/(test_\w+\.py)::)?(test_\w+)`", README)
    criteria = re.findall(r"`c(\d+)`", README)
    assert cited and criteria
    for path, name in cited:
        source = (TESTS / (path or "test_stepper.py")).read_text()
        assert re.search(rf"^def {name}\(", source, re.M), f"{path or 'test_stepper.py'}::{name}"
    acceptance = (TESTS / "test_acceptance.py").read_text()
    for n in criteria:
        assert re.search(rf"^def test_c{n}_", acceptance, re.M), f"c{n}"
