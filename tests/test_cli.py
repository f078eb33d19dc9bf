"""Command-line front end: renderings, exit codes, description files."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from loophomology.cli import main


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """python -m with src/ on the path, so no install is needed."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_basis_sphere(capsys):
    code, out, err = run_cli(capsys, "basis", "--space", "qsn", "--n", "1", "--degree", "3")
    assert code == 0 and err == ""
    assert out == "Q^2 x_1\nx_1^3\n"


def test_basis_degree_zero_is_empty(capsys):
    code, out, _ = run_cli(capsys, "basis", "--space", "qsn", "--n", "1", "--degree", "0")
    assert code == 0 and out == ""


def test_basis_unit_component_lists_four(capsys):
    code, out, _ = run_cli(capsys, "basis", "--space", "qs0", "--degree", "3", "--charge", "0")
    assert code == 0
    assert out.splitlines() == [
        "Q^(2,1)[1] * [-4]",
        "Q^3[1] * [-2]",
        "Q^2[1] Q^1[1] * [-4]",
        "(Q^1[1])^3 * [-6]",
    ]


def test_basis_json(capsys):
    code, out, _ = run_cli(capsys, "basis", "--space", "qsn", "--n", "1", "--degree", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"basis": ["Q^2 x_1", "x_1^3"]}


def test_screen_text(capsys):
    code, out, _ = run_cli(
        capsys, "screen", "--space", "qsn", "--n", "1", "--degree", "9", "--loop", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[:5] == [
        "space qs1",
        "degree 9",
        "loop 3",
        "verdict candidates-remain",
        "candidate Q^(5,3) x_1",
    ]
    assert "bound l=3 max_generator_dim 9" in lines


def test_screen_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "screen", "--space", "qsn", "--n", "1", "--degree", "4", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"space", "degree", "loop", "candidates", "squares", "bounds"}
    assert data["candidates"] == ["Q^3 x_1"]
    assert data["squares"] == ["x_1^4"]
    assert data["loop"] is None


def test_screen_rejects_degree_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["screen", "--space", "qsn", "--n", "1", "--degree", "0"])
    assert exc.value.code == 2
    assert "argument --degree: must be >= 1, got 0" in capsys.readouterr().err


def test_deterministic_output(capsys):
    args = ("screen", "--space", "qsn", "--n", "1", "--degree", "8", "--json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_bounds_discrepancy_line(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--l", "3", "--k", "-1")
    assert code == 0
    assert out == "printed 14, oracle 18, discrepancy=true\n"


def test_bounds_main_case(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--l", "4", "--k", "1")
    assert code == 0
    assert out == "printed 66, oracle 82, discrepancy=true\n"


def test_immersion_threshold(capsys):
    code, out, _ = run_cli(capsys, "immersion-threshold", "--d", "1", "--k", "1")
    assert code == 0
    assert out.splitlines()[0] == "n_min 3"
    code, out, _ = run_cli(capsys, "immersion-threshold", "--d", "3", "--k", "2")
    assert code == 0
    assert out.splitlines()[0] == "n_min 21"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("bounds", "--l", "3", "--k", "-2"), "error: k must be >= -1\n"),
        (("immersion-threshold", "--d", "3", "--k", "0"), "error: need d >= 1 and k >= 1\n"),
    ],
)
def test_a_cell_below_the_s_minus1_member_is_refused(capsys, argv, err):
    # bounds --k -1 and immersion-threshold --k 1 are the bottom of the family
    assert run_cli(capsys, *argv) == (2, "", err)


def test_stable_range(capsys):
    code, out, _ = run_cli(capsys, "stable-range", "--d", "5", "--n", "3", "--l", "2")
    assert code == 0 and out == "true\n"
    code, out, _ = run_cli(capsys, "stable-range", "--d", "6", "--n", "3", "--l", "2")
    assert code == 0 and out == "false\n"


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "sum-identity")
    assert code == 0
    assert out.startswith("sum-identity pass")


def test_verify_runs_a_repeated_suite_once_in_first_seen_order(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "sum-identity", "--suite", "stable-range",
        "--suite", "sum-identity",
    )
    assert code == 0 and out == "sum-identity pass\nstable-range pass\n"


def test_verify_capped_suites(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "kernel-of-r", "--suite", "suspension-kernel",
        "--max-degree", "6",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("kernel-of-r pass")
    assert lines[1].startswith("suspension-kernel pass")


@pytest.mark.parametrize(
    "suite, empty, smallest",
    [("even-squares", "3", "4"), ("dimension-bounds", "1", "2")],
)
def test_empty_scope_is_an_error(capsys, suite, empty, smallest):
    # a scope that checks nothing is refused before any suite runs:
    # kernel-of-r, listed first, prints nothing
    code, out, err = run_cli(
        capsys, "verify", "--suite", "kernel-of-r", "--suite", suite, "--max-degree", empty
    )
    assert code == 2 and out == ""
    assert f"{suite} scope is empty: max degree {empty}" in err
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--max-degree", smallest)
    assert code == 0 and out.startswith(f"{suite} pass")


def test_space_file_round_trip(tmp_path, capsys):
    desc = {
        "model": "sigma2",
        "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 2}],
        "sq_action": [{"r": 1, "from": "b", "to": ["a"]}],
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(desc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "basis", "--space", str(path), "--degree", "4")
    assert code == 0
    assert out.splitlines() == ["b_4"]


def test_space_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "basis", "--space", str(missing), "--degree", "3")
    assert code == 2 and err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "basis", "--space", str(bad), "--degree", "3")
    assert code == 2 and err
    unknown_field = tmp_path / "extra.json"
    unknown_field.write_text(json.dumps({"model": "qs0", "zap": 1}), encoding="utf-8")
    code, _, err = run_cli(capsys, "basis", "--space", str(unknown_field), "--degree", "3")
    assert code == 2 and err


@pytest.mark.parametrize(
    "rows",
    [
        [{"r": 1, "from": "b", "to": ["a"]}, {"r": 1, "from": "b", "to": []}],
        [{"r": 1, "from": "b", "to": []}, {"r": 1, "from": "b", "to": ["a"]}],
        [{"r": 1, "from": "b", "to": ["a", "a"]}],
    ],
    ids=["two-rows", "two-rows-reversed", "repeated-target"],
)
def test_ambiguous_sq_action_rows_exit_2(tmp_path, capsys, rows):
    desc = {
        "model": "sigma2",
        "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 2}],
        "sq_action": rows,
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(desc), encoding="utf-8")
    code, out, err = run_cli(capsys, "screen", "--space", str(path), "--degree", "4")
    assert code == 2 and out == "" and err


@pytest.mark.parametrize("rows", [5, True, 0, False, "b", {}], ids=repr)
def test_an_sq_action_that_is_not_a_list_exits_2_naming_the_field(tmp_path, capsys, rows):
    # 5 and true used to end in Python's "'int' object is not iterable", and
    # 0, false and {} were read as no rows
    desc = {"model": "sigma2", "cells": [{"name": "a", "dim": 1}], "sq_action": rows}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(desc), encoding="utf-8")
    code, out, err = run_cli(capsys, "basis", "--space", str(path), "--degree", "3")
    assert (code, out, err) == (2, "", "error: sq_action must be a list of rows or null\n")


@pytest.mark.parametrize("desc", [{}, {"sq_action": None}, {"sq_action": []}], ids=repr)
def test_a_missing_or_null_sq_action_means_no_rows(tmp_path, capsys, desc):
    desc = {"model": "sigma2", "cells": [{"name": "a", "dim": 1}], **desc}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(desc), encoding="utf-8")
    code, out, err = run_cli(capsys, "basis", "--space", str(path), "--degree", "3")
    assert (code, out, err) == (0, "a_3\n", "")


NOT_A_MODULES = {
    # Sq^1_* Sq^1_* c = a, but Sq^1 Sq^1 = 0; without the check, screen
    # --degree 12 exits 0 and prints "square a_3^4"
    "sq1-sq1": (
        {"a": 1, "b": 2, "c": 3},
        [{"r": 1, "from": "c", "to": ["b"]}, {"r": 1, "from": "b", "to": ["a"]}],
        "12",
        "the Adem relation for Sq^1 Sq^1 fails on cell 'c'",
    ),
    # Sq^3_* b = a, but Sq^3 = Sq^1 Sq^2 and Sq^1_* b = 0; without the check,
    # screen --degree 7 exits 3 on a kernel vector that fails re-verification
    "sq3": (
        {"a": 2, "b": 5},
        [{"r": 3, "from": "b", "to": ["a"]}],
        "7",
        "the Adem relation for Sq^1 Sq^2 fails on cell 'b'",
    ),
}


@pytest.mark.parametrize("name", NOT_A_MODULES)
def test_a_description_that_is_not_an_A_module_exits_2(tmp_path, capsys, monkeypatch, name):
    import loophomology.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a description that is not an A-module")

    monkeypatch.setattr(cli, "screen_degree", no_work)
    cells, rows, degree, message = NOT_A_MODULES[name]
    desc = {
        "model": "sigma2",
        "cells": [{"name": c, "dim": d} for c, d in cells.items()],
        "sq_action": rows,
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(desc), encoding="utf-8")
    code, out, err = run_cli(capsys, "screen", "--space", str(path), "--degree", degree)
    assert code == 2 and out == ""
    assert err.startswith("error: sq_action is not an A-module: ") and message in err


def test_a_deeply_nested_description_exits_2_with_one_line(tmp_path):
    # json.load recurses once per "[", so this file used to end in a
    # RecursionError traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    proc = run_module("loophomology", "basis", "--space", str(path), "--degree", "3")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {path} is nested too deeply to read\n"


def test_a_huge_cell_with_no_action_loads_at_once(tmp_path):
    # no row reaches the cell, so no Adem relation is checked on it; the full
    # sweep over every (a, b) up to its dimension took 73 s at dim 2,000.
    # 32,767 is the largest dimension the packed degree field admits
    desc = {"model": "sigma2", "cells": [{"name": "a", "dim": 32_767}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(desc), encoding="utf-8")
    start = time.perf_counter()
    proc = run_module("loophomology", "screen", "--space", str(path), "--degree", "3")
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "verdict no-spherical-candidates\n" in proc.stdout


def test_a_cell_past_the_packed_degree_field_exits_2_before_the_adem_check(
    tmp_path, capsys, monkeypatch
):
    # _check_adem walks every b below the row's r, about 3 us each, so this
    # row would have taken about an hour to check
    import loophomology.spaces as spaces

    def no_walk(space):
        raise AssertionError("the Adem check ran on a cell past the packed degree field")

    monkeypatch.setattr(spaces, "_check_adem", no_walk)
    desc = {
        "model": "sigma2",
        "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 2**30 + 1}],
        "sq_action": [{"r": 2**30, "from": "b", "to": ["a"]}],
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(desc), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "screen", "--space", str(path), "--degree", "3")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: cell 'b' needs dimension <= 32767, got {2**30 + 1}\n"


@pytest.mark.parametrize("command", ["basis", "screen"])
@pytest.mark.parametrize("selector", ["qs0", "file"])
def test_n_outside_qsn_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, selector):
    import loophomology.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started on an --n that selects nothing")

    for name in ("screen_degree", "basis_lines"):
        monkeypatch.setattr(cli, name, no_work)
    if selector == "file":
        path = tmp_path / "space.json"
        path.write_text(
            json.dumps({"model": "sigma2", "cells": [{"name": "a", "dim": 1}]}), encoding="utf-8"
        )
        selector = str(path)
    code, out, err = run_cli(capsys, command, "--space", selector, "--n", "3", "--degree", "3")
    assert code == 2 and out == ""
    assert err == f"error: --n selects the sphere of --space qsn, not of {selector!r}\n"


def test_qsn_needs_n(capsys):
    code, _, err = run_cli(capsys, "basis", "--space", "qsn", "--degree", "3")
    assert code == 2 and err


def test_degree_budget_exit(capsys, monkeypatch):
    monkeypatch.setenv("LOOPHOMOLOGY_MAX_DEGREE", "5")
    code, _, err = run_cli(capsys, "basis", "--space", "qsn", "--n", "1", "--degree", "9")
    assert code == 4 and err


@pytest.mark.parametrize(
    "argv",
    [("bounds", "--l", "100000000", "--k", "0"), ("immersion-threshold", "--d", "100000000", "--k", "2")],
)
def test_a_level_past_the_budget_stops_before_any_bound(capsys, monkeypatch, argv):
    # the bounds grow as 2^l, so no bound may be formed past the budget
    import loophomology.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("a bound was formed past the budget")

    monkeypatch.delenv("LOOPHOMOLOGY_MAX_DEGREE", raising=False)
    for name in ("bounds_report", "immersion_threshold_report"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == ""
    assert err == (
        "error: degree 100000000 exceeds the budget of 24; "
        "raise LOOPHOMOLOGY_MAX_DEGREE to allow it\n"
    )


def test_a_raised_budget_admits_a_higher_level(capsys, monkeypatch):
    monkeypatch.setenv("LOOPHOMOLOGY_MAX_DEGREE", "30")
    code, out, _ = run_cli(capsys, "bounds", "--l", "30", "--k", "0")
    assert code == 0
    assert out == "printed 17179869186, oracle 32212254722, discrepancy=true\n"


def raise_in_screen(monkeypatch, exc: BaseException) -> None:
    import loophomology.cli as cli

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "screen_degree", fail)


def test_packed_field_overflow_is_a_limit(capsys, monkeypatch):
    from loophomology.errors import PackedFieldOverflow

    raise_in_screen(monkeypatch, PackedFieldOverflow("exponent 128 of x_1 does not fit"))
    code, out, err = run_cli(capsys, "screen", "--space", "qsn", "--n", "1", "--degree", "4")
    assert (code, out, err) == (4, "", "error: exponent 128 of x_1 does not fit\n")


def test_running_out_of_memory_is_a_limit(capsys, monkeypatch):
    raise_in_screen(monkeypatch, MemoryError())
    code, out, err = run_cli(capsys, "screen", "--space", "qsn", "--n", "1", "--degree", "4")
    assert (code, out, err) == (4, "", "error: out of memory\n")


def test_a_power_past_the_exponent_byte_is_listed_without_packing_it(capsys, monkeypatch):
    # x_1^128 does not fit the byte of its exponent, but its root x_1 is
    # checked and the power is squared as an element, never packed
    monkeypatch.setenv("LOOPHOMOLOGY_MAX_DEGREE", "132")
    code, out, err = run_cli(
        capsys, "screen", "--space", "qsn", "--n", "1", "--degree", "128", "--loop", "5"
    )
    assert code == 0 and err == ""
    assert "verdict candidates-include-squares\nsquare x_1^128\n" in out


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["screen", "--space", "qsn", "--n", "1", "--degree", "9", "--loop", "3"]
    code, out, err = run_cli(capsys, *argv)
    proc = run_module("loophomology", *argv)
    assert code == 0 and err == "" and "candidate Q^(5,3) x_1" in out
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_importing_the_main_module_runs_nothing(capsys):
    # a walk over the package's modules imports __main__ too
    importlib.import_module("loophomology.__main__")
    assert capsys.readouterr() == ("", "")


def test_console_script_subprocess():
    proc = run_module("loophomology.cli", "bounds", "--l", "3", "--k", "-1")
    assert proc.returncode == 0
    assert proc.stdout == "printed 14, oracle 18, discrepancy=true\n"


#: Modules a one-query process must not pay for: the process pool (with
#: multiprocessing, logging, socket and pickle behind it) and the dataclass
#: machinery (with inspect, ast and dis behind it).
HEAVY_IMPORTS = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")


def test_a_fresh_cli_import_loads_no_pool_and_no_dataclasses():
    # a fresh interpreter, importing from src/ with bytecode caching on, as an
    # installed command line does; only what the import itself adds counts,
    # so a site hook that loads one of these cannot fail the test
    script = (
        "import sys; before = set(sys.modules); import loophomology.cli; "
        f"print(sorted(m for m in {HEAVY_IMPORTS!r} if m in sys.modules and m not in before))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": SRC},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


def test_a_fresh_cli_import_loads_no_json():
    # json is imported where a description file is read or JSON is printed;
    # -S keeps site hooks from loading it first
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, loophomology.cli; print('json' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("screen", "--space", "qsn", "--n", "1", "--degree", "4", "--loop", "0"), "--loop"),
        (("screen", "--space", "qsn", "--n", "1", "--degree", "4", "--loop", "-3"), "--loop"),
        (("basis", "--space", "qs0", "--degree", "-2"), "--degree"),
        (("verify", "--suite", "kernel-of-r", "--max-degree", "0"), "--max-degree"),
        (("verify", "--max-degree", "-1"), "--max-degree"),
        (("verify", "--suite", "sum-identity", "--jobs", "2"), "--jobs"),
        (("verify", "--suite", "sum-identity", "--jobs", "1"), "--jobs"),
        (("screen", "--space", "/nonexistent.json", "--degree", "0"), "--degree"),
        (("stable-range", "--d", "-5", "--n", "1", "--l", "1"), "--d"),
        (("stable-range", "--d", "0", "--n", "0", "--l", "1"), "--n"),
        (("stable-range", "--d", "0", "--n", "1", "--l", "0"), "--l"),
    ],
)
def test_invalid_values_are_rejected_before_any_work(capsys, monkeypatch, argv, flag):
    # argparse rejects the value, so no command function ever runs
    import loophomology.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started on an invalid value")

    for name in ("screen_degree", "basis_lines", "run_suites", "stable_range_check", "load_space"):
        monkeypatch.setattr(cli, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # verify has no --jobs: argparse refuses it as unknown at any value, 1 included
    expected = "unrecognized arguments: --jobs" if flag == "--jobs" else f"argument {flag}: must be >= "
    assert expected in err
