"""Smoke tests of the scripts under scripts/, each run as a subprocess, and
of their exit codes, which follow the CLI's table through cli.run."""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from loophomology.errors import CounterexampleFound, PackedFieldOverflow

ROOT = Path(__file__).resolve().parents[1]


def run_script(
    name: str, *argv: str, stdout=subprocess.PIPE, **env: str
) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def assert_one_line_error(proc: subprocess.CompletedProcess, code: int) -> None:
    assert proc.returncode == code and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


def assert_usage_error(proc: subprocess.CompletedProcess, message: str) -> None:
    """argparse refused a flag value: exit 2 and its usage line, before any work."""
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: ") and proc.stderr.endswith(f"error: {message}\n")


def test_screen_space_sweeps_the_degrees():
    proc = run_script("screen_space.py", "--space", "qsn", "--n", "1", "--max-degree", "3")
    assert proc.returncode == 0 and proc.stderr == ""
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["d=1", "d=2", "d=3"]


def test_screen_space_exits_quietly_when_the_reader_has_gone():
    # the reader closes the pipe before the first line, as `| head -1` does
    # once it has its line: every write meets EPIPE, buffered or not
    read, write = os.pipe()
    os.close(read)
    with open(write, "wb") as closed:
        proc = run_script(
            "screen_space.py", "--space", "qsn", "--n", "1", "--max-degree", "24", stdout=closed
        )
    assert proc.returncode == 0 and proc.stderr == ""


@pytest.mark.parametrize("flag", ["--loop", "--max-degree"])
def test_screen_space_rejects_a_scope_that_checks_nothing(flag):
    proc = run_script(
        "screen_space.py", "--space", "qsn", "--n", "1", "--max-degree", "3", flag, "0"
    )
    assert_usage_error(proc, f"argument {flag}: must be >= 1, got 0")


def test_screen_space_refuses_an_n_outside_qsn():
    proc = run_script("screen_space.py", "--space", "qs0", "--n", "3", "--max-degree", "3")
    assert_one_line_error(proc, 2)
    assert "--n selects the sphere of --space qsn" in proc.stderr


def test_screen_space_stays_inside_the_degree_budget():
    proc = run_script(
        "screen_space.py", "--space", "qsn", "--n", "1", "--max-degree", "5",
        LOOPHOMOLOGY_MAX_DEGREE="4",
    )
    assert_one_line_error(proc, 4)
    assert "degree 5 exceeds the budget of 4" in proc.stderr


def test_screen_space_sweeps_past_the_exponent_byte():
    # the sweep reaches x_1^128, whose exponent does not fit its byte; the
    # powers are squared as elements, so it goes on to 132
    proc = run_script(
        "screen_space.py", "--space", "qsn", "--n", "1", "--loop", "5", "--max-degree", "132",
        LOOPHOMOLOGY_MAX_DEGREE="132",
    )
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 132
    assert lines[127].startswith("d=128 ") and lines[127].endswith("squares: x_1^128")
    assert lines[129].startswith("d=130 ")
    assert lines[129].endswith("squares: (Q^(33,17,9,5) x_1)^2")


def test_run_certification_checks_every_cap_before_any_suite():
    proc = run_script(
        "run_certification.py", "--suite", "kernel-of-r", "--suite", "even-squares",
        LOOPHOMOLOGY_MAX_DEGREE="16",
    )
    assert_one_line_error(proc, 4)
    assert "degree 20 exceeds the budget of 16" in proc.stderr


def test_run_certification_rejects_an_empty_scope():
    proc = run_script(
        "run_certification.py", "--suite", "kernel-of-r", "--suite", "wellington",
        "--max-degree", "0",
    )
    assert_usage_error(proc, "argument --max-degree: must be >= 1, got 0")


def test_run_certification_refuses_an_empty_suite_scope_before_any_suite():
    # kernel-of-r has a scope at max degree 1, dimension-bounds has none
    proc = run_script(
        "run_certification.py", "--suite", "kernel-of-r", "--suite", "dimension-bounds",
        "--max-degree", "1",
    )
    assert_one_line_error(proc, 2)
    assert proc.stderr == "error: dimension-bounds scope is empty: max degree 1 is below 2\n"


def test_run_certification_refuses_a_scope_that_checks_nothing():
    # even-squares checks its first root, 2, at max degree 4
    proc = run_script("run_certification.py", "--suite", "even-squares", "--max-degree", "3")
    assert_one_line_error(proc, 2)


def test_run_certification_passes_a_cheap_suite():
    proc = run_script("run_certification.py", "--suite", "sum-identity")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.split()[:2] == ["sum-identity", "pass"]


def test_run_certification_runs_a_repeated_suite_once():
    proc = run_script("run_certification.py", "--suite", "sum-identity", "--suite", "sum-identity")
    assert proc.returncode == 0 and proc.stderr == ""
    assert [line.split()[:2] for line in proc.stdout.splitlines()] == [["sum-identity", "pass"]]


def test_bound_tables_prints_its_three_tables():
    proc = run_script("bound_tables.py", "--max-l", "3", "--max-k", "1")
    assert proc.returncode == 0 and proc.stderr == ""
    headers = [line for line in proc.stdout.splitlines() if line.startswith("# ")]
    assert headers == [
        "# max generator dimension (closed form vs exhaustive), base dim 1",
        "# doubled bounds: printed form vs oracle",
        "# immersion thresholds n_min(d, k)",
    ]
    assert "discrepancy" in proc.stdout
    # one family: each level's rows run over k = -1..--max-k, with no label
    rows = [line.split()[:2] for line in proc.stdout.splitlines() if " printed=" in line]
    assert rows == [[f"l={l}", f"k={k}"] for l in (2, 3) for k in (-1, 0, 1)]
    assert proc.stdout.splitlines()[-1] == (
        "parenthesized values use twice the closed-form max_generator_dim"
        " in place of the printed form")


@pytest.mark.parametrize("flag", ["--max-l", "--max-k"])
def test_bound_tables_rejects_a_table_that_lists_nothing(flag):
    proc = run_script("bound_tables.py", flag, "0")
    assert_usage_error(proc, f"argument {flag}: must be >= 1, got 0")


def test_bound_tables_stays_inside_the_degree_budget():
    # the exhaustive oracle is exponential in the level
    proc = run_script("bound_tables.py", "--max-l", "5", LOOPHOMOLOGY_MAX_DEGREE="4")
    assert_one_line_error(proc, 4)
    assert "degree 5 exceeds the budget of 4" in proc.stderr


def _load_script(stem: str):
    spec = importlib.util.spec_from_file_location(stem, ROOT / "scripts" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: each script that exits through cli.run, with flags that pass argparse and
#: the engine call its body makes first
FRONT_ENDS = {
    "screen_space": (["--space", "qsn", "--n", "1", "--max-degree", "2"], "load_space"),
    "bound_tables": (["--max-l", "2", "--max-k", "1"], "ensure_degree_allowed"),
    "run_certification": (["--suite", "sum-identity"], "check_scope"),
}


@pytest.mark.parametrize("raised, code, stderr", [
    (MemoryError(), 4, "error: out of memory\n"),
    (PackedFieldOverflow("exponent 128 past its byte"), 4, "error: exponent 128 past its byte\n"),
    (CounterexampleFound("witness x_1"), 3, "counterexample: witness x_1\n"),
], ids=["memory", "packed-field", "counterexample"])
@pytest.mark.parametrize("stem", sorted(FRONT_ENDS))
def test_every_script_maps_an_engine_error_to_its_exit_code(
    stem, raised, code, stderr, monkeypatch, capsys
):
    script = _load_script(stem)
    argv, first_call = FRONT_ENDS[stem]

    def fail(*args, **kwargs):
        raise raised

    monkeypatch.setattr(script, first_call, fail)
    monkeypatch.setattr(sys, "argv", [f"{stem}.py", *argv])
    assert script.main() == code
    assert capsys.readouterr() == ("", stderr)


@pytest.mark.parametrize("stem", sorted(FRONT_ENDS))
def test_every_script_leaves_its_exit_codes_to_cli_run(stem):
    # the policy is written once, in cli.run: a script that catches an error
    # or exits on its own would keep a second copy of it
    tree = ast.parse((ROOT / "scripts" / f"{stem}.py").read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    assert not [n for n in nodes if isinstance(n, ast.Try)]
    assert "SystemExit" not in {n.id for n in nodes if isinstance(n, ast.Name)}
    assert "SystemExit" not in {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    assert any(isinstance(n, ast.ImportFrom) and n.module == "loophomology.cli"
               and "run" in {a.name for a in n.names} for n in nodes)
    (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    last = main.body[-1]
    assert isinstance(last, ast.Return) and isinstance(last.value, ast.Call)
    assert isinstance(last.value.func, ast.Name) and last.value.func.id == "run"


@pytest.mark.parametrize("argv", [[], ["--pr", "0"], ["--pr", "x"], ["--pr", "1", "--seconds", "3"]])
def test_bench_snapshot_checks_its_arguments_before_any_run(argv, monkeypatch, capsys):
    snap = _load_script("bench_snapshot")
    ran = []
    monkeypatch.setattr(snap, "compileall", SimpleNamespace(compile_dir=ran.append))
    monkeypatch.setattr(snap, "subprocess", SimpleNamespace(run=ran.append))
    with pytest.raises(SystemExit) as exc:
        snap.main(argv)
    assert exc.value.code == 2 and ran == [] and capsys.readouterr().out == ""
    proc = run_script("bench_snapshot.py", *argv)
    assert proc.returncode == 2 and proc.stdout == "" and "--pr" in proc.stderr


def _canned_run(trace: int) -> str:
    """What perfbench/run.py --workload all prints, cut to two workloads."""
    lines = []
    for w in ("certify-hopf", "cli-session"):
        lines.append(f"{w:20s} {'wall_s':44s} {0.5:14.6g} s      n=3")
        lines.append(f"{w:20s} info: failed_frac=0/40 sha=abc123 python=3.11.7 nproc=2 "
                     f"repo.src_lines=3759 host.probe_s=0.1500/{0.16 + trace:.4f}")
    metrics = {"certify-hopf.wall_s": {"value": 0.18, "unit": "s"}} if not trace else {
        "certify-hopf.hopf.coproduct.calls": {"value": 0, "unit": "count"},
        "certify-hopf.steenrod.sq_lower.calls": {"value": 12, "unit": "count"},
        "certify-hopf.repo.src_lines": {"value": 3759, "unit": "lines"},
    }
    lines.append(json.dumps({"correct": True, "attempted": 80, "failed": 0, "metrics": metrics}))
    return "\n".join(lines) + "\n"


def _git_status(stdout: str, returncode: int = 0):
    """`git status --porcelain -- src` in a tree, as subprocess.run returns it."""
    return lambda: SimpleNamespace(returncode=returncode, stdout=stdout)


def _no_git():
    raise FileNotFoundError("git")


def _snapshot_on_canned_output(snap, root, monkeypatch, git) -> tuple[list[str], list]:
    """Run snap.main under root on canned harness output, git() answering the
    git call; the outputs it was given and the harness runs it made."""
    outputs = [_canned_run(0), _canned_run(1)]
    compiled, ran = [], []

    def harness(argv, **kwargs):
        if argv[0] == "git":
            assert argv == ["git", "status", "--porcelain", "--", "src"] and not ran
            assert kwargs["cwd"] == root
            return git()
        ran.append((argv, kwargs["cwd"]))
        # the package and the harness, compiled before the first run
        assert compiled == [root / "src", root / "perfbench"]
        return SimpleNamespace(returncode=0, stdout=outputs[len(ran) - 1])

    monkeypatch.setattr(snap, "ROOT", root)
    monkeypatch.setattr(snap, "compileall", SimpleNamespace(
        compile_dir=lambda path, **kwargs: compiled.append(path)))
    monkeypatch.setattr(snap, "subprocess", SimpleNamespace(run=harness))
    assert snap.main(["--pr", "33"]) == 0
    return outputs, ran


def test_bench_snapshot_writes_what_the_harness_printed(tmp_path, monkeypatch, capsys):
    snap = _load_script("bench_snapshot")
    outputs, ran = _snapshot_on_canned_output(snap, tmp_path, monkeypatch, _git_status(""))
    assert capsys.readouterr().out == "BENCH_33.json\n"
    assert ran == [([sys.executable, *command[1:]], tmp_path) for command in snap.COMMANDS]
    content = json.loads((tmp_path / "BENCH_33.json").read_text(encoding="utf-8"))
    assert list(content) == ["pr", "runs", "notes", "src_status"] and content["pr"] == 33
    assert content["src_status"] == []  # a clean tree
    commands = [run["command"] for run in content["runs"]]
    assert commands == [
        f"python3 perfbench/run.py --workload all --seed 1 --seconds {snap.SECONDS} --trace {t}"
        for t in (0, 1)
    ]
    for run, stdout in zip(content["runs"], outputs):
        assert run["result"] == json.loads(stdout.splitlines()[-1])
        assert list(run["info"]) == ["certify-hopf", "cli-session"]
        assert run["info"]["cli-session"]["repo.src_lines"] == 3759
    assert content["runs"][1]["info"]["certify-hopf"] == {
        "sha": "abc123", "python": "3.11.7", "nproc": 2, "repo.src_lines": 3759,
        "host.probe_s": [0.15, 1.16],
    }
    notes = content["notes"]
    assert "21 MB" in notes and "masks_for_term_sets" in notes
    assert "1 of 2 per-layer *.calls counters read 0" in notes
    assert "certify-hopf.hopf.coproduct.calls" in notes and "sq_lower" not in notes
    with pytest.raises(ValueError):
        snap.snapshot(33, [_canned_run(0), ""])
    # an edited tree is marked with its changed files
    edited = " M src/loophomology/certify.py\n?? src/loophomology/new.py\n"
    _snapshot_on_canned_output(snap, tmp_path, monkeypatch, _git_status(edited))
    content = json.loads((tmp_path / "BENCH_33.json").read_text(encoding="utf-8"))
    assert content["src_status"] == [" M src/loophomology/certify.py", "?? src/loophomology/new.py"]


@pytest.mark.parametrize("git", [_git_status("", returncode=128), _no_git],
                         ids=["not-a-checkout", "no-git"])
def test_bench_snapshot_writes_null_where_git_cannot_say(git, tmp_path, monkeypatch):
    _snapshot_on_canned_output(_load_script("bench_snapshot"), tmp_path, monkeypatch, git)
    content = json.loads((tmp_path / "BENCH_33.json").read_text(encoding="utf-8"))
    assert content["src_status"] is None
