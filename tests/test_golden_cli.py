"""Golden CLI sweep: every query the benchmark's cli-session can issue prints
the bytes recorded in perfbench/expected_digests.json.

All queries run in one process through cli.main, so they share the operation
caches, where the digests were recorded with one fresh process per query; the
sweep thus also checks that a warm cache changes no output.  Both perfbench
files are only read.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
from pathlib import Path

from loophomology.certify import BUDGET_ENV
from loophomology.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_recorded_query_prints_its_digest(tmp_path, monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    expected = workloads.load_digests()
    paths = workloads.write_descriptions(tmp_path)
    queries = [q for strata in workloads.query_universe().values() for q in strata]
    assert len(queries) == len(expected)
    mismatched = []
    for query in queries:
        key = " ".join(query)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([paths.get(arg, arg) for arg in query])
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        if code != 0 or digest != expected[key]:
            mismatched.append(f"{key}: exit {code}")
    assert not mismatched, mismatched
