"""The sieve's stage memo for psi against the process-wide cache.

`screener._pri_ann_kernel` asks for psi cut below a monomial's degree at one
cut per stage.  Those cuts live in a memo that the stage owns and drops, not
in `hopf._psi_monomial`, which keeps only whole coproducts for the life of
the process.  The first test checks that the memo path returns exactly the
cached cut, with one memo shared by all codes of a degree as a stage shares
it; the others count what the caches hold after a CLI call in a fresh
process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loophomology import hopf
from loophomology.f2algebra import _basis_codes, _degree, _packing
from loophomology.hopf import _psi, _psi_monomial, _reduced_psi
from loophomology.spaces import qs0_space, qsn_space, two_cell_space

SRC = str(Path(__file__).resolve().parent.parent / "src")
MAX_DEGREE = 12

SPACES = pytest.mark.parametrize(
    "space, charge",
    [(qs0_space(), 0), (qsn_space(1), None), (two_cell_space(), None)],
    ids=["qs0-charge0", "qs1", "two-cell"],
)


@SPACES
def test_the_stage_memo_returns_the_cached_cut(monkeypatch, space, charge):
    p = _packing(space)
    real = hopf._psi_monomial
    asked = []

    def spy(q, m, k):
        asked.append((m, k))
        return real(q, m, k)

    for degree in range(1, MAX_DEGREE + 1):
        codes = _basis_codes(space, degree, charge)
        memo: dict = {}
        monkeypatch.setattr(hopf, "_psi_monomial", spy)
        staged = {(m, k): _psi(p, m, k, memo) for m in codes for k in range(degree + 2)}
        rows = {(m, k): _reduced_psi(p, m, k, memo) for m in codes for k in range(degree + 2)}
        monkeypatch.undo()
        # the memo path asks the process-wide cache for whole coproducts only,
        # and keeps only cuts below a monomial's degree
        assert all(k == _degree(m) for m, k in asked), space.label
        assert all(k < _degree(m) for m, k in memo), space.label
        for (m, k), terms in staged.items():
            assert terms == _psi_monomial(p, m, k), (space.label, m, k)
            assert rows[m, k] == _reduced_psi(p, m, k), (space.label, m, k)


COUNT_CACHES = """
import contextlib, io, json, sys
from loophomology import cli, hopf, steenrod
from loophomology.f2algebra import _degree

real = hopf._psi_monomial
asked = set()

def spy(p, m, k):
    asked.add((p, m, k))
    return real(p, m, k)

hopf._psi_monomial = spy
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
info = real.cache_info()
print(json.dumps({
    "rc": rc,
    "entries": info.currsize,
    "asked": len(asked),
    "cuts_below_degree": sum(k != _degree(m) for _, m, k in asked),
    "sq_total": steenrod._sq_total.cache_info().currsize,
}))
"""


def count_caches(*argv: str) -> dict:
    """The cache sizes after one CLI call in a fresh process."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_CACHES, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["rc"] == 0
    return counts


def test_even_squares_leaves_only_whole_coproducts_in_the_cache():
    counts = count_caches("verify", "--suite", "even-squares", "--max-degree", "16")
    # 4,970 entries when the sieve's cuts were kept for the whole process
    assert counts["entries"] <= 450
    # the spy saw every entry, and each one is a whole coproduct
    assert counts["asked"] == counts["entries"]
    assert counts["cuts_below_degree"] == 0
    # 1,930 before Sq_* took a square part through the Frobenius
    assert counts["sq_total"] == 1625


def test_squares_through_the_frobenius_keep_the_identity_caches_small():
    # psi and Sq_* of w^2 r read psi(w) and Sq_*(w), not every power of a
    # factor on the way up: 1,481 and 610 entries with the one-factor peel
    counts = count_caches("verify", "--suite", "hopf-consistency", "--suite", "primitive-basis")
    assert counts["entries"] <= 1300
    assert counts["sq_total"] <= 560
