"""The package's API is what the README names: every exported name appears
there in backticks, so a name cannot be exported without being documented."""

from __future__ import annotations

from pathlib import Path

import loophomology

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_every_exported_name_is_named_in_the_readme():
    assert [n for n in loophomology.__all__ if f"`{n}`" not in README] == []
