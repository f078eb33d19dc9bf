"""The package's API is what the README names: every exported name appears
there in backticks, so a name cannot be exported without being documented,
and every name the API index lists is exported, so a name cannot leave the
package and stay in the index."""

from __future__ import annotations

import re
from pathlib import Path

import loophomology

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _index_names(readme: str) -> list[str]:
    """The backticked names heading the nested bullets of the API index."""
    section = readme.split("\n### API index\n", 1)[1].split("\n#", 1)[0]
    bullets = [line[4:] for line in section.splitlines() if line.startswith("  - ")]
    heads = [bullet.split(" — ", 1)[0] for bullet in bullets]
    return re.findall(r"`([^`]+)`", " ".join(heads))


def test_every_exported_name_is_named_in_the_readme():
    assert [n for n in loophomology.__all__ if f"`{n}`" not in README] == []


def test_every_name_in_the_api_index_is_exported():
    names = _index_names(README)
    assert "bound_main1" in names and "UnsupportedOperand" in names
    assert [n for n in names if n not in loophomology.__all__] == []


def test_a_stale_api_index_entry_is_caught():
    live = "  - `bound_main1` —"
    assert live in README
    stale = README.replace(live, "  - `bound_s_minus1` — a removed bound.\n" + live, 1)
    assert [n for n in _index_names(stale) if n not in loophomology.__all__] == ["bound_s_minus1"]
