"""The package's API is what the README names: every exported name appears
there in backticks, so a name cannot be exported without being documented,
and every name the API index lists is exported, so a name cannot leave the
package and stay in the index.  The exported names that no module and no
script reads are pinned, so a name joins that list only by an edit here."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import loophomology

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

#: The exported names that no module and no script reads: API kept for
#: users and the tests.
UNREAD_EXPORTS = [
    "base_element",
    "basis_enumerate",
    "coproduct",
    "lower",
    "lower_to_upper",
    "space_to_dict",
    "suspend",
    "suspension_kernel_basis",
]


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


def _names_read(tree: ast.AST) -> set[str]:
    """The Name and Attribute loads of a module, leaving out those inside the
    def or class of the same name, so a recursive call is not a reader."""
    found: set[str] = set()

    def walk(node: ast.AST, defining: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining |= {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in defining:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, defining)

    walk(tree, frozenset())
    return found


def test_the_exported_names_nothing_reads_are_pinned():
    # __init__ only re-exports, and an import is not a read
    package = ROOT / "src" / "loophomology"
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    read: set[str] = set()
    for path in paths + list((ROOT / "scripts").glob("*.py")):
        read |= _names_read(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(n for n in loophomology.__all__ if n not in read) == UNREAD_EXPORTS


def test_a_recursive_call_is_not_a_reader():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\ndef g():\n    return mod.h\n")
    assert _names_read(tree) == {"n", "mod", "h"}
