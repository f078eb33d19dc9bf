"""Space descriptions: validation, tower moves, description-file parsing."""

from __future__ import annotations

import ast
import random
import re
import time
from pathlib import Path

import pytest

import loophomology
from loophomology.errors import NoSuccessor
from loophomology.seqcore import lucas_binom
from loophomology.spaces import (
    SpaceDesc,
    SqEntry,
    qs0_space,
    qsn_space,
    space_from_dict,
    space_to_dict,
    suspension_space,
    two_cell_space,
)


def test_labels():
    assert qs0_space().label == "qs0"
    assert qsn_space(3).label == "qs3"
    assert two_cell_space().label == "q_susp2[a,b]"


def test_base_classes_and_charge():
    assert qs0_space().has_charge()
    assert not qsn_space(1).has_charge()
    (b,) = qsn_space(2).base_classes()
    assert b.dimension == 2
    dims = [b.dimension for b in two_cell_space().base_classes()]
    assert dims == [3, 4]  # cell dims 1 and 2, suspended twice


def test_a_cell_dimension_is_held_to_the_packed_degree_field():
    from loophomology.f2algebra import MAX_DEGREE

    assert suspension_space({"a": MAX_DEGREE}).x_cells == (("a", MAX_DEGREE),)
    with pytest.raises(ValueError, match=f"cell 'a' needs dimension <= {MAX_DEGREE}, got"):
        suspension_space({"a": MAX_DEGREE + 1})


def test_tower_moves():
    assert qs0_space().successor() == qsn_space(1)
    assert qsn_space(1).predecessor() == qs0_space()
    assert qsn_space(4).predecessor() == qsn_space(3)
    tc = two_cell_space()
    assert tc.predecessor().level == 1
    with pytest.raises(NoSuccessor):
        qs0_space().predecessor()
    with pytest.raises(NoSuccessor):
        tc.predecessor().predecessor()


def test_model_validation():
    with pytest.raises(ValueError):
        SpaceDesc("qsn", n=0)
    with pytest.raises(ValueError):
        SpaceDesc("qs0", n=1)
    with pytest.raises(ValueError):
        SpaceDesc("nope")
    with pytest.raises(ValueError):
        suspension_space({"a": 1, "b": 2}, (SqEntry(1, "b", ("missing",)),))
    with pytest.raises(ValueError):
        # Sq^1 must drop dimension by exactly one
        suspension_space({"a": 1, "b": 3}, (SqEntry(1, "b", ("a",)),))
    # a second row for one (r, from) would be ignored, a repeated target cancel
    with pytest.raises(ValueError, match="more than one row"):
        suspension_space({"a": 1, "b": 2}, (SqEntry(1, "b", ("a",)), SqEntry(1, "b", ())))
    with pytest.raises(ValueError, match="names a target twice"):
        suspension_space({"a": 1, "b": 2}, (SqEntry(1, "b", ("a", "a")),))


def test_cell_action_lookup():
    space = suspension_space({"a": 1, "b": 2}, (SqEntry(1, "b", ("a",)),))
    (a, b) = space.base_classes()
    assert space.base_sq_action(1, b) == (a,)
    assert space.base_sq_action(2, b) == ()
    assert space.base_sq_action(1, a) == ()


def test_file_round_trip():
    for space in (qs0_space(), qsn_space(2),
                  suspension_space({"a": 1, "b": 2}, (SqEntry(1, "b", ("a",)),))):
        assert space_from_dict(space_to_dict(space)) == space


@pytest.mark.parametrize("space, level", [
    (two_cell_space().predecessor(), 1), (two_cell_space().successor(), 3),
])
def test_file_refuses_a_suspension_level_it_cannot_hold(space, level):
    # a file has no level field and reads back as level 2, a different space
    assert space.level == level
    with pytest.raises(ValueError) as exc:
        space_to_dict(space)
    assert str(exc.value) == f"a description file holds a double suspension, not level {level}"


def test_file_rejects_unknown_fields():
    with pytest.raises(ValueError):
        space_from_dict({"model": "qs0", "extra": 1})
    with pytest.raises(ValueError):
        space_from_dict({"model": "qsn", "n": 1, "cells": []})
    with pytest.raises(ValueError):
        space_from_dict({"model": "qsn", "n": True})
    with pytest.raises(ValueError):
        space_from_dict({"model": "sigma2", "cells": [{"name": "a", "dim": 1, "x": 2}]})
    with pytest.raises(ValueError):
        space_from_dict({"model": "sigma2", "cells": []})
    with pytest.raises(ValueError):
        space_from_dict([1, 2])


def test_file_sigma2():
    space = space_from_dict(
        {
            "model": "sigma2",
            "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 2}],
            "sq_action": [{"r": 1, "from": "b", "to": ["a"]}],
        }
    )
    assert space.level == 2
    assert [b.dimension for b in space.base_classes()] == [3, 4]


def sigma2(cells: dict, rows: list) -> dict:
    return {
        "model": "sigma2",
        "cells": [{"name": c, "dim": d} for c, d in cells.items()],
        "sq_action": [{"r": r, "from": src, "to": to} for r, src, to in rows],
    }


@pytest.mark.parametrize(
    "cells, rows, relation, cell",
    [
        ({"a": 1, "b": 2, "c": 3}, [(1, "c", ["b"]), (1, "b", ["a"])], "Sq^1 Sq^1", "c"),
        ({"a": 2, "b": 5}, [(3, "b", ["a"])], "Sq^1 Sq^2", "b"),
        # Sq^2 Sq^2 = Sq^3 Sq^1: Sq^2_* Sq^2_* d = a, but Sq^3_* d = 0
        ({"a": 1, "b": 3, "d": 5}, [(2, "d", ["b"]), (2, "b", ["a"])], "Sq^2 Sq^2", "d"),
    ],
    ids=["sq1-sq1", "sq3-alone", "sq2-sq2"],
)
def test_a_description_that_is_not_an_A_module_is_refused(cells, rows, relation, cell):
    message = f"not an A-module: the Adem relation for {relation} fails on cell {cell!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        space_from_dict(sigma2(cells, rows))
    # and through the constructor, at any level
    actions = tuple(SqEntry(r, src, tuple(to)) for r, src, to in rows)
    for level in (1, 2, 3):
        with pytest.raises(ValueError, match=re.escape(message)):
            suspension_space(cells, actions, level)


@pytest.mark.parametrize(
    "cells, rows",
    [
        # not unstable (2 * 4 > 5), but an A-module: no Adem relation reaches it
        ({"a": 1, "b": 5}, [(4, "b", ["a"])]),
        # Sq^1 Sq^2 = Sq^3, dually Sq^2_* Sq^1_* c = a = Sq^3_* c
        ({"a": 1, "b": 3, "c": 4}, [(1, "c", ["b"]), (2, "b", ["a"]), (3, "c", ["a"])]),
        ({"a": 1, "b": 2}, [(1, "b", ["a"])]),
        ({"a": 1, "b": 3}, [(2, "b", ["a"])]),
    ],
    ids=["sq4-not-unstable", "sq3-equals-sq1-sq2", "sq1", "sq2"],
)
def test_an_A_module_description_loads(cells, rows):
    space = space_from_dict(sigma2(cells, rows))
    assert len(space.x_actions) == len(rows)


def full_sweep_refusal(cells: dict, rows: list) -> str | None:
    """The refusal of the check as it first ran: every relation a < 2b with
    a + b up to each cell's dimension, cells by name, b then a ascending."""
    table = {(r, src): set(to) for r, src, to in rows}

    def sq(r: int, names: set) -> set:
        if r == 0:
            return names
        out: set = set()
        for y in names:
            out ^= table.get((r, y), set())
        return out

    for y, d in sorted(cells.items()):
        for b in range(1, d):
            for a in range(1, min(2 * b, d - b + 1)):
                right: set = set()
                for c in range(a // 2 + 1):
                    if lucas_binom(b - c - 1, a - 2 * c):
                        right ^= sq(c, sq(a + b - c, {y}))
                left = sq(b, sq(a, {y}))
                if left != right:
                    return (
                        f"sq_action is not an A-module: the Adem relation for Sq^{a} Sq^{b} "
                        f"fails on cell {y!r} (Sq^{b}_* Sq^{a}_* {y} = {sorted(left)}, "
                        f"the relation gives {sorted(right)})"
                    )
    return None


def random_description(rng: random.Random) -> tuple[dict, list]:
    cells = {name: rng.randint(1, 10) for name in "abcde"[: rng.randint(1, 5)]}
    rows = []
    for source, d in cells.items():
        for r in range(1, d):
            targets = [t for t, e in cells.items() if e == d - r]
            if targets and rng.random() < 0.4:
                rows.append((r, source, rng.sample(targets, rng.randint(1, len(targets)))))
    return cells, rows


def test_the_check_refuses_exactly_what_the_full_sweep_refuses():
    # the check visits only the relations a row reaches; the full sweep
    # visits them all, and both must name the same first broken relation
    rng = random.Random(21)
    loaded = 0
    for _ in range(500):
        cells, rows = random_description(rng)
        expected = full_sweep_refusal(cells, rows)
        try:
            space_from_dict(sigma2(cells, rows))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (cells, rows)
        loaded += got is None and bool(rows)
    assert loaded >= 20  # A-modules with rows are in the sample too


@pytest.mark.parametrize("dim", [2_000, 32_767])
def test_a_huge_cell_with_no_row_loads_at_once(dim):
    # no relation reaches a cell without rows; the full sweep took 73 s at
    # dim 2,000, and every successor or predecessor rebuild paid it again.
    # 32,767 is the largest dimension the packed degree field admits
    start = time.perf_counter()
    space = suspension_space({"a": 1, "b": dim}, (), level=2)
    space.successor().predecessor().predecessor()
    assert time.perf_counter() - start < 2


def test_a_row_far_up_costs_what_its_relations_do():
    # Sq^16384 is indecomposable, so one such row is an A-module; Sq^30000
    # is not, so that row is refused; neither walks every (a, b) up to 3 10^4
    # (cells stop at 32,767, the packed degree field)
    start = time.perf_counter()
    suspension_space({"a": 1, "b": 16_385}, (SqEntry(16_384, "b", ("a",)),))
    with pytest.raises(ValueError, match="not an A-module"):
        suspension_space({"a": 1, "b": 30_001}, (SqEntry(30_000, "b", ("a",)),))
    assert time.perf_counter() - start < 2


def test_suspended_and_desuspended_base():
    s1 = qsn_space(1)
    (x1,) = s1.base_classes()
    assert s1.suspended_base(x1).dimension == 2
    assert s1.desuspended_base(x1).kind == "unit_loop"
    tc = two_cell_space()
    (a3, b4) = tc.base_classes()
    assert tc.desuspended_base(a3).dimension == 2
    assert tc.suspended_base(b4).dimension == 5


#: The model tags of spaces: MODEL_QS0, MODEL_QSN, FILE_MODEL_SIGMA2, ...
MODEL_NAME = re.compile(r"(FILE_)?MODEL_[A-Z0-9_]+")


def test_only_spaces_reads_the_model_tag():
    # the other modules ask SpaceDesc (has_charge, base_classes, ...), so
    # which space is the unit-loop model is decided in one place
    package = Path(loophomology.__file__).parent
    readers = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "spaces.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names |= {a.name for a in node.names if MODEL_NAME.fullmatch(a.name)}
            elif isinstance(node, ast.Attribute) and (
                node.attr == "model" or MODEL_NAME.fullmatch(node.attr)
            ):
                names.add(node.attr)
        if names:
            readers[path.name] = sorted(names)
    assert readers == {}
