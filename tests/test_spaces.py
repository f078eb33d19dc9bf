"""Space descriptions: validation, tower moves, description-file parsing."""

from __future__ import annotations

import re

import pytest

from loophomology.errors import NoSuccessor
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


def test_suspended_and_desuspended_base():
    s1 = qsn_space(1)
    (x1,) = s1.base_classes()
    assert s1.suspended_base(x1).dimension == 2
    assert s1.desuspended_base(x1).kind == "unit_loop"
    tc = two_cell_space()
    (a3, b4) = tc.base_classes()
    assert tc.desuspended_base(a3).dimension == 2
    assert tc.suspended_base(b4).dimension == 5
