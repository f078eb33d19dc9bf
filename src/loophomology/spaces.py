"""Ambient space descriptions for the three supported models.

qs0        the base-point component bookkeeping model of QS^0 (translations [k])
qsn        QS^n for n >= 1, polynomial on classes Q^I x_n with excess(I) > n
suspension QX for X an iterated suspension with named cells; `level` counts how
           many suspensions have been applied to the user-supplied complex, so
           a cell recorded at dimension d sits in ambient dimension d + level.

Cell Steenrod data is recorded once on the unsuspended complex; the lower
Steenrod action commutes with suspension, so it transports to every level.
It must make the cells an A-module: a table that breaks an Adem relation is
refused.
"""

from __future__ import annotations

from functools import partialmethod

from .errors import NoSuccessor
from .seqcore import (
    BaseClass, _Ordered, _set, cell_class, lucas_binom, sphere_class, unit_loop_class
)

MODEL_QS0 = "qs0"
MODEL_QSN = "qsn"
MODEL_SUSPENSION = "suspension"

#: model tag used by space description files for a doubly suspended complex
FILE_MODEL_SIGMA2 = "sigma2"


class SqEntry(_Ordered):
    """One row of a cell-level lower Steenrod action table: Sq^r_* source = sum(targets)."""

    __slots__ = _fields = ("r", "source", "targets")

    def __init__(self, r: int, source: str, targets: tuple[str, ...]) -> None:
        _set(self, "r", r)
        _set(self, "source", source)
        _set(self, "targets", targets)


def _check_adem(space: SpaceDesc) -> None:
    """Refuse a cell action that is not an A-module: for a < 2b, the dual of
    the Adem relation for Sq^a Sq^b must hold on every cell y,

        Sq^b_* Sq^a_* y = sum over c of C(b-c-1, a-2c) Sq^c_* Sq^(a+b-c)_* y,

    with Sq^0_* the identity.  Instability is not required.  A nonzero term
    starts with a row out of y: Sq^a_* with b a row's r, or Sq^(a+b-c)_* with
    c a row's r or 0.  Only those (a, b) are checked, so a cell with no rows
    checks nothing, and b stays below its largest r plus the largest r.
    """
    table = {(e.r, e.source): set(e.targets) for e in space.x_actions}
    steps = {0} | {r for r, _ in table}

    def sq(r: int, cells: set[str]) -> set[str]:
        if r == 0:
            return cells
        out: set[str] = set()
        for y in cells:
            out ^= table.get((r, y), set())
        return out

    for y, d in space.x_cells:
        firsts = [r for r, source in table if source == y]
        top = max(firsts) + max(steps) if firsts else 1
        for b in range(1, min(d, top)):
            heads = {a for a in firsts if b in steps} | {s - b + c for s in firsts for c in steps}
            for a in sorted(a for a in heads if 1 <= a < 2 * b and a + b <= d):
                right = set()
                for c in steps:
                    if 2 * c <= a and lucas_binom(b - c - 1, a - 2 * c):
                        right ^= sq(c, sq(a + b - c, {y}))
                left = sq(b, sq(a, {y}))
                if left != right:
                    raise ValueError(
                        f"sq_action is not an A-module: the Adem relation for Sq^{a} Sq^{b} "
                        f"fails on cell {y!r} (Sq^{b}_* Sq^{a}_* {y} = {sorted(left)}, "
                        f"the relation gives {sorted(right)})"
                    )


class SpaceDesc(_Ordered):
    __slots__ = _fields = ("model", "n", "x_cells", "x_actions", "level")

    def __init__(
        self,
        model: str,
        n: int = 0,
        x_cells: tuple[tuple[str, int], ...] = (),
        x_actions: tuple[SqEntry, ...] = (),
        level: int = 0,
    ) -> None:
        _set(self, "model", model)
        _set(self, "n", n)
        _set(self, "x_cells", x_cells)
        _set(self, "x_actions", x_actions)
        _set(self, "level", level)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.model == MODEL_QS0:
            if self.n or self.x_cells or self.x_actions or self.level:
                raise ValueError("qs0 takes no extra data")
        elif self.model == MODEL_QSN:
            if self.n < 1:
                raise ValueError("qsn needs n >= 1")
            if self.x_cells or self.x_actions or self.level:
                raise ValueError("qsn takes no cell data")
        elif self.model == MODEL_SUSPENSION:
            if self.level < 1:
                raise ValueError("suspension model needs level >= 1")
            self._check_cells()
        else:
            raise ValueError(f"unknown space model {self.model!r}")

    def _check_cells(self) -> None:
        if not self.x_cells:
            raise ValueError("suspension model needs at least one cell")
        names = [name for name, _ in self.x_cells]
        if len(set(names)) != len(names):
            raise ValueError("cell names must be unique")
        from .f2algebra import MAX_DEGREE  # here: f2algebra imports this module

        dims = dict(self.x_cells)
        for name, d in self.x_cells:
            if d < 1:
                raise ValueError(f"cell {name!r} needs dimension >= 1")
            # no generator past the packed degree field can be interned, and
            # _check_adem's walk grows with the cell's dimension
            if d > MAX_DEGREE:
                raise ValueError(f"cell {name!r} needs dimension <= {MAX_DEGREE}, got {d}")
        rows = set()
        for entry in self.x_actions:
            if entry.r < 1:
                raise ValueError("action rows need r >= 1")
            if (entry.r, entry.source) in rows:
                raise ValueError(f"Sq^{entry.r} of {entry.source!r} has more than one row")
            rows.add((entry.r, entry.source))
            if len(set(entry.targets)) != len(entry.targets):
                raise ValueError(f"Sq^{entry.r} of {entry.source!r} names a target twice")
            if entry.source not in dims:
                raise ValueError(f"action row names unknown cell {entry.source!r}")
            for t in entry.targets:
                if t not in dims:
                    raise ValueError(f"action row names unknown cell {t!r}")
                if dims[t] != dims[entry.source] - entry.r:
                    raise ValueError(
                        f"Sq^{entry.r} must drop dimension by exactly {entry.r}: "
                        f"{entry.source!r} -> {t!r}"
                    )
        _check_adem(self)

    # -- base class inventory ------------------------------------------------

    @property
    def label(self) -> str:
        if self.model == MODEL_QS0:
            return "qs0"
        if self.model == MODEL_QSN:
            return f"qs{self.n}"
        return f"q_susp{self.level}[" + ",".join(n for n, _ in self.x_cells) + "]"

    def base_classes(self) -> tuple[BaseClass, ...]:
        if self.model == MODEL_QS0:
            return (unit_loop_class(),)
        if self.model == MODEL_QSN:
            return (sphere_class(self.n),)
        return tuple(
            cell_class(name, d + self.level)
            for name, d in sorted(self.x_cells, key=lambda c: (c[1], c[0]))
        )

    def has_charge(self) -> bool:
        return self.model == MODEL_QS0

    def base_sq_action(self, r: int, base: BaseClass) -> tuple[BaseClass, ...]:
        """Lower Steenrod action on a base class (r >= 1)."""
        if self.model != MODEL_SUSPENSION or base.kind != "cell":
            return ()
        for entry in self.x_actions:
            if entry.r == r and entry.source == base.name:
                dims = dict(self.x_cells)
                return tuple(cell_class(t, dims[t] + self.level) for t in entry.targets)
        return ()

    # -- the suspension tower ------------------------------------------------

    def _shifted(self, step: int) -> SpaceDesc:
        """The space step levels up the tower (down for a negative step):
        QS^0, QS^1, QS^2, ..., or the suspensions of one complex from level 1."""
        if self.model == MODEL_SUSPENSION:
            if self.level + step >= 1:
                return SpaceDesc(MODEL_SUSPENSION, x_cells=self.x_cells,
                                 x_actions=self.x_actions, level=self.level + step)
        elif self.n + step >= 0:  # qs0 is level 0, with n = 0
            return SpaceDesc(MODEL_QSN, n=self.n + step) if self.n + step else SpaceDesc(MODEL_QS0)
        raise NoSuccessor(f"{self.label} has no desuspension in this tower")

    successor = partialmethod(_shifted, 1)
    predecessor = partialmethod(_shifted, -1)

    def suspended_base(self, base: BaseClass) -> BaseClass:
        """Image of a base class of this space in the successor space."""
        if self.model == MODEL_SUSPENSION:
            return cell_class(base.name, base.dimension + 1)
        return sphere_class(self.n + 1)  # qs0 has n = 0

    def desuspended_base(self, base: BaseClass) -> BaseClass:
        pred = self.predecessor()
        if pred.model == MODEL_SUSPENSION:
            return cell_class(base.name, base.dimension - 1)
        return pred.base_classes()[0]


def qs0_space() -> SpaceDesc:
    return SpaceDesc(MODEL_QS0)


def qsn_space(n: int) -> SpaceDesc:
    return SpaceDesc(MODEL_QSN, n=n)


def suspension_space(
    cells: dict[str, int] | tuple[tuple[str, int], ...],
    actions: tuple[SqEntry, ...] = (),
    level: int = 2,
) -> SpaceDesc:
    pairs = tuple(sorted(cells.items())) if isinstance(cells, dict) else tuple(sorted(cells))
    return SpaceDesc(MODEL_SUSPENSION, x_cells=pairs, x_actions=tuple(actions), level=level)


def two_cell_space() -> SpaceDesc:
    """Double suspension of a two-cell complex (cells in dims 1 and 2, no action)."""
    return suspension_space({"a": 1, "b": 2}, (), level=2)


# ---------------------------------------------------------------------------
# Space description files (UTF-8 JSON).

_TOP_KEYS = {"model", "n", "cells", "sq_action"}


def space_from_dict(data: dict) -> SpaceDesc:
    """Build a SpaceDesc from a parsed description file; unknown fields are rejected."""
    if not isinstance(data, dict):
        raise ValueError("space description must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown space description fields: {sorted(unknown)}")
    model = data.get("model")
    if model == MODEL_QS0:
        _forbid(data, ("n", "cells", "sq_action"))
        return qs0_space()
    if model == MODEL_QSN:
        _forbid(data, ("cells", "sq_action"))
        n = data.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("qsn description needs integer n >= 1")
        return qsn_space(n)
    if model == FILE_MODEL_SIGMA2:
        _forbid(data, ("n",))
        cells_raw = data.get("cells")
        if not isinstance(cells_raw, list) or not cells_raw:
            raise ValueError("sigma2 description needs a nonempty cells list")
        cells: list[tuple[str, int]] = []
        for cell in cells_raw:
            if not isinstance(cell, dict) or set(cell) != {"name", "dim"}:
                raise ValueError("each cell must be an object with exactly name and dim")
            name, dim = cell["name"], cell["dim"]
            if not isinstance(name, str) or not name:
                raise ValueError("cell name must be a nonempty string")
            if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
                raise ValueError("cell dim must be an integer >= 1")
            cells.append((name, dim))
        actions: list[SqEntry] = []
        if not isinstance(data.get("sq_action", []), (list, type(None))):
            raise ValueError("sq_action must be a list of rows or null")
        for row in data.get("sq_action") or []:
            if not isinstance(row, dict) or set(row) != {"r", "from", "to"}:
                raise ValueError("each sq_action row must have exactly r, from, to")
            r, src, targets = row["r"], row["from"], row["to"]
            if not isinstance(r, int) or isinstance(r, bool) or r < 1:
                raise ValueError("sq_action r must be an integer >= 1")
            if not isinstance(src, str) or not isinstance(targets, list):
                raise ValueError("sq_action needs string 'from' and list 'to'")
            if not all(isinstance(t, str) for t in targets):
                raise ValueError("sq_action targets must be strings")
            actions.append(SqEntry(r, src, tuple(targets)))
        return suspension_space(tuple(cells), tuple(actions), level=2)
    raise ValueError(f"unknown space model {model!r}")


def load_space(selector: str, n: int | None = None) -> SpaceDesc:
    """The space a command line selects: "qs0", "qsn" with n, or the path of a
    description file.  n selects a sphere of qsn only, so it is refused with
    any other selector rather than ignored."""
    if n is not None and selector != MODEL_QSN:
        raise ValueError(f"--n selects the sphere of --space qsn, not of {selector!r}")
    if selector == MODEL_QS0:
        return qs0_space()
    if selector == MODEL_QSN:
        if n is None:
            raise ValueError("--space qsn needs --n")
        return qsn_space(n)
    import json  # here, not at import: only a description file needs it
    with open(selector, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # json.load recurses once per level of nesting
            raise ValueError(f"{selector} is nested too deeply to read") from None
    return space_from_dict(data)


def _forbid(data: dict, keys: tuple[str, ...]) -> None:
    present = [k for k in keys if k in data]
    if present:
        raise ValueError(f"fields {present} not allowed for model {data.get('model')!r}")


def space_to_dict(space: SpaceDesc) -> dict:
    if space.model == MODEL_QS0:
        return {"model": MODEL_QS0}
    if space.model == MODEL_QSN:
        return {"model": MODEL_QSN, "n": space.n}
    if space.level != 2:
        raise ValueError(f"a description file holds a double suspension, not level {space.level}")
    return {
        "model": FILE_MODEL_SIGMA2,
        "cells": [{"name": n, "dim": d} for n, d in space.x_cells],
        "sq_action": [
            {"r": e.r, "from": e.source, "to": list(e.targets)} for e in space.x_actions
        ],
    }
