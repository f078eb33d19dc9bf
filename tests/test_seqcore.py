"""Sequence bookkeeping: conversions, admissibility, enumeration.

The enumeration oracle here rebuilds every admissible sequence from the
lower-index side with a brute-force search, independent of the recursion in
the package.
"""

from __future__ import annotations

import copy
import importlib
import itertools
import math
import pickle
import pkgutil

import pytest

import loophomology
from loophomology.errors import NegativeLowerIndex
from loophomology.seqcore import (
    BaseClass,
    LowerSeq,
    UpperSeq,
    _Frozen,
    _Ordered,
    cell_class,
    enumerate_admissible,
    excess,
    is_admissible,
    lower,
    lower_to_upper,
    unit_loop_class,
    upper,
    upper_dim,
    upper_to_lower,
)


def brute_admissible(degree: int, base_dim: int, min_excess: int):
    """All admissible upper sequences of one degree, from the lower side.

    A sequence is generated by choosing a nondecreasing tuple of lower
    indices; excess(I) > min_excess pins the least allowed head.
    """
    j_min = max(min_excess - base_dim + 1, 0)
    found = set()
    if degree == base_dim:
        found.add(())
    for s in range(1, degree.bit_length() + 2):
        if base_dim and 2**s * base_dim > degree:
            break
        for js in itertools.combinations_with_replacement(range(j_min, degree + 1), s):
            dim = 2**s * base_dim + sum(2**m * j for m, j in enumerate(js))
            if dim == degree:
                found.add(lower_to_upper(LowerSeq(js), base_dim).entries)
    return found


def test_lower_upper_round_trip_fixture():
    up = lower_to_upper(LowerSeq((1, 2)), 1)
    assert up.entries == (5, 3)
    assert upper_to_lower(up, 1).entries == (1, 2)
    assert upper_dim(up, 1) == 9


def test_lower_builds_the_lower_sequence_of_its_entries():
    seq = lower(1, 2)
    assert seq == LowerSeq((1, 2)) and type(seq) is LowerSeq
    assert lower_to_upper(seq, 1) == upper(5, 3)
    assert upper_to_lower(upper(5, 3), 1) == seq


def test_negative_lower_index_raises():
    with pytest.raises(NegativeLowerIndex):
        upper_to_lower(UpperSeq((1, 3)), 1)  # head below twice the inner dim


def test_admissible_iff_lower_nondecreasing():
    for entries in itertools.product(range(0, 7), repeat=3):
        seq = UpperSeq(entries)
        try:
            lows = upper_to_lower(seq, 1).entries
        except NegativeLowerIndex:
            continue
        assert is_admissible(seq) == all(
            lows[i] <= lows[i + 1] for i in range(len(lows) - 1)
        )


def test_excess_is_head_lower_index_plus_base():
    for js in itertools.combinations_with_replacement(range(0, 5), 2):
        up = lower_to_upper(LowerSeq(js), 1)
        assert excess(up) == js[0] + 1
    assert excess(UpperSeq(())) == math.inf


@pytest.mark.parametrize("base_dim,min_excess", [(1, 1), (2, 2), (0, 0), (3, 3)])
def test_enumerate_matches_brute_force(base_dim, min_excess):
    # from two below the base dimension, where both sides are empty
    for degree in range(base_dim - 2, 13):
        got = {s.entries for s in enumerate_admissible(degree, base_dim, min_excess)}
        assert got == brute_admissible(degree, base_dim, min_excess), (degree, base_dim)


def test_enumerate_degree_nine_sphere():
    # dimension-9 sequences over a 1-dimensional base with excess > 1
    got = {s.entries for s in enumerate_admissible(9, 1, 1)}
    assert got == {(8,), (5, 3)}


def test_enumerate_excludes_vanishing_and_powers():
    for seq in enumerate_admissible(8, 1, 1):
        assert excess(seq) > 1


# --- the value-class contract -------------------------------------------------
#
# The value classes are hand-written slotted classes; they keep what
# @dataclass(frozen=True, order=True) gave them, which these tests pin.

#: (value, its field names, its field tuple, its repr)
RECORDS = [
    (UpperSeq((5, 3)), ("entries",), ((5, 3),), "UpperSeq(entries=(5, 3))"),
    (LowerSeq((1, 2)), ("entries",), ((1, 2),), "LowerSeq(entries=(1, 2))"),
    (UpperSeq(()), ("entries",), ((),), "UpperSeq(entries=())"),
    (
        cell_class("a", 2),
        ("kind", "dimension", "name"),
        ("cell", 2, "a"),
        "BaseClass(kind='cell', dimension=2, name='a')",
    ),
    (
        unit_loop_class(),
        ("kind", "dimension", "name"),
        ("unit_loop", 0, ""),
        "BaseClass(kind='unit_loop', dimension=0, name='')",
    ),
]


def check_record(value, names: tuple[str, ...], fields: tuple, text: str) -> None:
    """The frozen-dataclass contract of one value, shared with test_f2algebra."""
    assert tuple(getattr(value, n) for n in names) == fields
    assert hash(value) == hash(fields)
    assert repr(value) == text
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert not twin != value
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, n) for n in names) == fields


@pytest.mark.parametrize("value, names, fields, text", RECORDS, ids=lambda v: repr(v)[:30])
def test_sequences_and_base_classes_are_frozen_records(value, names, fields, text):
    check_record(value, names, fields, text)


def test_equality_and_order_hold_within_one_exact_class():
    assert UpperSeq((1, 2)) != LowerSeq((1, 2))
    assert not UpperSeq((1, 2)) == LowerSeq((1, 2))
    assert UpperSeq((1, 2)) != (1, 2) and UpperSeq((1, 2)) == upper(1, 2)
    assert len({UpperSeq((1, 2)), LowerSeq((1, 2))}) == 2
    for less in (UpperSeq((1,)).__lt__, UpperSeq((1,)).__le__, UpperSeq((1,)).__gt__):
        assert less(LowerSeq((2,))) is NotImplemented
    with pytest.raises(TypeError):
        UpperSeq((1,)) < LowerSeq((2,))
    with pytest.raises(TypeError):
        cell_class("a", 1) <= UpperSeq((1,))
    seqs = [UpperSeq(e) for e in [(3,), (1, 5), (), (1, 2, 0), (2, 1)]]
    assert sorted(seqs) == sorted(seqs, key=lambda s: (s.entries,))
    bases = [cell_class("b", 2), cell_class("a", 2), unit_loop_class(), cell_class("c", 1)]
    assert sorted(bases) == sorted(bases, key=lambda b: (b.kind, b.dimension, b.name))
    assert max(seqs) == UpperSeq((3,)) and UpperSeq((2,)) >= UpperSeq((1, 9))


def _record_classes(cls=_Frozen):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def test_records_compare_and_hash_only_through_the_field_key():
    # _Frozen and _Ordered write the contract once; the two measured hot-path
    # exceptions are _Seq's direct entries methods and Monomial's cached hash
    for mod in pkgutil.iter_modules(loophomology.__path__):
        if mod.name != "__main__":
            importlib.import_module(f"loophomology.{mod.name}")
    own = {
        (cls.__qualname__, name)
        for cls in _record_classes()
        if cls is not _Ordered
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__")
        if name in vars(cls)
    }
    assert own == {
        ("_Seq", "__eq__"), ("_Seq", "__lt__"), ("_Seq", "__hash__"), ("Monomial", "__hash__")
    }


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: UpperSeq((1, -2)), "sequence entries must be nonnegative integers, got (1, -2)"),
        (lambda: LowerSeq((True,)), "sequence entries must be nonnegative integers, got (True,)"),
        (lambda: BaseClass("torus", 1), "unknown base class kind 'torus'"),
        (lambda: BaseClass("sphere", 0), "sphere base class needs dimension >= 1"),
        (lambda: BaseClass("unit_loop", 1), "unit loop class lives in dimension 0"),
        (lambda: cell_class("a", 0), "cell base class needs dimension >= 1"),
    ],
)
def test_invalid_input_raises_through_post_init(build, message, monkeypatch):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
    # __post_init__ is the one validation hook: without it the input is taken
    for cls in (UpperSeq, LowerSeq, BaseClass):
        monkeypatch.setattr(cls, "__post_init__", lambda self: None)
    build()
