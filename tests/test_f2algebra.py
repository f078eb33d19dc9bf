"""Free commutative algebra layer: bases, counting oracle, rendering."""

from __future__ import annotations

import ast
import pickle
import random
import re
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest
from test_extended_module import SPACES
from test_hopf import tensor_of
from test_screener import _admissible_to_monomial
from test_seqcore import check_record

import loophomology
from loophomology.errors import (
    LoopHomologyError,
    NotASquare,
    PackedFieldOverflow,
    SpaceMismatch,
)
from loophomology.dlops import apply_Q
from loophomology.f2algebra import (
    GENERATOR_SHIFT,
    MAX_EXPONENT,
    ONE_CODE,
    PAIRS,
    TRANSLATION_BITS,
    Element,
    Generator,
    Monomial,
    Packing,
    TensorElement,
    _basis_codes,
    _degree,
    _factors,
    _mul_sets,
    _pair,
    _slots,
    _square_set,
    _times,
    _translation,
    _translation_code,
    basis_enumerate,
    base_element,
    canonical_key,
    element_of,
    generator_monomial,
    generators_up_to,
    one,
    split_decomposable,
    translation_class,
    translation_monomial,
    zero,
)
from loophomology.screener import MSymbol
from loophomology.seqcore import Applied, UpperSeq, _lower_fold, upper
from loophomology.spaces import SpaceDesc, SqEntry, qs0_space, qsn_space, two_cell_space

QS0 = qs0_space()
QS1 = qsn_space(1)


def monomial_product(a: Monomial, b: Monomial) -> Monomial:
    """a * b on the factor lists, exponents of a shared generator added: the
    oracle for the packed product, which adds codes."""
    merged = dict(a.factors)
    for g, e in b.factors:
        merged[g] = merged.get(g, 0) + e
    return Monomial(tuple(sorted(merged.items())), a.translation + b.translation)


# --- independent counting oracle -------------------------------------------
#
# Polynomial generators over a base of dimension b are the admissible
# operation sequences whose first lower entry is positive; their dimension,
# computed from the lower side, is 2^s b + sum 2^(m-1) j_m.  The basis of the
# free commutative algebra in a degree is then counted by a partition DP, one
# unbounded-knapsack pass per generator.  None of this shares code with the
# enumeration under test.


def brute_generator_dims(base_dim: int, max_dim: int, include_base: bool) -> list[int]:
    dims = [base_dim] if include_base and 0 < base_dim <= max_dim else []
    s = 1
    while 2**s * base_dim + (2**s - 1) <= max_dim:
        for lows in combinations_with_replacement(range(1, max_dim + 1), s):
            d = 2**s * base_dim + sum(2 ** (m - 1) * j for m, j in enumerate(lows, 1))
            if d <= max_dim:
                dims.append(d)
        s += 1
    return dims


def count_by_dp(generator_dims: list[int], degree: int) -> int:
    ways = [1] + [0] * degree
    for m in generator_dims:
        for d in range(m, degree + 1):
            ways[d] += ways[d - m]
    return ways[degree]


def oracle_count(space, degree: int) -> int:
    dims: list[int] = []
    for b in space.base_classes():
        dims += brute_generator_dims(
            b.dimension, degree, include_base=b.kind != "unit_loop"
        )
    return count_by_dp(dims, degree)


@pytest.mark.parametrize("space", [QS0, QS1, qsn_space(2), two_cell_space()],
                         ids=lambda s: s.label)
@pytest.mark.parametrize("degree", range(1, 13))
def test_basis_counts_match_oracle(space, degree):
    assert len(basis_enumerate(space, degree)) == oracle_count(space, degree)


def test_charge_component_counts_agree():
    # translation classes normalize any component to any other
    for degree in range(1, 10):
        n0 = len(basis_enumerate(QS0, degree, charge=0))
        n5 = len(basis_enumerate(QS0, degree, charge=5))
        assert n0 == n5


def test_degree_zero_is_reduced():
    assert basis_enumerate(QS1, 0) == []
    assert basis_enumerate(QS0, 0) == []
    assert basis_enumerate(QS1, -2) == []


def test_charge_argument_rejected_off_qs0():
    with pytest.raises(ValueError):
        basis_enumerate(QS1, 3, charge=0)


# --- small fixtures ---------------------------------------------------------


def test_degree_three_over_first_sphere():
    assert [str(m) for m in basis_enumerate(QS1, 3)] == ["Q^2 x_1", "x_1^3"]


def test_degree_three_unit_component():
    got = [str(m) for m in basis_enumerate(QS0, 3)]
    assert got == [
        "Q^(2,1)[1] * [-4]",
        "Q^3[1] * [-2]",
        "Q^2[1] Q^1[1] * [-4]",
        "(Q^1[1])^3 * [-6]",
    ]


def test_generator_validation():
    x1 = QS1.base_classes()[0]
    with pytest.raises(ValueError):
        Generator(x1, upper(1, 3))  # inadmissible
    with pytest.raises(ValueError):
        Generator(x1, upper(1))  # excess 1, not above the base dimension
    with pytest.raises(ValueError):
        Generator(QS0.base_classes()[0], upper())  # the unit-loop base is [1]
    g = Generator(x1, upper(5, 3))
    assert g.dimension == 9 and g.charge == 0
    u = Generator(QS0.base_classes()[0], upper(2, 1))
    assert u.dimension == 3 and u.charge == 4


def test_monomial_validation():
    x1 = QS1.base_classes()[0]
    a, b = Generator(x1, upper(2)), Generator(x1, upper(3))
    with pytest.raises(ValueError):
        Monomial(((b, 1), (a, 1)))  # out of order
    with pytest.raises(ValueError):
        Monomial(((a, 1), (a, 2)))  # split exponent
    with pytest.raises(ValueError):
        Monomial(((a, 0),))
    m = Monomial(((a, 1), (b, 2)))
    assert m.dimension == 3 + 2 * 4 and m.gen_length == 3


def test_charge_bookkeeping():
    m = generator_monomial(Generator(QS0.base_classes()[0], upper(2, 1)), 1, -4)
    assert m.dimension == 3 and m.charge == 0
    assert str(m) == "Q^(2,1)[1] * [-4]"


def test_translations_cancel_to_the_unit():
    assert translation_class(QS0, 1) * translation_class(QS0, -1) == one(QS0)
    assert str(translation_monomial(0)) == "1"
    assert base_element(QS0, QS0.base_classes()[0]) == translation_class(QS0, 1)


def test_squares_and_roots():
    x1 = QS1.base_classes()[0]
    q3 = element_of(QS1, generator_monomial(Generator(x1, upper(3))))
    sq = q3.square()
    assert sq.is_square() and sq.sqrt() == q3
    cube = element_of(QS1, generator_monomial(Generator(x1, upper()), 3))
    assert not cube.is_square()
    with pytest.raises(NotASquare):
        cube.sqrt()
    assert zero(QS1).square().is_zero


def test_split_decomposable():
    x1 = QS1.base_classes()[0]
    q2 = generator_monomial(Generator(x1, upper(2)))
    cube = generator_monomial(Generator(x1, upper()), 3)
    lin, rest = split_decomposable(element_of(QS1, q2, cube))
    assert lin == element_of(QS1, q2)
    assert rest == element_of(QS1, cube)
    # squares of single operations are decomposable
    lin2, rest2 = split_decomposable(element_of(QS1, q2.square()))
    assert lin2.is_zero and rest2 == element_of(QS1, q2.square())


def test_space_mismatch_guards():
    with pytest.raises(SpaceMismatch):
        one(QS0) + one(QS1)
    with pytest.raises(SpaceMismatch):
        element_of(QS1, translation_monomial(2))
    x1 = QS1.base_classes()[0]
    with pytest.raises(SpaceMismatch):
        element_of(qsn_space(2), generator_monomial(Generator(x1, upper(2))))


def test_homogeneity_checks():
    x1 = QS1.base_classes()[0]
    mixed = element_of(
        QS1,
        generator_monomial(Generator(x1, upper(2))),
        generator_monomial(Generator(x1, upper())),
    )
    with pytest.raises(ValueError):
        mixed.dimension
    assert zero(QS1).dimension is None


def test_rendering_and_canonical_order():
    x1 = QS1.base_classes()[0]
    q2 = Generator(x1, upper(2))
    assert str(generator_monomial(q2, 2)) == "(Q^2 x_1)^2"
    assert str(generator_monomial(Generator(x1, upper()), 4)) == "x_1^4"
    terms = basis_enumerate(QS1, 4)
    assert terms == sorted(terms, key=canonical_key)
    assert [str(m) for m in terms] == ["Q^3 x_1", "Q^2 x_1 x_1", "x_1^4"]


def test_generators_up_to_sorted_and_complete():
    gens = generators_up_to(QS1, 9)
    assert [g.dimension for g in gens] == sorted(g.dimension for g in gens)
    nine = [g for g in gens if g.dimension == 9]
    assert {str(g) for g in nine} == {"Q^8 x_1", "Q^(5,3) x_1"}



# --- the value-class contract -------------------------------------------------

_UNIT = QS0.base_classes()[0]
_X1 = QS1.base_classes()[0]
_Q21 = Generator(_UNIT, upper(2, 1))
_Q21_TEXT = (
    "Generator(base=BaseClass(kind='unit_loop', dimension=0, name=''), "
    "seq=UpperSeq(entries=(2, 1)))"
)
_QS1_TEXT = "SpaceDesc(model='qsn', n=1, x_cells=(), x_actions=(), level=0)"
_X1_MONOMIAL = generator_monomial(Generator(_X1, upper()))
_X1_TEXT = (
    "Monomial(factors=((Generator(base=BaseClass(kind='sphere', dimension=1, name=''), "
    "seq=UpperSeq(entries=())), 1),), translation=0)"
)

#: (value, its field names, its field tuple, its repr), one per other value class
RECORDS = [
    (_Q21, ("base", "seq"), (_UNIT, upper(2, 1)), _Q21_TEXT),
    (
        Monomial(((_Q21, 1),), -4),
        ("factors", "translation"),
        (((_Q21, 1),), -4),
        f"Monomial(factors=(({_Q21_TEXT}, 1),), translation=-4)",
    ),
    (
        element_of(QS1, _X1_MONOMIAL),
        ("space", "terms"),
        (QS1, frozenset({_X1_MONOMIAL})),
        f"Element(space={_QS1_TEXT}, terms=frozenset({{{_X1_TEXT}}}))",
    ),
    (
        tensor_of(element_of(QS1, _X1_MONOMIAL), one(QS1)),
        ("space", "arity", "terms"),
        (QS1, 2, frozenset({(_X1_MONOMIAL, Monomial())})),
        f"TensorElement(space={_QS1_TEXT}, arity=2, terms=frozenset({{({_X1_TEXT}, "
        "Monomial(factors=(), translation=0))}))",
    ),
    (
        SqEntry(1, "b", ("a",)),
        ("r", "source", "targets"),
        (1, "b", ("a",)),
        "SqEntry(r=1, source='b', targets=('a',))",
    ),
    (
        two_cell_space(),
        ("model", "n", "x_cells", "x_actions", "level"),
        ("suspension", 0, (("a", 1), ("b", 2)), (), 2),
        "SpaceDesc(model='suspension', n=0, x_cells=(('a', 1), ('b', 2)), x_actions=(), level=2)",
    ),
    (
        MSymbol(_X1, upper(2)),
        ("base", "seq"),
        (_X1, upper(2)),
        "MSymbol(base=BaseClass(kind='sphere', dimension=1, name=''), seq=UpperSeq(entries=(2,)))",
    ),
]


@pytest.mark.parametrize("value, names, fields, text", RECORDS, ids=lambda v: type(v).__name__)
def test_value_classes_are_frozen_records(value, names, fields, text):
    check_record(value, names, fields, text)


def test_a_decoded_monomial_keeps_its_field_hash():
    p = Packing(QS0)
    m = Monomial(((_Q21, 2),), 3)
    decoded = p.decode(p.encode(m))
    assert decoded == m and hash(decoded) == hash(m) == hash((((_Q21, 2),), 3))
    twin = pickle.loads(pickle.dumps(decoded))
    assert twin == m and hash(twin) == hash(m)


def test_generators_and_monomials_sort_by_their_field_tuples():
    gens = generators_up_to(QS1, 7)[::-1] + generators_up_to(QS0, 7)
    by_fields = sorted(gens, key=lambda g: (g.base, g.seq))
    assert sorted(gens) == by_fields
    assert sorted(gens, reverse=True) == by_fields[::-1]
    monomials = [m for d in range(1, 8) for m in basis_enumerate(QS0, d, d % 3 - 1)]
    by_fields = sorted(monomials, key=lambda m: (m.factors, m.translation))
    assert sorted(monomials[::-1]) == by_fields
    first, last = by_fields[0], by_fields[-1]
    assert first < last and first <= last and last > first and last >= first
    assert not first > last and min(monomials) == first and max(monomials) == last
    assert Monomial() != Element(QS0, frozenset()) and Monomial() != ((), 0)
    with pytest.raises(TypeError):
        _Q21 < _X1_MONOMIAL
    with pytest.raises(TypeError):
        element_of(QS1, _X1_MONOMIAL) < one(QS1)  # elements are not ordered


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Generator(_X1, upper(1, 3)),
         "excess -2 does not exceed base dimension 1; not a polynomial generator"),
        (lambda: Generator(_X1, upper(3, 1)), "sequence (3, 1) is not admissible"),
        (lambda: Generator(_UNIT, upper()),
         "the unit-loop base class itself is the translation [1]"),
        (lambda: Monomial(((_Q21, 0),)), "exponents must be >= 1"),
        (lambda: Monomial(((_Q21, 1), (_Q21, 1))), "repeated generator; merge exponents instead"),
        (lambda: SpaceDesc("qsn"), "qsn needs n >= 1"),
        (lambda: SpaceDesc("qs0", n=2), "qs0 takes no extra data"),
        (lambda: MSymbol(_X1, upper(1, 3)), "excess below base dimension; the symbol vanishes"),
    ],
)
def test_invalid_input_raises_through_post_init(build, message, monkeypatch):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
    # __post_init__ is the one validation hook: without it the input is taken
    for cls in (Generator, Monomial, SpaceDesc, MSymbol):
        monkeypatch.setattr(cls, "__post_init__", lambda self: None)
    build()


def test_generator_and_msymbol_share_one_record():
    # Applied holds Q^I(b)'s fields, __init__, admissibility check and
    # dimension; each subclass keeps only its excess bound and what it adds
    for cls in (Generator, MSymbol):
        assert cls.__bases__ == (Applied,) and cls.__slots__ == ()
        assert not {"__init__", "_fields", "dimension"} & set(vars(cls))
    g, s = Generator(_X1, upper(2)), MSymbol(_X1, upper(2))
    assert (g.base, g.seq, g.dimension) == (s.base, s.seq, s.dimension) == (_X1, upper(2), 3)
    # records compare only within one exact class
    assert g != s and not g == s and len({g, s}) == 2
    with pytest.raises(TypeError):
        g < s
    src = Path(loophomology.__file__).parent
    assert [p.name for p in src.glob("*.py") if "is not admissible" in p.read_text()] == [
        "seqcore.py"]


# --- packed monomials ---------------------------------------------------------


@pytest.mark.parametrize(
    "space, max_degree",
    [(QS0, 16), (QS1, 16), (two_cell_space(), 12)],
    ids=lambda v: v.label if hasattr(v, "label") else str(v),
)
def test_packed_codes_round_trip(space, max_degree):
    packing = Packing(space)  # fresh, so decode cannot answer from a memo
    codes = set()
    for degree in range(1, max_degree + 1):
        for m in basis_enumerate(space, degree):
            code = packing.encode(m)
            assert _degree(code) == m.dimension
            assert _translation(code) == m.translation
            assert packing.decode(code) == m
            codes.add(code)
    assert len(codes) == sum(len(basis_enumerate(space, d)) for d in range(1, max_degree + 1))


def test_packed_products_match_monomial_products():
    packing = Packing(QS0)
    basis = [m for d in range(1, 6) for m in basis_enumerate(QS0, d)]
    for a in basis[::7]:
        for b in basis[::5]:
            code = _times(packing.encode(a), packing.encode(b))
            assert packing.decode(code) == monomial_product(a, b)
        assert packing.decode_set(_square_set({packing.encode(a)})) == {a.square()}


def test_exponent_outside_its_field_raises():
    x1 = generator_monomial(Generator(QS1.base_classes()[0], upper()), MAX_EXPONENT)
    packing = Packing(QS1)
    code = packing.encode(x1)  # the largest exponent still fits
    with pytest.raises(PackedFieldOverflow):
        packing.encode(monomial_product(x1, generator_monomial(x1.factors[0][0])))
    with pytest.raises(PackedFieldOverflow):
        _square_set({code})
    with pytest.raises(LoopHomologyError):  # and through the public product
        element_of(QS1, x1) * element_of(QS1, x1)
    # a factor g^e built straight from its code, as the operation layers do;
    # 256 would carry into the next generator's byte
    for e in (MAX_EXPONENT + 1, 256):
        with pytest.raises(PackedFieldOverflow, match=f"exponent {e} of x_1"):
            packing.generator_code(x1.factors[0][0], e)


def test_translation_outside_its_field_raises():
    packing = Packing(QS0)
    top, bottom = translation_monomial(ONE_CODE - 1), translation_monomial(-ONE_CODE)
    assert packing.decode(packing.encode(top)) == top
    assert packing.decode(packing.encode(bottom)) == bottom
    for k in (ONE_CODE, -ONE_CODE - 1):
        with pytest.raises(PackedFieldOverflow):
            packing.encode(translation_monomial(k))
    with pytest.raises(PackedFieldOverflow):
        _times(packing.encode(top), packing.encode(translation_monomial(1)))
    with pytest.raises(PackedFieldOverflow):
        _times(packing.encode(bottom), packing.encode(translation_monomial(-1)))
    assert issubclass(PackedFieldOverflow, LoopHomologyError)


@pytest.mark.parametrize(
    "space, charges, max_degree",
    [(QS0, range(-2, 3), 12), (QS1, [None], 12), (two_cell_space(), [None], 12)],
    ids=["qs0", "qs1", "two-cell"],
)
def test_split_and_peel_on_every_basis_monomial(space, charges, max_degree):
    packing = Packing(space)
    for charge in charges:
        for degree in range(1, max_degree + 1):
            for m in basis_enumerate(space, degree, charge):
                code = packing.encode(m)
                i, u, v = packing.split(code)
                assert _times(u, v) == code
                if i is None:  # the translation [k] of m
                    assert m.translation != 0 and u >> GENERATOR_SHIFT == 0
                    assert _translation(u) == m.translation
                    continue
                assert m.translation == 0 and _factors(u) == [(i, 1)]
                assert i == max(j for j, _ in _factors(code))  # the top generator
                assert _translation(u) == 0 and _degree(u) == packing.gens[i].dimension
                g = packing.gens[i]
                if not g.seq:
                    continue
                # generator i is Q^a of the class z decodes to
                a, z = packing.peel(i)
                rest = UpperSeq(g.seq.entries[1:])
                if not rest and g.base.kind == "unit_loop":
                    inner = translation_monomial(1)
                else:
                    inner = generator_monomial(Generator(g.base, rest))
                assert (a, packing.decode(z)) == (g.seq.entries[0], inner)
                assert apply_Q(a, Element(space, frozenset({inner}))).terms == {generator_monomial(g)}


#: Every admissible tuple of length <= 4 with entries summing to <= 12.
ADMISSIBLE = [
    entries
    for n in range(5)
    for entries in product(range(13), repeat=n)
    if sum(entries) <= 12 and all(a <= 2 * b for a, b in zip(entries, entries[1:]))
]

READER_SPACES = {
    "qs0": QS0, "qs1": QS1, "two-cell": two_cell_space(), "a1b5-sq4": SPACES["a1b5-sq4"],
}
readers = pytest.mark.parametrize("space", READER_SPACES.values(), ids=READER_SPACES.keys())


@readers
def test_admissible_code_reads_the_lower_indices(space):
    packing = Packing(space)
    zeros = 0
    for base in space.base_classes():
        for entries in ADMISSIBLE:
            code = packing.admissible_code(entries, base)
            negative = min(_lower_fold(entries, base.dimension), default=0) < 0
            assert (code is None) == negative, (entries, base)
            if code is None:
                zeros += 1
            else:
                assert packing.decode(code) == _admissible_to_monomial(entries, base), entries
    assert zeros and len(ADMISSIBLE) > 400


@readers
def test_peel_reads_its_tail_as_an_admissible_code(space):
    packing = Packing(space)
    gens = [g for g in generators_up_to(space, 12) if g.seq]
    assert gens
    for g in gens:
        head, tail = g.seq.entries[0], g.seq.entries[1:]
        code = packing.admissible_code(tail, g.base)
        assert packing.peel(packing.index(g)) == (head, code)
        assert packing.decode(code) == _admissible_to_monomial(tail, g.base)


# --- packed tensors -----------------------------------------------------------


def tensor_codes(space, charges, max_degree=8):
    """Basis codes of degrees 1..max_degree, with the translations [k] on qs0."""
    degrees = range(1, max_degree + 1)
    codes = [c for ch in charges for d in degrees for c in _basis_codes(space, d, ch)]
    if space.has_charge():
        codes += [_translation_code(k) for k in range(-3, 4)]
    return codes


TENSOR_SPACES = [(QS0, (-1, 0, 1)), (QS1, (None,)), (two_cell_space(), (None,))]


@pytest.mark.parametrize("space, charges", TENSOR_SPACES, ids=["qs0", "qs1", "two-cell"])
def test_a_packed_tensor_unpacks_to_its_slots(space, charges):
    codes = tensor_codes(space, charges)
    if space.has_charge():
        assert min(map(_translation, codes)) < 0  # negative translations are in
    tensors = set()
    for x in codes:
        for y in codes:
            t = _pair(x, y)
            assert _slots(t) == (x, y)
            # the field the cut of a tensor product compares
            left = (t & PAIRS.cut) >> 2 * TRANSLATION_BITS
            assert left == _degree(x) == _degree(_slots(t)[0])
            tensors.add(t)
    assert len(tensors) == len(codes) ** 2


@pytest.mark.parametrize("space, charges", TENSOR_SPACES, ids=["qs0", "qs1", "two-cell"])
def test_a_product_of_packed_tensors_is_the_product_slot_by_slot(space, charges):
    codes = tensor_codes(space, charges)
    rng = random.Random(5)
    for _ in range(3000):
        a, b, c, d = (rng.choice(codes) for _ in range(4))
        assert _mul_sets({_pair(a, b)}, {_pair(c, d)}, PAIRS) == {
            _pair(_times(a, c), _times(b, d))}


def overflowing_products():
    """(space, a, b) whose product a b leaves the exponent, degree or
    translation field of a code."""
    packing, base = Packing(QS1), QS1.base_classes()[0]
    x1 = Generator(base, upper())
    # Q^20000 x_1 has dimension 20001, so its square leaves the degree field
    big = packing.generator_code(Generator(base, upper(20000)))
    top, bottom = _translation_code(ONE_CODE - 1), _translation_code(-ONE_CODE)
    return {
        "exponent": (packing.generator_code(x1, MAX_EXPONENT), packing.generator_code(x1)),
        "degree": (big, big),
        "translation-top": (top, _translation_code(1)),
        "translation-bottom": (bottom, _translation_code(-1)),
    }


@pytest.mark.parametrize("field", list(overflowing_products()))
@pytest.mark.parametrize("slot", ["left", "right"])
def test_a_tensor_product_that_leaves_a_field_raises(field, slot):
    a, b = overflowing_products()[field]
    with pytest.raises(PackedFieldOverflow):
        _times(a, b)
    for other in (ONE_CODE, _translation_code(1), a):  # the other slot's content
        # the product stays in range in the other slot: its factors are other, 1
        if slot == "left":
            lhs, rhs = _pair(a, other), _pair(b, ONE_CODE)
        else:
            lhs, rhs = _pair(other, a), _pair(ONE_CODE, b)
        with pytest.raises(PackedFieldOverflow, match="packed tensor"):
            _mul_sets({lhs}, {rhs}, PAIRS)


#: The names of the packed layout: field widths, shifts, masks and guards.
LAYOUT_NAME = re.compile(r"_?[A-Z][A-Z_]*_(BITS|SHIFT|MASK|FIELD|GUARDS)|_GUARDS")


def test_only_f2algebra_reads_the_packed_layout():
    # the other modules reach a code's fields through f2algebra's functions
    # (_degree, _factors, _pair, ...), so the layout can change in one place
    package = Path(loophomology.__file__).parent
    readers = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "f2algebra.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names |= {a.name for a in node.names if LAYOUT_NAME.fullmatch(a.name)}
            elif isinstance(node, ast.Attribute) and LAYOUT_NAME.fullmatch(node.attr):
                names.add(node.attr)
        if names:
            readers[path.name] = sorted(names)
    assert readers == {}


def test_only_f2algebra_packs_a_generator():
    # Q^I(b) becomes a code through Packing.admissible_code, so the reading
    # of zero and negative lower indices lives in one place
    package = Path(loophomology.__file__).parent
    callers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "f2algebra.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "generator_code"
    ]
    assert callers == []
