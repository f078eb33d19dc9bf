"""The canonical-order basis walk against the enumerator it replaced.

`f2algebra._basis_walk` emits the basis of one degree already in canonical
order: one depth-first pass in generator order, bucketed by gen_length.  The
oracle below is the former enumerator: a recursion over generators sorted by
dimension that sorts each factor list and then the whole basis by
`canonical_key`.  `basis_enumerate` and the packed `_basis_codes` must give
exactly its list, order included.

The generator table is checked the same way, against the former
`generators_up_to`, which rebuilt and sorted every generator on each call.

`basis_lines`, the walk's text leaf that the `basis` command prints, is
checked against `str` of every validated monomial `basis_enumerate` lists.

One walk over a range of degrees (`_code_bases`) must give each degree's
basis exactly as its own one-degree walk does, and intern the same
generators in the same order as a degree-by-degree sweep.
"""

from __future__ import annotations

import pytest

from loophomology import certify
from loophomology.cli import main
from loophomology.f2algebra import (
    Generator,
    Monomial,
    Packing,
    _basis_codes,
    _code_bases,
    _packing,
    basis_enumerate,
    basis_lines,
    canonical_key,
    generator_monomial,
    generators_up_to,
    single_generators,
)
from loophomology.hopf import primitive_space
from loophomology.seqcore import enumerate_admissible
from loophomology.spaces import (
    SpaceDesc,
    qs0_space,
    qsn_space,
    space_from_dict,
    two_cell_space,
)

MAX_DEGREE = 14

SPACES = {
    "qs1": qsn_space(1),
    "qs2": qsn_space(2),
    "qs3": qsn_space(3),
    "two-cell": two_cell_space(),
    "sigma2-a1b2": space_from_dict({
        "model": "sigma2", "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 2}],
    }),
    "sigma2-a1b2-sq1": space_from_dict({
        "model": "sigma2",
        "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 2}],
        "sq_action": [{"r": 1, "from": "b", "to": ["a"]}],
    }),
    "sigma2-a1b3-sq2": space_from_dict({
        "model": "sigma2",
        "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 3}],
        "sq_action": [{"r": 2, "from": "b", "to": ["a"]}],
    }),
    # not unstable: Sq^4_* b_7 = a_3 with 2 * 4 > 7 (see test_kernel_rows)
    "a1b5-sq4": space_from_dict({
        "model": "sigma2",
        "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 5}],
        "sq_action": [{"r": 4, "from": "b", "to": ["a"]}],
    }),
}
CASES = [pytest.param(space, None, id=name) for name, space in SPACES.items()]
CASES += [pytest.param(qs0_space(), c, id=f"qs0-charge-{c}") for c in (None, 0, 5, -3)]


def former_generators_up_to(space: SpaceDesc, max_dim: int) -> list[Generator]:
    """The former generator listing: every base and dimension, then one sort."""
    out: list[Generator] = []
    for base in space.base_classes():
        lo = 1 if base.kind == "unit_loop" else base.dimension
        for d in range(lo, max_dim + 1):
            for seq in enumerate_admissible(d, base.dimension, base.dimension):
                if base.kind == "unit_loop" and not seq:
                    continue
                out.append(Generator(base, seq))
    out.sort(key=lambda g: (g.dimension, g))
    return out


def recursive_basis(space: SpaceDesc, degree: int, charge: int | None = None) -> list[Monomial]:
    """The former enumerator: recurse, sort each factor list, sort the basis."""
    if space.has_charge():
        charge = 0 if charge is None else charge
    if degree <= 0:
        return []
    gens = former_generators_up_to(space, degree)
    out: list[Monomial] = []

    def extend(idx, remaining, picked):
        if remaining == 0:
            factors = tuple(sorted(picked))
            t = 0
            if space.has_charge():
                t = charge - sum(e * g.charge for g, e in factors)
            out.append(Monomial(factors, t))
            return
        if idx == len(gens) or gens[idx].dimension > remaining:
            return
        extend(idx + 1, remaining, picked)
        d = gens[idx].dimension
        for e in range(1, remaining // d + 1):
            extend(idx + 1, remaining - e * d, picked + [(gens[idx], e)])

    extend(0, degree, [])
    out.sort(key=canonical_key)
    return out


@pytest.mark.parametrize("space, charge", CASES)
def test_the_walk_lists_the_recursive_basis_in_order(space, charge):
    p = _packing(space)
    for degree in range(MAX_DEGREE + 1):
        expected = recursive_basis(space, degree, charge)
        assert basis_enumerate(space, degree, charge) == expected, degree
        codes = _basis_codes(space, degree, charge)
        assert [p.decode(c) for c in codes] == expected, degree


@pytest.mark.parametrize("space, charge", CASES)
def test_basis_lines_print_the_validated_basis(space, charge):
    # the qs0 cases reach the degrees of the benchmark's heaviest queries
    for degree in range(-2, (22 if space.has_charge() else 16) + 1):
        expected = [str(m) for m in basis_enumerate(space, degree, charge)]
        assert basis_lines(space, degree, charge) == expected, degree


@pytest.mark.parametrize("degree", [0, 3])
def test_basis_lines_refuse_a_charge_as_basis_enumerate_does(degree):
    space = qsn_space(1)
    with pytest.raises(ValueError) as enumerated:
        basis_enumerate(space, degree, 0)
    with pytest.raises(ValueError) as printed:
        basis_lines(space, degree, 0)
    assert str(printed.value) == str(enumerated.value)


def test_the_basis_command_builds_no_monomial(monkeypatch, capsys):
    built = [0]
    init = Monomial.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Monomial, "__init__", counted)
    assert main(["basis", "--space", "qs0", "--degree", "12"]) == 0
    assert built[0] == 0
    expected = basis_enumerate(qs0_space(), 12)
    assert built[0] == len(expected)  # the counter sees every Monomial built
    assert capsys.readouterr().out.splitlines() == [str(m) for m in expected]


TABLE_SPACES = list(SPACES.values()) + [qs0_space()]


@pytest.mark.parametrize("space", TABLE_SPACES, ids=lambda s: s.label)
def test_the_generator_table_lists_the_former_generators(space):
    for degree in range(-1, MAX_DEGREE + 1):
        expected = former_generators_up_to(space, degree)
        assert generators_up_to(space, degree) == expected, degree
        singles = [generator_monomial(g, 1, -g.charge) for g in expected if g.dimension == degree]
        assert single_generators(space, degree) == sorted(singles, key=canonical_key), degree


def test_a_second_table_lookup_builds_no_generator(monkeypatch):
    space = space_from_dict({
        "model": "sigma2", "cells": [{"name": "u", "dim": 2}, {"name": "w", "dim": 3}],
    })
    built = [0]
    validate = Generator.__post_init__

    def counted(self):
        built[0] += 1
        validate(self)

    monkeypatch.setattr(Generator, "__post_init__", counted)
    first = generators_up_to(space, 19)
    assert built[0] == len(first)  # each generator validated once
    built[0] = 0
    assert generators_up_to(space, 19) == first
    assert built[0] == 0


@pytest.mark.parametrize("space", [qs0_space(), qsn_space(1), two_cell_space()],
                         ids=lambda s: s.label)
def test_basis_codes_intern_the_generator_table_in_order(space, monkeypatch):
    # fresh: one walk on a new Packing; climbing: every lower degree walked first
    climbing = Packing(space)
    for degree in range(1, MAX_DEGREE + 1):
        for p in (Packing(space), climbing):
            monkeypatch.setattr("loophomology.f2algebra._packing", lambda _: p)
            codes = _basis_codes(space, degree)
            assert p.gens == generators_up_to(space, degree), degree
            assert [p.decode(c) for c in codes] == basis_enumerate(space, degree)


RANGE_CASES = [pytest.param(space, None, id=name) for name, space in SPACES.items()]
RANGE_CASES += [pytest.param(qs0_space(), c, id=f"qs0-charge-{c}") for c in (0, 1, -2)]


@pytest.mark.parametrize("space, charge", RANGE_CASES)
@pytest.mark.parametrize("degrees", [range(1, MAX_DEGREE + 1), range(-2, 5), range(6, 11)],
                         ids=["1-top", "from-below-zero", "6-10"])
def test_a_range_walk_lists_each_degree_as_its_own_walk(space, charge, degrees):
    bases = _code_bases(space, degrees, charge)
    assert len(bases) == len(degrees)
    for degree, codes in zip(degrees, bases):
        assert codes == _basis_codes(space, degree, charge), degree


@pytest.mark.parametrize("space, charge", RANGE_CASES)
def test_a_range_walk_interns_what_a_degree_sweep_interns(space, charge, monkeypatch):
    ranged, swept = Packing(space), Packing(space)
    monkeypatch.setattr("loophomology.f2algebra._packing", lambda _: ranged)
    _code_bases(space, range(1, MAX_DEGREE + 1), charge)
    monkeypatch.setattr("loophomology.f2algebra._packing", lambda _: swept)
    for degree in range(1, MAX_DEGREE + 1):
        _basis_codes(space, degree, charge)
    assert ranged.gens == swept.gens == generators_up_to(space, MAX_DEGREE)


def test_basis_enumerate_leaves_the_decode_memo_alone():
    for space in (qs0_space(), qsn_space(1), two_cell_space()):
        p = _packing(space)
        before = dict(p._decoded)
        for degree in range(1, MAX_DEGREE + 1):
            basis_enumerate(space, degree)
        assert p._decoded == before


@pytest.fixture
def monomials_built(monkeypatch):
    """A counter of Monomial.__post_init__ calls, the validation every
    Monomial runs."""
    built = [0]
    validate = Monomial.__post_init__

    def counted(self):
        built[0] += 1
        validate(self)

    monkeypatch.setattr(Monomial, "__post_init__", counted)
    return built


def test_the_suspension_kernel_case_builds_no_monomial(monomials_built):
    ok, _, _ = certify._suspension_walk((qs0_space(), range(12, 13)))
    assert ok and monomials_built[0] == 0


def test_primitive_space_builds_only_the_kernel_terms(monomials_built):
    space = qsn_space(1)
    first = primitive_space(space, 9)
    terms = set().union(*(v.terms for v in first))
    assert terms and monomials_built[0] <= len(terms)
    # decoding is memoized, so with the kernel's terms decoded nothing is built
    monomials_built[0] = 0
    assert primitive_space(space, 9) == first
    assert monomials_built[0] == 0
