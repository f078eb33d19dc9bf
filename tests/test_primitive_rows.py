"""The p_I corrections from one reduced-psi matrix per degree.

`hopf.make_primitive_pI` reads its target and its decomposable columns from
the rows `primitive_space` takes the kernel of, and solves against one
elimination shared by every p_I of the degree.  The oracle below is the
former build: fresh masks of the decomposables and the target for each p_I,
solved with `solve_unique`.  Both must give the same value and correction,
and the dependence and span checks must still raise with their messages.
"""

from __future__ import annotations

import re

import pytest
from test_kernel_rows import sum_masks
from test_linalg_f2 import solve_unique
from test_suspension_kernel import gen_length

from loophomology import certify, hopf
from loophomology.errors import NonUnique, NoSolution
from loophomology.f2algebra import (
    Element,
    Generator,
    _basis_codes,
    _element_from_codes,
    _packing,
    generator_monomial,
    masks_for_term_sets,
)
from loophomology.hopf import (
    _reduced_psi,
    make_primitive_pI,
    primitive_space,
    qualifies_for_primitive,
)
from loophomology.linalg_f2 import kernel_of_images, solve_linear
from loophomology.seqcore import UpperSeq, enumerate_admissible
from loophomology.spaces import qs0_space, qsn_space

QS0 = qs0_space()


def former_pI(entries: tuple[int, ...]) -> tuple[Element, Element]:
    """(value, correction) of p_I, built from its own masks."""
    top = generator_monomial(
        Generator(QS0.base_classes()[0], UpperSeq(entries)), translation=-(2 ** len(entries))
    )
    lead = Element(QS0, frozenset({top}))
    p = _packing(QS0)
    target = _reduced_psi(p, p.encode(top))
    if not target:
        return lead, Element(QS0, frozenset())
    decomposables = [c for c in _basis_codes(QS0, sum(entries), 0) if gen_length(c) >= 2]
    masks, _ = masks_for_term_sets([_reduced_psi(p, c) for c in decomposables] + [target])
    correction = _element_from_codes(QS0, solve_unique(masks[:-1], masks[-1]), decomposables)
    return lead + correction, correction


QUALIFYING = [
    s.entries
    for d in range(1, 14, 2)
    for s in enumerate_admissible(d, 0, 0)
    if qualifies_for_primitive(s)
]


def test_every_pI_to_degree_13_equals_the_former_build():
    assert len(QUALIFYING) == 12
    for entries in QUALIFYING:
        p = make_primitive_pI(entries)
        assert (p.value, p.correction) == former_pI(entries), entries


@pytest.mark.parametrize("space, charge", [(QS0, 0), (qsn_space(1), None)], ids=["qs0", "qs1"])
@pytest.mark.parametrize("degree", range(1, 14, 2))
def test_streamed_rows_give_what_sorted_columns_give(space, charge, degree):
    # _reduced_psi_rows numbers its columns in first-seen order; the same rows
    # summed over sorted columns are the oracle
    p = _packing(space)
    codes, masks = hopf._reduced_psi_rows(space, degree)
    assert codes == _basis_codes(space, degree, charge)
    rows = [_reduced_psi(p, c) for c in codes]
    ordered = sum_masks(rows, sorted(set().union(*rows)))
    kernel = kernel_of_images(ordered)
    assert kernel_of_images(masks) == kernel
    assert primitive_space(space, degree) == [
        _element_from_codes(space, combo, codes) for combo in kernel
    ]
    if space != QS0:
        return
    decomposables = [i for i, c in enumerate(codes) if gen_length(c) >= 2]
    for entries in (e for e in QUALIFYING if sum(e) == degree):
        top = generator_monomial(
            Generator(QS0.base_classes()[0], UpperSeq(entries)), translation=-(2 ** len(entries))
        )
        target = ordered[codes.index(p.encode(top))]
        combo = solve_linear([ordered[i] for i in decomposables], target)
        correction = _element_from_codes(QS0, combo, [codes[i] for i in decomposables])
        pI = make_primitive_pI(entries)
        assert (pI.value, pI.correction) == (Element(QS0, frozenset({top})) + correction,
                                            correction), entries


@pytest.fixture
def fresh_pI_caches():
    """Clear the p_I caches before a mutant runs and after it is undone."""
    caches = (make_primitive_pI, hopf._decomposable_columns, hopf._reduced_psi_rows)
    for c in caches:
        c.cache_clear()
    yield
    for c in caches:
        c.cache_clear()


def _mutate_decomposable_rows(monkeypatch, row):
    """Replace the reduced psi of each decomposable code c by row(c)."""
    real = hopf._reduced_psi
    monkeypatch.setattr(
        hopf, "_reduced_psi",
        lambda p, c, k=None: row(c) if gen_length(c) >= 2 else real(p, c, k),
    )


def test_dependent_decomposable_columns_raise_non_unique(monkeypatch, fresh_pI_caches):
    _mutate_decomposable_rows(monkeypatch, lambda c: frozenset())
    with pytest.raises(
        NonUnique, match=re.escape("decomposable correction for p_(3,) is not unique")
    ):
        make_primitive_pI((3,))


def test_a_target_outside_the_decomposable_span_raises_no_solution(monkeypatch, fresh_pI_caches):
    # one term of its own per column: independent, and disjoint from the target
    _mutate_decomposable_rows(monkeypatch, lambda c: frozenset({-c}))
    with pytest.raises(
        NoSolution, match=re.escape("no primitive of the shape Q^(3,)[1] + decomposables")
    ):
        make_primitive_pI((3,))


def test_a_wrong_correction_fails_the_primitivity_check(monkeypatch, fresh_pI_caches):
    monkeypatch.setattr(hopf, "_solve", lambda pivots, target: 0)
    with pytest.raises(
        NoSolution, match=re.escape("correction for p_(3,) failed the primitivity check")
    ):
        make_primitive_pI((3,))


def test_primitive_basis_builds_each_degrees_rows_once(monkeypatch, fresh_pI_caches):
    calls = [0]
    real = masks_for_term_sets

    def counted(term_sets):
        calls[0] += 1
        return real(term_sets)

    for module in (hopf, certify):
        monkeypatch.setattr(module, "masks_for_term_sets", counted)
    result = certify.suite_primitive_basis()
    assert result.passed
    # one reduced-psi matrix and one family rank check per odd degree <= 13
    assert calls[0] <= 2 * 7
