"""Empty input goes through the general path of every kernel.

An empty basis masks to no rows and no rows have an empty kernel, so no
kernel function needs a case of its own for it.  Each is called here on an
empty basis, in degrees <= 0 and in degrees below the bottom cell, where it
must return [] (True for the primitivity test of the zero element).
enumerate_admissible below the base dimension is swept in test_seqcore.
"""

from __future__ import annotations

import pytest
from test_kernel_rows import primitive_annihilated_basis

from loophomology.f2algebra import _basis_codes, basis_enumerate, zero
from loophomology.hopf import is_primitive, kernel_of_r, primitive_space
from loophomology.screener import MInfinityModule, _pri_ann_kernel
from loophomology.spaces import MODEL_QS0, qs0_space, qsn_space, two_cell_space
from loophomology.suspension import _suspension_kernel, suspension_kernel_basis

QS3 = qsn_space(3)
SPACES = [qs0_space(), qsn_space(1), QS3, two_cell_space()]
# every degree <= 0, and the positive degrees below the bottom cell of qs3
EMPTY = [(space, d) for space in SPACES for d in (-1, 0)] + [(QS3, 1), (QS3, 2)]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label)
def test_the_zero_element_is_primitive(space):
    assert is_primitive(zero(space))


@pytest.mark.parametrize("space, degree", EMPTY, ids=lambda v: getattr(v, "label", v))
def test_an_empty_degree_has_empty_kernels(space, degree):
    assert basis_enumerate(space, degree) == []
    assert _basis_codes(space, degree) == []
    assert primitive_space(space, degree) == []
    assert primitive_annihilated_basis(space, degree) == []
    assert _pri_ann_kernel(space, degree, []) == []
    assert suspension_kernel_basis(space, degree) == []
    assert _suspension_kernel(space, []) == []
    if space.model != MODEL_QS0:
        assert MInfinityModule(space).annihilated_vectors(degree) == []


def test_an_empty_generator_family_has_an_empty_halving_kernel():
    # degrees <= 0 are swept in test_hopf; here the family is empty in degree 5
    assert kernel_of_r(5, max_length=0) == []


@pytest.mark.parametrize("enumerate_basis", [basis_enumerate, _basis_codes],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("space, degree", [(qsn_space(1), 3), (two_cell_space(), 0)],
                         ids=lambda v: getattr(v, "label", v))
def test_a_charge_on_a_one_component_space_is_refused(enumerate_basis, space, degree):
    # the charge is checked before the degree, in the one check both share
    with pytest.raises(ValueError, match="single component; omit charge"):
        enumerate_basis(space, degree, charge=0)
