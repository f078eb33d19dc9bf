"""Symbolic mod-2 homology of iterated loop spaces.

The package models H_*(QS^n; Z/2) and friends as polynomial algebras over
admissible operation sequences, with the operation action, the dual Steenrod
action, the Hopf-algebra structure, the homology suspension, and the
screening pipeline for spherical classes built on top.  Everything is exact
arithmetic over the two-element field; every printed bound is reported next
to an oracle computed another way.
"""

from .certify import SUITES, SuiteResult, degree_budget, run_suites
from .dlops import adem_pairs, apply_Q, apply_Q_iterated
from .errors import (
    ChargeNonzero,
    CounterexampleFound,
    DegreeBudgetExceeded,
    LoopHomologyError,
    NegativeLowerIndex,
    NoSolution,
    NoSuccessor,
    NonUnique,
    NotASquare,
    PackedFieldOverflow,
    SpaceMismatch,
    UnsupportedOperand,
)
from .f2algebra import (
    Element,
    Generator,
    Monomial,
    base_element,
    basis_enumerate,
    element_of,
    generators_up_to,
    split_decomposable,
    translation_class,
)
from .hopf import (
    PrimitiveBasisElement,
    coproduct,
    is_primitive,
    kernel_of_r,
    make_primitive_pI,
    primitive_space,
    qualifies_for_primitive,
    reduced_coproduct,
    square_root_r,
)
from .seqcore import (
    LowerSeq,
    UpperSeq,
    enumerate_admissible,
    excess,
    is_admissible,
    lower,
    lower_to_upper,
    lucas_binom,
    upper,
    upper_dim,
    upper_to_lower,
)
from .screener import (
    MInfinityModule,
    ScreenReport,
    WellingtonReport,
    bound_main1,
    bounds_report,
    immersion_threshold_report,
    max_generator_dim,
    max_generator_dim_exhaustive,
    screen_degree,
    stable_range_check,
    sum_identity_check,
    wellington_check,
)
from .spaces import (
    SpaceDesc,
    qs0_space,
    qsn_space,
    space_from_dict,
    space_to_dict,
    suspension_space,
    two_cell_space,
)
from .steenrod import is_A_annihilated, sq_lower
from .suspension import (
    loop_level,
    suspend,
    suspension_kernel_basis,
    within_loop_filtration,
)

__version__ = "0.1.0"

# every name imported above; the submodules the imports bind are left out
__all__ = [n for n, v in globals().items() if n[0] != "_" and type(v) is not type(errors)]
