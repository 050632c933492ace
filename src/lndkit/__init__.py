"""Exact symbolic toolkit for locally nilpotent derivations on finitely
generated Q-algebras: Groebner machinery, finite presentations, grade
computation, kernels, slices and truncated symbolic Rees algebras."""

from .config import RunConfig, budget
from .derivation_engine import (
    Derivation,
    NilpotencyCertificate,
    apply,
    certify_nilpotent,
    check_well_defined,
    contained_in_principal,
    extend_with_variable,
    irreducible_over_ufd,
    iterate,
    restrict_to_subalgebra,
    restricts_to,
)
from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    DimensionBudgetError,
    ExponentOverflowError,
    LndError,
    ParseError,
    VariableMismatchError,
)
from .grade_analyzer import (
    GradeReport,
    GradeValue,
    fpf_test,
    generic_combination_grade,
    grade_of_derivation,
    grade_of_ideal,
    grade_two_generated,
)
from .groebner_engine import (
    GroebnerBasis,
    Ideal,
    basis_memo,
    buchberger,
    eliminate,
    ideal_intersection,
    ideal_member,
    ideal_quotient,
    normal_form,
    saturation,
)
from .kernel_lab import (
    DixmierResult,
    KernelReport,
    SliceData,
    compare_kernel_to_subalgebra,
    dixmier,
    kernel_basis,
    kernel_generators,
    reconstruct,
    slice_search,
    verify_generators_up_to_degree,
)
from .poly_core import (
    MonomialOrder,
    Polynomial,
    divide,
    format_polynomial,
    gcd,
    parse_polynomial,
)
from .presentation import (
    MembershipResult,
    NzdResult,
    PresentedRing,
    Subalgebra,
    nzd_test,
    present_subalgebra,
)
from .rees_builder import (
    ReesData,
    compare_kernel_to_rees,
    ideal_power,
    rees_truncation,
    saturator_certified,
    symbolic_power,
)

__version__ = "0.1.0"
