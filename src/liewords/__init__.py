"""Rotation-class complexity of infinite words, three independent ways.

The quantity tracked everywhere is the number of rotation (conjugacy)
classes of length n that sit entirely inside the factor set of a word.
The package computes it by direct enumeration over exact factor sets,
as a difference of ranks in a factor algebra, and through a
formula-to-automaton pipeline that also yields the counting sequence as
an automatic sequence in the digit base of the word.
"""

from .algebra import AlgebraRow, algebra_report, commutator_span, lie_via_algebra
from .bundled import PIPELINE_WORDS, WORDS, get_word
from .complexity import (
    ComplexityRow,
    FactorSet,
    abelian_complexity,
    complexity_row,
    complexity_table,
    cyclic_complexity,
    factor_set,
    first_difference_margin,
    lie_complexity,
    saturated_factor_set,
    unbounded_exponent_scan,
)
from .construction import (
    ConstructionParams,
    ConstructionTrace,
    build,
    double_log_threshold,
    verify_complexity_bound,
    verify_powers,
    verify_structure,
)
from .counting import (
    LinearRepresentation,
    count_direct,
    counting_representation,
    eval_int,
    minimize_representation,
    sup_value,
    to_dfao,
)
from .errors import ToolError
from .golden import GOLDEN_PLAN, closed_form, golden_report
from .logic import (
    PREDICATE_TEXTS,
    apply_predicate,
    build_predicate_library,
    compile_formula,
    parse_with_library,
)
from .words import Dfao, Morphism, WordGenerator, morphism, saturation_window

__all__ = [
    "AlgebraRow",
    "ComplexityRow",
    "ConstructionParams",
    "ConstructionTrace",
    "Dfao",
    "FactorSet",
    "GOLDEN_PLAN",
    "LinearRepresentation",
    "Morphism",
    "PIPELINE_WORDS",
    "PREDICATE_TEXTS",
    "ToolError",
    "WORDS",
    "WordGenerator",
    "abelian_complexity",
    "algebra_report",
    "apply_predicate",
    "build",
    "build_predicate_library",
    "closed_form",
    "commutator_span",
    "compile_formula",
    "complexity_row",
    "complexity_table",
    "count_direct",
    "counting_representation",
    "cyclic_complexity",
    "double_log_threshold",
    "eval_int",
    "factor_set",
    "first_difference_margin",
    "get_word",
    "golden_report",
    "lie_complexity",
    "lie_via_algebra",
    "minimize_representation",
    "morphism",
    "parse_with_library",
    "saturated_factor_set",
    "saturation_window",
    "sup_value",
    "to_dfao",
    "unbounded_exponent_scan",
    "verify_complexity_bound",
    "verify_powers",
    "verify_structure",
]
