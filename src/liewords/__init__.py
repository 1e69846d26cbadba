"""Rotation-class complexity of infinite words, three independent ways.

The quantity tracked everywhere is the number of rotation (conjugacy)
classes of length n that sit entirely inside the factor set of a word.
The package computes it by direct enumeration over exact factor sets,
as a difference of ranks in a factor algebra, and through a
formula-to-automaton pipeline that also yields the counting sequence as
an automatic sequence in the digit base of the word.

The public names below are imported from their modules on first use
(PEP 562), so importing one module of the package loads only what that
module imports.
"""

from importlib import import_module

# each public name, under the module that defines it
_EXPORTS = {
    "algebra": ("AlgebraRow", "algebra_report", "commutator_span", "lie_via_algebra"),
    "bundled": ("PIPELINE_WORDS", "WORDS", "get_word"),
    "complexity": (
        "ComplexityRow",
        "FactorSet",
        "abelian_complexity",
        "complexity_table",
        "cyclic_complexity",
        "factor_set",
        "first_difference_margin",
        "lie_complexity",
        "saturated_factor_set",
        "unbounded_exponent_scan",
    ),
    "construction": (
        "ConstructionParams",
        "ConstructionTrace",
        "build",
        "double_log_threshold",
        "verify_complexity_bound",
        "verify_powers",
        "verify_structure",
    ),
    "counting": (
        "LinearRepresentation",
        "counting_representation",
        "minimize_representation",
        "sup_value",
        "to_dfao",
    ),
    "errors": ("ToolError",),
    "golden": ("GOLDEN_PLAN", "closed_form", "golden_report"),
    "logic": (
        "PREDICATE_TEXTS",
        "apply_predicate",
        "build_predicate_library",
        "compile_formula",
        "parse_with_library",
    ),
    "words": ("Dfao", "Morphism", "WordGenerator", "morphism", "saturation_window"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
