"""Cut-cofinality calculus for linear orders, ordered abelian groups and
ordered fields, with a concrete finite-support Hahn-series ground layer.

`import ordercuts` loads this package alone.  Each public name, and each
submodule name, imports its module on first use (PEP 562), so a caller of
the Hahn layer never pays for the symbolic layers, nor the reverse.  A name
is looked up anew on every use and never stored here, so the package
always hands out what its module holds now."""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "cardinals": (
        "ALEPH0", "ALEPH1", "Card", "CardSet", "CofPair", "ONE", "OrdinalIndex",
        "ZERO", "aleph", "is_regular", "reg_below", "succ"),
    "errors": (
        "DescriptorError", "DomainError", "NotDerivableError", "OrderCutsError",
        "ParseError", "SideConditionError"),
    "order_terms": (
        "Atom", "CardinalSchedule", "Completeness", "Completion", "CutSpectrum",
        "EMPTY", "Empty", "FiniteChain", "LexRefined", "LexSchedule",
        "OrderExtension", "PhiMap", "PhiPiece", "Rev", "Sum", "WellOrder",
        "card_bound", "cf", "chain", "check_side_conditions", "ci", "coin_cofin",
        "completeness_predicates", "cut_spectrum", "extend_order", "rev", "sum_of",
        "well"),
    "struct_classify": (
        "ComponentAssignment", "ComponentKind", "FieldDescriptor", "GroupDescriptor",
        "Residue", "Verdict", "cf_group", "cf_m_gamma", "ci_positive_cone",
        "classify_discrete", "classify_field", "classify_group",
        "classify_group_cutwise", "extend_field", "extend_group",
        "principal_cuts_ok", "type1_cuts_ok", "type2_cuts_ok"),
    "hahn_concrete": (
        "ExponentGroup", "HahnElement", "INF", "INT_CHAIN", "RAT_CHAIN",
        "SeriesElement", "UltraBall", "arch_equiv", "arch_witness", "ball",
        "ball_compare", "nat_valuation", "residue", "series_valuation"),
    "chains": ("ConcreteChain", "IntChain", "LexChain", "RatChain", "WitnessSide"),
    "oracle": (
        "CutWitness", "OracleReport", "concretize", "derive_cf", "derive_ci",
        "sample_cuts", "spectrum_soundness", "verify_witness"),
}

# public name -> its submodule; a submodule's own name maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULE_OF.update((module, module) for module in _EXPORTS)

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
