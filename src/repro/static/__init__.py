"""Static analysis of access patterns: formulas, related refs, fragmentation."""

from repro._lazy import lazy_exports

__all__ = [
    "BandReport", "FragmentationAnalysis", "FragmentationInfo", "ItemClass",
    "IterModel", "MAX_POINTS", "RefVec", "RelatedGroup", "StaticAnalysis",
    "StaticProfiler", "StaticUnsupported", "StrideInfo", "SymFormula",
    "VALIDATION_MATRIX", "ValidationReport", "address_formula",
    "address_slice_of_ref", "analyze_group", "backward_slice",
    "compare_states", "enumerate_program", "feeding_loads",
    "first_location", "formula_of_reg", "loop_vars_reaching",
    "lower_program", "lower_routine", "params_reaching", "run_matrix",
    "static_profile", "stride_of", "validate_program", "validate_workload",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "formulas": ("StrideInfo", "SymFormula", "address_formula",
                 "first_location", "formula_of_reg", "stride_of"),
    "fragmentation": ("FragmentationAnalysis", "FragmentationInfo",
                      "analyze_group"),
    "itermodel": ("MAX_POINTS", "ItemClass", "IterModel", "RefVec",
                  "StaticUnsupported", "enumerate_program"),
    "lower": ("lower_program", "lower_routine"),
    "profile": ("StaticProfiler", "static_profile"),
    "related": ("RelatedGroup", "StaticAnalysis"),
    "usedef": ("address_slice_of_ref", "backward_slice", "feeding_loads",
               "loop_vars_reaching", "params_reaching"),
    "validate": ("VALIDATION_MATRIX", "BandReport", "ValidationReport",
                 "compare_states", "run_matrix", "validate_program",
                 "validate_workload"),
})
