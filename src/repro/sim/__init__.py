"""Ground-truth memory-hierarchy simulation and the analytic timing model."""

from repro._lazy import lazy_exports

__all__ = [
    "HierarchySim", "SetAssocCache", "TimingBreakdown", "TimingInputs",
    "TimingModel",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ("SetAssocCache",),
    "hierarchy": ("HierarchySim",),
    "timing": ("TimingBreakdown", "TimingInputs", "TimingModel"),
})
