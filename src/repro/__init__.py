"""repro: reproduction of Marin & Mellor-Crummey, "Pinpointing and
Exploiting Opportunities for Enhancing Data Reuse" (ISPASS 2008).

Public API highlights
---------------------
* :mod:`repro.lang` — kernel description language + instrumented executor
  (the binary-instrumentation substitute).
* :class:`repro.core.ReuseAnalyzer` — online reuse-pattern analysis.
* :class:`repro.model.MachineConfig` / :func:`repro.model.predict` —
  per-pattern cache/TLB miss prediction.
* :class:`repro.static.StaticAnalysis` /
  :class:`repro.static.FragmentationAnalysis` — symbolic formulas, related
  references, fragmentation factors.
* :class:`repro.tools.AnalysisSession` — the one-call pipeline.
* :mod:`repro.apps` — Sweep3D and GTC kernel models with every paper
  transformation.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "AnalysisSession", "FragmentationAnalysis", "HierarchySim",
    "MachineConfig", "Prediction", "ReuseAnalyzer", "StaticAnalysis",
    "TimingModel", "analyze", "obs", "predict", "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "": ("obs",),
    "core": ("ReuseAnalyzer",),
    "model": ("MachineConfig", "Prediction", "predict"),
    "sim": ("HierarchySim", "TimingModel"),
    "static": ("FragmentationAnalysis", "StaticAnalysis"),
    "tools": ("AnalysisSession", "analyze"),
})
