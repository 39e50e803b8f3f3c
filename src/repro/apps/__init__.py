"""Application models: the paper's case studies and small demo kernels."""

from repro._lazy import lazy_exports

__all__ = ["gtc", "kernels", "spcg", "sweep3d"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "": ("gtc", "kernels", "spcg", "sweep3d"),
})
