"""Cross-input scaling of reuse-distance histograms.

Section II: "we model the distribution and scaling of reuse distance
histograms as a function of problem size by computing an appropriate
partitioning of reuse distance histograms into bins of accesses that have
similar scaling ... We model the execution frequency and reuse distance
scaling of each bin as a linear combination of a set of basis functions."

Implementation: each pattern's histogram is summarized by (a) its access
count and cold count and (b) the reuse distances at a fixed set of quantile
fractions — the "bins of accesses with similar scaling" (the q-th quantile
tracks the same algorithmic reuse across problem sizes).  Each series is fit
across training sizes by non-negative least squares over a basis of common
complexity terms; predicted histograms are reconstructed from the predicted
quantiles and fed to the ordinary miss models.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.histogram import Histogram
from repro.core.patterns import COLD, PatternDB, PatternKey, ReusePattern
from repro.model.config import MemoryLevel
from repro.model.missmodel import expected_misses

#: Quantile fractions summarizing each pattern's distance distribution.
QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)

#: Basis functions over the problem-size parameter.
BASIS: Tuple[Tuple[str, Callable[[float], float]], ...] = (
    ("1", lambda n: 1.0),
    ("n", lambda n: n),
    ("n^2", lambda n: n * n),
    ("n^3", lambda n: n * n * n),
    ("n*log(n)", lambda n: n * math.log(max(n, 2.0))),
    ("sqrt(n)", lambda n: math.sqrt(n)),
)


class SeriesModel:
    """One fitted series: value(problem size) = nonneg combo of basis fns."""

    def __init__(self, coeffs: np.ndarray, residual: float) -> None:
        self.coeffs = coeffs
        self.residual = residual

    def predict(self, size: float) -> float:
        row = np.array([fn(size) for _name, fn in BASIS])
        return float(max(0.0, row @ self.coeffs))

    def describe(self, tol: float = 1e-9) -> str:
        parts = [
            f"{c:.3g}*{name}"
            for (name, _fn), c in zip(BASIS, self.coeffs)
            if c > tol
        ]
        return " + ".join(parts) if parts else "0"


def fit_series(sizes: Sequence[float], values: Sequence[float]) -> SeriesModel:
    """Fit a non-negative linear combination of BASIS to (sizes, values)."""
    # scipy serves only this fit; importing it here keeps it (half a
    # second of imports) out of every process that fits nothing
    from scipy.optimize import nnls

    design = np.array([[fn(s) for _name, fn in BASIS] for s in sizes])
    target = np.asarray(values, dtype=float)
    # Column scaling keeps nnls well-conditioned across wildly different
    # basis magnitudes (1 vs n^3).
    norms = np.linalg.norm(design, axis=0)
    norms[norms == 0.0] = 1.0
    coeffs, residual = nnls(design / norms, target)
    return SeriesModel(coeffs / norms, float(residual))


class PatternScaling:
    """Fitted scaling model for one reuse pattern."""

    def __init__(self, key: PatternKey, count_model: SeriesModel,
                 cold_model: SeriesModel,
                 quantile_models: List[SeriesModel]) -> None:
        self.key = key
        self.count_model = count_model
        self.cold_model = cold_model
        self.quantile_models = quantile_models

    def predict_histogram(self, size: float) -> Histogram:
        """Reconstruct the histogram predicted at ``size``.

        The predicted access count is distributed over the segments between
        consecutive predicted quantiles (mass at each segment midpoint).
        """
        hist = Histogram()
        count = self.count_model.predict(size)
        hist.cold = int(round(self.cold_model.predict(size)))
        if count <= 0.0:
            return hist
        distances = [max(0.0, qm.predict(size)) for qm in self.quantile_models]
        distances = list(np.maximum.accumulate(distances))  # monotone
        share = count / len(distances)
        for k, dist in enumerate(distances):
            if k == 0:
                mid = dist
            else:
                mid = 0.5 * (distances[k - 1] + dist)
            hist.add(int(round(mid)), int(round(share)))
        return hist


class ScalingModel:
    """Scaling models for every pattern seen across the training runs."""

    def __init__(self) -> None:
        self.patterns: Dict[PatternKey, PatternScaling] = {}
        self.sizes: List[float] = []

    @staticmethod
    def fit(sizes: Sequence[float], dbs: Sequence[PatternDB]) -> "ScalingModel":
        """Fit from reuse-pattern databases measured at several sizes.

        Patterns absent from a run contribute zero count at that size —
        which is the correct observation, not missing data.
        """
        if len(sizes) != len(dbs):
            raise ValueError("one PatternDB per training size required")
        if len(sizes) < 2:
            raise ValueError("at least two training sizes are required")
        model = ScalingModel()
        model.sizes = [float(s) for s in sizes]
        all_keys = set()
        per_run: List[Dict[PatternKey, ReusePattern]] = []
        for db in dbs:
            by_key = {p.key: p for p in db.patterns()}
            per_run.append(by_key)
            all_keys.update(by_key)
        for key in sorted(all_keys):
            counts, colds = [], []
            quantile_series: List[List[float]] = [[] for _ in QUANTILES]
            for by_key in per_run:
                pattern = by_key.get(key)
                if pattern is None:
                    counts.append(0.0)
                    colds.append(0.0)
                    for series in quantile_series:
                        series.append(0.0)
                    continue
                hist = pattern.histogram
                counts.append(float(hist.reuses))
                colds.append(float(hist.cold))
                for series, q in zip(quantile_series, QUANTILES):
                    series.append(hist.quantile(q))
            model.patterns[key] = PatternScaling(
                key,
                fit_series(model.sizes, counts),
                fit_series(model.sizes, colds),
                [fit_series(model.sizes, s) for s in quantile_series],
            )
        return model

    @staticmethod
    def fit_closed_form(derivation, sizes: Sequence[int],
                        granularity: str = "line",
                        extrapolate: bool = False) -> "ScalingModel":
        """Fit the Fig 11-style scaling curves from closed-form
        evaluations instead of dynamic runs.

        A :class:`~repro.static.closedform.Derivation` turns each
        training size into a pattern database in microseconds (closed
        form) or one enumeration (fallback) — never an execution — so
        the training grid can hold dozens of sizes for free.  The
        evaluated states are byte-identical to ``engine="static"``,
        which makes this exactly the model a static sweep would have
        fitted.
        """
        from repro.core.analyzer import ReuseAnalyzer
        used: List[float] = []
        dbs: List[PatternDB] = []
        for size in sizes:
            state, _stats, _fallbacks = derivation.evaluate(
                int(size), extrapolate=extrapolate)
            dbs.append(ReuseAnalyzer.from_state(state).db(granularity))
            used.append(float(size))
        return ScalingModel.fit(used, dbs)

    def predict_histograms(self, size: float) -> Dict[PatternKey, Histogram]:
        return {key: ps.predict_histogram(size)
                for key, ps in self.patterns.items()}

    def predict_misses(self, size: float, level: MemoryLevel,
                       model: str = "sa") -> float:
        """Total predicted misses at one level for an unseen problem size."""
        total = 0.0
        for hist in self.predict_histograms(size).values():
            total += expected_misses(hist, level, model=model)
        return total

    def predict_pattern_misses(self, size: float, level: MemoryLevel,
                               model: str = "sa") -> Dict[PatternKey, float]:
        return {
            key: expected_misses(hist, level, model=model)
            for key, hist in self.predict_histograms(size).items()
        }
