"""Closed-form symbolic scaling: derive once, evaluate anywhere.

The static profiler (:mod:`repro.static.profile`) replaced execution
with enumeration: O(occurrences × references), not O(accesses).  But
it still re-enumerates the iteration space for every bounds tuple, so
a ten-size sweep pays ten full derivations.  Following Razzak et al.
("Static Reuse Profile Estimation for Array Applications" and the
nested-loops follow-up), the per-reference reuse profiles of affine
nests admit *closed forms* in the loop bounds: every quantity the
profiler emits — trip counts, footprints, link weights, window
distances — is piecewise polynomial in the bounds, because each is
built from sums and products of loop trips with branch points only
where a ``min``/saturation term switches sides.

This module lifts the profiler's output to that closed form by exact
polynomial interpolation over its *atoms* (the unbinned canonical
``(rid, src, carry, distance) -> count`` cells of
:func:`repro.static.profile.static_atoms`):

**Derive** — run the enumerated profiler at a small grid of sample
bounds, then fit every cell (atom distances and counts, cold counts,
footprints, clock, run statistics) with an exact-rational Newton
interpolation (:class:`fractions.Fraction` arithmetic — no floating
error, coefficients above the true degree vanish identically).  Held-
out sample points verify each cell: a cell whose polynomial misses a
verification point exactly is not closed-form on this range, and its
*reference* is marked for fallback.  The derivation is keyed by a
bounds-free fingerprint — the kernel IR at the canonical base sample
with the free bound left symbolic — and cached both in memory and in
the :class:`~repro.tools.cache.AnalysisCache`, so sweep units and
service jobs share one derivation.

**Evaluate** — substituting a concrete bound into the fitted
polynomials costs microseconds and is independent of the iteration
count.  Every evaluated cell is integrality-checked (distances must be
non-negative integers, counts non-negative dyadic rationals — the only
values the profiler can produce); any violation, any reference marked
at derive time, or a bound outside the verified hull triggers the
fallback: one enumerated profile at the requested bounds, spliced per
reference, counted on the ``static.closedform_fallbacks`` obs counter.
Either way the synthesized state is byte-identical to
``engine="static"`` at the same bounds — closed-form cells are exact
by verification, fallback cells are exact by construction, and every
path bins like :func:`~repro.static.profile.atoms_to_state` (the
fallback paths call it; the pure path replicates its accumulation
order and rounding operation-for-operation over precompiled
integer-coefficient polynomials).
"""

from __future__ import annotations

import hashlib
import logging
import math
import threading
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.analyzer import STATE_VERSION
from repro.core.histogram import bin_of
from repro.lang.executor import RunStats
from repro.obs import metrics as _obs
from repro.static.itermodel import MAX_POINTS, StaticUnsupported
from repro.static.profile import atoms_to_state, static_atoms, unpack_key

logger = logging.getLogger("repro.static.closedform")

#: Bump when the derivation payload layout or fit recipe changes.
DERIVATION_VERSION = 1

#: Default sample-grid size per free bound and held-out verification
#: points (fit degree = DEFAULT_POINTS - DEFAULT_VERIFY - 1).
DEFAULT_POINTS = 7
DEFAULT_VERIFY = 2

#: The free bound derived over when the caller does not name one: the
#: problem-size parameter each paper workload is swept on.
PRIMARY_FREE: Dict[str, str] = {
    "triad": "n",
    "sweep3d": "mesh",
    "cg": "grid",
    "gtc": "micell",
    "fig1": "n",
    "fig2": "n",
    "gather": "n",
}

#: Smallest legal value per (workload, bound) when default sample grids
#: must extend below the requested bounds.
_MIN_BOUND: Dict[Tuple[str, str], int] = {
    ("triad", "n"): 8,
    ("sweep3d", "mesh"): 2,
    ("cg", "grid"): 4,
    ("gtc", "micell"): 1,
    ("fig1", "n"): 8,
    ("fig2", "n"): 8,
    ("gather", "n"): 8,
}

#: (workload, bound) pairs where the bound is an array-element extent:
#: for these, footprints are ceil-quasi-polynomials with period
#: ``block_size / element_size`` in the bound, so the default sample
#: lattice must not step finer than the coarsest granularity's period
#: (see :func:`default_samples`).  Mesh-dimension bounds (sweep3d, cg,
#: gtc) scale enumeration cost steeply and are left alone.
_ELEMENT_BOUNDS = {("triad", "n"), ("fig1", "n"), ("fig2", "n"),
                   ("gather", "n")}


def _lattice_period(workload: str, free: str,
                    granularities: Dict[str, int]) -> int:
    """Minimum single-target lattice stride keeping every sample in one
    residue class of the coarsest block quasi-polynomial.  Every paper
    kernel indexes 8-byte elements, so the period of ``ceil`` terms in
    an element-extent bound is ``block_size / 8``."""
    if (workload, free) not in _ELEMENT_BOUNDS:
        return 1
    return max(1, max(granularities.values()) // 8)


_MEMO: Dict[str, "Derivation"] = {}
_MEMO_LOCK = threading.Lock()


class ClosedFormUnsupported(StaticUnsupported):
    """The derivation cannot be built for this workload/bound request."""


# -- exact polynomial core ------------------------------------------------

Poly = Tuple[Fraction, ...]


def _fit_poly(xs: Sequence[int], ys: Sequence[Fraction]) -> Poly:
    """Exact interpolating polynomial through ``(xs, ys)``, low-degree
    coefficients first.  Newton divided differences expanded to monomial
    form; all arithmetic rational, so data of true degree d yields
    exactly d+1 nonzero coefficients regardless of the grid size."""
    n = len(xs)
    dd = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * n
    basis = [Fraction(1)]
    for i, c in enumerate(dd):
        for k, a in enumerate(basis):
            poly[k] += c * a
        nxt = [Fraction(0)] * (len(basis) + 1)
        for k, a in enumerate(basis):
            nxt[k] -= a * xs[i]
            nxt[k + 1] += a
        basis = nxt
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


def _eval_poly(poly: Poly, x: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _int_poly(poly: Poly) -> Tuple[int, Tuple[int, ...]]:
    """``poly`` as ``(den, coeffs)`` with integer coefficients over one
    common denominator — the evaluation-side representation.  Horner in
    machine/big ints is ~10x cheaper than :class:`Fraction` arithmetic
    (no gcd normalization per step), which is what buys the near-
    constant per-evaluation cost the sweep amortization relies on."""
    den = 1
    for c in poly:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return den, tuple(int(c.numerator) * (den // c.denominator)
                      for c in reversed(poly))


def _int_eval(coeffs: Tuple[int, ...], x: int) -> int:
    """Horner over reversed (high-degree-first) integer coefficients."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _as_int(value: Fraction) -> Optional[int]:
    """The cell value as a non-negative integer, or None."""
    if value.denominator != 1 or value < 0:
        return None
    return int(value)


def _as_count(value: Fraction) -> Optional[float]:
    """The cell value as a non-negative dyadic count, or None.

    Emission weights are dyadic rationals (integer block weights split
    by powers of two), so any other denominator means the polynomial
    left its piece."""
    den = value.denominator
    if value < 0 or den & (den - 1):
        return None
    return float(value)


# -- derivation -----------------------------------------------------------

@dataclass
class Derivation:
    """Fitted closed-form profile for one kernel shape.

    Polynomials are in the single free bound ``free``; every other
    workload parameter is frozen in ``fixed`` (and participates in the
    shape key).  ``xs[:nfit]`` were interpolated, ``xs[nfit:]`` held
    out for verification, and the verified hull ``[xs[0], xs[-1]]`` is
    the domain closed-form evaluation accepts without ``extrapolate``.
    """

    version: int
    workload: str
    fixed: Dict[str, Any]
    free: str
    xs: Tuple[int, ...]
    nfit: int
    gran_spec: Tuple[Tuple[str, int], ...]
    n_scopes: int
    shape_key: str
    #: per granularity: pack -> list of (dist_poly, count_poly) atoms
    atom_tables: List[Dict[int, List[Tuple[Poly, Poly]]]]
    #: per granularity: rid -> cold-count poly
    cold_tables: List[Dict[int, Poly]]
    #: per granularity: footprint poly
    blocks_polys: List[Poly]
    clock_poly: Poly
    stats_polys: Dict[str, Poly]
    stats_dict_polys: Dict[str, Dict[int, Poly]]
    #: references whose cells failed alignment or verification — always
    #: enumerated at evaluation time
    fallback_rids: frozenset = frozenset()
    #: non-reference cell (clock/stats/footprint) failed: the whole
    #: evaluation enumerates (still counted, still byte-identical)
    global_fallback: bool = False
    derive_s: float = 0.0

    # -- evaluation -------------------------------------------------

    @property
    def domain(self) -> Tuple[int, int]:
        return self.xs[0], self.xs[-1]

    def params_at(self, value: int) -> Dict[str, Any]:
        return {**self.fixed, self.free: value}

    def evaluate(self, value: int, *, extrapolate: bool = False,
                 max_points: int = MAX_POINTS
                 ) -> Tuple[Dict, RunStats, int]:
        """Synthesize ``(state, stats, fallbacks)`` at ``value``.

        ``fallbacks`` counts the references spliced from an enumerated
        run (0 = pure closed form).  The state is byte-identical to
        ``static_profile`` at the same bounds on every path.
        """
        _obs.counter("static.closedform_evals").inc()
        bad = set(self.fallback_rids)
        full = self.global_fallback
        if not extrapolate and not (self.xs[0] <= value <= self.xs[-1]):
            full = True
        if not full and not bad:
            direct = self._evaluate_state_fast(value)
            if direct is not None:
                return direct[0], direct[1], 0
        atoms: Optional[List[Dict]] = None
        stats: Optional[RunStats] = None
        if not full:
            atoms = self._evaluate_atoms(value, bad)
            stats = self._evaluate_stats(value)
            if stats is None:
                full = True
        if full or bad or atoms is None:
            atoms, stats, n_fallback = self._splice_enumerated(
                value, atoms if not full else None, bad, max_points)
            _obs.counter("static.closedform_fallbacks").inc(n_fallback)
        else:
            n_fallback = 0
        state = atoms_to_state(atoms, stats.accesses, self.n_scopes)
        return state, stats, n_fallback

    def _fast(self) -> Dict[str, Any]:
        """Integer-coefficient evaluation tables, compiled lazily per
        instance (and rebuilt after unpickling from the cache)."""
        fast = self.__dict__.get("_fast_tables")
        if fast is None:
            ns = self.n_scopes
            fast = {
                "atoms": [
                    [(pack, unpack_key(pack, ns)[0],
                      [_int_poly(dp) + _int_poly(cp)
                       for dp, cp in cells])
                     for pack, cells in table.items()]
                    for table in self.atom_tables],
                # sorted-pack order with keys pre-unpacked: the direct
                # state synthesis walks this in the exact insertion
                # order the enumerated path's lexsort would produce
                "direct": [
                    [(unpack_key(pack, ns),
                      [_int_poly(dp) + _int_poly(cp)
                       for dp, cp in table[pack]])
                     for pack in sorted(table)]
                    for table in self.atom_tables],
                "cold": [[(rid,) + _int_poly(p)
                          for rid, p in table.items()]
                         for table in self.cold_tables],
                "blocks": [_int_poly(p) for p in self.blocks_polys],
                "stats": [(f,) + _int_poly(p)
                          for f, p in self.stats_polys.items()],
                "clock": _int_poly(self.clock_poly),
                "dicts": [(d, [(sid,) + _int_poly(p)
                               for sid, p in table.items()])
                          for d, table in self.stats_dict_polys.items()],
            }
            self.__dict__["_fast_tables"] = fast
        return fast

    def _evaluate_state_fast(self, value: int
                             ) -> Optional[Tuple[Dict, RunStats]]:
        """Direct state synthesis for the pure closed-form path.

        Replicates :func:`~repro.static.profile.atoms_to_state`'s
        binning arithmetic operation-for-operation — same per-bin float
        accumulation in the same lexicographic (pack, distance) order,
        same rounding — while skipping the intermediate atom arrays, so
        the result stays byte-identical at a fraction of the assembly
        cost.  Returns ``None`` on any integrality violation; the
        caller then retries on the general per-reference fallback path.
        """
        stats = self._evaluate_stats(value)
        if stats is None:
            return None
        fast = self._fast()
        grans = []
        for gi, (name, block_size) in enumerate(self.gran_spec):
            bden, bco = fast["blocks"][gi]
            bnum = _int_eval(bco, value)
            if bnum < 0 or bnum % bden:
                return None
            raw: Dict[Tuple[int, int, int], Dict[int, int]] = {}
            for key, cells in fast["direct"][gi]:
                pairs = []
                for dden, dco, cden, cco in cells:
                    dnum = _int_eval(dco, value)
                    if dnum < 0 or dnum % dden:
                        return None
                    cnum = _int_eval(cco, value)
                    g = math.gcd(cnum, cden)
                    cd = cden // g
                    if cnum < 0 or cd & (cd - 1):
                        return None
                    if cnum:
                        pairs.append((dnum // dden, (cnum // g) / cd))
                if len(pairs) > 1:
                    pairs.sort(key=lambda p: p[0])
                bucket: Dict[int, float] = {}
                for dist, count in pairs:
                    b = bin_of(dist)
                    bucket[b] = bucket.get(b, 0.0) + count
                rounded = {b: int(round(c)) for b, c in bucket.items()
                           if round(c) > 0}
                if rounded:
                    raw[key] = rounded
            cold: Dict[int, int] = {}
            for rid, den, co in fast["cold"][gi]:
                num = _int_eval(co, value)
                if num < 0 or num % den:
                    return None
                if num:
                    cold[rid] = num // den
            grans.append({"name": name, "block_size": block_size,
                          "raw": raw, "cold": cold,
                          "blocks": bnum // bden})
        state = {"version": STATE_VERSION, "clock": stats.accesses,
                 "grans": grans}
        return state, stats

    def _evaluate_atoms(self, value: int,
                        bad: set) -> Optional[List[Dict]]:
        """Closed-form atoms per granularity; grows ``bad`` with any
        reference whose cells leave their verified piece at ``value``.
        Cells of a reference that fails partway through the scan are
        dropped before assembly, so the splice never double-counts."""
        fast = self._fast()
        raw = []
        for gi in range(len(self.gran_spec)):
            packs: List[int] = []
            rids: List[int] = []
            dists: List[int] = []
            counts: List[float] = []
            for pack, rid, cells in fast["atoms"][gi]:
                if rid in bad:
                    continue
                for dden, dco, cden, cco in cells:
                    dnum = _int_eval(dco, value)
                    if dnum < 0 or dnum % dden:
                        bad.add(rid)
                        break
                    cnum = _int_eval(cco, value)
                    g = math.gcd(cnum, cden)
                    cd = cden // g
                    if cnum < 0 or cd & (cd - 1):
                        bad.add(rid)
                        break
                    if cnum:
                        packs.append(pack)
                        rids.append(rid)
                        dists.append(dnum // dden)
                        counts.append((cnum // g) / cd)
            colds: List[Tuple[int, int]] = []
            for rid, den, co in fast["cold"][gi]:
                if rid in bad:
                    continue
                num = _int_eval(co, value)
                if num < 0 or num % den:
                    bad.add(rid)
                elif num:
                    colds.append((rid, num // den))
            bden, bco = fast["blocks"][gi]
            bnum = _int_eval(bco, value)
            if bnum < 0 or bnum % bden:
                return None
            raw.append((packs, rids, dists, counts, colds,
                        bnum // bden))
        out = []
        for gi, (name, block_size) in enumerate(self.gran_spec):
            packs, rids, dists, counts, colds, blocks = raw[gi]
            if bad:
                keep = [i for i, r in enumerate(rids) if r not in bad]
                packs = [packs[i] for i in keep]
                dists = [dists[i] for i in keep]
                counts = [counts[i] for i in keep]
            pk = np.asarray(packs, dtype=np.int64)
            dk = np.asarray(dists, dtype=np.int64)
            ck = np.asarray(counts, dtype=np.float64)
            order = np.lexsort((dk, pk))
            out.append({"name": name, "block_size": block_size,
                        "pack": pk[order], "dist": dk[order],
                        "count": ck[order],
                        "cold": {r: c for r, c in colds
                                 if r not in bad},
                        "blocks": blocks})
        return out

    def _evaluate_stats(self, value: int) -> Optional[RunStats]:
        fast = self._fast()
        stats = RunStats(self.n_scopes)
        for fname, den, co in fast["stats"]:
            num = _int_eval(co, value)
            if num < 0 or num % den:
                return None
            setattr(stats, fname, num // den)
        cden, cco = fast["clock"]
        cnum = _int_eval(cco, value)
        if cnum % cden or cnum // cden != stats.accesses:
            return None
        for dname, table in fast["dicts"]:
            target = getattr(stats, dname)
            for sid, den, co in table:
                num = _int_eval(co, value)
                if num < 0 or num % den:
                    return None
                if num:
                    target[sid] = num // den
        return stats

    def _splice_enumerated(self, value: int,
                           cf_atoms: Optional[List[Dict]], bad: set,
                           max_points: int
                           ) -> Tuple[List[Dict], RunStats, int]:
        """One enumerated profile at ``value``; keep closed-form cells
        for verified references, enumerated cells for the rest."""
        from repro.apps.registry import build_workload
        program = build_workload(self.workload, **self.params_at(value))
        en_atoms, stats, n_scopes = static_atoms(
            program, dict(self.gran_spec), max_points=max_points)
        if n_scopes != self.n_scopes:  # shape changed under us
            cf_atoms = None
        if cf_atoms is None:
            return en_atoms, stats, max(len(bad), 1)
        spliced = []
        for cf, en in zip(cf_atoms, en_atoms):
            rid_en = en["pack"] // (self.n_scopes * (self.n_scopes + 1))
            take = np.isin(rid_en, np.asarray(sorted(bad),
                                              dtype=np.int64))
            pk = np.concatenate([cf["pack"], en["pack"][take]])
            dk = np.concatenate([cf["dist"], en["dist"][take]])
            ck = np.concatenate([cf["count"], en["count"][take]])
            order = np.lexsort((dk, pk))
            cold = dict(cf["cold"])
            for rid, c in en["cold"].items():
                if rid in bad:
                    cold[rid] = c
            # both sources emit cold rids in ascending order; the merge
            # must too, or the state pickles differently
            cold = {rid: cold[rid] for rid in sorted(cold)}
            spliced.append({"name": en["name"],
                            "block_size": en["block_size"],
                            "pack": pk[order], "dist": dk[order],
                            "count": ck[order], "cold": cold,
                            "blocks": en["blocks"]})
        return spliced, stats, len(bad)

    # -- convenience ------------------------------------------------

    def describe(self) -> str:
        cells = sum(len(c) * 2 for t in self.atom_tables
                    for c in t.values())
        cells += sum(len(t) for t in self.cold_tables)
        return (f"closed-form[{self.workload}/{self.free}] "
                f"xs={list(self.xs)} fit={self.nfit} cells={cells} "
                f"fallback_rids={sorted(self.fallback_rids)}"
                f"{' GLOBAL-FALLBACK' if self.global_fallback else ''}")


def default_samples(workload: str, free: str, targets: Sequence[int],
                    points: int = DEFAULT_POINTS,
                    verify: int = DEFAULT_VERIFY,
                    period: int = 1) -> Tuple[int, ...]:
    """A sample lattice through ``targets`` for the free bound.

    Targets land on the lattice (so sweep sizes are verified members of
    the hull); the lattice extends with the targets' stride — downward
    first, toward cheap enumerations — until ``points`` samples exist.
    For a single target the stride never drops below ``period`` (the
    coarsest block quasi-polynomial's period, see
    :func:`_lattice_period`): a finer stride would straddle residue
    classes of the ``ceil`` footprint terms and force fallbacks on
    kernels that are exactly polynomial per class.
    """
    vals = sorted(set(int(t) for t in targets))
    if not vals:
        raise ClosedFormUnsupported("no target bounds given")
    lo_min = _MIN_BOUND.get((workload, free), 1)
    if len(vals) >= 2:
        step = 0
        for a, b in zip(vals, vals[1:]):
            step = math.gcd(step, b - a)
    else:
        step = max(1, (vals[0] - lo_min) // max(points - 1, 1))
        # keep every sample in the target's residue class modulo the
        # cache-block period: piecewise-polynomial branch points follow
        # bound mod block, so a power-of-two stride stays on one piece
        step = max(1 << (step.bit_length() - 1), period)
    lattice = set(vals)
    cursor = vals[0]
    while len(lattice) < max(points, len(vals) + verify):
        cursor -= step
        if cursor >= lo_min:
            lattice.add(cursor)
        else:
            cursor = max(lattice) + step
            while cursor in lattice:
                cursor += step
            lattice.add(cursor)
    return tuple(sorted(lattice))


def derive(workload: str, params: Optional[Dict[str, Any]] = None,
           free: Optional[str] = None,
           granularities: Optional[Dict[str, int]] = None,
           samples: Optional[Sequence[int]] = None,
           verify: int = DEFAULT_VERIFY,
           max_points: int = MAX_POINTS) -> Derivation:
    """Fit the closed-form profile of ``workload`` over one free bound.

    ``params`` holds the frozen bounds (and the requested value of the
    free bound, used to place the default sample lattice).  Raises
    :class:`ClosedFormUnsupported` when no free bound can be resolved;
    individual cells that resist closed form degrade to per-reference
    fallback instead of failing the derivation.
    """
    from repro.apps.registry import build_workload, workload_params
    from repro.model.config import MachineConfig
    from repro.tools.cache import program_fingerprint

    t0 = time.perf_counter()
    params = dict(params or {})
    if free is None:
        free = PRIMARY_FREE.get(workload)
    if free is None:
        raise ClosedFormUnsupported(
            f"no free bound known for workload {workload!r}")
    defaults = workload_params(workload)
    requested = int(params.get(free, defaults[free]))
    fixed = {k: params.get(k, v) for k, v in defaults.items()
             if k != free}
    if granularities is None:
        granularities = MachineConfig.scaled_itanium2().granularities()
    if samples is None:
        xs = default_samples(workload, free, [requested], verify=verify,
                             period=_lattice_period(workload, free,
                                                    granularities))
    else:
        xs = tuple(sorted(set(int(s) for s in samples)))
    if len(xs) < 3:
        raise ClosedFormUnsupported(
            f"need at least 3 sample bounds, got {list(xs)}")
    verify = min(max(1, verify), len(xs) - 2)
    nfit = len(xs) - verify

    runs = []
    for x in xs:
        program = build_workload(workload, **{**fixed, free: x})
        runs.append(static_atoms(program, granularities,
                                 max_points=max_points))
    n_scopes = runs[0][2]
    gran_spec = tuple((ga["name"], ga["block_size"])
                      for ga in runs[0][0])
    if any(r[2] != n_scopes for r in runs):
        raise ClosedFormUnsupported("scope table varies with bounds")

    fit_xs, ver_xs = xs[:nfit], xs[nfit:]
    fallback: set = set()
    global_fallback = False

    def fit_cell(values: List[Fraction]) -> Tuple[Poly, bool]:
        poly = _fit_poly(fit_xs, values[:nfit])
        ok = all(_eval_poly(poly, x) == v
                 for x, v in zip(ver_xs, values[nfit:]))
        return poly, ok

    atom_tables: List[Dict[int, List[Tuple[Poly, Poly]]]] = []
    cold_tables: List[Dict[int, Poly]] = []
    blocks_polys: List[Poly] = []
    for gi in range(len(gran_spec)):
        grans = [r[0][gi] for r in runs]
        by_pack: List[Dict[int, List[Tuple[int, float]]]] = []
        for ga in grans:
            cells: Dict[int, List[Tuple[int, float]]] = {}
            for p, d, c in zip(ga["pack"].tolist(), ga["dist"].tolist(),
                               ga["count"].tolist()):
                cells.setdefault(p, []).append((d, c))
            by_pack.append(cells)
        table: Dict[int, List[Tuple[Poly, Poly]]] = {}
        all_packs = set().union(*by_pack)
        for pack in sorted(all_packs):
            rid = unpack_key(pack, n_scopes)[0]
            if rid in fallback:
                continue
            rows = [cells.get(pack) for cells in by_pack]
            if any(r is None for r in rows) or len(
                    {len(r) for r in rows}) != 1:
                fallback.add(rid)  # atom structure varies with bounds
                continue
            fitted = []
            for ordinal in range(len(rows[0])):
                d_poly, d_ok = fit_cell(
                    [Fraction(r[ordinal][0]) for r in rows])
                c_poly, c_ok = fit_cell(
                    [Fraction(r[ordinal][1]) for r in rows])
                if not (d_ok and c_ok):
                    fallback.add(rid)
                    break
                fitted.append((d_poly, c_poly))
            else:
                table[pack] = fitted
        atom_tables.append(table)
        colds: Dict[int, Poly] = {}
        for rid in sorted(set().union(*(ga["cold"] for ga in grans))):
            poly, ok = fit_cell(
                [Fraction(ga["cold"].get(rid, 0)) for ga in grans])
            if ok:
                colds[rid] = poly
            else:
                fallback.add(rid)
        cold_tables.append(colds)
        poly, ok = fit_cell([Fraction(ga["blocks"]) for ga in grans])
        blocks_polys.append(poly)
        global_fallback |= not ok

    stats_list = [r[1] for r in runs]
    stats_polys: Dict[str, Poly] = {}
    for fname in ("accesses", "loads", "stores", "ops"):
        poly, ok = fit_cell(
            [Fraction(getattr(s, fname)) for s in stats_list])
        stats_polys[fname] = poly
        global_fallback |= not ok
    clock_poly = stats_polys["accesses"]
    stats_dict_polys: Dict[str, Dict[int, Poly]] = {}
    for dname in ("loop_entries", "loop_iters", "scope_insts"):
        table = {}
        for sid in sorted(set().union(
                *(getattr(s, dname) for s in stats_list))):
            poly, ok = fit_cell(
                [Fraction(getattr(s, dname).get(sid, 0))
                 for s in stats_list])
            table[sid] = poly
            global_fallback |= not ok
        stats_dict_polys[dname] = table

    # purge fitted cells of references that fell back later in the scan
    for table in atom_tables:
        for pack in [p for p in table
                     if unpack_key(p, n_scopes)[0] in fallback]:
            del table[pack]
    for colds in cold_tables:
        for rid in [r for r in colds if r in fallback]:
            del colds[rid]

    base_program = build_workload(workload, **{**fixed, free: xs[0]})
    h = hashlib.sha256()
    h.update(f"closedform:{DERIVATION_VERSION}|{workload}"
             f"|{sorted(fixed.items())!r}|{free}|{list(xs)!r}|{nfit}"
             f"|{sorted(granularities.items())!r}".encode())
    h.update(program_fingerprint(base_program).encode())
    deriv = Derivation(
        version=DERIVATION_VERSION, workload=workload, fixed=fixed,
        free=free, xs=xs, nfit=nfit, gran_spec=gran_spec,
        n_scopes=n_scopes, shape_key=h.hexdigest(),
        atom_tables=atom_tables, cold_tables=cold_tables,
        blocks_polys=blocks_polys, clock_poly=clock_poly,
        stats_polys=stats_polys, stats_dict_polys=stats_dict_polys,
        fallback_rids=frozenset(fallback),
        global_fallback=global_fallback,
        derive_s=time.perf_counter() - t0)
    _obs.counter("static.closedform_derives").inc()
    if fallback or global_fallback:
        logger.info("%s: %s", workload, deriv.describe())
    return deriv


# -- derivation cache -----------------------------------------------------

def derivation_key(workload: str, params: Optional[Dict[str, Any]],
                   free: Optional[str],
                   granularities: Optional[Dict[str, int]] = None,
                   samples: Optional[Sequence[int]] = None,
                   verify: int = DEFAULT_VERIFY) -> str:
    """Bounds-free cache key for a derivation request.

    Mirrors :func:`derive`'s sample-lattice resolution, then hashes the
    kernel IR at the canonical base sample — so two requests share a
    derivation exactly when they would derive identical tables, and the
    *requested* bounds never enter the key."""
    from repro.apps.registry import build_workload, workload_params
    from repro.model.config import MachineConfig
    from repro.tools.cache import program_fingerprint

    params = dict(params or {})
    if free is None:
        free = PRIMARY_FREE.get(workload)
    if free is None:
        raise ClosedFormUnsupported(
            f"no free bound known for workload {workload!r}")
    defaults = workload_params(workload)
    requested = int(params.get(free, defaults[free]))
    fixed = {k: params.get(k, v) for k, v in defaults.items()
             if k != free}
    if granularities is None:
        granularities = MachineConfig.scaled_itanium2().granularities()
    if samples is None:
        xs = default_samples(workload, free, [requested], verify=verify,
                             period=_lattice_period(workload, free,
                                                    granularities))
    else:
        xs = tuple(sorted(set(int(s) for s in samples)))
    verify = min(max(1, verify), max(len(xs) - 2, 1))
    nfit = len(xs) - verify
    base_program = build_workload(workload, **{**fixed, free: xs[0]})
    h = hashlib.sha256()
    h.update(f"closedform:{DERIVATION_VERSION}|{workload}"
             f"|{sorted(fixed.items())!r}|{free}|{list(xs)!r}|{nfit}"
             f"|{sorted(granularities.items())!r}".encode())
    h.update(program_fingerprint(base_program).encode())
    return h.hexdigest()


def get_derivation(workload: str,
                   params: Optional[Dict[str, Any]] = None,
                   free: Optional[str] = None,
                   granularities: Optional[Dict[str, int]] = None,
                   samples: Optional[Sequence[int]] = None,
                   verify: int = DEFAULT_VERIFY,
                   cache=None,
                   max_points: int = MAX_POINTS) -> Derivation:
    """Memoized/cached derivation lookup: memory, then the analysis
    cache (shared with sweep units and service jobs), then a fresh
    :func:`derive` stored back to both."""
    key = derivation_key(workload, params, free, granularities,
                         samples=samples, verify=verify)
    with _MEMO_LOCK:
        hit = _MEMO.get(key)
    if hit is not None:
        _obs.counter("static.closedform_cache_hits").inc()
        return hit
    if cache is not None:
        payload = cache.get(key)
        if (isinstance(payload, dict)
                and payload.get("version") == DERIVATION_VERSION
                and isinstance(payload.get("derivation"), Derivation)):
            deriv = payload["derivation"]
            _obs.counter("static.closedform_cache_hits").inc()
            with _MEMO_LOCK:
                _MEMO[key] = deriv
            return deriv
    deriv = derive(workload, params, free, granularities,
                   samples=samples, verify=verify,
                   max_points=max_points)
    with _MEMO_LOCK:
        _MEMO[key] = deriv
    if cache is not None:
        cache.put(key, {"version": DERIVATION_VERSION,
                        "derivation": deriv})
    return deriv


def clear_memo() -> None:
    """Drop the in-process derivation memo (tests / service restarts)."""
    with _MEMO_LOCK:
        _MEMO.clear()


def force_fallback(deriv: Derivation, rids) -> Derivation:
    """A copy of ``deriv`` with ``rids`` forced onto the enumeration
    fallback path — the per-reference degradation knob the equivalence
    tests (and debugging sessions) use."""
    return replace(deriv,
                   fallback_rids=deriv.fallback_rids | frozenset(rids))
