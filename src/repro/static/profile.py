"""Static reuse-profile estimation: the vectorized region-event pipeline.

Consumes the item classes produced by :mod:`repro.static.itermodel` and
emits a :meth:`~repro.core.analyzer.ReuseAnalyzer.dump_state`-shaped
snapshot — per-granularity pattern databases keyed ``(rid, src_sid,
carry_sid)``, cold counts, and footprints — without replaying a single
access.  The model:

**Regions and events.**  Each (item, reference) pair touches a contiguous
byte interval per occurrence (the inner loop's footprint, or the exact
address for straight-line items).  Per granularity, the interval becomes a
*region event* keyed by its first block, weighted by the distinct blocks
it covers.  References whose region coincides with an earlier reference's
region in the same item are deduplicated (their accesses are all intra-item
reuses); everything else enters the global event stream.

**Global order.**  Item chains are root paths in one tree, so a single
lexsort over the interleaved (iteration digit, body position) columns
reconstructs the exact global interleaving of every event — the same
order the executor would produce.

**Distances.**  A region re-touch at start-to-start weight gap ``ΔW``
crosses ``satfn(ΔW) - 1`` distinct blocks, where ``satfn(x) = Σ_a
min(f_a·x, cap_a)`` mixes each array's share ``f_a`` of the touch stream,
saturated at its footprint ``cap_a`` — exact for uniformly cycling
streams (each array's term saturates exactly when the window wraps its
footprint) and a mean-field estimate elsewhere.  Intra-item reuses
(spatial chains, loop-invariant references, load-then-store pairs) get a
per-occurrence expected distance from a plan-order window scan with
probabilistic block dedup — exact when strides divide the block size.

**Attribution.**  The carrying scope of a cross-item reuse is the deepest
scope whose current execution contains both endpoints: found by comparing
iteration-digit columns outer-to-inner, which reproduces the dynamic
scope-stack bisect without a stack.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.analyzer import STATE_VERSION
from repro.core.histogram import bin_of_array
from repro.lang.ast import Program
from repro.lang.executor import RunStats
from repro.obs import metrics as _obs
from repro.static.itermodel import (
    MAX_POINTS, ItemClass, StaticUnsupported, enumerate_program,
)

#: ``(rid, src, carry)`` triples are packed into one int64 with the carry
#: shifted by one so the "no carrying scope" sentinel (-1) packs cleanly.

#: A region event covering at least this fraction of its array's footprint
#: acts as a *cover*: later partial touches of the array (indirect gathers,
#: scatters) that miss their block-level key still link back to it.
_COVER_FRACTION = 0.5

#: Quantile resolution for co-traversal-corrected links: a link whose true
#: distance varies with the block's position t through the sweep is split
#: into this many equal-weight sub-links at the t-segment midpoints.
_QUANTILES = 4

#: Work / memory guards for the exact-freshness simulation and the
#: co-traversal prefix tables — beyond these the corrections are skipped
#: (the estimate falls back to the uncorrected model, never fails).
_FRESH_SIM_BUDGET = 2_000_000
_COTRAV_CELL_BUDGET = 8_000_000


def static_profile(program: Program, granularities: Dict[str, int],
                   params: Optional[Dict[str, int]] = None,
                   max_points: int = MAX_POINTS
                   ) -> Tuple[Dict, RunStats]:
    """Predict the full analysis state of ``program`` without running it.

    Returns ``(state, stats)`` where ``state`` loads into a
    :class:`~repro.core.analyzer.ReuseAnalyzer` via ``load_state`` /
    ``from_state`` and ``stats`` is an exactly synthesized
    :class:`~repro.lang.executor.RunStats`.
    """
    items, stats = enumerate_program(program, params, max_points)
    profiler = StaticProfiler(program, items)
    return profiler.state(granularities, stats.accesses), stats


def static_atoms(program: Program, granularities: Dict[str, int],
                 params: Optional[Dict[str, int]] = None,
                 max_points: int = MAX_POINTS
                 ) -> Tuple[List[Dict], RunStats, int]:
    """Predict the profile *atoms* of ``program`` without running it.

    Atoms are the unbinned canonical form of the static profile: per
    granularity, unique ``(rid, src, carry)``/distance pairs with exact
    integer counts, plus cold counts and the footprint.  They carry
    strictly more information than the state dict —
    :func:`atoms_to_state` reproduces ``static_profile``'s state from
    them exactly — which is what the closed-form engine fits its
    per-cell polynomials over.  Returns ``(atoms, stats, n_scopes)``.
    """
    items, stats = enumerate_program(program, params, max_points)
    profiler = StaticProfiler(program, items)
    return (profiler.atoms(granularities), stats, profiler.n_scopes)


def unpack_key(pack: int, n_scopes: int) -> Tuple[int, int, int]:
    """Invert the atom key packing back to ``(rid, src, carry)``."""
    carry = pack % (n_scopes + 1) - 1
    rest = pack // (n_scopes + 1)
    return rest // n_scopes, rest % n_scopes, carry


def atoms_to_state(atoms: List[Dict], clock: int, n_scopes: int) -> Dict:
    """Synthesize the analyzer state dict from profile atoms.

    This is the single place histogram binning happens for the static
    engine: both the enumerated and the closed-form paths call it, so
    states agree byte-for-byte whenever the atoms agree.
    """
    grans = []
    for ga in atoms:
        acc: Dict[Tuple[int, int, int], Dict[int, float]] = {}
        if ga["pack"].size:
            bins = bin_of_array(ga["dist"])
            for p, b, c in zip(ga["pack"].tolist(), bins.tolist(),
                               ga["count"].tolist()):
                key = unpack_key(p, n_scopes)
                bucket = acc.setdefault(key, {})
                bucket[b] = bucket.get(b, 0.0) + c
        raw: Dict[Tuple[int, int, int], Dict[int, int]] = {}
        for key, bucket in acc.items():
            rounded = {b: int(round(c)) for b, c in bucket.items()
                       if round(c) > 0}
            if rounded:
                raw[key] = rounded
        grans.append({
            "name": ga["name"],
            "block_size": ga["block_size"],
            "raw": raw,
            "cold": ga["cold"],
            "blocks": ga["blocks"],
        })
    return {"version": STATE_VERSION, "clock": int(clock),
            "grans": grans}


class StaticProfiler:
    """Flatten item classes into row arrays and run the per-granularity
    event pipeline."""

    def __init__(self, program: Program, items: List[ItemClass]) -> None:
        self.program = program
        self.items = items
        self.n_scopes = len(program.scopes)
        # Rows are mapped to data objects by address, not by name: aliased
        # symbols (same storage under two names) must share a footprint.
        objs = program.layout.symtab.objects()
        self.arr_bases = np.array([obj.base for obj in objs],
                                  dtype=np.int64)
        self.n_arrays = len(objs)
        self._flatten()

    # -- row assembly ----------------------------------------------------

    def _flatten(self) -> None:
        items = self.items
        total = sum(item.n_occ * len(item.refs) for item in items)
        self.n_rows = total
        self.rid = np.empty(total, dtype=np.int64)
        self.src_sid = np.empty(total, dtype=np.int64)
        self.lo = np.empty(total, dtype=np.int64)
        self.hi = np.empty(total, dtype=np.int64)
        self.trip = np.empty(total, dtype=np.int64)
        refpos = np.empty(total, dtype=np.int64)
        depth = max((len(item.chain) for item in items), default=1)
        self.L = depth
        # D: per-level ordering/iteration digits; S: per-level scope sids
        # (-2 marks body-position levels, -3 padding past the chain end).
        # Level-major: the lexsort and _carry read one level at a time.
        self.D = np.full((depth, total), -1, dtype=np.int64)
        self.S = np.full((depth, total), -3, dtype=np.int64)
        self.item_id = np.empty(total, dtype=np.int64)
        self.occ = np.empty(total, dtype=np.int64)
        self.item_base: List[int] = []
        off = 0
        for it_idx, item in enumerate(items):
            self.item_base.append(off)
            n_occ = item.n_occ
            for j, ref in enumerate(item.refs):
                sl = slice(off, off + n_occ)
                self.item_id[sl] = it_idx
                self.occ[sl] = np.arange(n_occ)
                self.rid[sl] = ref.rid
                self.src_sid[sl] = item.inner_sid
                last = ref.addr0 + ref.stride * (item.trip - 1)
                self.lo[sl] = np.minimum(ref.addr0, last)
                self.hi[sl] = np.maximum(ref.addr0, last) + ref.elem - 1
                self.trip[sl] = item.trip
                refpos[sl] = j
                for lvl, (kind, sid, dig) in enumerate(item.chain):
                    self.D[lvl, sl] = dig
                    self.S[lvl, sl] = -2 if kind == "pos" else sid
                off += n_occ
        self.arr_id = np.searchsorted(self.arr_bases, self.lo,
                                      side="right") - 1
        np.clip(self.arr_id, 0, None, out=self.arr_id)
        # Global time order: lexsort outer digits first, then the
        # reference's plan position within its item.
        keys = (refpos,) + tuple(self.D[lvl]
                                 for lvl in range(depth - 1, -1, -1))
        self.order = np.lexsort(keys)

    # -- per-granularity pipeline ----------------------------------------

    def state(self, granularities: Dict[str, int], clock: int) -> Dict:
        return atoms_to_state(self.atoms(granularities), clock,
                              self.n_scopes)

    def atoms(self, granularities: Dict[str, int]) -> List[Dict]:
        """Per-granularity profile atoms — the unbinned canonical form."""
        out = []
        for name, block_size in granularities.items():
            (pk, dist, cnt), cold, blocks = self._granularity(block_size)
            out.append({
                "name": name,
                "block_size": block_size,
                "pack": pk,
                "dist": dist,
                "count": cnt,
                "cold": cold,
                "blocks": blocks,
            })
        return out

    def _granularity(self, block_size: int
                     ) -> Tuple[Dict, Dict[int, int], int]:
        shift = block_size.bit_length() - 1
        lo_blk = self.lo >> shift
        hi_blk = self.hi >> shift
        nblocks = np.minimum(hi_blk - lo_blk + 1, self.trip)
        key = lo_blk
        dup = self._dup_mask(key)
        caps = self._caps(lo_blk, hi_blk)
        near = self._near_extra(nblocks, dup, key, shift)

        # -- active events in global time order --------------------------
        act = ~dup
        order_act = self.order[act[self.order]]
        w = nblocks[order_act].astype(np.float64)
        ne_o = near[order_act]
        w_start = np.cumsum(w) - w
        keys_o = key[order_act]
        n_events = order_act.size
        idx = np.arange(n_events)
        srt = np.lexsort((idx, keys_o))
        ks = keys_o[srt]
        adj = ks[1:] == ks[:-1]
        prev_of = np.full(n_events, -1, dtype=np.int64)
        prev_of[srt[1:][adj]] = srt[:-1][adj]
        # Re-touch gap per event in *array-local* time: weight-distance
        # (counting only this array's touches) until the next touch of
        # the same region.  A same-key chain crosses arrays (and a gap
        # may be negative) only when blocks exceed the 4096-B object
        # alignment.  A window containing T of an array's touch weight
        # re-touches a region instead of finding a fresh one whenever the
        # region's gap is shorter than T, so the expected distinct weight
        # is E_a(T) = Σ_e w_e·min(T, gap_e)/W_a — exact for cyclic
        # streams, and the gap distribution captures repeat structure (a
        # block re-touched within a phase stops contributing for windows
        # longer than the phase).
        arr_o = self.arr_id[order_act]
        nxt_of = np.full(n_events, -1, dtype=np.int64)
        nxt_of[srt[:-1][adj]] = srt[1:][adj]
        # Events grouped by array (array a's run of ord_arr starts at
        # arr_bounds[a]), in time order within each array.
        ord_arr = np.lexsort((idx, arr_o))
        arr_sorted = arr_o[ord_arr]
        arr_bounds = np.searchsorted(arr_sorted, np.arange(self.n_arrays + 1))
        w_before = np.cumsum(w[ord_arr]) - w[ord_arr]
        w_loc = np.empty(n_events, dtype=np.float64)
        w_loc[ord_arr] = w_before - w_before[arr_bounds[arr_sorted]]
        arr_w = np.zeros(self.n_arrays, dtype=np.float64)
        np.add.at(arr_w, arr_o, w)
        has_nxt = nxt_of >= 0
        gap = np.where(has_nxt,
                       w_loc[np.where(has_nxt, nxt_of, 0)] - w_loc,
                       arr_w[arr_o] - w_loc)
        # Periodic continuation: a region's last touch wraps to its
        # first (steady-state assumption), keeping cycling streams
        # exact.
        if n_events:
            heads = srt[np.flatnonzero(np.concatenate(([True], ~adj)))]
            tails = srt[np.flatnonzero(np.concatenate((~adj, [True])))]
            gap[tails] = arr_w[arr_o[tails]] - w_loc[tails] + w_loc[heads]
        # Per-array lookup tables: touch weights in time order (for the
        # window touch weight T_a) and gaps in sorted order (for the
        # expectation prefix sums).
        events = [ord_arr[arr_bounds[a]:arr_bounds[a + 1]]
                  for a in range(self.n_arrays)]
        tables = []
        for a, ev in enumerate(events):
            if ev.size:
                g_ord = np.argsort(gap[ev])
                ga = gap[ev][g_ord]
                wa = w[ev][g_ord]
                tables.append((a, _prefix(w[ev]), ga, _prefix(wa),
                               _prefix(wa * ga), float(arr_w[a]),
                               float(caps[a])))
        self._link_covers(prev_of, events, w, caps)

        # -- overlap links -----------------------------------------------
        # A row whose block interval overlaps the temporally previous row
        # of the same array re-touches the shared blocks almost
        # immediately (adjacent-cell rows, >block-size strides whose
        # rows straddle block boundaries).  Key-based linking would fold
        # those near reuses into the far same-key link; split them out:
        # the overlap weight links to the neighbouring row at that pair's
        # (short) distance, and only the remainder follows the key link.
        lo_o = lo_blk[order_act]
        hi_o = hi_blk[order_act]
        full_span = (hi_o - lo_o + 1).astype(np.float64) == w
        same_arr = arr_sorted[1:] == arr_sorted[:-1]
        prev_arr = np.full(n_events, -1, dtype=np.int64)
        prev_arr[ord_arr[1:][same_arr]] = ord_arr[:-1][same_arr]
        # Walk a few same-array events back for the nearest overlapping
        # partner (interleaved refs of one array sweep together, so the
        # partner need not be the immediately previous event), stopping
        # at the same-key predecessor — anything older is already
        # covered by the key link.
        partner = prev_arr.copy()
        chosen = np.full(n_events, -1, dtype=np.int64)
        ov = np.zeros(n_events, dtype=np.float64)
        for _ in range(3):
            open_ = np.flatnonzero(full_span & (chosen < 0)
                                   & (partner >= 0)
                                   & (partner != prev_of))
            if not open_.size:
                break
            p = partner[open_]
            ovk = (np.minimum(hi_o[open_], hi_o[p])
                   - np.maximum(lo_o[open_], lo_o[p]) + 1
                   ).astype(np.float64)
            ok = (ovk > 0) & full_span[p]
            take = open_[ok]
            chosen[take] = p[ok]
            ov[take] = np.minimum(np.minimum(ovk[ok], w[take]),
                                  w[p[ok]])
            rest = open_[~ok]
            partner[rest] = prev_arr[partner[rest]]
        cur_ov = np.flatnonzero(chosen >= 0)

        # -- co-traversal alignment columns ------------------------------
        # Events of one item occurrence sweep their index range together,
        # element-wise, yet occupy disjoint stretches of the event-order
        # weight axis.  For a link endpoint inside such an item, a
        # co-event at an earlier plan position is wholly *outside* the
        # [prv, cur) window even though the fraction of its sweep past
        # the reused block's position t is really inside (and dually for
        # later plan positions).  co_lo/co_hi hold, per array and eligible
        # event, the aligned co-event weight at earlier/later plan
        # positions; the link correction is +(1-t)·(co_lo[prv]-co_lo[cur])
        # + t·(co_hi[cur]-co_hi[prv]) — identically zero for links between
        # occurrences of one item class, so steady-state self links (and
        # the triad exactness contract) are untouched.  Ineligible events
        # all map to one zero column, so only a link with an eligible
        # endpoint can need the correction.
        co_lo = co_hi = None
        nest_item = np.array([it.kind == "nest" for it in self.items],
                             dtype=bool)
        it_o = self.item_id[order_act]
        eligible = nest_item[it_o] & full_span
        el = np.flatnonzero(eligible)
        if el.size and n_events * self.n_arrays > _COTRAV_CELL_BUDGET:
            _obs.counter("static.cotrav_skipped").inc()
        elif el.size:
            occ_o = self.occ[order_act]
            run_new = np.concatenate(
                ([True], (it_o[1:] != it_o[:-1]) | (occ_o[1:] != occ_o[:-1])))
            # item occurrence of each eligible event, renumbered densely
            run_el = (np.cumsum(run_new) - 1)[el]
            first = np.concatenate(([True], run_el[1:] != run_el[:-1]))
            run_id = np.cumsum(first) - 1
            first = np.flatnonzero(first)
            w_el = w[el]
            arr_el = arr_o[el]
            slot = np.full(n_events, el.size)
            slot[el] = np.arange(el.size)
            co_lo = np.zeros((self.n_arrays, el.size + 1))
            co_hi = np.zeros((self.n_arrays, el.size + 1))
            for a in range(self.n_arrays):
                wa = np.where(arr_el == a, w_el, 0.0)
                cum = np.cumsum(wa)
                excl = cum - wa
                base = excl[first]
                lo_pref = excl - base[run_id]
                run_tot = np.concatenate((base[1:], [cum[-1]])) - base
                co_lo[a, :-1] = lo_pref
                co_hi[a, :-1] = run_tot[run_id] - lo_pref - wa

        # -- reuse links -------------------------------------------------
        linked = prev_of >= 0
        cur = np.flatnonzero(linked)
        prv = prev_of[cur]
        wlink = np.maximum(w[cur] - ov[cur] - ne_o[cur], 0.0)
        corr = np.zeros(cur.size, dtype=bool)
        lo_c = hi_c = np.zeros((0, self.n_arrays))
        if co_lo is not None:
            s_prv, s_cur = slot[prv], slot[cur]
            cand = np.flatnonzero((s_prv < el.size) | (s_cur < el.size))
            pc, cc = s_prv[cand], s_cur[cand]
            lo_c = np.ascontiguousarray((co_lo[:, pc] - co_lo[:, cc]).T)
            hi_c = np.ascontiguousarray((co_hi[:, cc] - co_hi[:, pc]).T)
            moved = (lo_c != 0.0).any(axis=1) | (hi_c != 0.0).any(axis=1)
            corr[cand[moved]] = True
            lo_c, hi_c = lo_c[moved], hi_c[moved]
        plain = ~corr
        # One link set: overlap links, plain reuse links, then the
        # corrected reuse links whose distance varies with t.
        link_cur = np.concatenate((cur_ov, cur[plain], cur[corr]))
        link_prv = np.concatenate((chosen[cur_ov], prv[plain], prv[corr]))
        n_plain = cur_ov.size + int(plain.sum())
        parts = []
        if link_cur.size:
            g_prev = order_act[link_prv]
            g_cur = order_act[link_cur]
            pack = ((self.rid[g_cur] * self.n_scopes + self.src_sid[g_prev])
                    * (self.n_scopes + 1) + self._carry(g_prev, g_cur) + 1)
            d_plain, *d_corr = _link_distances(
                link_cur, link_prv, lo_c, hi_c, w_start, arr_o, tables,
                float(caps.sum()))
            parts.append((pack[:n_plain], d_plain,
                          np.concatenate((ov[cur_ov], wlink[plain]))))
            wc = wlink[corr] / _QUANTILES
            parts += [(pack[n_plain:], dist, wc) for dist in d_corr]

        # -- cold -------------------------------------------------------
        cold_ev = np.flatnonzero(~linked)
        cold_counts = np.bincount(
            self.rid[order_act[cold_ev]],
            weights=np.maximum(w[cold_ev] - ov[cold_ev] - ne_o[cold_ev],
                               0.0),
            minlength=len(self.program.refs))
        cold = {int(r): int(round(c))
                for r, c in enumerate(cold_counts) if round(c) > 0}

        # -- intra-item reuses -------------------------------------------
        for item, base in zip(self.items, self.item_base):
            n_occ = item.n_occ
            for j, ref in enumerate(item.refs):
                sl = slice(base + j * n_occ, base + (j + 1) * n_occ)
                cnt = (self.trip[sl] - np.where(dup[sl], 0, nblocks[sl])
                       + near[sl])
                if not cnt.any():
                    continue
                d_exp = _window_distance(item, j, block_size, shift)
                dist = np.maximum(np.rint(d_exp).astype(np.int64), 0)
                const = ((ref.rid * self.n_scopes + item.inner_sid)
                         * (self.n_scopes + 1) + item.inner_sid + 1)
                live = cnt > 0
                parts.append((np.full(int(live.sum()), const, dtype=np.int64),
                              dist[live], cnt[live].astype(np.float64)))

        atoms = self._aggregate(parts)
        return atoms, cold, int(caps.sum())

    # -- pieces ----------------------------------------------------------

    def _near_extra(self, nblocks: np.ndarray, dup: np.ndarray,
                    key: np.ndarray, shift: int) -> np.ndarray:
        """Per-row weight of block-first-touches that are really near reuses.

        A nest reference's region weight (``nblocks``) counts every block
        whose *first touch by that reference* lands on it — but when
        same-array co-references sweep the same index range at the same
        stride (AoS field accesses, stencil taps), a block can have been
        touched an iteration or two earlier by a co-reference's trailing
        bytes.  Dynamically those touches are near reuses inside the item,
        not fresh blocks feeding the long cross-item link.  The exact
        fresh count follows the intra-block phase, which is periodic in
        the iteration number with period ``B / gcd(stride, B)``: simulate
        one warmup plus two periods, verify periodicity, extrapolate.
        """
        near = np.zeros(self.n_rows, dtype=np.float64)
        B = 1 << shift
        for item, base in zip(self.items, self.item_base):
            if item.kind != "nest" or len(item.refs) < 2:
                continue
            n_occ = item.n_occ
            groups: Dict[int, List[int]] = {}
            for j in range(len(item.refs)):
                groups.setdefault(
                    int(self.arr_id[base + j * n_occ]), []).append(j)
            for js in groups.values():
                if len(js) < 2:
                    continue
                strides = np.unique(np.concatenate(
                    [np.asarray(item.refs[j].stride,
                                dtype=np.int64).reshape(-1)
                     for j in js]))
                if strides.size != 1 or strides[0] == 0:
                    continue
                s = int(strides[0])
                # co-reference offsets must be occurrence-invariant
                a0 = np.asarray(item.refs[js[0]].addr0,
                                dtype=np.int64).reshape(-1)
                offs, ok = [], True
                for j in js:
                    d = (np.asarray(item.refs[j].addr0,
                                    dtype=np.int64).reshape(-1) - a0)
                    if d.size == 0 or (d != d[0]).any():
                        ok = False
                        break
                    offs.append(int(d[0]))
                if not ok:
                    continue
                a0 = np.broadcast_to(a0, (n_occ,))
                trips = self.trip[base + js[0] * n_occ:
                                  base + (js[0] + 1) * n_occ]
                pairs = np.stack([a0 % B, trips], axis=1)
                uph, inv = np.unique(pairs, axis=0, return_inverse=True)
                fresh = _fresh_counts(uph, offs, s, shift)
                if fresh is None:
                    continue
                # Active rows first touch only the blocks their own
                # accesses reach first; the region weight beyond that is
                # near reuse.  Deduplicated co-rows still produce their
                # own fresh touches — fold those back onto the active
                # event carrying their region key (the earliest same-key
                # group member), and leave their intra weight reduced.
                slices = {j: slice(base + j * n_occ, base + (j + 1) * n_occ)
                          for j in js}
                for gj, j in enumerate(js):
                    sl = slices[j]
                    extra = nblocks[sl] - fresh[inv, gj]
                    near[sl] = np.where(dup[sl], 0.0, extra)
                for gj, j in enumerate(js):
                    sl = slices[j]
                    dj = dup[sl]
                    if not dj.any():
                        continue
                    fj = fresh[inv, gj]
                    near[sl] = np.where(dj, -fj, near[sl])
                    kj = key[sl]
                    claimed = np.zeros(n_occ, dtype=bool)
                    for gj2, j2 in enumerate(js):
                        if j2 >= j:
                            break
                        sl2 = slices[j2]
                        take = (dj & ~claimed & ~dup[sl2]
                                & (kj == key[sl2]))
                        if take.any():
                            near[sl2][take] -= fj[take]
                            claimed |= take
                    # a dup row whose key belongs to a ref outside the
                    # group keeps the old accounting
                    orphan = dj & ~claimed
                    if orphan.any():
                        near[sl][orphan] = 0.0
        return near

    def _dup_mask(self, key: np.ndarray) -> np.ndarray:
        """Rows whose region key repeats an earlier ref's in the same item."""
        dup = np.zeros(self.n_rows, dtype=bool)
        for item, base in zip(self.items, self.item_base):
            n_occ = item.n_occ
            nrefs = len(item.refs)
            for j in range(1, nrefs):
                slj = slice(base + j * n_occ, base + (j + 1) * n_occ)
                hit = np.zeros(n_occ, dtype=bool)
                kj = key[slj]
                for j2 in range(j):
                    sl2 = slice(base + j2 * n_occ, base + (j2 + 1) * n_occ)
                    hit |= kj == key[sl2]
                dup[slj] = hit
        return dup

    def _caps(self, lo_blk: np.ndarray, hi_blk: np.ndarray) -> np.ndarray:
        """Per-array footprint: union length of all touched block intervals."""
        caps = np.zeros(self.n_arrays, dtype=np.int64)
        ordc = np.lexsort((lo_blk, self.arr_id))
        aid = self.arr_id[ordc]
        lob = lo_blk[ordc]
        hib = hi_blk[ordc]
        for a in range(self.n_arrays):
            s = np.searchsorted(aid, a, "left")
            e = np.searchsorted(aid, a, "right")
            if s == e:
                continue
            la, ha = lob[s:e], hib[s:e]
            runmax = np.maximum.accumulate(ha)
            floor = np.empty_like(runmax)
            floor[0] = la[0] - 1
            floor[1:] = runmax[:-1]
            start = np.maximum(la, floor + 1)
            caps[a] = int(np.maximum(ha - start + 1, 0).sum())
        return caps

    def _link_covers(self, prev_of: np.ndarray, events: List[np.ndarray],
                     w: np.ndarray, caps: np.ndarray) -> None:
        """Link partial touches to the latest full sweep of their array.

        Block-keyed linking misses reuse between a *partial* region (an
        indirect gather/scatter touching one block) and a *covering*
        region (a streaming pass over the whole array) because their keys
        differ.  For each array that has cover events, any other event of
        the array links to the latest cover preceding it when that is
        more recent than its block-key predecessor.  ``events[a]`` lists
        array a's events in time order.
        """
        for a, ev in enumerate(events):
            if caps[a] < 2:
                continue
            cover = w[ev] >= max(2, int(np.ceil(caps[a] * _COVER_FRACTION)))
            cpos, part = ev[cover], ev[~cover]
            if not cpos.size or not part.size:
                continue
            ci = np.searchsorted(cpos, part) - 1
            cand = np.where(ci >= 0, cpos[np.maximum(ci, 0)], -1)
            prev_of[part] = np.maximum(prev_of[part], cand)

    def _carry(self, g_prev: np.ndarray, g_cur: np.ndarray) -> np.ndarray:
        """Carrying scope per link: the deepest scope of the destination's
        chain whose current execution began before the source event —
        i.e. the deepest common level with every level strictly above it
        equal in both sid and iteration digit."""
        carry = np.full(g_cur.size, -1, dtype=np.int64)
        # links whose chains still agree on every level above this one
        live = np.arange(g_cur.size)
        for lvl in range(self.L):
            sp = self.S[lvl, g_prev]
            sc = self.S[lvl, g_cur]
            same = sp == sc
            here = same & (sc >= 0)
            carry[live[here]] = sc[here]
            same &= self.D[lvl, g_prev] == self.D[lvl, g_cur]
            live, g_prev, g_cur = live[same], g_prev[same], g_cur[same]
            if not live.size:
                break
        return carry

    def _aggregate(self, parts: List[Tuple[np.ndarray, np.ndarray,
                                           np.ndarray]]
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fold emissions into profile *atoms*: unique ``(key, distance)``
        pairs with integer counts, sorted by key then distance.  Atoms
        are the canonical intermediate form — the state dict is a pure
        function of them (see :func:`atoms_to_state`), which is what lets
        the closed-form engine predict atoms and synthesize byte-
        identical states."""
        parts = [part for part in parts if part[0].size]
        empty = np.empty(0, dtype=np.int64)
        if not parts:
            return empty, empty, empty
        allp, alld, allw = (np.concatenate(col) for col in zip(*parts))
        order = np.lexsort((alld, allp))
        p_s, d_s, w_s = allp[order], alld[order], allw[order]
        first = np.concatenate(
            ([True], (p_s[1:] != p_s[:-1]) | (d_s[1:] != d_s[:-1])))
        starts = np.flatnonzero(first)
        # Counts stay float64 (emission weights are dyadic rationals, so
        # they are exact); rounding to integers happens once per
        # histogram bin in atoms_to_state.
        counts = np.add.reduceat(w_s, starts)
        keep = counts > 0
        return p_s[starts][keep], d_s[starts][keep], counts[keep]


def _prefix(x: np.ndarray) -> np.ndarray:
    """Prefix sums led by a zero: ``out[i] = x[:i].sum()``."""
    return np.concatenate(([0], np.cumsum(x)))


def _link_distances(cur: np.ndarray, prv: np.ndarray, lo_c: np.ndarray,
                    hi_c: np.ndarray, w_start: np.ndarray, arr_o: np.ndarray,
                    tables: List, total_cap: float) -> List[np.ndarray]:
    """Reuse distance of each link ``prv[k] -> cur[k]`` (event indices).

    Distinct blocks in the reuse window = Σ_a E_a(T_a) where T_a is the
    array's touch weight actually inside the window.  T_a is local, so
    phase boundaries (a window whose composition differs from the
    stationary mix) are seen; the array's footprint caps the double-count
    of overlapping same-array regions.  The last ``len(lo_c)`` links are
    co-traversal-corrected: quantile t adjusts each array's distinct
    weight by its term in (1-t)·lo_c + t·hi_c.  Returns one distance array
    for the other links, then one per quantile for the corrected ones.
    """
    n_corr = lo_c.shape[0]
    n_plain = cur.size - n_corr
    ts = ([(q + 0.5) / _QUANTILES for q in range(_QUANTILES)]
          if n_corr else [])
    delta_w = w_start[cur] - w_start[prv]
    out = np.zeros(n_plain)
    outs = [np.zeros(n_corr) for _ in ts]
    for a, cum_w, ga, cum_wa, cum_wga, W_a, cap_a in tables:
        # Every event weighs at least one block, so the window holds the
        # array's events with index in [prv, cur).  With none, T = 0 and
        # the term Σ_{gap<0} w·gap / W_a is 0.0 unless a gap is negative.
        before = _prefix(arr_o == a)
        hi_i, lo_i = before[cur], before[prv]
        nz = np.flatnonzero((hi_i != lo_i) | (ga[0] < 0.0))
        hi_i, lo_i = hi_i[nz], lo_i[nz]
        T = cum_w[hi_i] - cum_w[lo_i]
        split = np.searchsorted(ga, T)
        e_a = (cum_wga[split] + T * (cum_wa[-1] - cum_wa[split])) / W_a
        # A window holding exactly one event of the array has no
        # within-window repeats: its distinct weight is the event's
        # weight, regardless of the stationary mix.
        e_a = np.where(hi_i - lo_i == 1, T, e_a)
        k = np.searchsorted(nz, n_plain)
        out[nz[:k]] += np.minimum(e_a[:k], cap_a)
        e_c = np.zeros(n_corr)
        e_c[nz[k:] - n_plain] = e_a[k:]
        for t, est in zip(ts, outs):
            delta = (1.0 - t) * lo_c[:, a] + t * hi_c[:, a]
            est += np.minimum(np.maximum(e_c + delta, 0.0), cap_a)
    windows = [delta_w[:n_plain]] + [
        np.maximum(delta_w[n_plain:]
                   + ((1.0 - t) * lo_c + t * hi_c).sum(axis=1), 0.0)
        for t in ts]
    return [np.maximum(np.rint(np.minimum(np.minimum(est, win), total_cap))
                       .astype(np.int64) - 1, 0)
            for est, win in zip([out] + outs, windows)]


def _fresh_counts(cases: np.ndarray, offs: List[int], stride: int,
                  shift: int) -> Optional[np.ndarray]:
    """Exact per-reference fresh-block-touch counts for one co-ref group.

    ``cases`` holds ``(phase, trip)`` rows — starting phase (base address
    mod block size) and iteration count.  For each case walks the group's
    accesses in plan order, attributing each block's first touch to the
    reference that reaches it first.  Returns an array of shape
    ``(len(cases), len(offs))`` of fresh counts, or ``None`` when the
    pattern is aperiodic or the simulation would exceed the work budget.
    """
    B = 1 << shift
    period = B // math.gcd(abs(stride), B)
    spread = max(offs) - min(offs)
    warm = int((spread + B) // abs(stride)) + 2
    sims = np.minimum(cases[:, 1], warm + 2 * period)
    if int(sims.sum()) * len(offs) > _FRESH_SIM_BUDGET:
        _obs.counter("static.fresh_sim_skipped").inc()
        return None
    out = np.zeros((len(cases), len(offs)), dtype=np.float64)
    for pi, (phase, trip) in enumerate(cases):
        trip = int(trip)
        sim = min(trip, warm + 2 * period)
        fresh = np.zeros((sim, len(offs)), dtype=bool)
        touched = set()
        p = int(phase)
        for m in range(sim):
            for gj, off in enumerate(offs):
                blk = (p + off + stride * m) >> shift
                if blk not in touched:
                    touched.add(blk)
                    fresh[m, gj] = True
        if trip <= sim:
            out[pi] = fresh[:trip].sum(axis=0)
            continue
        per1 = fresh[warm:warm + period]
        per2 = fresh[warm + period:warm + 2 * period]
        if not np.array_equal(per1, per2):
            return None
        full, rest = divmod(trip - warm, period)
        out[pi] = (fresh[:warm].sum(axis=0) + full * per1.sum(axis=0)
                   + per1[:rest].sum(axis=0))
    return out


def _window_distance(item: ItemClass, j: int, block_size: int,
                     shift: int) -> np.ndarray:
    """Expected reuse distance for intra-item re-touches of reference j.

    Walks the plan-order window backwards from the reference (earlier
    references this iteration, then later references the previous
    iteration, then the reference's own previous iteration), accumulating
    match probability and the expected count of distinct blocks passed.
    Straight-line items use exact block comparisons; symbolic nests use
    phase-averaged overlap ``max(0, 1 - |Δ|/B)`` with pairwise dedup of
    same-array window entries.
    """
    refs = item.refs
    exact = item.kind != "nest"
    if exact:
        a_j = refs[j].addr0
        entries = [(refs[k].addr0, refs[k].array)
                   for k in range(j - 1, -1, -1)]
    else:
        t_mid = item.trip // 2
        a_j = refs[j].addr0 + refs[j].stride * t_mid
        entries = [(refs[k].addr0 + refs[k].stride * t_mid, refs[k].array)
                   for k in range(j - 1, -1, -1)]
        entries += [(refs[k].addr0 + refs[k].stride * (t_mid - 1),
                     refs[k].array)
                    for k in range(len(refs) - 1, j, -1)]
    n_occ = item.n_occ
    remaining = np.ones(n_occ, dtype=np.float64)
    seen = np.zeros(n_occ, dtype=np.float64)
    d_mass = np.zeros(n_occ, dtype=np.float64)
    processed: List[Tuple[np.ndarray, str]] = []
    blk_j = a_j >> shift
    for a_k, arr_k in entries:
        if exact:
            cmp_k = a_k >> shift
            p_same = (cmp_k == blk_j).astype(np.float64)
        else:
            cmp_k = a_k - a_j
            p_same = np.clip(1.0 - np.abs(cmp_k) / block_size, 0.0, 1.0)
        d_mass += remaining * p_same * seen
        remaining = remaining * (1.0 - p_same)
        p_new = 1.0 - p_same
        for cmp_prev, arr_prev in processed:
            if arr_prev != arr_k:
                continue
            if exact:
                p_new = p_new * (cmp_k != cmp_prev)
            else:
                p_new = p_new * np.clip(np.abs(cmp_k - cmp_prev)
                                        / block_size, 0.0, 1.0)
        seen = seen + p_new
        processed.append((cmp_k, arr_k))
    # Whatever is still unmatched resolves at the reference's own previous
    # iteration (symbolic nests) or at the window's end: distance = every
    # distinct block the window put between.
    return d_mass + remaining * seen
