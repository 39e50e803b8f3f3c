"""Columnar trace recordings: record once, split and replay anywhere.

The shard pipeline (:mod:`repro.core.shard`) analyzes one access stream
in K time shards.  Every recording of that stream is columnar, in one
fixed-width layout that lives either in memory or in a store directory
that ``mmap`` serves back with zero serialization cost:

* **Writing.**  :class:`TraceStoreWriter` receives the op stream a
  :class:`~repro.core.shard.StreamRecorder` produces and buffers it
  column-wise in plain Python lists.  When the buffered estimate crosses
  the spill bound (``spill_mb``), every column is cut into a compact
  numpy chunk — appended to its file when the writer has a store
  directory, kept in memory when it has none — and the buffers reset.
  Affine ``rows`` ops stay *symbolic* (base/stride/count per reference,
  never expanded to element lists), so a recording inherits the
  recorder's run compression: a billion-access affine loop costs one
  32-byte op record plus ~25 bytes per reference.
* **Layout.**  ``ops`` is an int64 array of shape ``(nops, 4)`` —
  ``(kind, a, b, c)`` with kinds enter/exit (``a`` = sid), batch (``a`` =
  offset into the batch side tables, ``b`` = accesses, ``c`` = period)
  and rows (``a`` = offset into the rows side tables, ``b`` =
  refs/iteration, ``c`` = iterations).  Side tables are flat columns
  (``batch_rids``/``batch_addrs``/``batch_stores``, ``rows_rids``/
  ``rows_bases``/``rows_strides``/``rows_stores``).  A store directory
  holds one file per column plus ``meta.json`` with the totals and the
  content digest.
* **Digest.**  Each column is hashed incrementally as its chunks are
  cut, so the digest depends only on the recorded *content* — never on
  where the chunk boundaries fell, nor on whether the columns live in
  memory or on disk.  It keys the shard partials of spilled traces (see
  :meth:`~repro.tools.cache.AnalysisCache.trace_shard_key_for`) and
  names the directory :func:`record_spilled` dedups a recording into.
* **Splitting and replay.**  :func:`split_stored_trace` computes shard
  slices as *op-index ranges* by scanning only the ops column, and
  :func:`replay_slice` streams one slice through an analyzer,
  materializing only the slice's own batch elements.  A slice of a
  spilled trace names the store directory, so K workers share one
  recording through the page cache and a trace larger than memory
  analyzes without ever being resident at once; a slice of an in-memory
  trace carries just its own window of the columns.

The split rules keep the merged ``dump_state()`` byte-identical to the
sequential engines: cuts fall at access counts ``i * n // K``, possibly
mid-batch (the period survives only on row-aligned pieces) or mid-row
(only the partial rows materialize), and a scope event on a cut opens
the *next* shard.
"""

from __future__ import annotations

import hashlib
import json
import logging
import mmap
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace as _dc_replace
from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs import metrics as _obs
from repro.obs import trace as _trace

logger = logging.getLogger("repro.core.tracestore")

#: Bump when the on-disk layout changes.
TRACESTORE_VERSION = 1
MAGIC = "repro-tracestore"

#: Default bound on the writer's list buffer, in MB.
DEFAULT_SPILL_MB = 64.0

#: Op kinds in the ops column.
OP_ENTER, OP_EXIT, OP_BATCH, OP_ROWS = 0, 1, 2, 3

#: column name -> (file name, dtype).  Stores are uint8 (they never feed
#: the analysis — both engines ignore them — but keep the stream
#: replayable through any handler); everything else is int64.
_COLUMNS: Dict[str, Tuple[str, type]] = {
    "ops": ("ops.i64", np.int64),
    "batch_rids": ("batch_rids.i64", np.int64),
    "batch_addrs": ("batch_addrs.i64", np.int64),
    "batch_stores": ("batch_stores.u8", np.uint8),
    "rows_rids": ("rows_rids.i64", np.int64),
    "rows_bases": ("rows_bases.i64", np.int64),
    "rows_strides": ("rows_strides.i64", np.int64),
    "rows_stores": ("rows_stores.u8", np.uint8),
}

#: Buffered-size estimate per op record / side-table element (bytes).
#: Slightly above the on-disk width to cover Python list overhead is not
#: attempted — the bound is about chunk batching, not exact accounting.
_OP_BYTES = 32
_BATCH_ELEM_BYTES = 17   # rid + addr (int64) + store (uint8)
_ROWS_ELEM_BYTES = 25    # rid + base + stride (int64) + store (uint8)

#: Op records converted to Python at a time, and the least side-table
#: elements replay converts at a time: both bound the Python objects a
#: pass over a spilled trace holds.
_OP_BLOCK = 1 << 16
_REPLAY_BLOCK = 1 << 16


@dataclass(frozen=True)
class StoredTrace:
    """Picklable handle to one columnar recording.

    A spilled trace lives in the store directory ``path``; an in-memory
    one has no path and carries its ``columns`` instead.
    """

    path: Optional[str]
    accesses: int
    nops: int
    digest: str
    #: in-memory recordings only: column name -> array
    columns: Optional[Dict[str, np.ndarray]] = field(
        default=None, compare=False, repr=False)


def load_trace(path: str) -> StoredTrace:
    """Read a store's ``meta.json`` into a :class:`StoredTrace` handle."""
    with open(os.path.join(path, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("magic") != MAGIC:
        raise ValueError(f"{path!r} is not a trace store")
    if meta.get("version") != TRACESTORE_VERSION:
        raise ValueError(f"trace store {path!r} has version "
                         f"{meta.get('version')!r}, expected "
                         f"{TRACESTORE_VERSION}")
    return StoredTrace(path=str(path), accesses=int(meta["accesses"]),
                       nops=int(meta["ops"]), digest=str(meta["digest"]))


class TraceStoreWriter:
    """Columnar recording writer with a bounded list buffer.

    Receives the recorder's ops (:meth:`add_scope`, :meth:`add_batch`,
    :meth:`add_rows`), keeps per-column append buffers, and cuts them
    into numpy chunks whenever the buffered-size estimate crosses
    ``spill_mb``: appended to the column files under ``path``, or kept
    in memory when ``path`` is None.  Column hashes update per chunk in
    append order, so the final digest is independent of where the chunk
    boundaries fell and of where the columns live.
    """

    def __init__(self, path: Optional[str] = None,
                 spill_mb: Optional[float] = None) -> None:
        self.path = None if path is None else str(path)
        limit_mb = DEFAULT_SPILL_MB if spill_mb is None else float(spill_mb)
        if limit_mb <= 0:
            raise ValueError(f"spill_mb must be > 0, got {spill_mb}")
        self.spill_limit = int(limit_mb * 1024 * 1024)
        #: in-memory recordings only: per-column chunk lists
        self._chunks: Optional[Dict[str, List[np.ndarray]]] = None
        self._files = None
        if self.path is None:
            self._chunks = {name: [] for name in _COLUMNS}
        else:
            os.makedirs(self.path, exist_ok=True)
            self._files = {name: open(os.path.join(self.path, fname), "wb")
                           for name, (fname, _dt) in _COLUMNS.items()}
        self._hash = {name: hashlib.sha256() for name in _COLUMNS}
        #: op records, flattened: kind, a, b, c, kind, ...
        self._ops: List[int] = []
        self._batch: Tuple[list, list, list] = ([], [], [])
        self._rows: Tuple[list, list, list, list] = ([], [], [], [])
        self.accesses = 0
        self._flushed_ops = 0
        self._batch_len = 0
        self._rows_len = 0
        self._buf_bytes = 0
        #: high-water mark of the buffered estimate (spill-bound proof)
        self.max_buffered = 0
        #: bytes cut into chunks so far (written to disk for a store)
        self.spilled_bytes = 0
        self.flushes = 0
        self._finalized = False
        self._obs_spill = _obs.counter("trace.spill_bytes")

    @property
    def nops(self) -> int:
        return self._flushed_ops + len(self._ops) // 4

    # -- recorder sink ---------------------------------------------------

    def add_scope(self, kind: int, sid: int) -> None:
        """Append an ``OP_ENTER``/``OP_EXIT`` record."""
        self._ops.extend((kind, sid, 0, 0))
        self._buf_bytes += _OP_BYTES
        if self._buf_bytes >= self.spill_limit:
            self.flush()

    def add_batch(self, rids, addrs, stores, period: int) -> None:
        """Append a materialized chunk (``period`` divides its length)."""
        n = len(addrs)
        self._ops.extend((OP_BATCH, self._batch_len, n, period))
        self._batch_len += n
        self._batch[0].extend(rids)
        self._batch[1].extend(addrs)
        self._batch[2].extend(stores)
        self.accesses += n
        self._buf_bytes += _OP_BYTES + _BATCH_ELEM_BYTES * n
        if self._buf_bytes >= self.spill_limit:
            self.flush()

    def add_rows(self, rids, stores, bases, strides, m: int) -> None:
        """Append an unmaterialized affine chunk of ``m`` iterations."""
        k = len(rids)
        self._ops.extend((OP_ROWS, self._rows_len, k, m))
        self._rows_len += k
        self._rows[0].extend(rids)
        self._rows[1].extend(stores)
        self._rows[2].extend(bases)
        self._rows[3].extend(strides)
        self.accesses += k * m
        self._buf_bytes += _OP_BYTES + _ROWS_ELEM_BYTES * k
        if self._buf_bytes >= self.spill_limit:
            self.flush()

    # -- chunking --------------------------------------------------------

    def flush(self) -> int:
        """Cut every buffered column into a chunk; returns its bytes."""
        # the buffer only grows between flushes: its peak is right here
        self.max_buffered = max(self.max_buffered, self._buf_bytes)
        self._flushed_ops += len(self._ops) // 4
        wrote = 0
        for name, buf in (("ops", self._ops),
                          ("batch_rids", self._batch[0]),
                          ("batch_addrs", self._batch[1]),
                          ("batch_stores", self._batch[2]),
                          ("rows_rids", self._rows[0]),
                          ("rows_stores", self._rows[1]),
                          ("rows_bases", self._rows[2]),
                          ("rows_strides", self._rows[3])):
            if not buf:
                continue
            chunk = np.fromiter(buf, dtype=_COLUMNS[name][1],
                                count=len(buf))
            self._hash[name].update(chunk)
            if self._files is None:
                self._chunks[name].append(chunk)
            else:
                self._files[name].write(chunk.tobytes())
            wrote += chunk.nbytes
            buf.clear()
        if wrote:
            self.flushes += 1
            self.spilled_bytes += wrote
            if self._files is not None:
                self._obs_spill.inc(wrote)
        self._buf_bytes = 0
        return wrote

    def finalize(self) -> StoredTrace:
        """Cut the tail chunk and return the recording's handle.

        A store directory gets its ``meta.json``; an in-memory recording
        concatenates its chunks into the handle's columns.
        """
        if self._finalized:
            raise RuntimeError("trace store already finalized")
        columns = None
        with _trace.span("trace.finalize", path=self.path,
                         ops=self.nops, accesses=self.accesses):
            self.flush()
            h = hashlib.sha256()
            h.update(f"{MAGIC}:{TRACESTORE_VERSION}:{self.accesses}"
                     f":{self.nops}".encode())
            for name in sorted(_COLUMNS):
                h.update(name.encode())
                h.update(self._hash[name].digest())
            digest = h.hexdigest()
            if self._files is None:
                columns = {name: _joined(self._chunks[name], dtype)
                           for name, (_f, dtype) in _COLUMNS.items()}
                columns["ops"] = columns["ops"].reshape(-1, 4)
                self._chunks = None
            else:
                self._write_meta(digest)
        self._finalized = True
        return StoredTrace(path=self.path, accesses=self.accesses,
                           nops=self.nops, digest=digest, columns=columns)

    def _write_meta(self, digest: str) -> None:
        for fh in self._files.values():
            fh.close()
        meta = {"magic": MAGIC, "version": TRACESTORE_VERSION,
                "accesses": self.accesses, "ops": self.nops,
                "batch_len": self._batch_len,
                "rows_len": self._rows_len,
                "bytes": self.spilled_bytes, "digest": digest}
        fd, tmp = tempfile.mkstemp(dir=self.path, prefix=".tmp-",
                                   suffix=".json")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, os.path.join(self.path, "meta.json"))
        logger.info("trace store %s: %d accesses, %d ops, %d bytes "
                    "(%d flush(es))", self.path, self.accesses, self.nops,
                    self.spilled_bytes, self.flushes)

    def abort(self) -> None:
        """Drop the recording without finalizing (a store's caller
        removes the dir)."""
        for fh in (self._files or {}).values():
            try:
                fh.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._chunks = None
        self._finalized = True


def _joined(chunks: List[np.ndarray], dtype) -> np.ndarray:
    """One column from its chunks; a lone chunk is used as is, so a
    recording that never filled its buffer is not copied again."""
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks) if chunks else np.empty(0, dtype)


class TraceStore:
    """Read-only view of one recording's columns.

    In-memory columns are used as they are.  A store directory's columns
    mmap lazily: a reader that only scans ``ops`` (the split pass) never
    maps the side tables, and the numpy views are zero-copy windows onto
    the page cache, so every worker process sharing one store shares one
    set of physical pages.
    """

    def __init__(self, trace) -> None:
        """``trace``: a :class:`StoredTrace` or a store directory path."""
        if not isinstance(trace, StoredTrace):
            trace = load_trace(trace)
        self.path = trace.path
        self.accesses = trace.accesses
        self.nops = trace.nops
        self.digest = trace.digest
        self._cols: Dict[str, np.ndarray] = dict(trace.columns or {})
        self._mmaps: List[mmap.mmap] = []
        self._obs_opens = _obs.counter("trace.mmap_opens")

    def _col(self, name: str) -> np.ndarray:
        arr = self._cols.get(name)
        if arr is None:
            fname, dtype = _COLUMNS[name]
            fpath = os.path.join(self.path, fname)
            size = os.path.getsize(fpath)
            if size:
                with open(fpath, "rb") as fh:
                    mm = mmap.mmap(fh.fileno(), 0,
                                   access=mmap.ACCESS_READ)
                self._mmaps.append(mm)
                arr = np.frombuffer(mm, dtype=dtype)
                self._obs_opens.inc()
            else:
                arr = np.empty(0, dtype=dtype)
            if name == "ops":
                arr = arr.reshape(-1, 4)
            self._cols[name] = arr
        return arr

    @property
    def ops(self) -> np.ndarray:
        return self._col("ops")

    @property
    def batch_rids(self) -> np.ndarray:
        return self._col("batch_rids")

    @property
    def batch_addrs(self) -> np.ndarray:
        return self._col("batch_addrs")

    @property
    def batch_stores(self) -> np.ndarray:
        return self._col("batch_stores")

    @property
    def rows_rids(self) -> np.ndarray:
        return self._col("rows_rids")

    @property
    def rows_bases(self) -> np.ndarray:
        return self._col("rows_bases")

    @property
    def rows_strides(self) -> np.ndarray:
        return self._col("rows_strides")

    @property
    def rows_stores(self) -> np.ndarray:
        return self._col("rows_stores")


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoredShardSlice:
    """One contiguous time shard of a recorded trace (picklable).

    The op payload is the half-open op-record range ``[op_lo, op_hi)`` of
    ``trace`` plus the number of accesses of op ``op_lo`` already
    consumed by earlier shards (``skip`` — nonzero when the boundary
    landed mid-batch or mid-row).  For a spilled trace, ``trace`` is the
    store's handle — a few dozen bytes however large the trace — and a
    worker mmaps the store and replays only its range.  For an in-memory
    trace, ``trace`` is the slice's own window (see :func:`_window`): the
    ops of its range and the side-table elements it replays, offsets
    rebased, so a pickled slice ships only its own part of the columns.
    """

    index: int
    nshards: int
    #: global clock before the shard's first access
    start: int
    #: accesses in the shard
    length: int
    #: scope stack live at the shard start (global entry clocks)
    seed_sids: Tuple[int, ...]
    seed_clocks: Tuple[int, ...]
    op_lo: int
    op_hi: int
    skip: int
    trace: StoredTrace

    @property
    def path(self) -> Optional[str]:
        """Store directory of a spilled trace (None in memory)."""
        return self.trace.path


def _op_records(ops: np.ndarray, lo: int, hi: int) -> Iterator[tuple]:
    """``(index, kind, a, b, c)`` of the op records ``[lo, hi)``,
    converted to Python ``_OP_BLOCK`` records at a time."""
    return chain.from_iterable(
        zip(range(base, hi), *ops[base:min(base + _OP_BLOCK, hi)].T.tolist())
        for base in range(lo, hi, _OP_BLOCK))


def _window(store: TraceStore, op_lo: int, op_hi: int, skip: int,
            cut: Optional[int], length: int) -> StoredTrace:
    """In-memory slice payload: ops ``[op_lo, op_hi)`` plus the side-table
    elements the slice replays, offsets rebased to those elements.

    ``skip`` accesses of the first op belong to earlier shards, and a
    ``cut`` last op contributes only its accesses before ``cut``; a cut
    batch op therefore ships only the slice's part of its payload.
    """
    ops = store.ops[op_lo:op_hi].copy()
    columns = {"ops": ops}
    for kind, table in ((OP_BATCH, "batch_"), (OP_ROWS, "rows_")):
        sel = np.flatnonzero(ops[:, 0] == kind)
        lo = hi = 0
        if sel.size:
            # side-table offsets grow in op order
            first, last = int(sel[0]), int(sel[-1])
            lo = int(ops[first, 1])
            hi = int(ops[last, 1] + ops[last, 2])
            if kind == OP_BATCH:
                if first == 0:
                    lo += skip
                if cut is not None and last == len(ops) - 1:
                    hi = int(ops[last, 1]) + cut
            ops[sel, 1] -= lo
        for name in _COLUMNS:
            if name.startswith(table):
                columns[name] = store._col(name)[lo:hi]
    return StoredTrace(path=None, accesses=length, nops=len(ops),
                       digest=store.digest, columns=columns)


def split_stored_trace(trace, nshards: int) -> List[StoredShardSlice]:
    """Cut a recorded trace into K contiguous time shards.

    Shard boundaries are access-count cuts at ``i * n // K``; K is
    clamped to the access count (each shard gets at least one access,
    and an empty trace yields a single empty shard).  Scope events that
    fall exactly on a cut go to the *following* shard, so a shard's seed
    clocks are all strictly below its start clock.  Only the ops column
    is scanned, so the pass reads ``nops * 32`` bytes however many
    accesses the trace holds.
    """
    store = trace if isinstance(trace, TraceStore) else TraceStore(trace)
    ops = store.ops
    n = int(store.accesses)
    k = max(1, min(int(nshards), n if n else 1))
    cuts = [(i * n) // k for i in range(k + 1)]
    whole = (None if store.path is None else
             StoredTrace(path=store.path, accesses=n, nops=store.nops,
                         digest=store.digest))
    shards: List[StoredShardSlice] = []
    sids: List[int] = []
    clocks: List[int] = []
    state = {"si": 0, "consumed": 0, "start": 0,
             "seed_s": (), "seed_c": (), "op_lo": 0, "skip": 0}

    def close(op_hi: int, next_lo: int, next_skip: int) -> None:
        op_lo = state["op_lo"]
        length = state["consumed"] - state["start"]
        src = whole
        if src is None:
            cut = next_skip if next_lo < op_hi else None
            src = _window(store, op_lo, op_hi, state["skip"], cut, length)
            op_lo, op_hi = 0, op_hi - op_lo
        shards.append(StoredShardSlice(
            state["si"], k, state["start"], length,
            state["seed_s"], state["seed_c"],
            op_lo, op_hi, state["skip"], src))
        state["si"] += 1
        state["seed_s"] = tuple(sids)
        state["seed_c"] = tuple(clocks)
        state["start"] = state["consumed"]
        state["op_lo"] = next_lo
        state["skip"] = next_skip

    def at_cut() -> bool:
        return (state["si"] < k - 1
                and state["consumed"] == cuts[state["si"] + 1])

    nops = int(ops.shape[0])
    for oi, kind, a, b, c in _op_records(ops, 0, nops):
        if kind == OP_ENTER:
            if at_cut():
                close(oi, oi, 0)
            sids.append(a)
            clocks.append(state["consumed"])
        elif kind == OP_EXIT:
            if at_cut():
                close(oi, oi, 0)
            sids.pop()
            clocks.pop()
        else:
            total = b * c if kind == OP_ROWS else b
            off = 0
            while off < total:
                if at_cut():
                    # a cut mid-op keeps op oi on both sides: the closing
                    # shard ends past it, the next one re-enters at skip
                    close(oi if off == 0 else oi + 1, oi, off)
                room = (cuts[state["si"] + 1] if state["si"] < k - 1
                        else n) - state["consumed"]
                take = min(room, total - off)
                state["consumed"] += take
                off += take
    close(nops, nops, 0)
    return shards


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def _replay_partial(batch, rids, stores, bases, strides, row, jlo,
                    jhi) -> None:
    batch(list(rids[jlo:jhi]),
          [bases[j] + row * strides[j] for j in range(jlo, jhi)],
          list(stores[jlo:jhi]), 0)


def _replay_rows_piece(batch, rows, rids, stores, bases, strides, k, off,
                       take) -> None:
    """Replay accesses [off, off+take) of a k-refs-per-iteration rows op.

    Misaligned edges materialize only the partial rows; whole iterations
    in between stay an unmaterialized ``rows`` op with shifted bases.
    """
    end = off + take
    r0, j0 = divmod(off, k)
    r1, j1 = divmod(end, k)
    if j0:
        jhi = k if r1 > r0 else j1
        _replay_partial(batch, rids, stores, bases, strides, r0, j0, jhi)
        if jhi < k:
            return
        r0 += 1
    if r1 > r0:
        rows(rids, stores,
             tuple(b + r0 * s for b, s in zip(bases, strides)),
             strides, r1 - r0)
    if j1:
        _replay_partial(batch, rids, stores, bases, strides, r1, 0, j1)


def replay_slice(store: TraceStore, sl: StoredShardSlice, handler) -> None:
    """Stream one slice of ``store`` through an event handler.

    Op records convert to Python once each, in blocks, and the side
    tables in blocks of at least ``_REPLAY_BLOCK`` elements (ops
    reference them in ascending order), so a replay holds only a
    bounded part of a spilled trace as Python objects.  Whole ops replay as recorded; an op cut by
    a shard boundary replays only the slice's part of it — a batch piece
    keeps the period only when row-aligned, and a rows piece
    materializes only its partial rows.
    """
    enter = handler.enter_scope
    leave = handler.exit_scope
    batch = handler.access_batch
    rows_fn = handler.access_rows
    b_cols = (store.batch_rids, store.batch_addrs, store.batch_stores)
    r_cols = (store.rows_rids, store.rows_stores, store.rows_bases,
              store.rows_strides)
    # converted side-table blocks [lo, hi): batch lists, rows tuples
    # (handlers keep a rows op's vectors as tuples; slicing one is the
    # only copy)
    b_lo = b_hi = r_lo = r_hi = 0
    b_rids = b_addrs = b_stores = r_rids = r_stores = r_bases = \
        r_strides = ()
    remaining = sl.length
    skip = sl.skip
    batch_read = rows_read = 0
    for _oi, kind, a, b, c in _op_records(store.ops, sl.op_lo, sl.op_hi):
        if kind == OP_ENTER:
            enter(a)
            continue
        if kind == OP_EXIT:
            leave(a)
            continue
        off, skip = skip, 0
        if kind == OP_BATCH:
            take = b - off
            if take > remaining:
                take = remaining
            if take <= 0:
                continue
            lo = a + off
            hi = lo + take
            if hi > b_hi or lo < b_lo:
                b_lo, b_hi = lo, max(hi, lo + _REPLAY_BLOCK)
                b_rids, b_addrs, b_stores = (
                    col[b_lo:b_hi].tolist() for col in b_cols)
            lo -= b_lo
            hi -= b_lo
            batch_read += take
            batch(b_rids[lo:hi], b_addrs[lo:hi], b_stores[lo:hi],
                  c if c and off % c == 0 and take % c == 0 else 0)
        else:
            total = b * c
            take = total - off
            if take > remaining:
                take = remaining
            if take <= 0:
                continue
            end = a + b
            if end > r_hi or a < r_lo:
                r_lo, r_hi = a, max(end, a + _REPLAY_BLOCK)
                r_rids, r_stores, r_bases, r_strides = (
                    tuple(col[r_lo:r_hi].tolist()) for col in r_cols)
            lo = a - r_lo
            hi = end - r_lo
            rows_read += b
            if take == total:
                rows_fn(r_rids[lo:hi], r_stores[lo:hi], r_bases[lo:hi],
                        r_strides[lo:hi], c)
            else:
                _replay_rows_piece(batch, rows_fn, r_rids[lo:hi],
                                   r_stores[lo:hi], r_bases[lo:hi],
                                   r_strides[lo:hi], b, off, take)
        remaining -= take
    if store.path is not None:
        _obs.counter("trace.read_mb").inc(
            (batch_read * _BATCH_ELEM_BYTES
             + rows_read * _ROWS_ELEM_BYTES) / 1e6)


# ---------------------------------------------------------------------------
# Recording convenience
# ---------------------------------------------------------------------------

def record_spilled(program, trace_dir: str, batch: bool = True,
                   spill_mb: Optional[float] = None,
                   **params) -> Tuple[StoredTrace, "RunStats"]:
    """Record ``program`` into a digest-named store under ``trace_dir``.

    Records into a temp directory, then renames it to
    ``<trace_dir>/<digest[:16]>``.  Identical content renames onto an
    existing store of the same digest — the new copy is discarded and
    the existing one reused, so repeated sweeps over the same point keep
    exactly one store on disk.  A reuse re-stamps the store's files, so
    the time pin of ``repro gc`` covers it like a fresh recording.
    """
    from repro.core.shard import record_trace
    os.makedirs(trace_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=trace_dir, prefix=".rec-")
    try:
        stored, stats = record_trace(program, batch=batch, spill=tmp,
                                     spill_mb=spill_mb, **params)
        final = os.path.join(trace_dir, stored.digest[:16])
        try:
            os.rename(tmp, final)
        except OSError:
            if not os.path.isdir(final):  # pragma: no cover - perms/races
                raise
            # same digest already recorded (earlier run or concurrent
            # racer): keep the existing store, drop the duplicate, and
            # re-stamp the store so a GC pass's time pin covers the reuse
            for name in os.listdir(final):
                os.utime(os.path.join(final, name))
            logger.info("trace store %s already recorded; reusing", final)
    finally:
        # any exit that did not rename it (a failure, a cancelled job's
        # SystemExit, a reused store) drops the temp dir
        if os.path.isdir(tmp):
            shutil.rmtree(tmp, ignore_errors=True)
    return _dc_replace(stored, path=final), stats
