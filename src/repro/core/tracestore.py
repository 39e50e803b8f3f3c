"""Columnar trace recordings: record once, cut and feed anywhere.

The shard pipeline (:mod:`repro.core.shard`) analyzes one access stream
in K time shards.  A program the static enumeration rejects (or a
``batch=False`` run) is recorded once, and every recording is columnar,
in one fixed-width layout that lives either in memory or in a store
directory that ``mmap`` serves back with zero serialization cost:

* **Writing.**  :class:`StreamRecorder` turns an executor's events into
  ops for a :class:`TraceStoreWriter`, which buffers them column-wise
  in plain Python lists.  When the buffered estimate crosses the spill
  bound (``spill_mb``), every column is cut into a compact numpy chunk
  — appended to its file when the writer has a store directory, kept
  in memory when it has none — and the buffers reset.  Affine ``rows``
  ops stay *symbolic* (base/stride/count per reference, never expanded
  to element lists), so a recording inherits the recorder's run
  compression: a billion-access affine loop costs one 32-byte op
  record plus ~25 bytes per reference.
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
  memory or on disk.  It keys the shard partials of recorded traces
  (see :meth:`~repro.tools.cache.AnalysisCache.trace_shard_key_for`)
  and names the directory :func:`record_spilled` dedups a recording
  into.
* **Slices and windows.**  :func:`split_stored_trace` cuts a recording
  between ops by the segment table's rule (shard ``i`` opens at the
  first op boundary at or after ``i * n // K`` accesses; scope events
  on a cut open the next shard), scanning only the ops column.  Each
  :class:`StoredShardSlice` yields its windows as a segment table does
  (:meth:`StoredShardSlice.windows`), materialising each from its own
  column ranges only when the engine flushes it.  A slice of a spilled
  trace names the store directory, so K workers share one recording
  through the page cache and a trace larger than memory analyzes
  without ever being resident at once; a slice of an in-memory trace
  carries just its own window of the columns.
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
from functools import partial
from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.npengine import WindowArrays, _scatter_rows
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
#: the analysis — both engines ignore them — but keep the recording
#: complete); everything else is int64.
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

#: Op records converted to Python at a time: bounds the Python objects
#: a pass over a spilled trace holds.
_OP_BLOCK = 1 << 16

#: The recorder closes an open scalar segment at this many accesses.
COALESCE_CAP = 1 << 16


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


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

class StreamRecorder:
    """Event handler that records the access stream as a columnar trace.

    Every event goes to a :class:`TraceStoreWriter` (an in-memory one
    unless the caller passes a writer with a store directory): scope
    events, materialized chunks, and unmaterialized affine chunks,
    exactly the ``access_rows`` protocol.  Scalar accesses between scope
    events coalesce into one chunk, closed at :data:`COALESCE_CAP` so
    the recorder's own buffering stays bounded too.  Chunk boundaries
    are analysis-neutral, so the cap cannot change results.
    """

    def __init__(self, writer: Optional[TraceStoreWriter] = None) -> None:
        self.writer = TraceStoreWriter() if writer is None else writer
        self._add_scope = self.writer.add_scope
        self._add_batch = self.writer.add_batch
        self._add_rows = self.writer.add_rows
        self._open: Optional[Tuple[list, list, list]] = None

    def enter_scope(self, sid: int) -> None:
        if self._open is not None:
            self._close()
        self._add_scope(OP_ENTER, sid)

    def exit_scope(self, sid: int) -> None:
        if self._open is not None:
            self._close()
        self._add_scope(OP_EXIT, sid)

    def access(self, rid: int, addr: int, is_store: bool) -> None:
        op = self._open
        if op is None:
            self._open = ([rid], [addr], [is_store])
        else:
            rids, addrs, stores = op
            rids.append(rid)
            addrs.append(addr)
            stores.append(is_store)
            if len(addrs) >= COALESCE_CAP:
                self._close()

    def access_batch(self, rids, addrs, stores, period: int = 0) -> None:
        n = len(addrs)
        if not n:
            return
        if self._open is not None:
            self._close()
        self._add_batch(rids, addrs, stores,
                        period if period and not n % period else 0)

    def access_rows(self, rids, stores, bases, strides, m: int) -> None:
        if not m * len(bases):
            return
        if self._open is not None:
            self._close()
        self._add_rows(rids, stores, bases, strides, m)

    def finish(self) -> StoredTrace:
        """Close the open scalar segment and finalize the recording."""
        self._close()
        return self.writer.finalize()

    def _close(self) -> None:
        op = self._open
        if op is not None:
            self._add_batch(op[0], op[1], op[2], 0)
            self._open = None


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

    def column(self, name: str) -> np.ndarray:
        """One column by name (see the module's layout), mapped lazily."""
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
        return self.column("ops")


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoredShardSlice:
    """One contiguous time shard of a recorded trace (picklable).

    The op payload is the half-open op-record range ``[op_lo, op_hi)`` of
    ``trace``; both ends are op boundaries.  For a spilled trace,
    ``trace`` is the store's handle — a few dozen bytes however large
    the trace — and a worker mmaps the store and reads only its range.
    For an in-memory trace, ``trace`` is the slice's own window (see
    :func:`_window`): the ops of its range and their side-table
    elements, offsets rebased, so a pickled slice ships only its own
    part of the columns.
    """

    index: int
    #: global clock before the shard's first access
    start: int
    #: accesses in the shard
    length: int
    #: scope stack live at the shard start (global entry clocks)
    seed_sids: Tuple[int, ...]
    seed_clocks: Tuple[int, ...]
    op_lo: int
    op_hi: int
    trace: StoredTrace

    @property
    def path(self) -> Optional[str]:
        """Store directory of a spilled trace (None in memory)."""
        return self.trace.path

    def windows(self, threshold: int
                ) -> Iterator[Tuple[int, Callable[[], WindowArrays]]]:
        """``(accesses, materialise)`` per window, in time order.

        One scan of the slice's op records tracks the scope stack from
        the seeds; a snapshot opens at the first access op after each
        scope event, and a window ends at the first op boundary where
        ``threshold`` or more accesses are pending (the rule the engine's
        ``append_*`` entry points apply).  A window's columns are read
        only when it is materialised.
        """
        store = TraceStore(self.trace)
        sids = list(self.seed_sids)
        clocks = list(self.seed_clocks)
        clock = self.start
        pending = 0
        segs: List[List[int]] = []
        seg_snap: List[int] = []
        snaps: List[Tuple[tuple, tuple]] = []
        fresh = True
        for op in _op_records(store.ops, self.op_lo, self.op_hi):
            kind, a, b, c = op
            if kind == OP_ENTER:
                sids.append(a)
                clocks.append(clock)
                fresh = True
                continue
            if kind == OP_EXIT:
                sids.pop()
                clocks.pop()
                fresh = True
                continue
            n = b * c if kind == OP_ROWS else b
            if not n:
                continue
            if fresh:
                snaps.append((tuple(sids), tuple(clocks)))
                fresh = False
            segs.append(op)
            seg_snap.append(len(snaps) - 1)
            clock += n
            pending += n
            if pending >= threshold:
                yield pending, partial(_materialise, store, segs, seg_snap,
                                       snaps)
                pending = 0
                segs, seg_snap, snaps = [], [], []
                fresh = True
        if pending:
            yield pending, partial(_materialise, store, segs, seg_snap, snaps)


def _op_records(ops: np.ndarray, lo: int, hi: int) -> Iterator[List[int]]:
    """``[kind, a, b, c]`` of the op records ``[lo, hi)``, converted to
    Python ``_OP_BLOCK`` records at a time."""
    return chain.from_iterable(ops[base:min(base + _OP_BLOCK, hi)].tolist()
                               for base in range(lo, hi, _OP_BLOCK))


def _materialise(store: TraceStore, segs: List[List[int]],
                 seg_snap: List[int],
                 snaps: List[Tuple[tuple, tuple]]) -> WindowArrays:
    """One window's access ops as arrays: batch payloads copied, affine
    rows broadcast.  Side-table offsets grow in op order, so the
    window's batch and rows elements are one range of each table."""
    kind, off, b, c = np.array(segs, dtype=np.int64).reshape(-1, 4).T
    rows = kind == OP_ROWS
    seg_len = np.where(rows, b * c, b)
    seg_per = np.where(rows, b, c)
    seg_per[seg_len % np.maximum(seg_per, 1) != 0] = 0
    seg_start = np.zeros(seg_len.size + 1, dtype=np.int64)
    np.cumsum(seg_len, out=seg_start[1:])
    A = np.empty(int(seg_start[-1]), dtype=np.int64)
    R = np.empty_like(A)
    read = 0
    sel = np.flatnonzero(~rows)
    if sel.size:
        lo = int(off[sel[0]])
        hi = int(off[sel[-1]] + b[sel[-1]])
        at = (np.repeat(seg_start[sel] - off[sel] + lo, b[sel])
              + np.arange(hi - lo, dtype=np.int64))
        A[at] = store.column("batch_addrs")[lo:hi]
        R[at] = store.column("batch_rids")[lo:hi]
        read += (hi - lo) * _BATCH_ELEM_BYTES
    sel = np.flatnonzero(rows)
    if sel.size:
        lo = int(off[sel[0]])
        hi = int(off[sel[-1]] + b[sel[-1]])
        bases, strides, rids = (store.column(name)[lo:hi] for name in (
            "rows_bases", "rows_strides", "rows_rids"))
        groups: Dict[Tuple[int, int], List[int]] = {}
        for i, k, m in zip(sel.tolist(), b[sel].tolist(), c[sel].tolist()):
            groups.setdefault((k, m), []).append(i)
        for (k, m), idxs in groups.items():
            at = (off[idxs] - lo)[:, None] + np.arange(k, dtype=np.int64)
            _scatter_rows(A, R, seg_start[idxs], bases[at], strides[at],
                         rids[at], m)
        read += (hi - lo) * _ROWS_ELEM_BYTES
    if store.path is not None:
        _obs.counter("trace.read_mb").inc(read / 1e6)
    snap_sids = [s for s, _c in snaps]
    snap_clocks = [c for _s, c in snaps]
    return WindowArrays(
        A, R, seg_len, seg_per,
        np.array(seg_snap, dtype=np.int64),
        np.array([s[-1] if s else -1 for s in snap_sids], dtype=np.int64),
        np.array([c[-1] if c else -1 for c in snap_clocks], dtype=np.int64),
        np.array([len(s) for s in snap_sids], dtype=np.int64),
        np.fromiter(chain.from_iterable(snap_clocks), np.int64),
        np.fromiter(chain.from_iterable(snap_sids), np.int64))


def _window(store: TraceStore, op_lo: int, op_hi: int,
            length: int) -> StoredTrace:
    """In-memory slice payload: ops ``[op_lo, op_hi)`` plus their
    side-table elements, offsets rebased to those elements."""
    ops = store.ops[op_lo:op_hi].copy()
    columns = {"ops": ops}
    for kind, table in ((OP_BATCH, "batch_"), (OP_ROWS, "rows_")):
        sel = np.flatnonzero(ops[:, 0] == kind)
        lo = hi = 0
        if sel.size:
            # side-table offsets grow in op order
            lo = int(ops[sel[0], 1])
            hi = int(ops[sel[-1], 1] + ops[sel[-1], 2])
            ops[sel, 1] -= lo
        for name in _COLUMNS:
            if name.startswith(table):
                columns[name] = store.column(name)[lo:hi]
    return StoredTrace(path=None, accesses=length, nops=len(ops),
                       digest=store.digest, columns=columns)


def split_stored_trace(trace, nshards: int) -> List[StoredShardSlice]:
    """Cut a recorded trace into at most K contiguous time shards.

    The rule is :meth:`~repro.static.segments.SegmentTable.slices`':
    shard ``i`` opens at the first op boundary at or after ``i * n // K``
    accesses, right after the last access op that starts before that
    target.  So scope events on a cut open the next shard, and a shard's
    seed clocks stay strictly below its start.  Cuts that land on one
    boundary collapse: a trace gets at most ``min(K, access ops)``
    shards, and an empty trace one empty shard.  A recorded op holds at
    most ``max(CHUNK_ACCESSES, k)`` accesses (executor chunks, and the
    recorder's :data:`COALESCE_CAP`), so each cut lands less than one
    chunk past its target.  Only the ops column is read: per-op access
    counts, one searchsorted, then one pass over the scope ops for the
    seeds.
    """
    store = trace if isinstance(trace, TraceStore) else TraceStore(trace)
    ops = store.ops
    n = int(store.accesses)
    k = max(1, int(nshards))
    kind = ops[:, 0]
    acc = np.where(kind == OP_ROWS, ops[:, 2] * ops[:, 3],
                   np.where(kind == OP_BATCH, ops[:, 2], 0))
    done = np.cumsum(acc)
    access_ops = np.flatnonzero(acc)
    first = np.unique(np.searchsorted(
        done[access_ops] - acc[access_ops], [i * n // k for i in range(k)]))
    first = first[first < max(access_ops.size, 1)]
    # shard i opens right after access op first[i] - 1
    cuts = np.append(0, access_ops + 1)[first].tolist() + [len(ops)]
    starts = np.append(0, done[access_ops])[first].tolist() + [n]
    # the scope stack at each cut: one pass over the scope ops before
    # the last cut, _OP_BLOCK at a time
    scope = np.flatnonzero(kind[:cuts[-2]] <= OP_EXIT)
    sids: List[int] = []
    clocks: List[int] = []
    seeds: List[Tuple[tuple, tuple]] = []
    for base in range(0, scope.size, _OP_BLOCK):
        sel = scope[base:base + _OP_BLOCK]
        for p, kd, sid, clk in zip(sel.tolist(), kind[sel].tolist(),
                                   ops[sel, 1].tolist(), done[sel].tolist()):
            while cuts[len(seeds)] <= p:
                seeds.append((tuple(sids), tuple(clocks)))
            if kd == OP_ENTER:
                sids.append(sid)
                clocks.append(clk)
            else:
                sids.pop()
                clocks.pop()
    seeds += [(tuple(sids), tuple(clocks))] * (len(cuts) - 1 - len(seeds))
    whole = (None if store.path is None else
             StoredTrace(path=store.path, accesses=n, nops=store.nops,
                         digest=store.digest))
    shards: List[StoredShardSlice] = []
    for i, (seed_sids, seed_clocks) in enumerate(seeds):
        lo, hi, length = cuts[i], cuts[i + 1], starts[i + 1] - starts[i]
        src = whole
        if src is None:
            src = _window(store, lo, hi, length)
            lo, hi = 0, hi - lo
        shards.append(StoredShardSlice(i, starts[i], length, seed_sids,
                                       seed_clocks, lo, hi, src))
    return shards


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
