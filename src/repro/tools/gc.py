"""One garbage-collection pass over the toolkit's on-disk state.

Three kinds of state outlive the run that wrote them: the analysis
cache (keyed entries ``<key[:2]>/<key>.pkl`` and the content-addressed
blob store ``blobs/<xx>/<sha256>.bin``), spilled trace stores
(digest-named directories under a trace dir, see
:mod:`repro.core.tracestore`), and the analysis service's job records
(``jobs/<id>/``, see :mod:`repro.service.jobs`), whose artifacts are
blobs.  :func:`collect` bounds them all in one pass, in the one order
that is safe:

1. expire terminal jobs that finished more than ``keep_days`` ago;
2. build one pin set from what survives: the kept records' artifact
   digests, each live job's ``trace_path`` (from its ``status.json``),
   and everything modified since ``min(pass start, earliest started
   live job)``, less :data:`CLOCK_SLACK_S`.  The time pin covers what
   a running job has written before any record names it (a record
   lists its artifacts only once the job is done, and ``status.json``
   names its store only once the analysis returns); a dedup hit
   re-stamps what it reuses, so reuse counts as a write;
3. evict the coldest unpinned cache entries and trace stores, ranked
   together by last use, until they fit ``max_bytes``;
4. remove every unpinned blob and every ``.tmp-*`` file older than
   :data:`TMP_MAX_AGE_S`.  Blobs go only when a state dir is given:
   without job records there is no pin set.

Steps 3 and 4 decide and delete under the cache's writer lock, so a
concurrent :meth:`~repro.tools.cache.AnalysisCache.put_blob` either
re-stamps a blob before the pass looks at it or writes it anew after.
A sweep checkpoint's records are files in a directory of their own,
not blobs (see :class:`~repro.tools.resilience.SweepCheckpoint`), so
no pass needs to pin them.
"""

from __future__ import annotations

import logging
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.obs import metrics as _obs

logger = logging.getLogger("repro.tools.gc")

#: a live writer renames its ``.tmp-*`` file within seconds; one older
#: than this was left by a writer that died
TMP_MAX_AGE_S = 3600.0
#: how far the time pin reaches back before its instant, so that a
#: filesystem with coarse timestamps cannot round a fresh write below it
CLOCK_SLACK_S = 2.0


@dataclass
class GCResult:
    """What one :func:`collect` pass removed (on a dry run: would)."""

    #: ``(kind, path, bytes)`` in pass order; ``kind`` is ``job``,
    #: ``entry``, ``store``, ``blob`` or ``temp``
    removed: List[Tuple[str, str, int]] = field(default_factory=list)
    #: bytes of cache entries plus trace stores before and after step 3
    budgeted_before: int = 0
    budgeted_after: int = 0

    @property
    def freed_bytes(self) -> int:
        return sum(size for _kind, _path, size in self.removed)


def collect(state_dir: Optional[str] = None,
            cache_dir: Optional[str] = None,
            trace_dir: Optional[str] = None,
            max_bytes: Optional[int] = None,
            keep_days: Optional[float] = None,
            dry_run: bool = False) -> GCResult:
    """Run the pass over exactly the dirs given (see the module doc).

    ``state_dir`` stands for the service's ``cache/``, ``traces/`` and
    ``jobs/`` (``cache_dir`` and ``trace_dir`` replace the first two);
    with no dir at all the pass covers the default analysis cache.
    ``max_bytes=None`` evicts nothing and ``keep_days=None`` expires no
    job.  ``dry_run`` decides everything and deletes nothing.
    """
    from repro.tools.cache import AnalysisCache

    start = time.time()
    if state_dir is not None:
        cache_dir = cache_dir or os.path.join(state_dir, "cache")
        trace_dir = trace_dir or os.path.join(state_dir, "traces")
    elif cache_dir is None and trace_dir is None:
        cache_dir = AnalysisCache().root
    result = GCResult()

    def remove(kind: str, path: str, size: int) -> None:
        result.removed.append((kind, path, size))
        if dry_run:
            return
        if kind in ("job", "store"):
            shutil.rmtree(path, ignore_errors=True)
        else:
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - raced
                pass

    # 1-2. expire old terminal jobs; the survivors pin what they name
    digests: Optional[Set[str]] = None
    live_stores: Set[str] = set()
    since = start
    if state_dir is not None:
        from repro.service.jobs import JobStore
        store = JobStore(state_dir)
        store.recover()
        cutoff = None if keep_days is None else start - keep_days * 86400.0
        for job in list(store.jobs.values()):
            if not job.terminal:
                # recover() reads a running record back as queued, so
                # every live job that ever started counts
                if job.started:
                    since = min(since, job.started)
                path = store.read_status(job.id).get("trace_path")
                if path:
                    live_stores.add(os.path.realpath(path))
            elif (cutoff is not None
                    and (job.finished or job.created) <= cutoff):
                job_dir = store.job_dir(job.id)
                remove("job", job_dir, _usage(job_dir)[0])
                del store.jobs[job.id]
        digests = {a.get("digest") for job in store.jobs.values()
                   for a in job.artifacts}
    fresh = since - CLOCK_SLACK_S

    locked = cache_dir and not dry_run and os.path.isdir(cache_dir)
    with (AnalysisCache(cache_dir, shared=True).writer_lock() if locked
          else nullcontext()):
        # 3. one budget over entries and stores, coldest first
        ranked = sorted(_entries(cache_dir, fresh)
                        + _stores(trace_dir, fresh, live_stores))
        left = sum(size for _used, _kind, _path, size, _pin in ranked)
        result.budgeted_before = left
        for _used, kind, path, size, pinned in ranked:
            if max_bytes is None or left <= max_bytes:
                break
            if not pinned:
                remove(kind, path, size)
                left -= size
        result.budgeted_after = left
        # 4. unpinned blobs, abandoned temp files
        if digests is not None:
            blobs = os.path.join(cache_dir, "blobs")
            for sub in _ls(blobs):
                for name in _ls(os.path.join(blobs, sub)):
                    path = os.path.join(blobs, sub, name)
                    if (name.endswith(".bin") and not name.startswith(".")
                            and name[:-4] not in digests):
                        st = _stat(path)
                        if st is not None and st.st_mtime < fresh:
                            remove("blob", path, st.st_size)
        stale = start - TMP_MAX_AGE_S
        jobs_dir = os.path.join(state_dir, "jobs") if state_dir else None
        for root in filter(None, (cache_dir, trace_dir, jobs_dir)):
            for dirpath, _dirs, files in os.walk(root):
                for name in sorted(files):
                    if not name.startswith(".tmp-"):
                        continue
                    path = os.path.join(dirpath, name)
                    st = _stat(path)
                    if st is not None and st.st_mtime <= stale:
                        remove("temp", path, st.st_size)

    if result.removed and not dry_run:
        _obs.counter("gc.removed").inc(len(result.removed))
        _obs.counter("gc.freed_bytes").inc(result.freed_bytes)
        logger.info("gc: removed %d item(s), freed %d bytes",
                    len(result.removed), result.freed_bytes)
    return result


# ---------------------------------------------------------------------------
# Scans: (last use, kind, path, bytes, pinned) per eviction candidate
# ---------------------------------------------------------------------------

def _entries(cache_dir: Optional[str], fresh: float) -> List[tuple]:
    """The keyed ``<key[:2]>/<key>.pkl`` entries: not blobs, quarantined
    files or temp files."""
    found = []
    for sub in _ls(cache_dir) if cache_dir else ():
        if len(sub) != 2:
            continue
        for name in _ls(os.path.join(cache_dir, sub)):
            path = os.path.join(cache_dir, sub, name)
            st = (_stat(path) if name.endswith(".pkl")
                  and not name.startswith(".") else None)
            if st is not None:
                found.append((max(st.st_atime, st.st_mtime), "entry", path,
                              st.st_size, st.st_mtime >= fresh))
    return found


def _stores(trace_dir: Optional[str], fresh: float,
            live: Set[str]) -> List[tuple]:
    """Finalized stores (digest-named dirs with an intact ``meta.json``);
    hidden in-flight ``.rec-*`` recordings and junk are not stores."""
    if not trace_dir:
        return []
    from repro.core.tracestore import load_trace
    found = []
    for name in _ls(trace_dir):
        path = os.path.join(trace_dir, name)
        if name.startswith(".") or not os.path.isdir(path):
            continue
        try:
            load_trace(path)
        except (OSError, ValueError, KeyError):
            continue
        size, used, written = _usage(path)
        found.append((used, "store", path, size,
                      written >= fresh or os.path.realpath(path) in live))
    return found


def _usage(path: str) -> Tuple[int, float, float]:
    """(bytes, last use, last write) over the files under ``path``.

    Every scan reads a store's ``meta.json``, so only the files a
    shard reads say when the store was last used.
    """
    size, used, written = 0, 0.0, 0.0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            st = _stat(os.path.join(dirpath, name))
            if st is None:
                continue
            size += st.st_size
            written = max(written, st.st_mtime)
            if name != "meta.json":
                used = max(used, st.st_atime, st.st_mtime)
    return size, used, written


def _ls(path: str) -> List[str]:
    """Sorted names in ``path``; [] when it is missing or not a dir."""
    try:
        return sorted(os.listdir(path))
    except (FileNotFoundError, NotADirectoryError):
        return []


def _stat(path: str) -> Optional[os.stat_result]:
    try:
        return os.stat(path)
    except OSError:  # pragma: no cover - raced a writer or another pass
        return None
