"""On-disk analysis cache: content-addressed reuse-analysis results.

Reuse-distance analysis is deterministic: the pattern databases depend only
on the program (its AST, data layout, and index-array contents), the run
parameters, the machine configuration's granularities, and the analysis
knobs.  Hashing all of those yields a content address under which the
serialized analyzer state (plus run statistics) is stored, so repeat runs —
re-invocations of the CLI, sweep drivers re-spanning overlapping grids —
short-circuit to a file read.

Invalidation is purely structural: any change to the kernel body, array
placement or backing values, parameters, machine config, miss model, engine
selection, or the schema version produces a different key.  Nothing is ever
looked up by name alone, so stale hits are impossible; stale *entries* are
merely unreferenced files.

Layout: ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) /
``<key[:2]>/<key>.pkl``, written atomically (temp file + ``os.replace``) so
concurrent sweep workers never observe partial entries.

Concurrent sharing: ``AnalysisCache(shared=True)`` turns on the
*read-mostly concurrent mode* the analysis service uses when several
in-process sessions (and their worker processes) share one cache
directory.  Writers serialize through an advisory ``flock`` on
``<root>/.writer.lock`` and prefix every entry with the sha256 of its
payload bytes; readers stay completely lock-free — they re-hash the
payload against the prefix and treat any mismatch (bit rot, torn
write on a non-POSIX filesystem, a racing copy) exactly like a corrupt
entry: quarantine + recompute.  Non-shared caches read shared-format
entries transparently, and vice versa, so a directory can be shared
later without invalidation.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, Optional

try:  # POSIX advisory locks for the shared writer path
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from repro.lang.ast import Call, Loop, Program, ScalarAssign, Stmt
from repro.obs import metrics as _obs
from repro.testing import faults as _faults
from repro.tools.atomicio import atomic_write_bytes

logger = logging.getLogger("repro.tools.cache")

#: Exceptions that mean "this entry is damaged or unreadable", as opposed
#: to FileNotFoundError ("this entry was never written").  Unpickling a
#: truncated or garbage file raises UnpicklingError/EOFError/ValueError
#: (and, for mangled class references, AttributeError/ImportError/
#: IndexError); any other OSError is an I/O-level failure of the entry.
_CORRUPT_ERRORS = (OSError, pickle.UnpicklingError, EOFError, ValueError,
                   AttributeError, ImportError, IndexError)

#: Bump when the serialized payload layout or fingerprint recipe changes.
SCHEMA_VERSION = 1

#: Names the rule shard partials were cut by; change it with the rule, so
#: partials of an older cut never merge with a newer one's.
SHARD_CUT_RULE = "boundary-cuts:1"

#: Header prefix of digest-verified (shared-mode) entries.  The payload
#: pickle follows the newline; a pickle stream starts with b"\\x80" so
#: the two formats can never be confused.
_VERIFIED_MAGIC = b"repro-cache-sha256:"


def _walk_body(body: Iterable, emit) -> None:
    for node in body:
        if isinstance(node, Loop):
            emit(f"|loop:{node.var}:{node.lo!r}:{node.hi!r}:{node.step}"
                 f":{node.name}")
            _walk_body(node.body, emit)
            emit("|endloop")
        elif isinstance(node, Stmt):
            emit(f"|stmt:{node.ops}")
            for acc in node.accesses:
                emit(f"|acc:{acc!r}")
        elif isinstance(node, ScalarAssign):
            emit(f"|assign:{node.var}:{node.expr!r}")
        elif isinstance(node, Call):
            emit(f"|call:{node.callee}")
        else:  # pragma: no cover - defensive
            emit(f"|node:{node!r}")


def program_fingerprint(program: Program) -> str:
    """Deterministic digest of everything that shapes the event stream.

    Covers the routine bodies (expression reprs are deterministic), the
    data layout (names, bases, shapes, strides, element sizes, fields),
    index-array backing values, program parameters, and the entry point.
    """
    h = hashlib.sha256()

    def emit(text: str) -> None:
        h.update(text.encode())

    emit(f"repro-fingerprint:{SCHEMA_VERSION}")
    emit(f"|name:{program.name}|entry:{program.entry}")
    emit(f"|params:{sorted(program.params.items())!r}")
    for obj in program.layout.symtab.objects():
        emit(f"|obj:{obj.name}:{obj.base}:{obj.shape}:{obj.strides}"
             f":{obj.elem_size}:{obj.origin}:{obj.fields}")
        if obj.values is not None:
            values = obj.values
            if hasattr(values, "tobytes"):
                h.update(values.tobytes())
            else:  # pragma: no cover - plain-sequence backing store
                emit(repr(list(values)))
    for name in sorted(program.routines):
        emit(f"|routine:{name}")
        _walk_body(program.routines[name].body, emit)
    return h.hexdigest()


class AnalysisCache:
    """Content-addressed store for serialized analysis results.

    Parameters
    ----------
    root:
        Cache directory.  Defaults to ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro``.
    fsync:
        Fsync every entry before the atomic rename.  Off by default:
        the cache is a recomputable artifact, so losing an entry to a
        power cut only costs a recompute.
    shared:
        Read-mostly concurrent mode.  Writers serialize through an
        advisory lock file and write digest-prefixed entries; readers
        take no lock and verify the digest on every read (a mismatch
        degrades to a quarantined miss).  For cache directories shared
        by multiple live sessions — the analysis service turns it on.
    """

    #: Subdirectory corrupt entries are moved to (see :meth:`quarantine`).
    QUARANTINE_DIR = "quarantine"
    #: Advisory lock file shared-mode writers serialize through.
    LOCK_NAME = ".writer.lock"

    def __init__(self, root: Optional[str] = None,
                 fsync: bool = False, shared: bool = False) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or os.path.join(
                os.path.expanduser("~"), ".cache", "repro")
        self.root = str(root)
        self.fsync = bool(fsync)
        self.shared = bool(shared)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.quarantined = 0
        self.verified_reads = 0
        self._obs_hits = _obs.counter("cache.hits")
        self._obs_misses = _obs.counter("cache.misses")
        self._obs_corrupt = _obs.counter("cache.corrupt")
        self._obs_evictions = _obs.counter("cache.evictions")
        self._obs_quarantined = _obs.counter("cache.quarantined")
        self._obs_verified = _obs.counter("cache.verified_reads")
        self._obs_lock_waits = _obs.counter("cache.writer_lock_waits")

    # -- shared-mode writer lock ----------------------------------------

    @contextmanager
    def writer_lock(self) -> Iterator[None]:
        """Serialize writers in shared mode; free in exclusive mode.

        An advisory ``flock`` on ``<root>/.writer.lock``: cheap,
        reentrant across entries (one lock per put), released even on
        error, and a no-op where ``fcntl`` is unavailable — atomic
        renames alone already prevent torn reads there, the lock only
        adds write ordering under heavy contention.
        """
        if not self.shared or fcntl is None:
            yield
            return
        os.makedirs(self.root, exist_ok=True)
        fd = os.open(os.path.join(self.root, self.LOCK_NAME),
                     os.O_CREAT | os.O_RDWR, 0o644)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self._obs_lock_waits.inc()
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    # -- keys -----------------------------------------------------------

    def key_for(self, program: Program, params: Dict[str, int],
                config, miss_model: str, engine: str) -> str:
        """Content address for one analysis run."""
        h = hashlib.sha256()
        h.update(repr((
            SCHEMA_VERSION,
            "analysis",
            program_fingerprint(program),
            sorted(params.items()),
            repr(config),
            miss_model,
            engine,
        )).encode())
        return h.hexdigest()

    def trace_shard_key_for(self, digest: str, config, shards: int,
                            index: int) -> str:
        """Content address for one shard's partial analysis result.

        ``digest`` is a recorded trace's or a segment table's content
        digest; either covers the program and run parameters (identical
        event streams hash identically, in memory or spilled), so the
        key needs only the digest, the granularity-bearing config, the
        cut rule (:data:`SHARD_CUT_RULE`) and the (requested shard count,
        index) pair: cut points depend only on the content, the rule
        and the requested count, so a partial is reusable by any later
        run cutting the same content the same way.  The miss model
        never enters: partials are raw pattern databases, applied at
        predict time.  The merged result
        is stored under the plain :meth:`key_for` address, which
        sequential runs of any engine share.
        """
        h = hashlib.sha256()
        h.update(repr((
            SCHEMA_VERSION,
            f"trace-shard-{int(shards)}-{int(index)}",
            SHARD_CUT_RULE,
            digest,
            repr(config),
        )).encode())
        return h.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    # -- raw blobs ------------------------------------------------------

    def _blob_path(self, digest: str) -> str:
        return os.path.join(self.root, "blobs", digest[:2],
                            digest + ".bin")

    def has_blob(self, digest: str) -> bool:
        return os.path.exists(self._blob_path(digest))

    def put_blob(self, digest: str, data: bytes) -> bool:
        """Store raw bytes under their sha256 digest; True on a dedup hit.

        Identical bytes land at one address however many job records
        reference them.  A hit is not rewritten,
        but its mtime is refreshed: reusing a blob counts as writing it
        for the time pin of :func:`repro.tools.gc.collect`.  Both run
        under the writer lock, which the GC pass holds while it decides
        and deletes, so a blob is never refreshed and deleted at once.
        """
        path = self._blob_path(digest)
        with self.writer_lock():
            try:
                os.utime(path)
                return True
            except FileNotFoundError:
                atomic_write_bytes(path, data, fsync=self.fsync)
                return False

    def get_blob(self, digest: str) -> Optional[bytes]:
        """Return the blob's bytes, or None when missing or damaged.

        Bytes are re-hashed on read: a mismatch (bit rot, truncation)
        degrades to None so callers recompute instead of trusting
        corrupt state.
        """
        try:
            with open(self._blob_path(digest), "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        if hashlib.sha256(data).hexdigest() != digest:
            self.corrupt += 1
            self._obs_corrupt.inc()
            logger.warning("cache blob %s fails its digest; ignoring",
                           digest[:12])
            return None
        return data

    # -- storage --------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """Return the stored payload, or None on a miss.

        A missing file is a plain miss.  A damaged entry (truncated
        write, garbage bytes, unresolvable pickle) also degrades to a
        miss, is counted separately (``self.corrupt``, obs counter
        ``cache.corrupt``) and logged, and is *quarantined* — moved to
        ``<root>/quarantine/`` so the slot is free for the recompute's
        put and the same damaged bytes are never re-read on every
        lookup, while the evidence survives for post-mortems.

        Digest-prefixed entries (written by shared-mode caches) are
        verified byte-for-byte before unpickling — the lock-free read
        side of the concurrent mode; a failed verification is handled
        exactly like corruption.  Plain entries unpickle directly, so
        both modes read both formats.
        """
        path = self._path(key)
        try:
            _faults.fire("cache.get", key=key, path=path)
            with open(path, "rb") as handle:
                data = handle.read()
            if data.startswith(_VERIFIED_MAGIC):
                header, _, body = data.partition(b"\n")
                digest = header[len(_VERIFIED_MAGIC):].decode("ascii")
                if hashlib.sha256(body).hexdigest() != digest:
                    raise ValueError("entry payload fails its sha256 "
                                     "digest")
                self.verified_reads += 1
                self._obs_verified.inc()
                payload = pickle.loads(body)
            else:
                payload = pickle.loads(data)
        except FileNotFoundError:
            self.misses += 1
            self._obs_misses.inc()
            return None
        except _CORRUPT_ERRORS as exc:
            self.corrupt += 1
            self.misses += 1
            self._obs_corrupt.inc()
            self._obs_misses.inc()
            logger.warning("corrupt cache entry %s (%s: %s); "
                           "degrading to a miss", key[:12],
                           type(exc).__name__, exc)
            self.quarantine(key)
            return None
        self.hits += 1
        self._obs_hits.inc()
        return payload

    def quarantine(self, key: str) -> Optional[str]:
        """Move a damaged entry aside; returns its new path (or None).

        The move is an atomic same-filesystem rename, so a concurrent
        reader sees either the (corrupt) entry or a clean miss — never
        a half-moved file.
        """
        path = self._path(key)
        qdir = os.path.join(self.root, self.QUARANTINE_DIR)
        qpath = os.path.join(qdir, key + ".pkl")
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, qpath)
        except OSError as exc:  # pragma: no cover - races/permissions
            logger.warning("could not quarantine cache entry %s (%s: %s)",
                           key[:12], type(exc).__name__, exc)
            return None
        self.quarantined += 1
        self._obs_quarantined.inc()
        logger.warning("cache entry %s quarantined to %s", key[:12], qpath)
        return qpath

    def put(self, key: str, payload: Any) -> str:
        """Atomically store ``payload`` under ``key``; returns the path.

        Shared-mode caches take the writer lock for the duration of the
        write and prefix the entry with the payload's sha256, which is
        what lets every reader verify it without locking.
        """
        path = self._path(key)
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        if self.shared:
            data = (_VERIFIED_MAGIC
                    + hashlib.sha256(data).hexdigest().encode("ascii")
                    + b"\n" + data)
        with self.writer_lock():
            try:
                atomic_write_bytes(path, data, fsync=self.fsync)
            except Exception as exc:
                logger.warning("failed to write cache entry %s (%s: %s)",
                               key[:12], type(exc).__name__, exc)
                raise
        return path

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        count = 0
        for _dirpath, dirnames, filenames in os.walk(self.root):
            if self.QUARANTINE_DIR in dirnames:
                dirnames.remove(self.QUARANTINE_DIR)
            count += sum(1 for f in filenames if f.endswith(".pkl")
                         and not f.startswith(".tmp-"))
        return count

    def clear(self) -> int:
        """Delete every cache entry (quarantined ones included)."""
        removed = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for fname in filenames:
                if fname.endswith(".pkl"):
                    try:
                        os.unlink(os.path.join(dirpath, fname))
                        removed += 1
                    except OSError:  # pragma: no cover - races
                        pass
        self._obs_evictions.inc(removed)
        logger.info("cleared %d cache entries under %s", removed, self.root)
        return removed

    def __repr__(self) -> str:
        shared = ", shared" if self.shared else ""
        return (f"AnalysisCache({self.root!r}, hits={self.hits}, "
                f"misses={self.misses}, corrupt={self.corrupt}, "
                f"quarantined={self.quarantined}{shared})")
