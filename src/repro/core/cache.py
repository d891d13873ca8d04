"""Content-addressed storage for compilation artifacts (two tiers).

Cache keys are *stable fingerprints* rather than object identities: a SHA-256
over the kernel's source hash (:attr:`repro.frontend.kernel.Kernel.source_fingerprint`),
the full specialization (argument types, constexpr values, warp count),
:meth:`CompileOptions.cache_key` and the hardware config.  Identical kernels
therefore share artifacts across :class:`~repro.gpusim.device.Device`
instances, across :meth:`Device.run_many` batches and -- with the disk tier
enabled -- across *processes*, while any edit to the kernel source, the
options, the specialization or the config produces a different key.

Two tiers:

* :class:`MemoryCache` -- an in-process LRU over finished
  :class:`~repro.core.compiler.CompiledKernel` artifacts (capacity via
  ``REPRO_CACHE_MEMORY_ENTRIES``, default 256).
* :class:`DiskCache` -- an optional persistent tier rooted at
  ``REPRO_CACHE_DIR``.  Each entry is one pickle holding the lowered module,
  resource metadata, options and artifact provenance, written atomically
  (temp file + ``os.replace``) and stamped with :data:`CACHE_VERSION`.
  Entries are self-invalidating: a version mismatch, key mismatch or *any*
  load failure (truncated pickle, unreadable file, transient ``OSError``,
  ENOSPC mid-write, incompatible class layout) is treated as a miss -- the
  damaged entry is *quarantined* (renamed to ``<entry>.corrupt``, counted by
  ``compile_disk_quarantined``, so the evidence survives for diagnosis while
  never matching a future lookup) and the kernel recompiled, never crashed
  on.  The :mod:`repro.faults` hooks in :meth:`DiskCache.load` /
  :meth:`DiskCache.store` exist so tests can inject exactly these failures.

Execution plans are not pickled (their instruction streams are closures);
the service rebuilds them eagerly while finalizing a disk-loaded artifact,
which is deterministic and cheap next to the pass pipeline the hit skipped.

The orchestration lives in :mod:`repro.core.service`; see
``docs/ARCHITECTURE.md`` for the full design.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from repro import faults
from repro.perf.counters import COUNTERS

#: Bump whenever the pickled payload layout or the semantics of compiled
#: artifacts change; every existing disk entry then self-invalidates.
CACHE_VERSION = 1

#: Environment variable naming the persistent tier's root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable overriding the in-process LRU capacity.
MEMORY_ENTRIES_ENV = "REPRO_CACHE_MEMORY_ENTRIES"

DEFAULT_MEMORY_ENTRIES = 256


def stable_digest(*parts: Any) -> str:
    """A SHA-256 hex digest over the ``repr`` of each part.

    Every part must have a deterministic ``repr`` (strings, numbers, tuples
    of those, frozen dataclasses) -- which is exactly what the fingerprint
    inputs are made of.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def artifact_fingerprint(kern, spec, options, config) -> str:
    """The content-addressed cache key of one compilation artifact.

    Args:
        kern: the frontend :class:`~repro.frontend.kernel.Kernel`.
        spec: its :class:`~repro.frontend.kernel.Specialization` (argument
            types, constexpr values, warp count).
        options: the :class:`~repro.core.options.CompileOptions`.
        config: the :class:`~repro.gpusim.config.H100Config` (frozen
            dataclass; its repr is deterministic).
    """
    return stable_digest(
        "repro-compile-artifact",
        CACHE_VERSION,
        kern.name,
        kern.source_fingerprint,
        spec.key(),
        options.cache_key(),
        config,
    )


class KeyedMutex:
    """Per-key mutual exclusion with waiter accounting (singleflight).

    :meth:`hold` yields ``True`` when another holder already owned (or was
    queued for) the same key at registration time -- i.e. this caller
    *waited* for an identical in-flight operation rather than starting its
    own.  :class:`~repro.core.service.CompilerService` brackets its compile
    body with this, keyed by the artifact fingerprint, so K concurrent
    requests for one (kernel, options, config) run the pass pipeline exactly
    once: the first registrant compiles, the other K-1 block, then find the
    finished artifact in the memory tier.  Entries are reference-counted and
    removed when the last holder releases, so the table only ever contains
    in-flight keys.
    """

    def __init__(self):
        self._guard = threading.Lock()
        #: key -> [lock, registrants]
        self._entries: dict[str, list] = {}

    def __len__(self) -> int:
        with self._guard:
            return len(self._entries)

    @contextmanager
    def hold(self, key: str,
             on_wait: Callable[[], None] | None = None) -> Iterator[bool]:
        """Hold ``key``'s mutex for the ``with`` body.

        ``on_wait`` runs under the table guard when this caller registers
        behind an existing holder -- the one race-free place to count a
        singleflight wait exactly once per waiter.
        """
        with self._guard:
            entry = self._entries.get(key)
            if entry is None:
                entry = [threading.Lock(), 0]
                self._entries[key] = entry
            waited = entry[1] > 0
            entry[1] += 1
            if waited and on_wait is not None:
                on_wait()
        entry[0].acquire()
        try:
            yield waited
        finally:
            entry[0].release()
            with self._guard:
                entry[1] -= 1
                if entry[1] == 0:
                    self._entries.pop(key, None)


class MemoryCache:
    """In-process LRU tier over compiled artifacts.

    ``capacity=0`` disables the tier (every lookup misses); a malformed or
    negative ``REPRO_CACHE_MEMORY_ENTRIES`` value falls back to the default
    rather than poisoning every compile in the process.

    Thread-safe: the serve layer compiles from worker threads (admission-time
    warm compiles racing the dispatch thread), so the LRU reorder in ``get``
    and the eviction loop in ``put`` are guarded by a mutex.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is None:
            raw = os.environ.get(MEMORY_ENTRIES_ENV, "").strip()
            try:
                capacity = int(raw) if raw else DEFAULT_MEMORY_ENTRIES
            except ValueError:
                capacity = DEFAULT_MEMORY_ENTRIES
            if capacity < 0:
                capacity = DEFAULT_MEMORY_ENTRIES
        elif capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def get(self, key: str) -> Any | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: str, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries


def quarantine(path: Path) -> bool:
    """Move a damaged disk entry out of the lookup namespace (best-effort).

    ``<name>.corrupt`` never matches a store's lookups, so the entry is a
    guaranteed miss while the bytes survive for diagnosis.  Falls back to
    unlinking when the rename fails (e.g. a read-only directory).  Returns
    whether the bytes were kept -- what the ``*_quarantined`` counters count.
    """
    try:
        os.replace(path, path.with_name(f"{path.name}.corrupt"))
        return True
    except OSError:
        pass
    try:
        os.unlink(path)
    except OSError:
        pass
    return False


def atomic_write(path: Path, write_fn: Callable[[Path], None],
                 quarantine_fn: Callable[[Path], None]) -> bool:
    """Persist ``path`` so concurrent processes only ever see complete entries.

    ``write_fn(tmp)`` fills a sibling temp file that ``os.replace`` moves into
    place.  Failures are swallowed (persistence is an optimization) and the
    partial temp file goes to ``quarantine_fn``.  Returns whether it wrote.
    """
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_fn(tmp)
        os.replace(tmp, path)
    except Exception:
        quarantine_fn(tmp)
        return False
    return True


class DiskCache:
    """Persistent tier: one atomically-written, version-stamped pickle per key."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def load(self, key: str) -> dict | None:
        """The payload stored for ``key``, or ``None`` (miss).

        Corrupted, stale-version, mismatched or unreadable (transient
        ``OSError``) entries are quarantined (best-effort rename to
        ``*.corrupt``) and reported as misses -- a damaged cache costs a
        recompile, never a crash.
        """
        path = self.path_for(key)
        try:
            faults.raise_injected_io("cache_read", path)
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            COUNTERS.compile_disk_errors += 1
            self._quarantine(path)
            return None
        if (not isinstance(payload, dict)
                or payload.get("version") != CACHE_VERSION
                or payload.get("key") != key):
            COUNTERS.compile_disk_errors += 1
            self._quarantine(path)
            return None
        return payload

    def store(self, key: str, payload: dict) -> bool:
        """Atomically persist ``payload`` under ``key``; failures are counted."""
        payload = dict(payload, version=CACHE_VERSION, key=key)
        path = self.path_for(key)

        def write(tmp: Path) -> None:
            faults.raise_injected_io("cache_write", path)
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)

        if not atomic_write(path, write, self._quarantine):
            COUNTERS.compile_disk_errors += 1
            return False
        COUNTERS.compile_disk_writes += 1
        return True

    @staticmethod
    def _quarantine(path: Path) -> None:
        if quarantine(path):
            COUNTERS.compile_disk_quarantined += 1


def resolve_disk_cache() -> DiskCache | None:
    """The persistent tier configured by ``REPRO_CACHE_DIR``, if any.

    Resolved per call (not cached) so tests and long-lived processes can
    toggle the tier through the environment.
    """
    root = os.environ.get(CACHE_DIR_ENV, "").strip()
    if not root:
        return None
    return DiskCache(Path(root))
