"""Persisted best-config tier for the autotuner (``REPRO_TUNE_DIR``).

Best configurations live beside the compile-artifact cache as a second
content-addressed tier: one small, atomically-written JSON document per
tuning key.  Keys are stable fingerprints -- SHA-256 over the *kernel source
fingerprints* of every kernel the workload launches
(:attr:`repro.frontend.kernel.Kernel.source_fingerprint`), the problem
*class*, the hardware config and a caller-supplied problem-class qualifier --
never object identities.  Editing a kernel's source (or a module-level
constant its body reads) therefore changes the key and every previously
persisted best config for it silently misses: stale entries can never serve
a mutated kernel.

Like the compile cache's disk tier, entries are self-invalidating: a version
mismatch, key mismatch or any load failure (truncated JSON, transient
``OSError``, unknown options field after a ``CompileOptions`` schema change)
is treated as a miss and the entry *quarantined* -- renamed to
``<entry>.corrupt`` (counted by ``tune_store_quarantined``) so the evidence
survives while never matching a future lookup.  A damaged store costs a
re-tune, never a crash; the :mod:`repro.faults` hooks in
:meth:`TuneStore.load` / :meth:`TuneStore.store` let tests inject exactly
these failures (``match=`` the tune directory to scope a fault to this
tier).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Sequence
from typing import Any

from repro import faults
from repro.core.cache import atomic_write, quarantine, stable_digest
from repro.core.options import CompileOptions
from repro.perf.counters import COUNTERS

#: Bump whenever the persisted layout or the meaning of stored fields changes.
TUNE_VERSION = 1

#: Environment variable naming the persistent tier's root directory.
TUNE_DIR_ENV = "REPRO_TUNE_DIR"


def tuning_key(kernel_fingerprints: Sequence[str], problem_class: type,
               config, qualifier: str = "") -> str:
    """The content-addressed key of one tuning result.

    Keyed by kernel fingerprint(s) + problem class + sim config (plus an
    optional caller qualifier, e.g. a problem-size bucket): the tuned
    configuration transfers across problem instances of one class on one
    simulated chip, but never across kernel edits or hardware configs.
    """
    return stable_digest(
        "repro-tuned-config",
        TUNE_VERSION,
        tuple(kernel_fingerprints),
        f"{problem_class.__module__}.{problem_class.__qualname__}",
        config,
        qualifier,
    )


@dataclass(frozen=True)
class TunedRecord:
    """One persisted tuning result."""

    key: str
    workload: str
    options: CompileOptions
    problem_overrides: tuple[tuple[str, Any], ...]
    measured_tflops: float
    default_tflops: float
    predicted_tflops: float
    measurements: int

    def payload(self) -> dict:
        return {
            "version": TUNE_VERSION,
            "key": self.key,
            "workload": self.workload,
            "options": dataclasses.asdict(self.options),
            "problem_overrides": [list(kv) for kv in self.problem_overrides],
            "measured_tflops": self.measured_tflops,
            "default_tflops": self.default_tflops,
            "predicted_tflops": self.predicted_tflops,
            "measurements": self.measurements,
        }

    @staticmethod
    def from_payload(payload: dict) -> "TunedRecord":
        options = CompileOptions(**payload["options"])
        overrides = tuple((str(k), v) for k, v in payload["problem_overrides"])
        return TunedRecord(
            key=payload["key"],
            workload=payload["workload"],
            options=options,
            problem_overrides=overrides,
            measured_tflops=float(payload["measured_tflops"]),
            default_tflops=float(payload["default_tflops"]),
            predicted_tflops=float(payload["predicted_tflops"]),
            measurements=int(payload["measurements"]),
        )


class TuneStore:
    """Persistent tier: one atomically-written JSON document per tuning key."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> TunedRecord | None:
        """The record stored for ``key``, or ``None`` (miss).

        Corrupted, stale-version, mismatched or unreadable (transient
        ``OSError``) entries are quarantined (best-effort rename to
        ``*.corrupt``) and reported as misses.
        """
        path = self.path_for(key)
        try:
            faults.raise_injected_io("cache_read", path)
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            COUNTERS.tune_store_misses += 1
            return None
        except Exception:
            self._quarantine(path)
            COUNTERS.tune_store_misses += 1
            return None
        try:
            if (not isinstance(payload, dict)
                    or payload.get("version") != TUNE_VERSION
                    or payload.get("key") != key):
                raise ValueError("version or key mismatch")
            record = TunedRecord.from_payload(payload)
        except Exception:
            # Includes CompileError on CompileOptions schema drift: a stored
            # field set the current dataclass rejects must re-tune, not crash.
            self._quarantine(path)
            COUNTERS.tune_store_misses += 1
            return None
        COUNTERS.tune_store_hits += 1
        return record

    def store(self, record: TunedRecord) -> bool:
        """Atomically persist one record; failures are swallowed."""
        path = self.path_for(record.key)

        def write(tmp: Path) -> None:
            faults.raise_injected_io("cache_write", path)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(record.payload(), fh, indent=2, sort_keys=True)

        return atomic_write(path, write, self._quarantine)

    @staticmethod
    def _quarantine(path: Path) -> None:
        if quarantine(path):
            COUNTERS.tune_store_quarantined += 1


def resolve_tune_store() -> TuneStore | None:
    """The persistent tier configured by ``REPRO_TUNE_DIR``, if any.

    Resolved per call (not cached) so tests and long-lived processes can
    toggle the tier through the environment.
    """
    root = os.environ.get(TUNE_DIR_ENV, "").strip()
    if not root:
        return None
    return TuneStore(Path(root))
