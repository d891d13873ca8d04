"""Deterministic, process-wide fault injection for the simulator stack.

The persistent worker pool (:mod:`repro.gpusim.pool`) recovers from
worker death, worker hangs and corrupted pipe messages; the disk tiers
(:mod:`repro.core.cache`, :mod:`repro.tune.store`) recover from IO failures.
None of those paths can be tested deterministically without a way to *cause*
them on demand -- that is this package.

A :class:`FaultRegistry` holds a list of :class:`FaultSpec` records, each
describing one fault to inject (kill worker *k* at its *n*-th CTA, hang a
worker, corrupt a pipe message, fail a disk-cache read/write).  Hook sites
throughout the stack call :func:`fire` with their coordinates; the registry
decides -- deterministically, even under a fire probability -- whether the
fault triggers.  Fire budgets live in fork-shared memory, so a fault consumed
inside a worker process is consumed for the whole process tree: a supervised
retry of the same shard does not re-trigger it, which is what makes
kill/hang recovery testable at all.

Activation is either programmatic (:func:`inject_faults`, a context manager
that scopes a registry to a ``with`` block) or environmental (the
``REPRO_FAULTS`` variable, parsed once per distinct value -- used by the CI
chaos job to fault a real CLI run).  With neither active every hook is a
cheap no-op.

See ``docs/ARCHITECTURE.md`` section 6 for the spec grammar and the fault
model it drives.
"""

from repro.faults.registry import (
    FAULT_KINDS,
    FAULTS_ENV,
    FaultRegistry,
    FaultSpec,
    FaultSpecError,
    active_registry,
    fire,
    inject_faults,
    parse_faults,
    raise_injected_io,
    sync_fired,
)

__all__ = [
    "FAULT_KINDS",
    "FAULTS_ENV",
    "FaultRegistry",
    "FaultSpec",
    "FaultSpecError",
    "active_registry",
    "fire",
    "inject_faults",
    "parse_faults",
    "raise_injected_io",
    "sync_fired",
]
