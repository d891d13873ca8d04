"""Sharding and supervision policy for multi-process CTA execution.

All CTAs of a functional launch are independent -- each gets a fresh
:class:`~repro.gpusim.engine.Engine` and :class:`SMResources`, and distinct
CTAs write disjoint output tiles -- so grid execution is embarrassingly
parallel.  The persistent worker pool (:mod:`repro.gpusim.pool`) shards a
launch's CTA ids across its workers and merges the per-CTA results back in
launch order, which makes the merged
:class:`~repro.gpusim.launch.LaunchResult` bit-identical to the serial path.

This module holds the small, engine-independent policy pieces the pool's
supervisor (:class:`repro.gpusim.pool.PoolLaunch`) runs on:

* **Sharding.**  :func:`shard_cta_ids` forms shards round-robin (so
  data-dependent trip counts balance across workers, mirroring the
  stratified perf-mode sample); :class:`CtaShard` is the picklable work
  descriptor.
* **Worker count.**  :func:`resolve_workers` resolves ``Device(workers=N)``
  / ``REPRO_SIM_WORKERS``.
* **Supervision policy.**  :class:`SupervisorConfig` carries the per-shard
  progress deadline (:data:`SHARD_TIMEOUT_ENV` seconds without progress --
  workers send throttled heartbeats between CTAs, so long shards are not
  falsely killed) and the retry budget (:data:`SHARD_RETRIES_ENV` attempts
  with exponential backoff, then in-process serial re-execution of just the
  failed shard).  :class:`ShardState` is one shard's record in the
  supervision state machine (*forked* -> *running* -> *merged*, with
  *backoff* between attempts).
* **Injected hangs.**  :func:`_hang` is the worker-side body of a ``hang``
  fault: it heartbeats *without* progress, which the deadline must see
  through.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.gpusim.engine import SimulationError

#: Seconds a worker may go without reporting progress before the parent
#: declares it hung and recovers.  ``0`` disables the deadline (and
#: heartbeats with it).
SHARD_TIMEOUT_ENV = "REPRO_SIM_SHARD_TIMEOUT"
DEFAULT_SHARD_TIMEOUT = 60.0

#: How many times a failed shard is retried on a respawned worker before the
#: parent degrades to re-executing it serially in-process.
SHARD_RETRIES_ENV = "REPRO_SIM_SHARD_RETRIES"
DEFAULT_SHARD_RETRIES = 2

#: Base delay before the first retry; doubles per subsequent attempt.
DEFAULT_RETRY_BACKOFF = 0.05


def fork_available() -> bool:
    """Whether this platform supports fork-based worker processes."""
    return hasattr(os, "fork") and "fork" in mp.get_all_start_methods()


def resolve_workers(workers: int | None = None,
                    env_var: str = "REPRO_SIM_WORKERS") -> int:
    """The effective worker count for a device.

    Explicit ``workers`` wins; otherwise the ``REPRO_SIM_WORKERS`` environment
    variable is consulted (``auto`` or ``0`` selects the machine's CPU count).
    The result is always >= 1; platforms without ``fork`` resolve to 1.
    """
    if workers is None:
        raw = os.environ.get(env_var, "").strip().lower()
        if raw in ("", "1"):
            return 1
        if raw in ("auto", "0"):
            workers = os.cpu_count() or 1
        else:
            try:
                workers = int(raw)
            except ValueError:
                raise SimulationError(
                    f"invalid {env_var}={raw!r}; expected an integer or 'auto'"
                ) from None
    else:
        workers = int(workers)
        if workers == 0:
            workers = os.cpu_count() or 1
    if workers < 0:
        raise SimulationError(f"invalid worker count {workers}")
    if workers > 1 and not fork_available():
        return 1
    return max(1, workers)


def resolve_shard_timeout(timeout: float | None = None) -> float:
    """The effective per-shard progress deadline in seconds (0 = disabled)."""
    if timeout is None:
        raw = os.environ.get(SHARD_TIMEOUT_ENV, "").strip()
        if not raw:
            return DEFAULT_SHARD_TIMEOUT
        try:
            timeout = float(raw)
        except ValueError:
            raise SimulationError(
                f"invalid {SHARD_TIMEOUT_ENV}={raw!r}; expected seconds (0 disables)"
            ) from None
    timeout = float(timeout)
    if timeout < 0 or not math.isfinite(timeout):
        raise SimulationError(f"invalid shard timeout {timeout}")
    return timeout


def resolve_shard_retries(retries: int | None = None) -> int:
    """The effective per-shard retry budget before serial fallback."""
    if retries is None:
        raw = os.environ.get(SHARD_RETRIES_ENV, "").strip()
        if not raw:
            return DEFAULT_SHARD_RETRIES
        try:
            retries = int(raw)
        except ValueError:
            raise SimulationError(
                f"invalid {SHARD_RETRIES_ENV}={raw!r}; expected an integer >= 0"
            ) from None
    retries = int(retries)
    if retries < 0:
        raise SimulationError(f"invalid shard retry count {retries}")
    return retries


@dataclass(frozen=True)
class SupervisorConfig:
    """The supervision policy one sharded launch runs under."""

    timeout: float = DEFAULT_SHARD_TIMEOUT
    retries: int = DEFAULT_SHARD_RETRIES
    backoff: float = DEFAULT_RETRY_BACKOFF

    @property
    def heartbeat_interval(self) -> float:
        """Seconds between worker heartbeats (0 = heartbeats disabled).

        A quarter of the deadline keeps several heartbeats inside every
        deadline window, capped at one per second so fast shards do not
        spam the pipe.
        """
        if self.timeout <= 0:
            return 0.0
        return min(1.0, self.timeout / 4.0)

    def retry_delay(self, attempt: int) -> float:
        """Exponential backoff before retry ``attempt`` (1-based)."""
        return self.backoff * (2.0 ** max(0, attempt - 1))


@dataclass(frozen=True)
class CtaShard:
    """The picklable work descriptor handed to one worker process."""

    index: int
    cta_ids: tuple[int, ...]


#: Per-shard supervision states (ShardState.status).
FORKED = "forked"
RUNNING = "running"
BACKOFF = "backoff"
MERGED = "merged"
FAILED = "failed"


def shard_cta_ids(cta_ids: Sequence[int], num_workers: int) -> list[CtaShard]:
    """Split a launch's CTA ids round-robin into at most ``num_workers`` shards."""
    shards = [
        CtaShard(i, tuple(cta_ids[i::num_workers])) for i in range(num_workers)
    ]
    return [s for s in shards if s.cta_ids]


#: Bytes a pipe-corruption fault ships instead of the result tuple; not a
#: valid pickle, so the parent's recv raises and the supervisor recovers.
_CORRUPT_PAYLOAD = b"\xde\xad\xbe\xef repro fault: corrupted shard result"


def _hang(send_beat: Callable[[], None] | None, seconds: float,
          heartbeat_interval: float) -> None:
    """An injected hang: sleep ``seconds`` while heartbeating *without* progress.

    ``send_beat`` re-sends the worker's last progress report, so the beats
    keep the pipe chatty -- which is exactly what the progress deadline must
    see through: ``ctas_done`` never advances, so a correctly implemented
    supervisor still times the shard out.  The parent's deadline (not
    ``seconds``) is what normally ends the hang.
    """
    end = time.monotonic() + seconds
    tick = heartbeat_interval if heartbeat_interval > 0 else 0.25
    while True:
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(tick, remaining))
        if send_beat is not None and heartbeat_interval > 0:
            try:
                send_beat()
            except OSError:  # parent already gave up on us
                return


class ShardState:
    """One shard's supervision record: status, deadline, attempts."""

    __slots__ = ("shard", "status", "attempts", "deadline", "retry_at",
                 "last_progress", "last_failure")

    def __init__(self, shard: CtaShard):
        self.shard = shard
        self.status = FORKED
        self.attempts = 0          # dispatches so far (1 after the first)
        self.deadline = math.inf   # monotonic instant the shard is declared hung
        self.retry_at = 0.0        # monotonic instant a scheduled retry fires
        self.last_progress = 0     # CTAs the live worker has reported done
        self.last_failure = None   # reason string of the most recent failure

    @property
    def live(self) -> bool:
        return self.status in (FORKED, RUNNING)
