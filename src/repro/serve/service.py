"""The asyncio simulation service: many clients, one warm simulator stack.

:class:`SimService` multiplexes concurrent launch/sweep requests from many
clients onto one :class:`~repro.gpusim.device.Device` (and, through it, one
warm :class:`~repro.gpusim.pool.WorkerPool`, one process-wide compile cache
and one plan/codegen artifact store).  Four mechanisms make throughput the
headline number:

1. **Singleflight compile dedup.**  Admission of a cold request spawns a
   *warm-compile* thread per launch spec; :class:`~repro.core.service.
   CompilerService` collapses concurrent compiles of one content fingerprint
   onto a single pass-pipeline execution (the keyed in-flight table added
   for this layer), so K concurrent cold requests for one (kernel, options,
   config) cost exactly one compile -- across every artifact kind (lowered
   module, execution plans, vectorized codegen, in-pipeline analysis).

2. **Admission + coalescing queue.**  Requests drain into micro-batches
   under a max-size / max-delay policy and dispatch as **one**
   :meth:`Device.run_many` batch, so the executor's pipelining (prepare of
   launch *i+1* overlapped with execution of *i*) works across requests
   from unrelated clients.  Requests carrying an identical *coalesce key*
   -- queued **or already in flight** -- attach to the existing slot
   instead of dispatching their own copy of the work.

3. **Per-client streaming completion.**  Executor work runs in a worker
   thread (the event loop keeps admitting while the simulator runs), and
   each request's future resolves the moment *its* launches finish inside
   the batch -- not when the whole batch drains -- via the
   ``run_many(on_result=...)`` streaming hook.  The admission queue is
   bounded (:class:`Busy` is raised when full), and a per-request deadline
   or a cancelled client frees the batch slot at dispatch-formation time.

4. **Front ends.**  :class:`~repro.serve.client.AsyncClient` wraps this
   class in-process; ``python -m repro.serve`` exposes it over a JSON-lines
   TCP endpoint (:mod:`repro.serve.server`).

Every knob reads a ``REPRO_SERVE_*`` environment default (see
:meth:`ServePolicy.from_env` and the README's "Serving" table).

Determinism: the service adds *no* execution semantics of its own -- a
request's launches run through the same ``Device.run_many`` path a direct
caller would use, so its :class:`LaunchResult`\\ s are bit-identical to a
direct batch of the same specs (pinned by the serve-vs-direct differential
tests).
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import Any

from repro.gpusim.device import Device
from repro.gpusim.executors import compile_spec
from repro.gpusim.launch import LaunchResult, LaunchSpec
from repro.perf.counters import COUNTERS

#: Environment defaults for :meth:`ServePolicy.from_env`.
MAX_BATCH_ENV = "REPRO_SERVE_MAX_BATCH"
MAX_DELAY_MS_ENV = "REPRO_SERVE_MAX_DELAY_MS"
QUEUE_LIMIT_ENV = "REPRO_SERVE_QUEUE_LIMIT"
WARM_COMPILES_ENV = "REPRO_SERVE_WARM_COMPILES"


class ServeError(Exception):
    """Base class of every typed serve-layer failure."""


class Busy(ServeError):
    """Load shed: the admission queue is full; retry later.

    Carries the queue state so clients (and the TCP endpoint's JSON reply)
    can report honest backpressure instead of a generic failure.
    """

    def __init__(self, admitted: int, limit: int):
        super().__init__(
            f"serve queue full ({admitted}/{limit} requests admitted); retry")
        self.admitted = admitted
        self.limit = limit


class DeadlineExceeded(ServeError):
    """The request's deadline expired before its batch dispatched."""


class ServiceClosed(ServeError):
    """The service is shut down and no longer admits requests."""


@dataclass(frozen=True)
class ServePolicy:
    """Admission / batching knobs of a :class:`SimService`.

    * ``max_batch`` -- most request slots dispatched as one
      ``Device.run_many`` micro-batch.
    * ``max_delay`` -- seconds the batcher waits for followers after the
      first request of a batch arrives (0 dispatches immediately, still
      draining whatever is already queued).
    * ``queue_limit`` -- bound on concurrently admitted requests; admission
      beyond it raises :class:`Busy`.  Requests that coalesce onto an
      existing slot are exempt (they add no dispatch work).
    * ``warm_compiles`` -- start a compile thread per cold admitted spec so
      the singleflighted compiler service works ahead of dispatch.
    """

    max_batch: int = 8
    max_delay: float = 0.002
    queue_limit: int = 256
    warm_compiles: bool = True

    @classmethod
    def from_env(cls) -> "ServePolicy":
        def _int(env: str, default: int) -> int:
            raw = os.environ.get(env, "").strip()
            try:
                return int(raw) if raw else default
            except ValueError:
                return default

        delay_ms = os.environ.get(MAX_DELAY_MS_ENV, "").strip()
        try:
            max_delay = float(delay_ms) / 1e3 if delay_ms else cls.max_delay
        except ValueError:
            max_delay = cls.max_delay
        return cls(
            max_batch=max(1, _int(MAX_BATCH_ENV, cls.max_batch)),
            max_delay=max(0.0, max_delay),
            queue_limit=max(1, _int(QUEUE_LIMIT_ENV, cls.queue_limit)),
            warm_compiles=os.environ.get(WARM_COMPILES_ENV, "1")
            not in ("0", "false", "off"),
        )


@dataclass
class Job:
    """One serve request, strategy-agnostic.

    ``build`` runs in the dispatch thread (never on the event loop) and
    returns the request's launch pipeline; ``finish`` runs there too, after
    the request's last launch collects, and shapes the value delivered to
    every waiter (default: the plain list of results).  ``warm`` lists specs
    known at admission time, eligible for warm compilation.
    """

    build: Callable[[Device], list[LaunchSpec]]
    key: str | None = None
    finish: Callable[[list[LaunchResult]], Any] | None = None
    warm: Sequence[LaunchSpec] = ()


@dataclass
class _Waiter:
    future: asyncio.Future
    deadline: float | None


class _Slot:
    """One dispatchable unit: a job plus every request coalesced onto it."""

    __slots__ = ("job", "waiters", "specs", "results", "remaining")

    def __init__(self, job: Job):
        self.job = job
        self.waiters: list[_Waiter] = []
        self.specs: list[LaunchSpec] | None = None
        self.results: list[LaunchResult | None] = []
        self.remaining = -1  # launches still in flight; -1 = not dispatched


_SHUTDOWN = object()


class SimService:
    """An asyncio front door over one simulated device (see module docs).

    Use as an async context manager (or call :meth:`start` / :meth:`close`):

    >>> async with SimService(Device(mode="functional", workers=2)) as service:
    ...     result = await service.submit(spec)
    """

    def __init__(self, device: Device | None = None,
                 policy: ServePolicy | None = None):
        self.device = device if device is not None else Device(mode="functional")
        self.policy = policy if policy is not None else ServePolicy.from_env()
        self._queue: asyncio.Queue | None = None
        self._queued: dict[str, _Slot] = {}
        self._inflight: dict[str, _Slot] = {}
        self._admitted = 0
        self._batcher: asyncio.Task | None = None
        self._warm_tasks: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False

    # ------------------------------------------------------------------ lifecycle

    async def start(self) -> "SimService":
        if self._batcher is not None:
            return self
        if self._closed:
            raise ServiceClosed("service already closed")
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._batcher = asyncio.create_task(self._batch_loop(),
                                            name="repro-serve-batcher")
        return self

    async def close(self) -> None:
        """Stop admitting, drain in-flight work, fail whatever never ran."""
        if self._closed:
            return
        self._closed = True
        if self._batcher is not None:
            self._queue.put_nowait(_SHUTDOWN)
            await self._batcher
            self._batcher = None
        # Everything the batcher never formed into a batch.
        while self._queue is not None and not self._queue.empty():
            slot = self._queue.get_nowait()
            if slot is _SHUTDOWN:
                continue
            self._resolve(slot, None, ServiceClosed("service closed"))
        self._queued.clear()
        if self._warm_tasks:
            await asyncio.gather(*list(self._warm_tasks),
                                 return_exceptions=True)
            self._warm_tasks.clear()

    async def __aenter__(self) -> "SimService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ admission

    async def submit(self, spec: LaunchSpec, *, key: str | None = None,
                     timeout: float | None = None) -> LaunchResult:
        """Admit one launch; resolves to its :class:`LaunchResult`.

        ``key`` opts the request into identical-launch coalescing: every
        concurrently admitted request with the same key shares one execution
        (and one result object) -- callers asserting that their requests are
        interchangeable.  ``timeout`` is the admission-to-dispatch deadline
        in seconds; a request still queued when it expires fails with
        :class:`DeadlineExceeded` and frees its batch slot.  Once a request
        dispatches it always runs to completion.
        """
        job = Job(build=lambda device: [spec], key=key,
                  finish=lambda results: results[0], warm=(spec,))
        return await self.submit_job(job, timeout=timeout)

    async def submit_pipeline(self, specs: Sequence[LaunchSpec], *,
                              key: str | None = None,
                              timeout: float | None = None,
                              ) -> list[LaunchResult]:
        """Admit a multi-launch pipeline (e.g. split-K's two launches).

        The launches run in order within one dispatch batch (later launches
        may consume earlier launches' output buffers); the request resolves
        when the last one collects.
        """
        specs = list(specs)
        job = Job(build=lambda device: list(specs), key=key, warm=specs)
        return await self.submit_job(job, timeout=timeout)

    async def submit_workload(self, name: str, params: dict | None = None, *,
                              coalesce: bool = True,
                              timeout: float | None = None) -> dict:
        """Admit a registered workload by name; resolves to a JSON-able reply.

        Input buffers are materialized by the service (in the dispatch
        thread), so two requests naming the same (workload, problem) are
        interchangeable by construction -- they coalesce by default.
        """
        from repro.serve import protocol

        job = protocol.workload_job(name, params, coalesce=coalesce)
        return await self.submit_job(job, timeout=timeout)

    async def submit_job(self, job: Job, *,
                         timeout: float | None = None) -> Any:
        """Admit a :class:`Job` (the generic path under every front end)."""
        if self._closed:
            raise ServiceClosed("service closed")
        if self._batcher is None:
            await self.start()
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        COUNTERS.serve_requests += 1

        slot = None
        if job.key is not None:
            slot = self._queued.get(job.key) or self._inflight.get(job.key)
        if slot is not None:
            COUNTERS.serve_coalesced_requests += 1
        else:
            if self._admitted >= self.policy.queue_limit:
                COUNTERS.serve_shed_requests += 1
                raise Busy(self._admitted, self.policy.queue_limit)
            slot = _Slot(job)
            if job.key is not None:
                self._queued[job.key] = slot
            self._queue.put_nowait(slot)
            if self.policy.warm_compiles:
                self._start_warm_compiles(job)

        waiter = _Waiter(loop.create_future(), deadline)
        slot.waiters.append(waiter)
        self._admitted += 1
        return await waiter.future

    def stats(self) -> dict:
        """Queue-state snapshot (observability; counters live in perf)."""
        return {
            "admitted": self._admitted,
            "queued_slots": self._queue.qsize() if self._queue else 0,
            "inflight_keys": len(self._inflight),
            "closed": self._closed,
        }

    # ------------------------------------------------------------------ warm compiles

    def _start_warm_compiles(self, job: Job) -> None:
        """Compile a cold request's kernels ahead of its dispatch.

        One thread per spec, through the singleflighted compiler service, so
        K concurrent identical cold requests produce 1 leader + K-1 waiters
        instead of K pipeline executions -- and distinct kernels compile in
        parallel while earlier batches still occupy the dispatch thread.
        Failures are swallowed here; the dispatch path will surface the same
        (deterministic) CompileError on the request's own future.
        """
        for spec in job.warm:
            if hasattr(spec.kernel, "module"):  # already a compiled artifact
                continue
            task = asyncio.create_task(
                asyncio.to_thread(self._warm_compile, spec),
                name="repro-serve-warm-compile")
            self._warm_tasks.add(task)
            task.add_done_callback(self._warm_tasks.discard)

    def _warm_compile(self, spec: LaunchSpec) -> None:
        try:
            compiled = compile_spec(self.device.executor_settings(),
                                    spec.kernel, spec.args, spec.constexprs,
                                    spec.options)
        except Exception:
            return
        # Bind the artifact back into the spec (the same in-place substitution
        # build_sweep_specs performs) so the dispatch thread's prepare skips
        # the compile-service lookup entirely.  Racing dispatch is benign:
        # prepare reads spec.kernel once and both values resolve to the same
        # content-addressed artifact.
        spec.kernel = compiled

    # ------------------------------------------------------------------ batching

    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if first is _SHUTDOWN:
                return
            batch = [first]
            stop = False
            horizon = loop.time() + self.policy.max_delay
            while len(batch) < self.policy.max_batch:
                remaining = horizon - loop.time()
                if remaining <= 0:
                    try:
                        nxt = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                else:
                    try:
                        nxt = await asyncio.wait_for(self._queue.get(),
                                                     remaining)
                    except asyncio.TimeoutError:
                        break
                if nxt is _SHUTDOWN:
                    stop = True
                    break
                batch.append(nxt)
            live = self._form_batch(batch, loop.time())
            if live:
                COUNTERS.serve_batches += 1
                try:
                    await asyncio.to_thread(self._dispatch, live)
                except BaseException as exc:
                    for slot in live:
                        if slot.remaining != 0:
                            self._resolve(slot, None, exc)
                    if isinstance(exc, asyncio.CancelledError):
                        raise
            if stop:
                return

    def _form_batch(self, batch: list[_Slot], now: float) -> list[_Slot]:
        """Prune dead requests; move surviving keyed slots to in-flight.

        A waiter whose client cancelled, or whose deadline passed, is
        dropped here -- *before* any work is built or dispatched -- so its
        batch slot is genuinely freed.  A slot left with no live waiters is
        discarded entirely.
        """
        live = []
        for slot in batch:
            if slot.job.key is not None and \
                    self._queued.get(slot.job.key) is slot:
                del self._queued[slot.job.key]
            keep = []
            for waiter in slot.waiters:
                if waiter.future.cancelled():
                    COUNTERS.serve_cancelled_drops += 1
                    self._admitted -= 1
                elif waiter.deadline is not None and now > waiter.deadline:
                    COUNTERS.serve_deadline_drops += 1
                    self._admitted -= 1
                    waiter.future.set_exception(DeadlineExceeded(
                        "request deadline expired before dispatch"))
                else:
                    keep.append(waiter)
            slot.waiters = keep
            if keep:
                live.append(slot)
                if slot.job.key is not None:
                    self._inflight[slot.job.key] = slot
        return live

    # ------------------------------------------------------------------ dispatch

    def _dispatch(self, live: list[_Slot]) -> None:
        """Run one micro-batch (worker thread; the loop keeps admitting).

        All slots' launches flatten into a single ``Device.run_many`` call,
        so the executor pipelines across client boundaries; the streaming
        ``on_result`` hook resolves each slot the moment its own last launch
        collects.  A slot whose ``build`` raises fails alone; a launch
        failure aborts the batch's unresolved remainder (already-streamed
        slots keep their results).
        """
        flat_specs: list[LaunchSpec] = []
        slot_of: list[tuple[_Slot, int]] = []
        for slot in live:
            try:
                specs = slot.job.build(self.device)
            except Exception as exc:
                slot.remaining = 0
                self._post(slot, None, exc)
                continue
            slot.specs = specs
            slot.results = [None] * len(specs)
            slot.remaining = len(specs)
            if not specs:
                self._post(slot, [], None)
                continue
            for local, spec in enumerate(specs):
                flat_specs.append(spec)
                slot_of.append((slot, local))
        if not flat_specs:
            return
        COUNTERS.serve_batched_launches += len(flat_specs)

        def on_result(index: int, result: LaunchResult) -> None:
            slot, local = slot_of[index]
            slot.results[local] = result
            slot.remaining -= 1
            if slot.remaining == 0:
                finish = slot.job.finish
                value = finish(slot.results) if finish else list(slot.results)
                self._post(slot, value, None)

        self.device.run_many(flat_specs, on_result=on_result)

    def _post(self, slot: _Slot, value: Any, exc: BaseException | None) -> None:
        """Hand a finished slot back to the event loop (thread-safe)."""
        self._loop.call_soon_threadsafe(self._resolve, slot, value, exc)

    def _resolve(self, slot: _Slot, value: Any,
                 exc: BaseException | None) -> None:
        """Resolve every waiter of a slot (runs on the event loop)."""
        if slot.job.key is not None and \
                self._inflight.get(slot.job.key) is slot:
            del self._inflight[slot.job.key]
        for waiter in slot.waiters:
            self._admitted -= 1
            if waiter.future.done():  # cancelled while in flight
                continue
            if exc is not None:
                waiter.future.set_exception(exc)
            else:
                waiter.future.set_result(value)
        slot.waiters = []
