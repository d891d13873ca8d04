"""Discrete-event simulation engine.

The engine executes a set of *agents* (one per warp group per CTA).  Agents
are Python generators produced by the IR interpreter; each ``yield`` hands the
engine an :class:`Effect` describing either a plain delay, an asynchronous
issue (TMA copy, WGMMA, cp.async) or a blocking wait (mbarrier generation,
outstanding-WGMMA count, aref protocol state).

Hardware resources are modelled per SM:

* :class:`TmaEngine` -- a single-server queue; a copy occupies the engine for
  ``bytes / bandwidth`` cycles and completes ``latency`` cycles later, at which
  point it credits its transaction bytes to an mbarrier slot.
* :class:`TensorCoreUnit` -- a single-server queue shared by all consumer warp
  groups of the SM; each WGMMA's service time is its FLOPs divided by the
  (width-dependent) sustained rate.
* :class:`CopyEngine` -- the cp.async path used by the non-warp-specialized
  baseline: same structure as TMA but with lower efficiency, and completion is
  tracked per warp group (``cp.async.wait_group`` semantics).

The engine also detects deadlock: if no events remain but agents are still
blocked, a :class:`DeadlockError` is raised with a description of every
blocked agent and the state of the barrier it waits on.  This is what catches
incorrect aref lowerings.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from collections.abc import Callable, Iterator

from repro.gpusim.config import H100Config


class SimulationError(Exception):
    """Raised for malformed simulation requests."""


class DeadlockError(SimulationError):
    """Raised when all remaining agents are blocked and no event can wake them."""


class ArefProtocolError(SimulationError):
    """Raised when put/get/consumed are applied to a slot in the wrong state."""


# ---------------------------------------------------------------------------
# Effects yielded by agents
# ---------------------------------------------------------------------------


class Effect:
    """Base class of everything an agent can yield to the engine."""

    __slots__ = ()


@dataclass(slots=True)
class Delay(Effect):
    """Advance this agent's local time by ``cycles``."""

    cycles: float


@dataclass(slots=True)
class DelayChain(Effect):
    """A batch of consecutive agent-local delays yielded as one effect.

    Produced by the plan compiler (:mod:`repro.gpusim.plan`) for runs of
    effect-free ops whose only engine interaction is a sequence of plain
    delays.  The engine advances the agent's clock through the *same sequence
    of float additions* the individual :class:`Delay` effects would have
    caused (so simulated cycle counts are bit-identical) but schedules a
    single wake-up event instead of one per delay.
    """

    delays: tuple[float, ...]


@dataclass(slots=True)
class WaitBarrier(Effect):
    """Block until an mbarrier slot has completed >= ``generation`` phases."""

    barrier: "MBarrier"
    generation: int


@dataclass(slots=True)
class TmaIssue(Effect):
    """Issue an asynchronous TMA copy that credits ``barrier`` on completion."""

    num_bytes: int
    barrier: "MBarrier" | None = None
    on_complete: Callable[[], None] | None = None


@dataclass(slots=True)
class CpAsyncIssue(Effect):
    """Issue an Ampere-style cp.async copy tracked per warp group."""

    num_bytes: int
    on_complete: Callable[[], None] | None = None


@dataclass(slots=True)
class CpAsyncWait(Effect):
    """Block until at most ``pendings`` cp.async copies of this agent remain."""

    pendings: int


@dataclass(slots=True)
class WgmmaIssue(Effect):
    """Issue an asynchronous WGMMA with the given FLOP count.

    ``chain`` identifies the accumulator chain (the static dot op) this issue
    extends; consecutive issues of the same chain are rate-limited when the
    accumulator is narrow (see :class:`TensorCoreUnit`).
    """

    flops: float
    dtype_bits: int = 16
    acc_n: int = 256
    chain: object = None


@dataclass(slots=True)
class WgmmaWait(Effect):
    """Block until at most ``pendings`` WGMMA issues of this agent remain."""

    pendings: int


@dataclass(slots=True)
class ArefPut(Effect):
    slot: "ArefSlotRuntime"


@dataclass(slots=True)
class ArefGet(Effect):
    slot: "ArefSlotRuntime"


@dataclass(slots=True)
class ArefConsumed(Effect):
    slot: "ArefSlotRuntime"


@dataclass(slots=True)
class CtaBarrier(Effect):
    """Named-barrier style synchronization among the CTA's agents."""

    barrier: "NamedBarrier"


# ---------------------------------------------------------------------------
# Synchronization objects
# ---------------------------------------------------------------------------


class MBarrier:
    """One transaction-barrier slot (Hopper ``mbarrier``).

    A *generation* completes when both its arrival count and its expected
    transaction bytes (if any) are satisfied.  Waiters wait for "at least G
    completed generations", which is the generalization of the hardware
    parity-bit wait used by the lowering (see docs/ARCHITECTURE.md).
    """

    def __init__(self, arrive_count: int, name: str = "mbar"):
        self.arrive_count = int(arrive_count)
        self.name = name
        self.arrivals = 0
        self.expected_tx = 0
        self.received_tx = 0
        self.completed = 0
        self.waiters: list[tuple["Agent", int]] = []

    # -- state transitions -------------------------------------------------------

    def arrive(self) -> bool:
        self.arrivals += 1
        return self._maybe_complete()

    def expect_tx(self, num_bytes: int) -> bool:
        self.expected_tx += int(num_bytes)
        return self._maybe_complete()

    def credit_tx(self, num_bytes: int) -> bool:
        self.received_tx += int(num_bytes)
        return self._maybe_complete()

    def _requirements_armed(self) -> bool:
        return self.arrive_count > 0 or self.expected_tx > 0

    def _maybe_complete(self) -> bool:
        if not self._requirements_armed():
            return False
        if self.arrivals < self.arrive_count:
            return False
        if self.expected_tx > 0 and self.received_tx < self.expected_tx:
            return False
        # Complete one generation and carry over any excess credits.
        self.arrivals -= self.arrive_count
        self.received_tx -= self.expected_tx
        self.expected_tx = 0
        self.completed += 1
        return True

    def satisfied(self, generation: int) -> bool:
        return self.completed >= generation

    def describe(self) -> str:
        return (
            f"{self.name}(completed={self.completed}, arrivals={self.arrivals}/"
            f"{self.arrive_count}, tx={self.received_tx}/{self.expected_tx})"
        )


class NamedBarrier:
    """A simple arrive-and-wait barrier for the agents of one CTA."""

    def __init__(self, count: int, name: str = "bar"):
        self.count = count
        self.name = name
        self.generation = 0
        self.arrived = 0
        self.waiters: list[tuple["Agent", int]] = []


class ArefSlotRuntime:
    """Runtime state of one aref slot when interpreting un-lowered tawa IR.

    The permitted transitions are exactly the operational semantics of the
    paper's Fig. 4 (EMPTY --put--> FULL --get--> BORROWED --consumed--> EMPTY);
    anything else raises :class:`ArefProtocolError`.
    """

    EMPTY, FULL, BORROWED = "empty", "full", "borrowed"

    def __init__(self, name: str = "aref"):
        self.name = name
        self.state = self.EMPTY
        self.payload = None
        self.put_waiters: list["Agent"] = []
        self.get_waiters: list["Agent"] = []

    def can_put(self) -> bool:
        return self.state == self.EMPTY

    def can_get(self) -> bool:
        return self.state == self.FULL

    def do_put(self, payload) -> None:
        if not self.can_put():
            raise ArefProtocolError(f"put on {self.name} while {self.state}")
        self.payload = payload
        self.state = self.FULL

    def do_get(self):
        if not self.can_get():
            raise ArefProtocolError(f"get on {self.name} while {self.state}")
        self.state = self.BORROWED
        return self.payload

    def do_consumed(self) -> None:
        if self.state != self.BORROWED:
            raise ArefProtocolError(f"consumed on {self.name} while {self.state}")
        self.state = self.EMPTY
        self.payload = None


# ---------------------------------------------------------------------------
# Per-SM resources
# ---------------------------------------------------------------------------


class _SingleServerQueue:
    """A resource processing requests one at a time at a configurable rate."""

    def __init__(self):
        self.free_at = 0.0
        self.busy_cycles = 0.0

    def submit(self, now: float, service_cycles: float, extra_latency: float = 0.0) -> float:
        """Returns the completion time of the request."""
        start = max(now, self.free_at)
        self.free_at = start + service_cycles
        self.busy_cycles += service_cycles
        return self.free_at + extra_latency


class TmaEngine(_SingleServerQueue):
    def __init__(self, config: H100Config, bandwidth_scale: float = 1.0):
        super().__init__()
        self.config = config
        self.bytes_per_cycle = config.tma_bytes_per_cycle * bandwidth_scale
        self.bytes_copied = 0

    def submit_copy(self, now: float, num_bytes: int) -> float:
        self.bytes_copied += num_bytes
        service = num_bytes / self.bytes_per_cycle
        return self.submit(now, service, self.config.tma_latency_cycles)


class CopyEngine(_SingleServerQueue):
    """cp.async copies (baseline path): slower and with a longer latency."""

    def __init__(self, config: H100Config, bandwidth_scale: float = 1.0):
        super().__init__()
        self.config = config
        self.bytes_per_cycle = (
            config.tma_bytes_per_cycle * config.cp_async_efficiency * bandwidth_scale
        )
        self.bytes_copied = 0

    def submit_copy(self, now: float, num_bytes: int) -> float:
        self.bytes_copied += num_bytes
        service = num_bytes / self.bytes_per_cycle
        return self.submit(now, service, self.config.cp_async_latency_cycles)


class TensorCoreUnit(_SingleServerQueue):
    """The SM's tensor core.

    Two constraints shape a WGMMA's completion time:

    * the shared unit processes issues one after another at the full
      (efficiency-derated) rate, and
    * each *accumulator chain* -- the sequence of WGMMAs extending one static
      dot's accumulator -- is limited to a fraction of peak when the
      accumulator tile is narrow (``wgmma_rate_fraction``).  A single chain of
      m64n128 WGMMAs cannot keep the unit busy, which is why enlarging the
      tile to N=256 (and the cooperative warp groups that make it fit) pays
      off in the paper's Fig. 12, while kernels with several independent
      chains (the two GEMMs of attention) can still fill the unit.
    """

    def __init__(self, config: H100Config):
        super().__init__()
        self.config = config
        self.flops_issued = 0.0
        self._chain_free_at: dict[object, float] = {}

    def submit_wgmma(self, now: float, flops: float, dtype_bits: int, acc_n: int,
                     chain: object = None) -> float:
        self.flops_issued += flops
        peak_rate = self.config.tc_flops_per_cycle(dtype_bits) * self.config.wgmma_efficiency
        service = flops / peak_rate
        unit_finish = self.submit(now, service)
        if chain is None:
            return unit_finish
        chain_rate = peak_rate * self.config.wgmma_rate_fraction(acc_n)
        chain_start = max(now, self._chain_free_at.get(chain, 0.0))
        chain_finish = chain_start + flops / chain_rate
        self._chain_free_at[chain] = chain_finish
        return max(unit_finish, chain_finish)


@dataclass
class SMResources:
    """The shared execution resources of one streaming multiprocessor."""

    config: H100Config
    bandwidth_scale: float = 1.0
    tma: TmaEngine = None
    copy: CopyEngine = None
    tensor_core: TensorCoreUnit = None

    def __post_init__(self):
        self.tma = TmaEngine(self.config, self.bandwidth_scale)
        self.copy = CopyEngine(self.config, self.bandwidth_scale)
        self.tensor_core = TensorCoreUnit(self.config)


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------


class Agent:
    """One simulated instruction stream (a warp group of one CTA)."""

    __slots__ = (
        "id", "name", "generator", "sm", "finished", "finish_time",
        "blocked_on", "outstanding_wgmma", "outstanding_cpasync",
        "wgmma_waiters", "busy_cycles", "_wgmma_parked", "_cpasync_parked",
        "resume",
    )

    def __init__(self, name: str, generator: Iterator[Effect], sm: SMResources):
        # Assigned by Engine.add_agent.  Ids are engine-local (not a process
        # -wide counter) so an agent's id is identical no matter which worker
        # process simulates its CTA -- part of the pooled-execution
        # determinism guarantee, and one less piece of global mutable state.
        self.id = -1
        self.name = name
        self.generator = generator
        self.sm = sm
        self.finished = False
        self.finish_time: float | None = None
        self.blocked_on: str | None = None
        # cp.async / wgmma bookkeeping (per warp group, like the hardware).
        self.outstanding_wgmma = 0
        self.outstanding_cpasync = 0
        self.wgmma_waiters: list[int] = []
        self.busy_cycles = 0.0
        # Parked wait thresholds (one per counter, see _wake_parked).
        self._wgmma_parked: int | None = None
        self._cpasync_parked: int | None = None
        # One reusable wake-up closure per agent (set by Engine.add_agent)
        # instead of a fresh lambda per scheduled resume.
        self.resume: Callable[[], None] | None = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Agent {self.name}>"


class Engine:
    """The discrete-event scheduler."""

    def __init__(self, config: H100Config, trace: list | None = None,
                 max_events: int = 50_000_000):
        self.config = config
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._agent_ids = itertools.count()
        self.agents: list[Agent] = []
        self.trace = trace
        self.max_events = max_events
        self.events_processed = 0

    # -- scheduling ----------------------------------------------------------------

    def schedule(self, time: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._queue, (time, next(self._seq), fn))

    def add_agent(self, agent: Agent, start_time: float = 0.0) -> None:
        agent.id = next(self._agent_ids)
        self.agents.append(agent)
        agent.resume = lambda: self._run_agent(agent)
        self.schedule(start_time, agent.resume)

    def record(self, agent: Agent | None, kind: str, detail: str = "") -> None:
        if self.trace is not None:
            self.trace.append((self.now, agent.name if agent else "-", kind, detail))

    # -- main loop -------------------------------------------------------------------

    def run(self) -> float:
        """Run until all agents finish.  Returns the final simulated time."""
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            self.events_processed += 1
            if self.events_processed > self.max_events:
                raise SimulationError(
                    f"simulation exceeded {self.max_events} events; "
                    f"likely a livelock or an unreasonably large workload"
                )
            time, _, fn = heappop(queue)
            if time > self.now:
                self.now = time
            fn()
        unfinished = [a for a in self.agents if not a.finished]
        if unfinished:
            details = "\n".join(
                f"  - {a.name}: blocked on {a.blocked_on or 'unknown'}" for a in unfinished
            )
            raise DeadlockError(
                f"deadlock: {len(unfinished)} agent(s) blocked with no pending events:\n{details}"
            )
        return self.now

    # -- agent driving ----------------------------------------------------------------

    def _run_agent(self, agent: Agent, send_value=None) -> None:
        """Advance an agent until it blocks, delays or finishes."""
        send = agent.generator.send
        while True:
            try:
                effect = send(send_value)
            except StopIteration:
                agent.finished = True
                agent.finish_time = self.now
                self.record(agent, "finish")
                return
            send_value = None
            agent.blocked_on = None

            if isinstance(effect, Delay):
                if effect.cycles <= 0:
                    continue
                agent.busy_cycles += effect.cycles
                resume_at = self.now + effect.cycles
                self.schedule(resume_at, agent.resume)
                return

            if isinstance(effect, DelayChain):
                # Replay the exact per-delay arithmetic of the unbatched path
                # (same float additions, in the same order) so cycle counts
                # are bit-identical, but schedule only one wake-up event.
                resume_at = self.now
                for cycles in effect.delays:
                    if cycles <= 0:
                        continue
                    agent.busy_cycles += cycles
                    resume_at = resume_at + cycles
                if resume_at <= self.now:
                    continue
                self.schedule(resume_at, agent.resume)
                return

            if isinstance(effect, WaitBarrier):
                bar, gen = effect.barrier, effect.generation
                if bar.satisfied(gen):
                    continue
                agent.blocked_on = f"mbarrier {bar.describe()} for generation {gen}"
                bar.waiters.append((agent, gen))
                return

            if isinstance(effect, WgmmaIssue):
                agent.outstanding_wgmma += 1
                done = agent.sm.tensor_core.submit_wgmma(
                    self.now, effect.flops, effect.dtype_bits, effect.acc_n, effect.chain
                )
                self.record(agent, "wgmma_issue", f"{effect.flops:.0f} flops done@{done:.0f}")
                self.schedule(done, lambda a=agent: self._complete_wgmma(a))
                continue

            if isinstance(effect, WgmmaWait):
                if agent.outstanding_wgmma <= effect.pendings:
                    continue
                agent.blocked_on = (
                    f"wgmma wait (outstanding={agent.outstanding_wgmma}, "
                    f"pendings={effect.pendings})"
                )
                self._park_wgmma_waiter(agent, effect.pendings)
                return

            if isinstance(effect, TmaIssue):
                done = agent.sm.tma.submit_copy(self.now, effect.num_bytes)
                self.record(agent, "tma_issue", f"{effect.num_bytes}B done@{done:.0f}")
                self.schedule(done, lambda e=effect: self._complete_tma(e))
                continue

            if isinstance(effect, CpAsyncIssue):
                agent.outstanding_cpasync += 1
                done = agent.sm.copy.submit_copy(self.now, effect.num_bytes)
                self.schedule(done, lambda a=agent, e=effect: self._complete_cpasync(a, e))
                continue

            if isinstance(effect, CpAsyncWait):
                if agent.outstanding_cpasync <= effect.pendings:
                    continue
                agent.blocked_on = (
                    f"cp.async wait (outstanding={agent.outstanding_cpasync}, "
                    f"pendings={effect.pendings})"
                )
                self._park_cpasync_waiter(agent, effect.pendings)
                return

            if isinstance(effect, ArefPut):
                slot = effect.slot
                if slot.can_put():
                    continue
                agent.blocked_on = f"aref put on {slot.name} (state={slot.state})"
                slot.put_waiters.append(agent)
                return

            if isinstance(effect, ArefGet):
                slot = effect.slot
                if slot.can_get():
                    continue
                agent.blocked_on = f"aref get on {slot.name} (state={slot.state})"
                slot.get_waiters.append(agent)
                return

            if isinstance(effect, ArefConsumed):
                continue  # releasing never blocks; interpreter mutates the slot

            if isinstance(effect, CtaBarrier):
                bar = effect.barrier
                bar.arrived += 1
                if bar.arrived >= bar.count:
                    bar.arrived = 0
                    bar.generation += 1
                    waiters, bar.waiters = bar.waiters, []
                    for waiter, _ in waiters:
                        self.schedule(self.now, waiter.resume)
                    continue
                agent.blocked_on = f"cta barrier {bar.name}"
                bar.waiters.append((agent, bar.generation))
                return

            raise SimulationError(f"agent {agent.name} yielded unknown effect {effect!r}")

    # -- completion callbacks -------------------------------------------------------------

    def _complete_tma(self, effect: TmaIssue) -> None:
        if effect.on_complete is not None:
            effect.on_complete()
        if effect.barrier is not None:
            if effect.barrier.credit_tx(effect.num_bytes):
                self._wake_barrier(effect.barrier)

    def _complete_cpasync(self, agent: Agent, effect: CpAsyncIssue) -> None:
        if effect.on_complete is not None:
            effect.on_complete()
        agent.outstanding_cpasync -= 1
        self._wake_parked(agent, "_cpasync_parked", lambda p: agent.outstanding_cpasync <= p)

    def _complete_wgmma(self, agent: Agent) -> None:
        agent.outstanding_wgmma -= 1
        self._wake_parked(agent, "_wgmma_parked", lambda p: agent.outstanding_wgmma <= p)

    # The parked-waiter mechanism: an agent can only wait on its own wgmma /
    # cp.async counters, so each agent carries at most one parked threshold.

    def _park_wgmma_waiter(self, agent: Agent, pendings: int) -> None:
        agent._wgmma_parked = pendings  # type: ignore[attr-defined]

    def _park_cpasync_waiter(self, agent: Agent, pendings: int) -> None:
        agent._cpasync_parked = pendings  # type: ignore[attr-defined]

    def _wake_parked(self, agent: Agent, attr: str, check) -> None:
        pendings = getattr(agent, attr, None)
        if pendings is None:
            return
        if check(pendings):
            setattr(agent, attr, None)
            self.schedule(self.now, agent.resume)

    # -- barrier / aref wakeups -------------------------------------------------------------

    def notify_barrier(self, barrier: MBarrier) -> None:
        """Called by the interpreter after arrive()/expect_tx() completed a generation."""
        self._wake_barrier(barrier)

    def _wake_barrier(self, barrier: MBarrier) -> None:
        still_waiting = []
        for agent, gen in barrier.waiters:
            if barrier.satisfied(gen):
                self.schedule(self.now, agent.resume)
            else:
                still_waiting.append((agent, gen))
        barrier.waiters = still_waiting

    def notify_aref(self, slot: ArefSlotRuntime) -> None:
        """Wake aref waiters whose condition may now hold."""
        if slot.can_put() and slot.put_waiters:
            waiters, slot.put_waiters = slot.put_waiters, []
            for agent in waiters:
                self.schedule(self.now, agent.resume)
        if slot.can_get() and slot.get_waiters:
            waiters, slot.get_waiters = slot.get_waiters, []
            for agent in waiters:
                self.schedule(self.now, agent.resume)
