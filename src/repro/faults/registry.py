"""The fault-injection registry: specs, matching, and fork-shared budgets.

Spec grammar (one string, e.g. the ``REPRO_FAULTS`` environment variable)::

    faults  ::= fault (";" fault)*
    fault   ::= kind (":" field "=" value ("," field "=" value)*)?
    kind    ::= "kill" | "hang" | "pipe" | "cache_read" | "cache_write"

Fields (all optional; an absent field is a wildcard):

``worker``
    Only fire for this worker index (``kill`` / ``hang`` / ``pipe`` sites).
``cta``
    Only fire when the worker is about to execute the CTA at this 0-based
    ordinal *within its shard* (``kill`` / ``hang`` sites).
``nth``
    Fire on exactly the *n*-th (0-based) hook hit that matches this spec's
    other constraints, counted process-tree-wide.
``count``
    How many times the spec may fire in total (default 1; ``-1`` or ``inf``
    = unlimited).  The budget lives in fork-shared memory, so a fire inside
    a worker process is visible to the parent and to any retried sibling.
``prob``
    Fire probability per eligible hit (default 1.0).  Draws are derived by
    hashing ``(seed, hit ordinal)`` -- no RNG state crosses processes, so a
    given spec fires on exactly the same hits in every run.
``seed``
    Seeds the probability draws (default 0).
``seconds``
    ``hang`` only: how long the worker sleeps (default 3600 -- the parent's
    deadline, not this value, is what ends the hang).
``match``
    ``cache_read`` / ``cache_write`` only: substring that must appear in the
    target path (e.g. ``match=tuned`` to fault only the tune store).

Examples::

    REPRO_FAULTS="kill:worker=1,cta=2"
    REPRO_FAULTS="hang:worker=0,seconds=30;pipe:worker=1"
    REPRO_FAULTS="cache_write:match=tuned,count=-1;kill:prob=0.25,seed=7,count=3"
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

#: Environment variable holding a fault spec string (see module docstring).
FAULTS_ENV = "REPRO_FAULTS"

#: Every recognised fault kind, mapped to the hook site it responds to.
FAULT_KINDS: dict[str, str] = {
    "kill": "worker",
    "hang": "worker",
    "pipe": "pipe",
    "cache_read": "cache_read",
    "cache_write": "cache_write",
}

#: Exit code of a worker killed by an injected ``kill`` fault (distinctive,
#: so supervision reports make the cause obvious).
FAULT_KILL_EXIT = 75

_UNLIMITED = -1


class FaultSpecError(ValueError):
    """A malformed fault spec string."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject, parsed from the spec grammar."""

    kind: str
    worker: int | None = None
    cta: int | None = None
    nth: int | None = None
    count: int = 1
    prob: float = 1.0
    seed: int = 0
    seconds: float = 3600.0
    match: str | None = None

    @property
    def site(self) -> str:
        return FAULT_KINDS[self.kind]

    def describe(self) -> str:
        fields = []
        for name in ("worker", "cta", "nth", "match"):
            value = getattr(self, name)
            if value is not None:
                fields.append(f"{name}={value}")
        if self.count != 1:
            fields.append(f"count={self.count}")
        if self.prob < 1.0:
            fields.append(f"prob={self.prob},seed={self.seed}")
        return self.kind + (":" + ",".join(fields) if fields else "")


_INT_FIELDS = ("worker", "cta", "nth", "seed")
_FLOAT_FIELDS = ("prob", "seconds")


def _parse_one(text: str) -> FaultSpec:
    head, _, rest = text.partition(":")
    kind = head.strip()
    if kind not in FAULT_KINDS:
        raise FaultSpecError(
            f"unknown fault kind {kind!r}; expected one of {sorted(FAULT_KINDS)}"
        )
    fields: dict = {"kind": kind}
    if rest.strip():
        for item in rest.split(","):
            name, eq, raw = item.partition("=")
            name, raw = name.strip(), raw.strip()
            if not eq or not raw:
                raise FaultSpecError(f"malformed fault field {item!r} in {text!r}")
            try:
                if name in _INT_FIELDS:
                    fields[name] = int(raw)
                elif name in _FLOAT_FIELDS:
                    fields[name] = float(raw)
                elif name == "count":
                    fields[name] = _UNLIMITED if raw.lower() == "inf" else int(raw)
                elif name == "match":
                    fields[name] = raw
                else:
                    raise FaultSpecError(
                        f"unknown fault field {name!r} in {text!r}"
                    )
            except ValueError as exc:
                raise FaultSpecError(
                    f"bad value for fault field {name!r} in {text!r}: {exc}"
                ) from None
    spec = FaultSpec(**fields)
    if spec.count < _UNLIMITED or spec.count == 0:
        raise FaultSpecError(f"fault count must be positive or -1/inf, got {spec.count}")
    if not 0.0 < spec.prob <= 1.0:
        raise FaultSpecError(f"fault prob must be in (0, 1], got {spec.prob}")
    return spec


def parse_faults(spec: str) -> list[FaultSpec]:
    """Parse a fault spec string into :class:`FaultSpec` records."""
    specs = []
    for part in spec.split(";"):
        part = part.strip()
        if part:
            specs.append(_parse_one(part))
    return specs


def _deterministic_draw(seed: int, ordinal: int, prob: float) -> bool:
    """Whether hit ``ordinal`` of a ``prob``-fault fires (stateless, stable).

    Hashing ``(seed, ordinal)`` instead of advancing an RNG makes the draw
    independent of which process evaluates it and of how many other specs
    fired in between -- the properties the chaos differential suite relies
    on to reproduce a failing case from its seed alone.
    """
    digest = hashlib.sha256(f"repro-fault:{seed}:{ordinal}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64 < prob


class _SpecState:
    """One spec's runtime state, backed by fork-shared counters."""

    __slots__ = ("spec", "hits", "remaining", "fired")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        # Plain multiprocessing.Value cells: allocated from an anonymous
        # shared arena, so workers forked after registry creation share them
        # with the parent (and with retried siblings) by inheritance.
        self.hits = mp.Value("q", 0)
        self.remaining = mp.Value("q", spec.count)
        self.fired = mp.Value("q", 0)


class FaultRegistry:
    """A set of installed fault specs with fork-shared fire budgets."""

    def __init__(self, specs: Iterable[FaultSpec]):
        self._states = [_SpecState(spec) for spec in specs]
        self._owner_pid = os.getpid()
        self._synced_fired = 0

    @property
    def specs(self) -> list[FaultSpec]:
        return [state.spec for state in self._states]

    def fire(self, site: str, **attrs) -> FaultSpec | None:
        """The spec that fires for this hook hit, if any (consumes budget)."""
        fired = self.fire_indexed(site, **attrs)
        return None if fired is None else fired[1]

    def fire_indexed(self, site: str, **attrs):
        """Like :meth:`fire`, also returning the firing spec's index.

        Persistent-pool workers run against a *local copy* of the parent's
        registry (:meth:`from_state`) and report fires back over the result
        pipe by spec index, so the parent -- the budget's single owner --
        can consume the budget exactly once (:meth:`consume_remote_fire`).
        """
        fired = None
        for index, state in enumerate(self._states):
            spec = state.spec
            if spec.site != site:
                continue
            if spec.worker is not None and attrs.get("worker") != spec.worker:
                continue
            if spec.cta is not None and attrs.get("cta") != spec.cta:
                continue
            if spec.match is not None and spec.match not in str(attrs.get("path", "")):
                continue
            with state.hits.get_lock():
                ordinal = state.hits.value
                state.hits.value += 1
            if spec.nth is not None and ordinal != spec.nth:
                continue
            if spec.prob < 1.0 and not _deterministic_draw(spec.seed, ordinal,
                                                           spec.prob):
                continue
            with state.remaining.get_lock():
                if state.remaining.value == 0:
                    continue
                if state.remaining.value > 0:
                    state.remaining.value -= 1
            with state.fired.get_lock():
                state.fired.value += 1
            fired = (index, spec)
            break
        if fired is not None:
            self.sync_fired()
        return fired

    # -- state shipping (persistent worker pool) ------------------------------

    def export_state(self) -> list[tuple]:
        """The picklable ``(spec, hits, remaining)`` rows a work item carries.

        Pool workers fork once and live across many ``inject_faults`` scopes,
        so they cannot observe registries created after their fork by cell
        inheritance the way per-launch forks do; instead each work item
        carries this snapshot and the worker rebuilds a local registry from
        it (:meth:`from_state`).  Exported at *send* time, so a budget the
        parent consumed for a previous attempt is already spent in the copy a
        retried shard sees.
        """
        return [(state.spec, state.hits.value, state.remaining.value)
                for state in self._states]

    @classmethod
    def from_state(cls, state: list[tuple], owner_pid: int = -1) -> "FaultRegistry":
        """A local registry rebuilt from :meth:`export_state` rows.

        ``owner_pid`` defaults to a pid that is never this process, so the
        copy's :meth:`sync_fired` is a no-op -- the parent owns the
        ``faults_injected`` counter and folds remote fires in itself.
        """
        registry = cls([spec for spec, _, _ in state])
        for cell, (_, hits, remaining) in zip(registry._states, state):
            cell.hits.value = hits
            cell.remaining.value = remaining
        registry._owner_pid = owner_pid
        return registry

    def consume_remote_fire(self, index: int) -> FaultSpec | None:
        """Fold one worker-reported fire of spec ``index`` into this registry.

        The pool worker fired its local copy (advancing only its own cells)
        and reported the spec index before acting; consuming here makes the
        parent's budget authoritative, so a ``count=1`` fault consumed by a
        killed worker is *not* re-armed for that shard's retry.
        """
        if not 0 <= index < len(self._states):
            return None
        state = self._states[index]
        with state.hits.get_lock():
            state.hits.value += 1
        with state.remaining.get_lock():
            if state.remaining.value > 0:
                state.remaining.value -= 1
        with state.fired.get_lock():
            state.fired.value += 1
        self.sync_fired()
        return state.spec

    def hit_values(self) -> list[int]:
        """Per-spec hook-hit counts (used to compute a worker's delta)."""
        return [state.hits.value for state in self._states]

    def add_remote_hits(self, hits: list[int]) -> None:
        """Fold a worker's non-firing hook-hit deltas into the ``hits`` cells.

        Keeps ``nth`` / ``prob`` ordinals roughly process-tree-wide under the
        pool (a worker that died never ships its delta, so its hits are
        lost).
        """
        for state, delta in zip(self._states, hits):
            if delta:
                with state.hits.get_lock():
                    state.hits.value += delta

    def fired_total(self) -> int:
        """How many times any spec of this registry has fired, tree-wide."""
        return sum(state.fired.value for state in self._states)

    def fired_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for state in self._states:
            if state.fired.value:
                out[state.spec.kind] = out.get(state.spec.kind, 0) + state.fired.value
        return out

    def sync_fired(self) -> int:
        """Fold tree-wide fires into ``COUNTERS.faults_injected`` (owner only).

        Worker-side fires land in the shared cells, not in the worker's
        counter block (a killed worker never ships its snapshot anyway), so
        the registry's owning process is the single writer of the
        ``faults_injected`` counter -- merge() from worker snapshots can
        never double-count it.
        """
        if os.getpid() != self._owner_pid:
            return 0
        from repro.perf.counters import COUNTERS

        total = self.fired_total()
        delta = total - self._synced_fired
        if delta > 0:
            COUNTERS.faults_injected += delta
            self._synced_fired = total
        return delta


# ---------------------------------------------------------------------------
# Activation: an explicit stack (inject_faults) over an env-derived default
# ---------------------------------------------------------------------------

_STACK: list[FaultRegistry] = []
_ENV_REGISTRY: FaultRegistry | None = None
_ENV_RAW: str | None = None


def active_registry() -> FaultRegistry | None:
    """The registry hooks consult: innermost ``inject_faults`` scope, else
    the ``REPRO_FAULTS`` environment registry, else ``None``.

    The env registry is (re)built whenever the raw variable changes and kept
    otherwise, so its fire budgets span the whole process: a ``count=1``
    kill fault kills exactly one worker per process no matter how many
    launches run.
    """
    if _STACK:
        return _STACK[-1]
    global _ENV_REGISTRY, _ENV_RAW
    raw = os.environ.get(FAULTS_ENV, "").strip()
    if not raw:
        _ENV_REGISTRY = None
        _ENV_RAW = None
        return None
    if raw != _ENV_RAW:
        _ENV_REGISTRY = FaultRegistry(parse_faults(raw))
        _ENV_RAW = raw
    return _ENV_REGISTRY


@contextmanager
def inject_faults(
    spec: str | Iterable[FaultSpec],
) -> Iterator[FaultRegistry]:
    """Scope a fresh fault registry to a ``with`` block.

    Shadows any outer registry (including the environment one) for the
    duration of the block; on exit the previous registry is restored and the
    block's fires are synced into ``sim_counters()['faults_injected']``.
    Install the registry *before* forking workers that should observe it --
    the shared budget cells cross the process boundary by fork inheritance.
    """
    registry = FaultRegistry(
        parse_faults(spec) if isinstance(spec, str) else list(spec))
    _STACK.append(registry)
    try:
        yield registry
    finally:
        _STACK.remove(registry)
        registry.sync_fired()


def fire(site: str, **attrs) -> FaultSpec | None:
    """Hook entry point: the spec firing at ``site`` for ``attrs``, if any.

    A no-op returning ``None`` when no registry is active, which is the
    clean-run fast path every hook site takes.
    """
    registry = active_registry()
    if registry is None:
        return None
    return registry.fire(site, **attrs)


def raise_injected_io(site: str, path) -> None:
    """Raise ``OSError`` if a ``cache_read`` / ``cache_write`` fault fires.

    Called at the top of the disk tiers' read/write bodies, inside their
    error-handling scope, so an injected fault exercises exactly the
    quarantine path a real ENOSPC / EIO would.
    """
    spec = fire(site, path=path)
    if spec is not None:
        raise OSError(f"injected {site} fault for {path}")


def sync_fired() -> int:
    """Sync the active registry's fires into the counter block, if any."""
    registry = active_registry()
    if registry is None:
        return 0
    return registry.sync_fired()
