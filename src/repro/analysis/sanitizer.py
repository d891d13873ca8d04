"""TSan-style runtime validation of the static channel model.

With ``Device(engine="sanitize")`` (or ``REPRO_SIM_ENGINE=sanitize``) the
mid-level interpreter records every aref transition it actually performs --
which slot, which protocol step, from which warp-group role -- and replays
the sequence through the *formal* protocol model
(:class:`repro.core.aref.ArefSlot`, the executable Fig. 4 semantics).  Any divergence between what the simulated
kernel did and what the protocol permits raises :class:`SanitizerError`
naming the slot, the offending step and the recorded history.

This is deliberately redundant with the engine's own
:class:`~repro.gpusim.engine.ArefSlotRuntime` guards: the engine *blocks*
producers and consumers on the protocol (a double put waits instead of
failing), so an ordering bug usually surfaces as a distant
:class:`~repro.gpusim.engine.DeadlockError`.  The sanitizer checks the
*committed* transition order against the formal model and the role
discipline, so the mutation differential suite (``tests/test_analysis.py``)
can assert that every seeded channel bug is caught by the static analyzer,
by the sanitizer, or by the engine -- never silently escaping.
"""

from __future__ import annotations

from repro.core.aref import ArefSlot, ArefStateError
from repro.gpusim.engine import SimulationError


class SanitizerError(SimulationError):
    """The simulated kernel performed an aref transition the protocol forbids."""


class CtaSanitizer:
    """Per-CTA recorder validating aref transitions as they commit.

    One instance is attached to the CTA context when the launch runs on the
    ``"sanitize"`` engine; every warp-group agent of the CTA reports through it
    (agents interleave cooperatively inside one engine, so no locking).  Each
    runtime slot is shadowed by a formal :class:`ArefSlot`; transitions are
    validated *eagerly* at commit time, and :meth:`finalize` checks the drain
    condition -- every slot back to EMPTY -- once the CTA retires.
    """

    #: which warp-group roles may perform each protocol step
    _ALLOWED_ROLES = {
        "put": ("producer",),
        "get": ("consumer",),
        "consumed": ("consumer",),
    }

    def __init__(self, cta_name: str = "cta"):
        self.cta_name = cta_name
        self._shadows: dict = {}
        self.transitions = 0

    def _shadow(self, slot) -> ArefSlot:
        shadow = self._shadows.get(id(slot))
        if shadow is None:
            shadow = ArefSlot(slot.name)
            self._shadows[id(slot)] = shadow
        return shadow

    def record(self, kind: str, slot, role: str) -> None:
        """Validate one committed transition against role + protocol rules."""
        self.transitions += 1
        allowed = self._ALLOWED_ROLES.get(kind, ())
        if role not in allowed:
            raise SanitizerError(
                f"sanitizer[{self.cta_name}]: {kind} on {slot.name} executed "
                f"by a {role!r} warp group (allowed: {', '.join(allowed)})"
            )
        shadow = self._shadow(slot)
        try:
            if kind == "put":
                shadow.put(None)
            elif kind == "get":
                shadow.get()
            else:
                shadow.consumed()
        except ArefStateError as exc:
            raise SanitizerError(
                f"sanitizer[{self.cta_name}]: committed transition diverges "
                f"from the Fig. 4 protocol: {exc} "
                f"(history: {' -> '.join(shadow.history) or 'empty'})"
            ) from exc

    def finalize(self) -> None:
        """Drain check: every slot must be EMPTY when the CTA retires.

        A FULL slot means a put was never matched by a get; a BORROWED slot
        means a get was never released by consumed.  Either way the channel
        protocol did not complete, even if the engine happened not to
        deadlock (e.g. a trip count below the ring depth).
        """
        stuck = [
            f"{shadow.name}={shadow.state_name}"
            for shadow in self._shadows.values()
            if shadow.state_name != "EMPTY"
        ]
        if stuck:
            raise SanitizerError(
                f"sanitizer[{self.cta_name}]: CTA retired with non-EMPTY aref "
                f"slots: {', '.join(sorted(stuck))}; every generation must end "
                f"put -> get -> consumed"
            )
