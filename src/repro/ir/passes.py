"""Pass infrastructure: Pass base class and PassManager."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.ir.module import ModuleOp
from repro.ir.operation import IRError


class PassError(Exception):
    """Raised when a pass fails or leaves the IR in an invalid state."""


class Pass:
    """Base class for module-level transformations.

    Subclasses implement :meth:`run` and may read/modify the module in place.
    ``name`` is used in diagnostics and timing reports.
    """

    name = "unnamed-pass"

    def run(self, module: ModuleOp) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Pass {self.name}>"


class FunctionPass(Pass):
    """A pass that runs independently on every function in the module."""

    def run(self, module: ModuleOp) -> None:
        for func in module.functions:
            self.run_on_function(func, module)

    def run_on_function(self, func, module: ModuleOp) -> None:
        raise NotImplementedError


@dataclass
class PassTiming:
    name: str
    seconds: float


@dataclass
class PassManager:
    """Runs a sequence of passes, optionally verifying between them.

    Attributes:
        verify_each: run the IR verifier after every pass (on by default; the
            verifier is cheap and mis-structured IR fails loudly).
        dump_each: when set, the printer output after each pass is passed to
            this callback -- used by the ``inspect_ir`` example and by tests
            that check intermediate stages.
        timing_sink: when set, called with ``(pass_name, seconds)`` after each
            pass finishes -- how the compiler driver feeds per-pass wall time
            into the :mod:`repro.perf.counters` block so compile cost is
            observable next to simulation cost.
        verify_sink: when set, called with the seconds each between-pass
            verification took (``verify_each``), so verification is counted
            in compile cost without counting as a pass.
    """

    passes: list[Pass] = field(default_factory=list)
    verify_each: bool = True
    dump_each: Callable[[str, str], None] | None = None
    timing_sink: Callable[[str, float], None] | None = None
    verify_sink: Callable[[float], None] | None = None
    timings: list[PassTiming] = field(default_factory=list)

    def add(self, *passes: Pass) -> "PassManager":
        self.passes.extend(passes)
        return self

    def run(self, module: ModuleOp) -> ModuleOp:
        from repro.ir.printer import print_op
        from repro.ir.verifier import verify

        self.timings = []
        for p in self.passes:
            start = time.perf_counter()
            try:
                p.run(module)
            except (IRError, PassError):
                raise
            except Exception as exc:
                raise PassError(f"pass {p.name!r} failed: {exc}") from exc
            elapsed = time.perf_counter() - start
            self.timings.append(PassTiming(p.name, elapsed))
            if self.timing_sink is not None:
                self.timing_sink(p.name, elapsed)
            if self.verify_each:
                start = time.perf_counter()
                verify(module, context=f"after pass {p.name!r}")
                if self.verify_sink is not None:
                    self.verify_sink(time.perf_counter() - start)
            if self.dump_each is not None:
                self.dump_each(p.name, print_op(module))
        return module
