"""Spans around the public functions of each layer, installed from outside.

:func:`install` wraps the program's layer entry points in place (the
program itself is not modified) so every call records a span with its
name, start, end, parent span and request id.  Spans stay in memory and
:meth:`Tracer.dump` writes them as JSON lines when the process ends.  Only
the benchmark's child processes (``pb_program.py``) call :func:`install`,
and only in a traced run; an untraced run executes the program untouched.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder; parents are tracked per thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.marks: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        request = getattr(self._local, "request", None)
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield span_id
        finally:
            end = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, name, start, end, request))

    @contextmanager
    def request(self, request_id):
        """Tag every span opened on this thread with ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    def mark(self, **fields) -> None:
        """Record a non-span event (serve queue waits)."""
        with self._lock:
            self.marks.append(fields)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        with self._lock:
            spans, marks = list(self.spans), list(self.marks)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, request in spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "request": request}) + "\n")
            for mark in marks:
                fh.write(json.dumps({"mark": True, **mark}) + "\n")


def read_trace(path: str) -> tuple[list[dict], list[dict]]:
    """``(spans, marks)`` from a file written by :meth:`Tracer.dump`."""
    spans, marks = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            (marks if row.pop("mark", False) else spans).append(row)
    return spans, marks


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are taken from."""
    import importlib

    import repro.ir as ir
    import repro.ir.verifier as verifier
    from repro import workloads
    from repro.core.service import CompilerService
    from repro.gpusim import plan
    from repro.gpusim.device import Device
    from repro.gpusim.executors.base import ExecutorBase
    from repro.ir.passes import PassManager
    from repro.serve import protocol

    # ``repro.frontend.kernel`` is also the name of the decorator re-exported
    # by the package, so fetch the module itself.
    frontend_kernel = importlib.import_module("repro.frontend.kernel")
    Kernel = frontend_kernel.Kernel
    Kernel.specialize = tracer.wrap("frontend.specialize", Kernel.specialize)
    Kernel.build_module = tracer.wrap("frontend.build_module", Kernel.build_module)
    PassManager.run = tracer.wrap("ir.passes", PassManager.run)
    # ``verify`` is bound by name in the frontend; the pass manager imports it
    # from the verifier module at call time.
    traced_verify = tracer.wrap("ir.verify", verifier.verify)
    verifier.verify = ir.verify = frontend_kernel.verify = traced_verify
    CompilerService.compile = tracer.wrap("core.compile", CompilerService.compile)
    plan.compile_plan = tracer.wrap("gpusim.plan_build", plan.compile_plan)
    ExecutorBase.prepare = tracer.wrap("gpusim.prepare", ExecutorBase.prepare)
    ExecutorBase.finalize = tracer.wrap("gpusim.finalize", ExecutorBase.finalize)
    Device.run = tracer.wrap("gpusim.launch", Device.run)
    Device.run_many = tracer.wrap("gpusim.launch", Device.run_many)
    for name in workloads.list_workloads():
        workload = workloads.get(name)
        workloads.unregister(name)
        workloads.register(dataclasses.replace(
            workload,
            make_specs=tracer.wrap("workloads.inputs", workload.make_specs)))
    protocol.args_digest = tracer.wrap("serve.digest", protocol.args_digest)
    protocol.workload_job = _traced_workload_job(tracer, protocol.workload_job)


def _traced_workload_job(tracer: Tracer, workload_job):
    """Time each serve request from admission to the start of its build."""
    request_ids = itertools.count(1)

    @functools.wraps(workload_job)
    def traced(name, params, **kwargs):
        job = workload_job(name, params, **kwargs)
        request_id = next(request_ids)
        admitted = time.monotonic()
        build, finish = job.build, job.finish
        started = []

        def traced_build(device):
            started.append(time.monotonic())
            with tracer.request(request_id), tracer.span("serve.build"):
                return build(device)

        def traced_finish(results):
            with tracer.request(request_id), tracer.span("serve.finish"):
                value = finish(results)
            tracer.mark(request=request_id, admitted=admitted,
                        build_start=started[0], finished=time.monotonic())
            return value

        job.build, job.finish = traced_build, traced_finish
        return job

    return traced
