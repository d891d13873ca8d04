"""One BLAS thread per simulator process (:mod:`repro.gpusim.blas`).

``Device()`` pins NumPy's OpenBLAS to one thread; children forked after it
(pool workers, supervision respawns) inherit the pin; an explicit
``OPENBLAS_NUM_THREADS`` is honoured; without an OpenBLAS the pin is a
no-op.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.gpusim import blas
from repro.gpusim.device import Device
from repro.gpusim.parallel import fork_available

SRC = Path(__file__).resolve().parents[1] / "src"

needs_openblas = pytest.mark.skipif(
    blas.blas_info()["threads"] is None, reason="NumPy's BLAS is not OpenBLAS")
needs_default_threads = pytest.mark.skipif(
    any(os.environ.get(var) for var in blas.THREAD_VARS),
    reason="an explicit BLAS thread count is set")


@needs_openblas
@needs_default_threads
def test_device_pins_one_thread():
    Device()
    assert blas.pin_single_thread() is True
    assert blas.blas_info()["threads"] == 1


@needs_openblas
@needs_default_threads
@pytest.mark.skipif(not fork_available(), reason="requires fork()")
def test_child_forked_after_device_keeps_one_thread():
    """What pool workers (forked lazily, after the device) inherit."""
    Device()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            os.close(read_fd)
            os.write(write_fd, str(blas.blas_info()["threads"]).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as reader:
        reported = reader.read().decode()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert reported == "1"


@needs_openblas
def test_explicit_thread_count_is_honoured():
    env = {k: v for k, v in os.environ.items() if k not in blas.THREAD_VARS}
    env.update(OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(SRC))
    script = ("from repro.gpusim.blas import blas_info, pin_single_thread\n"
              "from repro.gpusim.device import Device\n"
              "Device()\n"
              "print(pin_single_thread(), blas_info()['threads'])\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "2"]


def test_no_openblas_is_a_noop(monkeypatch, caplog):
    for var in blas.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(blas, "_mapped_blas", lambda: None)
    monkeypatch.setattr(blas, "_pinned", None)
    with caplog.at_level(logging.INFO, logger="repro.gpusim.blas"):
        assert blas.pin_single_thread() is False
        assert blas.pin_single_thread() is False  # idempotent: logs once
    assert blas.blas_info() == {"library": None, "threads": None}
    [record] = caplog.records
    assert "no OpenBLAS mapped" in record.getMessage()


@needs_openblas
def test_pin_logs_library_and_thread_counts(monkeypatch, caplog):
    for var in blas.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(blas, "_pinned", None)
    with caplog.at_level(logging.INFO, logger="repro.gpusim.blas"):
        assert blas.pin_single_thread() is True
    [record] = caplog.records
    message = record.getMessage()
    assert blas.blas_info()["library"] in message
    assert message.endswith("to 1")
