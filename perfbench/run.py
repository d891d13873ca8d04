"""The repository benchmark: one command, three kinds of users, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``paper_figures``  -- fig8-fig12 full sweeps, each in a fresh process.
* ``kernel_devloop`` -- closed loop of cold compile + launch + NumPy check.
* ``serve_mixed`` -- seeded open-loop Poisson arrivals into
  ``python -m repro.serve serve`` at 10 req/s (``serve_mixed_mid`` and
  ``serve_mixed_high`` run the same mix at 30 and 60 req/s).

Each run is split into sessions, and each session starts the program in a
fresh process, so set-up is measured several times per run.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` sessions alternate untraced/traced and the last line holds
the per-layer metrics taken from the traced ones, plus the tracing
overhead.  The program's environment is recorded in ``perfbench/out/``,
and any ``REPRO_*`` or BLAS/OpenMP thread variables inherited from the
shell are removed before the program starts.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import pb_measure as pm  # noqa: E402

#: Sessions per untraced run; a traced run alternates untraced and traced.
#: Serve runs use more, shorter sessions: each fresh server lands in its own
#: BLAS-threading regime, and the median over several servers is steadier.
SESSIONS = 3
SERVE_SESSIONS = 6
TRACED_PLAN = (False, True, False, True)
#: The serve latency limit (timed from each request's due time).
LATENCY_LIMIT_S = 0.250
#: A serve run is invalid if the generator sent its p99 request later than
#: this after its due time: the open loop would no longer be open.
LATENESS_LIMIT_S = 0.050
#: Requests per second of each serve step.  Only ``serve_mixed`` is in
#: BENCHMARK.json: above ~20 req/s the shipped server's BLAS-oversubscribed
#: pool makes every latency bimodal from run to run (see README.md), so the
#: two higher steps are kept for manual runs and cannot gate a change.
SERVE_RATES = {"serve_mixed": 10.0, "serve_mixed_mid": 30.0, "serve_mixed_high": 60.0}
WORKLOADS = ("paper_figures", "kernel_devloop", *SERVE_RATES)
CHILD_TIMEOUT_S = 150.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")
GEMM_FAMILY = ("gemm", "batched_gemm", "grouped_gemm", "splitk_gemm")


class BenchError(RuntimeError):
    """The benchmark could not run the program (not a measured failure)."""


@dataclass
class Session:
    """One fresh-process session of a workload."""

    traced: bool
    setup_s: float
    peak_rss_mb: float
    #: per operation: latency in seconds, or None when it failed
    latencies: list = field(default_factory=list)
    measured_s: float = 0.0
    counters: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    marks: list = field(default_factory=list)
    wrong: int = 0


@dataclass
class Outcome:
    sessions: list[Session]
    limit_s: float | None
    sim_gemm_tflops: float
    sim_attention_tflops: float
    notes: dict = field(default_factory=dict)
    invalid: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------- environment

def scrub_environment() -> dict:
    """Remove REPRO_* and thread-count variables; return what was removed."""
    removed = {key: os.environ.pop(key) for key in list(os.environ)
               if key.startswith("REPRO_") or key in THREAD_VARS}
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    return removed


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> dict:
    """The BLAS library NumPy loaded and the thread count it reports."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    info: dict = {"library": None, "threads": None, "config": None}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "blas" in line.rsplit("/", 1)[-1].lower()})
    if not libs:
        return info
    info["library"] = Path(libs[0]).name
    lib = ctypes.CDLL(libs[0])
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                info["threads"] = get_threads()
                if get_config is not None:
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    info["config"] = get_config().decode()
                return info
    return info


def record_environment(removed: dict) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "removed_env": removed,
    }


# ---------------------------------------------------------------------- children

def _program(*argv: str) -> list[str]:
    return [sys.executable, str(HERE / "pb_program.py"), *argv]


def run_child(argv: list[str]) -> tuple[float, dict]:
    """Run one program session to completion; ``(spawn time, its JSON)``."""
    spawn = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(argv[1:3])} printed no result")
    return spawn, json.loads(lines[-1])


def _trace_path(tag: str, index: int, traced: bool) -> list[str]:
    return ["--trace-out", str(OUT / f"{tag}.{index}.spans.jsonl")] if traced else []


def _read_spans(tag: str, index: int, since: float) -> tuple[list, list]:
    import pb_tracing

    spans, marks = pb_tracing.read_trace(str(OUT / f"{tag}.{index}.spans.jsonl"))
    return ([s for s in spans if s["start"] >= since],
            [m for m in marks if m["admitted"] >= since])


def session_plan(trace: bool, sessions: int = SESSIONS) -> tuple[bool, ...]:
    return TRACED_PLAN if trace else (False,) * sessions


# ---------------------------------------------------------------------- paper_figures

def figures_digest(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def check_figure_rows(rows: list) -> list[str]:
    """Every cell must be a number; every Tawa/Triton cell a positive one."""
    problems = []
    for fig, series, x, value, infeasible in rows:
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{fig}/{series}@{x} is not a number: {value!r}")
        elif series in ("Tawa", "Triton") and (infeasible or value <= 0):
            problems.append(f"{fig}/{series}@{x} has no measurement: {value!r}")
    if not any(series == "Tawa" for _, series, *_ in rows):
        problems.append("no Tawa cells")
    return problems


def paper_figures(args, tag: str) -> Outcome:
    sessions, digests, notes = [], [], {}
    plan = session_plan(args.trace)
    started = time.monotonic()
    index = 0
    while index < len(plan) or (not args.trace
                                and time.monotonic() - started < args.seconds):
        traced = plan[index] if index < len(plan) else False
        spawn, data = run_child(_program("figures", *_trace_path(tag, index, traced)))
        rows = data["rows"]
        problems = check_figure_rows(rows)
        digest = figures_digest(rows)
        digests.append(digest)
        wrong = bool(problems) or digest != digests[0]
        op = data["ops"][0]
        session = Session(traced, data["ready"] - spawn, data["peak_rss_mb"],
                          [None if wrong else op["end"] - op["start"]],
                          op["end"] - op["start"], data["counters"], wrong=int(wrong))
        if traced:
            session.spans, _ = _read_spans(tag, index, data["ready"])
        if problems:
            notes.setdefault("problems", problems[:5])
        sessions.append(session)
        index += 1
    tawa = {"gemm": [], "attention": []}
    for fig, series, _, value, _ in rows:
        if series == "Tawa" and fig.startswith(("fig8", "fig9")):
            tawa["gemm"].append(value)
        elif series == "Tawa" and fig.startswith("fig10"):
            tawa["attention"].append(value)
    notes["simulated_values_sha256"] = digests[0]
    notes["cells"] = len(rows)
    return Outcome(sessions, None, pm.geomean(tawa["gemm"]),
                   pm.geomean(tawa["attention"]), notes)


# ---------------------------------------------------------------------- kernel_devloop

def kernel_devloop(args, tag: str) -> Outcome:
    plan = session_plan(args.trace)
    share = args.seconds / len(plan)
    sessions, per_config, errors = [], {}, []
    for index, traced in enumerate(plan):
        spawn, data = run_child(_program(
            "devloop", "--seed", str(args.seed), "--session", str(index),
            "--seconds", f"{share:.3f}", *_trace_path(tag, index, traced)))
        session = Session(traced, data["ready"] - spawn, data["peak_rss_mb"],
                          counters=data["counters"])
        for op in data["ops"]:
            if "error" in op:
                session.latencies.append(None)
                session.wrong += 1
                errors.append(f"{op['workload']}/{op['options']}: {op['error']}")
                continue
            session.latencies.append(op["end"] - op["start"])
            per_config.setdefault((op["workload"], op["options"]), set()).add(op["tflops"])
        if data["ops"]:
            session.measured_s = data["ops"][-1]["end"] - data["ready"]
        if traced:
            session.spans, _ = _read_spans(tag, index, data["ready"])
        sessions.append(session)
    # The simulated cycle count does not depend on the input data, so every
    # iteration of one (workload, options) config must report the same value.
    unstable = sorted(f"{w}/{o}" for (w, o), values in per_config.items()
                      if len(values) != 1)
    notes = {"configs_run": len(per_config)}
    invalid = []
    if unstable:
        invalid.append(f"simulated TFLOP/s differs between iterations of {unstable[:5]}")
    if errors:
        notes["errors"] = errors[:5]
    gemm = [min(v) for (w, _), v in per_config.items() if w in GEMM_FAMILY]
    attention = [min(v) for (w, _), v in per_config.items() if w == "attention"]
    return Outcome(sessions, None, pm.geomean(gemm), pm.geomean(attention),
                   notes, invalid)


# ---------------------------------------------------------------------- serve

def serve_bodies() -> tuple[list[dict], list[dict]]:
    """The distinct small and large request bodies of the serve mix."""
    from repro import workloads

    small = []
    for data_seed in range(3):
        for name in workloads.list_workloads():
            params = asdict(workloads.get(name).check_problem())
            small.append({"workload": name, "params": {**params, "seed": data_seed}})
        # The 2-CTA GEMM with the paper's 128x256 tile.
        small.append({"workload": "gemm", "params": {
            "M": 128, "N": 512, "K": 128, "block_m": 128, "block_n": 256,
            "block_k": 64, "seed": data_seed}})
    large = [{"workload": "gemm", "params": {
        "M": 1024, "N": 1024, "K": 128, "block_m": 128, "block_n": 256,
        "block_k": 64, "seed": data_seed}} for data_seed in range(2)]
    return small, large


def body_key(body: dict) -> str:
    return json.dumps([body["workload"], body["params"]], sort_keys=True)


def reference_digests(bodies: list[dict]) -> tuple[dict, dict]:
    """Direct-run digests and simulated TFLOP/s of every distinct body.

    Each problem is also checked once against its NumPy reference.
    """
    from repro import workloads
    from repro.gpusim.device import Device
    from repro.serve import protocol

    device = Device()
    digests, tflops = {}, {}
    for body in bodies:
        workload = workloads.get(body["workload"])
        problem = protocol.build_problem(workload, body["params"])
        specs = workloads.build_sweep_specs(device, workload, problem)
        results = device.run_many(specs)
        digests[body_key(body)] = protocol.args_digest(specs)
        tflops[body_key(body)] = float(results[0].tflops or 0.0)
        workload.check(device, *workloads.resolve_options(device, workload, problem))
    return digests, tflops


def _descendants(pid: int) -> list[int]:
    pids, frontier = [pid], [pid]
    while frontier:
        current = frontier.pop()
        try:
            tasks = Path(f"/proc/{current}/task").iterdir()
            for task in tasks:
                for child in (task / "children").read_text().split():
                    pids.append(int(child))
                    frontier.append(int(child))
        except OSError:
            continue
    return pids


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (VmHWM) of a process and all its descendants."""
    total_kb = 0
    for member in _descendants(pid):
        try:
            for line in Path(f"/proc/{member}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _start_server(traced_argv: list[str] | None) -> tuple[subprocess.Popen, int]:
    argv = (_program("serve", *traced_argv) if traced_argv
            else [sys.executable, "-m", "repro.serve", "serve", "--port", "0"])
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT)
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        _, err = proc.communicate(timeout=30)
        raise BenchError(f"server did not start: {line!r} {err[-2000:]}")
    return proc, int(line.strip().rsplit(":", 1)[1])


def _ended(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return True
    return state in ("Z", "X")


def _stop_server(proc: subprocess.Popen) -> None:
    """Interrupt the server, then make sure its pool workers ended too."""
    workers = _descendants(proc.pid)[1:]
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    proc.stdout.close()
    proc.stderr.close()
    for pid in workers:
        if not _ended(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
    give_up = time.monotonic() + 10.0
    while not all(_ended(pid) for pid in workers):
        if time.monotonic() > give_up:
            raise BenchError(f"server workers {workers} did not end")
        time.sleep(0.05)


async def _drive(port: int, warmup: list[dict], segment: list[dict],
                 offset: float, seconds: float, references: dict,
                 ref_tflops: dict) -> dict:
    """Warm the server up, then replay one segment of the open loop."""
    from repro.serve.client import AsyncClient

    client = await AsyncClient.connect("127.0.0.1", port, wait=30.0)
    async with client:
        for body in warmup:
            reply = await client.launch(body["workload"], body["params"])
            if reply["digest"] != references[body_key(body)]:
                raise BenchError(f"warm-up reply differs from the direct run: {body}")
        loop = asyncio.get_running_loop()
        ready = loop.time()
        before = await client.counters()
        start = loop.time()
        results: list[dict] = []

        async def one(entry: dict, due: float) -> None:
            sent = loop.time()
            record = {"i": entry["i"], "class": entry["class"],
                      "workload": entry["workload"], "lateness": sent - due}
            try:
                reply = await asyncio.wait_for(
                    client.launch(entry["workload"], entry["params"]), 60.0)
                record["latency"] = loop.time() - due
                key = body_key(entry)
                record["wrong"] = (reply["digest"] != references[key]
                                   or reply["launches"][0]["tflops"] != ref_tflops[key])
            except Exception as exc:  # refused, timed out or failed: counted
                record["error"] = f"{type(exc).__name__}: {exc}"[:300]
            results.append(record)

        tasks = []
        for entry in segment:
            due = start + entry["due"] - offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(entry, due)))
        await asyncio.gather(*tasks)
        after = await client.counters()
    delta = {k: v - before.get(k, 0) for k, v in after.items()
             if isinstance(v, (int, float))}
    return {"ready": ready, "start": start, "results": results,
            "counters": delta, "measured_s": seconds}


def serve(args, tag: str) -> Outcome:
    rate = SERVE_RATES[args.workload]
    small, large = serve_bodies()
    if args.schedule:
        schedule = pm.read_jsonl(args.schedule)
    else:
        schedule = pm.arrival_schedule(args.seed, rate, args.seconds, small, large)
    pm.write_jsonl(OUT / f"{tag}.schedule.jsonl", schedule)
    bodies = {body_key(b): b for b in small + large}
    bodies.update((body_key(e), {"workload": e["workload"], "params": e["params"]})
                  for e in schedule)
    prep = time.monotonic()
    references, ref_tflops = reference_digests(list(bodies.values()))
    notes = {"verify_prep_s": round(time.monotonic() - prep, 3),
             "requests": len(schedule), "rate_rps": rate}

    plan = session_plan(args.trace, SERVE_SESSIONS)
    share = args.seconds / len(plan)
    sessions, records = [], []
    for index, traced in enumerate(plan):
        offset = index * share
        segment = [e for e in schedule if offset <= e["due"] < offset + share]
        spawn = time.monotonic()
        proc, port = _start_server(_trace_path(tag, index, traced))
        try:
            data = asyncio.run(_drive(port, list(bodies.values()), segment,
                                      offset, share, references, ref_tflops))
            rss = tree_peak_rss_mb(proc.pid)
        finally:
            _stop_server(proc)
        session = Session(traced, data["ready"] - spawn, rss,
                          measured_s=data["measured_s"], counters=data["counters"])
        for record in data["results"]:
            ok = "error" not in record and not record["wrong"]
            session.latencies.append(record["latency"] if ok else None)
            session.wrong += int("error" not in record and record["wrong"])
        if traced:
            session.spans, session.marks = _read_spans(tag, index, data["start"])
        sessions.append(session)
        records.extend((traced, r) for r in data["results"])

    pm.write_jsonl(OUT / f"{tag}.replies.jsonl",
                   ({"traced": traced, **r} for traced, r in records))
    untraced = [r for traced, r in records if not traced]
    lateness = [r["lateness"] for r in untraced]
    small_ok = [r["latency"] for r in untraced
                if r["class"] == "small" and "latency" in r and not r["wrong"]]
    invalid = []
    if lateness:
        level, late = pm.tail(lateness)
        notes["generator_lateness_ms"] = {"p50": round(1e3 * pm.median(lateness), 3),
                                          f"p{level:.1f}": round(1e3 * late, 3)}
        if pm.percentile(lateness, 99) > LATENESS_LIMIT_S:
            invalid.append(f"generator p99 lateness {pm.percentile(lateness, 99):.3f} s "
                           f"exceeds {LATENESS_LIMIT_S} s")
    if small_ok:
        level, value = pm.tail(small_ok)
        notes["small_class_tail_ms"] = {f"p{level:.1f}": round(1e3 * value, 3),
                                        "samples": len(small_ok)}
    errors = [r["error"] for _, r in records if "error" in r]
    if errors:
        notes["errors"] = errors[:5]
    gemm = [t for k, t in ref_tflops.items() if json.loads(k)[0] in GEMM_FAMILY]
    attention = [t for k, t in ref_tflops.items() if json.loads(k)[0] == "attention"]
    return Outcome(sessions, LATENCY_LIMIT_S, pm.geomean(gemm),
                   pm.geomean(attention), notes, invalid)


# ---------------------------------------------------------------------- metrics

def end_to_end(outcome: Outcome) -> dict:
    sessions = [s for s in outcome.sessions if not s.traced]
    latencies = [x for s in sessions for x in s.latencies]
    ok = [x for x in latencies if x is not None]
    if not ok:
        raise BenchError("no operation succeeded")
    level, tail_value = pm.tail(ok)
    measured = sum(s.measured_s for s in sessions)
    metrics = {
        "setup_s": (pm.median([s.setup_s for s in sessions]), "s"),
        "peak_rss_mb": (max(s.peak_rss_mb for s in sessions), "MB"),
        "tail_ms": (1e3 * tail_value, "ms"),
        "goodput_per_s": (pm.goodput(latencies, outcome.limit_s, measured), "1/s"),
        "sim_gemm_tflops": (outcome.sim_gemm_tflops, "TFLOP/s"),
        "sim_attention_tflops": (outcome.sim_attention_tflops, "TFLOP/s"),
    }
    # The median is printed but not gated: on serve_mixed it flips between
    # BLAS-threading regimes from run to run (README.md, "Not held steady").
    outcome.notes["p50_ms"] = round(1e3 * pm.median(ok), 3)
    outcome.notes["tail_level"] = round(level, 2)
    outcome.notes["samples"] = len(ok)
    return metrics


def per_layer(outcome: Outcome) -> dict:
    traced = [s for s in outcome.sessions if s.traced]
    untraced = [s for s in outcome.sessions if not s.traced]
    ops = sum(len(s.latencies) for s in traced) or 1
    spans = [span for s in traced for span in s.spans]
    own = pm.self_time_by_name(spans)
    counters: dict = {}
    for s in traced:
        for key, value in s.counters.items():
            counters[key] = counters.get(key, 0) + value
    marks = [m for s in traced for m in s.marks]

    def ms(name: str) -> float:
        return 1e3 * own.get(name, (0.0, 0))[0] / ops

    def calls(name: str) -> float:
        return own.get(name, (0.0, 0))[1] / ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    c = counters.get
    hits, misses = c("compile_cache_hits", 0), c("compile_cache_misses", 0)
    pool, fallback = c("pool_launches", 0), c("pool_fallback_launches", 0)
    events = c("engine_events", 0)
    ctas = c("plan_ctas", 0) + c("interpreter_ctas", 0) + c("codegen_ctas_batched", 0)
    waits = [m["build_start"] - m["admitted"] for m in marks]
    service = [m["finished"] - m["build_start"] for m in marks]
    traced_ok = [x for s in traced for x in s.latencies if x is not None]
    untraced_ok = [x for s in untraced for x in s.latencies if x is not None]
    overhead = (pm.median(traced_ok) - pm.median(untraced_ok)
                if traced_ok and untraced_ok else 0.0)
    base = pm.median(untraced_ok) if untraced_ok else 0.0
    return {
        "frontend.specialize_ms": (ms("frontend.specialize"), "ms/op"),
        "frontend.specialize_calls": (calls("frontend.specialize"), "count/op"),
        "frontend.build_module_ms": (ms("frontend.build_module"), "ms/op"),
        "ir.passes_ms": (ms("ir.passes"), "ms/op"),
        "ir.passes_run": (c("compile_passes_run", 0) / ops, "count/op"),
        "ir.verify_ms": (ms("ir.verify"), "ms/op"),
        "ir.verify_calls": (calls("ir.verify"), "count/op"),
        "core.compile_ms": (ms("core.compile"), "ms/op"),
        "core.compile_calls": (calls("core.compile"), "count/op"),
        "core.compile_miss_ratio": (ratio(misses, hits + misses), "ratio"),
        "core.singleflight_waits": (c("compile_singleflight_waits", 0) / ops, "count/op"),
        "gpusim.plan_build_ms": (ms("gpusim.plan_build"), "ms/op"),
        "gpusim.plan_builds": (calls("gpusim.plan_build"), "count/op"),
        "gpusim.prepare_ms": (ms("gpusim.prepare"), "ms/op"),
        "gpusim.execute_ms": (ms("gpusim.launch"), "ms/op"),
        "gpusim.finalize_ms": (ms("gpusim.finalize"), "ms/op"),
        "gpusim.ctas": (ctas / ops, "count/op"),
        "gpusim.engine_events": (events / ops, "count/op"),
        "gpusim.us_per_event": (ratio(1e6 * own.get("gpusim.launch", (0.0, 0))[0],
                                      events), "us"),
        "gpusim.pool_launches": (pool / ops, "count/op"),
        "gpusim.pool_fallback_ratio": (ratio(fallback, pool + fallback), "ratio"),
        "gpusim.pool_busy_rejections": (c("pool_busy_rejections", 0) / ops, "count/op"),
        "workloads.inputs_ms": (ms("workloads.inputs"), "ms/op"),
        "serve.digest_ms": (ms("serve.digest"), "ms/op"),
        "serve.queue_wait_ms.p50": (1e3 * pm.percentile(waits, 50) if waits else 0.0, "ms"),
        "serve.queue_wait_ms.p99": (1e3 * pm.percentile(waits, 99) if waits else 0.0, "ms"),
        "serve.service_ms.p50": (1e3 * pm.percentile(service, 50) if service else 0.0, "ms"),
        "serve.batch_launches_mean": (ratio(c("serve_batched_launches", 0),
                                            c("serve_batches", 0)), "count"),
        "serve.coalesce_ratio": (ratio(c("serve_coalesced_requests", 0),
                                       c("serve_requests", 0)), "ratio"),
        "serve.shed_ratio": (ratio(c("serve_shed_requests", 0),
                                   c("serve_requests", 0)), "ratio"),
        "trace.overhead_ms": (1e3 * overhead, "ms"),
        "trace.overhead_pct": (100.0 * ratio(overhead, base), "%"),
    }


# ---------------------------------------------------------------------- main

RUNNERS = {"paper_figures": paper_figures, "kernel_devloop": kernel_devloop,
           **{name: serve for name in SERVE_RATES}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--schedule", default=None,
                        help="replay a serve schedule written by an earlier run")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    removed = scrub_environment()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = record_environment(removed)
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    (OUT / f"{tag}.env.json").write_text(json.dumps(env, indent=2) + "\n")
    print(f"perfbench: environment {json.dumps(env, sort_keys=True)}")

    try:
        outcome = RUNNERS[args.workload](args, tag)
        metrics = per_layer(outcome) if args.trace else end_to_end(outcome)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {args.workload} could not run: {exc}", file=sys.stderr)
        return 1
    attempted = sum(len(s.latencies) for s in outcome.sessions)
    failed = sum(1 for s in outcome.sessions for x in s.latencies if x is None)
    wrong = sum(s.wrong for s in outcome.sessions)
    for name, (value, unit) in metrics.items():
        print(f"perfbench: {args.workload} {name} = {value:.6g} {unit}")
    print(f"perfbench: {args.workload} attempted {attempted}, failed {failed}, "
          f"wrong {wrong}; {json.dumps(outcome.notes, sort_keys=True)}")
    for reason in outcome.invalid:
        print(f"perfbench: INVALID RUN: {reason}")
    result = {
        "correct": wrong == 0 and not outcome.invalid,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
