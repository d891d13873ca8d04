"""CLI entry points of the serve layer.

``python -m repro.serve serve``   bind the TCP endpoint and serve forever
``python -m repro.serve client``  scripted client session (CI smoke driver)
``python -m repro.serve smoke``   server + client in one process, port 0

The client session exercises the full surface -- ping, workload listing, a
concurrent burst of launches (which the server admits into shared
micro-batches), digest agreement across identical requests, and a counters
fetch -- and exits non-zero on any failure, so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.gpusim.device import Device
from repro.serve.client import AsyncClient
from repro.serve.server import SimServer
from repro.serve.service import ServePolicy

DEFAULT_PORT = 7893


def _build_device(args: argparse.Namespace) -> Device:
    # --pool N is the deployment spelling of Device(workers=N); 0 disables
    # the pool (workers=0 would mean "one per CPU").
    return Device(mode=args.mode, workers=args.pool or 1)


def _build_policy(args: argparse.Namespace) -> ServePolicy:
    policy = ServePolicy.from_env()
    overrides = {}
    if args.max_batch is not None:
        overrides["max_batch"] = max(1, args.max_batch)
    if args.max_delay_ms is not None:
        overrides["max_delay"] = max(0.0, args.max_delay_ms / 1e3)
    if args.queue_limit is not None:
        overrides["queue_limit"] = max(1, args.queue_limit)
    if overrides:
        policy = ServePolicy(
            max_batch=overrides.get("max_batch", policy.max_batch),
            max_delay=overrides.get("max_delay", policy.max_delay),
            queue_limit=overrides.get("queue_limit", policy.queue_limit),
            warm_compiles=policy.warm_compiles,
        )
    return policy


async def _serve(args: argparse.Namespace) -> int:
    server = SimServer(_build_device(args), _build_policy(args),
                       host=args.host, port=args.port)
    async with server:
        print(f"repro-serve listening on {server.host}:{server.port}",
              flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
    return 0


async def _session(client: AsyncClient, workloads: list[str],
                   repeat: int) -> int:
    """One scripted client session; returns a process exit status."""
    if not await client.ping():
        print("serve-client: ping failed", file=sys.stderr)
        return 1
    registered = await client.list_workloads()
    print(f"serve-client: {len(registered)} workloads registered")
    names = workloads or ["softmax"]
    unknown = [name for name in names if name not in registered]
    if unknown:
        print(f"serve-client: unknown workloads {unknown}", file=sys.stderr)
        return 1
    for name in names:
        replies = await asyncio.gather(
            *[client.launch(name) for _ in range(repeat)])
        digests = {reply["digest"] for reply in replies}
        if len(digests) != 1:
            print(f"serve-client: {name}: {len(digests)} distinct digests "
                  "across identical requests", file=sys.stderr)
            return 1
        seconds = replies[0]["seconds"]
        print(f"serve-client: {name} x{repeat}: digest {digests.pop()[:12]} "
              f"sim {seconds * 1e6:.1f} us")
    counters = await client.counters()
    served = counters.get("serve_requests", 0)
    coalesced = counters.get("serve_coalesced_requests", 0)
    batches = counters.get("serve_batches", 0)
    print(f"serve-client: server counters: {served} requests, "
          f"{coalesced} coalesced, {batches} batches")
    if served < len(names) * repeat:
        print("serve-client: server did not count our requests",
              file=sys.stderr)
        return 1
    return 0


async def _client(args: argparse.Namespace) -> int:
    client = await AsyncClient.connect(args.host, args.port, wait=args.wait)
    async with client:
        if args.json:
            reply = await client.launch(
                args.workloads[0] if args.workloads else "softmax")
            print(json.dumps(reply, sort_keys=True))
            return 0
        return await _session(client, args.workloads, args.repeat)


async def _smoke(args: argparse.Namespace) -> int:
    server = SimServer(_build_device(args), _build_policy(args),
                       host="127.0.0.1", port=0)
    async with server:
        client = await AsyncClient.connect(server.host, server.port)
        async with client:
            return await _session(client, args.workloads, args.repeat)


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pool", type=int, default=2,
                        help="worker pool size (0 disables the pool)")
    parser.add_argument("--mode", choices=("functional", "performance"),
                        default="functional")
    parser.add_argument("--max-batch", type=int, default=None)
    parser.add_argument("--max-delay-ms", type=float, default=None)
    parser.add_argument("--queue-limit", type=int, default=None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Async simulation serving over the warm worker pool.")
    sub = parser.add_subparsers(dest="command")

    serve = sub.add_parser("serve", help="bind the TCP endpoint")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    _add_service_args(serve)

    client = sub.add_parser("client", help="scripted client session")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=DEFAULT_PORT)
    client.add_argument("--wait", type=float, default=0.0,
                        help="retry the connect for up to WAIT seconds")
    client.add_argument("--repeat", type=int, default=4,
                        help="concurrent identical launches per workload")
    client.add_argument("--json", action="store_true",
                        help="print one launch reply as JSON and exit")
    client.add_argument("workloads", nargs="*",
                        help="workload names (default: softmax)")

    smoke = sub.add_parser("smoke",
                           help="server + scripted client, one process")
    smoke.add_argument("--repeat", type=int, default=4)
    smoke.add_argument("workloads", nargs="*")
    _add_service_args(smoke)

    args = parser.parse_args(argv)
    if args.command is None:  # bare invocation binds the endpoint
        args = parser.parse_args(["serve"])
    runner = {"serve": _serve, "client": _client, "smoke": _smoke}[args.command]
    try:
        return asyncio.run(runner(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
