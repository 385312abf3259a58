"""Server process of the serving workloads, built from public API only.

``python3 perfbench/serve.py --workload serve_read --seed 1`` generates the
workload's residents, registers them with a default-configured
``QueryServer`` (thread workers), puts a ``NetServer`` in front, prints
``{"port": ..., "gen_s": ...}`` once it accepts connections, and serves
until SIGTERM.  After the graceful drain it prints the query server's
``stats()`` as one JSON line and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time

import common  # noqa: F401  (puts src/ on sys.path)
from workloads import residents


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    graphs, circuits = residents(args.workload, args.seed)
    gen_s = time.perf_counter() - t0

    from repro.service import QueryServer
    from repro.service.net import NetServer

    server = QueryServer()
    for gid, graph in graphs.items():
        if args.workload == "serve_rw":
            server.register_dynamic_graph(gid, graph)
        else:
            server.register_graph(gid, graph)
    for cid, builder in circuits.items():
        server.register_circuit(cid, builder)
    server.start()
    net = NetServer(server)

    async def serve() -> int:
        await net.start()
        print(json.dumps({"port": net.port, "gen_s": gen_s}), flush=True)
        return await net.run()

    asyncio.run(serve())
    print(json.dumps({"stats": server.stats(), "net": net.stats()}, default=str), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
