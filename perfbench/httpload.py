"""The HTTP workloads: ``interactive`` and ``live``.

The program's server runs as its own process (``server.py``); this
process is the load generator: one thread per tenant, each a closed
loop over its own connection (the server speaks HTTP/1.0, so one
connection per request, at most two open at once). Set-up is timed
from spawning the server until it has ingested every house and
answered the warm-up sweep.
"""

from __future__ import annotations

import functools
import http.client
import itertools
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import common
import inputs
from common import APPLIANCES, WINDOW, check

HERE = Path(__file__).resolve().parent
TENANTS = ("t0", "t1")
HOUSE = "h0"
SETUP_REPEATS = 5


class Server:
    """One server process; stdin EOF asks it to drain and exit."""

    def __init__(self, trace: bool):
        cmd = [sys.executable, str(HERE / "server.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(
            cmd, cwd=str(common.ROOT), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> dict:
        self.proc.stdin.close()
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        code = self.proc.wait(timeout=60)
        if code != 0:
            raise RuntimeError(f"server exited with {code}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def call(port: int, method: str, path: str, tenant: str, body=None):
    """One request: ``(status, payload, request id, seconds, net seconds)``,
    the last with host steal taken out (``common.net_seconds``)."""
    data = None if body is None else json.dumps(body).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        stolen = common.steal_seconds()
        start = time.perf_counter()
        conn.request(method, path, body=data, headers={
            "X-Tenant-Id": tenant, "Content-Type": "application/json",
        })
        response = conn.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - start
        net = common.net_seconds(elapsed, stolen, common.steal_seconds())
    finally:
        conn.close()
    return response.status, json.loads(raw), response.getheader("X-Request-Id"), elapsed, net


class Client:
    """Set-up and check requests: each must succeed; request ids kept."""

    def __init__(self, port: int, acct, phase: str):
        self.port, self.acct, self.phase = port, acct, phase
        self.request_ids: set[str] = set()

    def ok(self, method: str, path: str, tenant: str, body=None) -> dict:
        status, payload, rid, _, _ = call(self.port, method, path, tenant, body)
        self.request_ids.add(rid)
        self.acct.add(self.phase, status in (200, 201))
        check(status in (200, 201), f"{self.phase}: {method} {path}: HTTP {status}: {payload}")
        return payload


def _create_house(client: Client, tenant: str, watts: np.ndarray, appliances) -> None:
    client.ok("POST", "/houses", tenant, {"house_id": HOUSE})
    client.ok("POST", f"/houses/{HOUSE}/ingest", tenant, {"watts": watts.tolist()})
    for appliance in appliances:
        client.ok("POST", f"/houses/{HOUSE}/devices", tenant, {"appliance": appliance})


# -- the closed loops ------------------------------------------------------


def _lockstep(rounds_for, seconds: float) -> list[dict]:
    """Run each tenant's rounds of ops, every op starting on a shared tick.

    ``rounds_for(i)`` yields tenant ``i``'s rounds, each a list of
    zero-argument ops returning an op record; every tenant's rounds hold
    the same number of ops. Lockstep fixes how the tenants' requests
    overlap: free-running tenants drift in and out of phase, and the
    server's coalescing and lock contention shift with them for seconds
    at a time. Both tenants stop after the same whole round.
    """
    deadline = time.perf_counter() + seconds
    tick = threading.Barrier(len(TENANTS), timeout=120)
    stop = threading.Event()
    results = [[] for _ in TENANTS]
    errors = []

    def body(i):
        try:
            for r, ops in enumerate(rounds_for(i)):
                if tick.wait() == 0 and time.perf_counter() >= deadline:
                    stop.set()
                tick.wait()
                if stop.is_set():
                    return
                for k, op in enumerate(ops):
                    if k:
                        tick.wait()
                    record = op()
                    record.update(tenant=i, round=r, end=time.perf_counter())
                    results[i].append(record)
        except BaseException as err:  # surfaced below, after the join
            tick.abort()  # release the other tenant
            errors.append(err)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(len(TENANTS))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 120)
        check(not t.is_alive(), "load generator thread did not finish")
    if errors:  # the first real error, not the other tenant's broken barrier
        raise min(errors, key=lambda e: isinstance(e, threading.BrokenBarrierError))
    return [op for ops in results for op in ops]


# -- interactive -------------------------------------------------------------


class Interactive:
    """Two tenants page Prev/Next through 1-day windows, both appliances."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.houses = [
            inputs.house_series(rng, inputs.INTERACTIVE_DAYS * inputs.DAY)[0]
            for _ in TENANTS
        ]
        self.walk_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(TENANTS))]

    def order(self, i: int) -> tuple[str, ...]:
        # Opposite orders: in lockstep the tenants always sweep different
        # models side by side, each request a batch of one. (Same-model
        # pairs would coalesce into two-window sweeps, which make the
        # server's peak RSS wander between runs; see README.)
        return APPLIANCES if i % 2 == 0 else APPLIANCES[::-1]

    def setup(self, client: Client) -> None:
        for tenant, watts in zip(TENANTS, self.houses):
            _create_house(client, tenant, watts, APPLIANCES)
        for tenant in TENANTS:
            for appliance in APPLIANCES:
                client.ok("POST", f"/houses/{HOUSE}/localize", tenant, {
                    "appliance": appliance, "start": inputs.WARMUP_START, "length": WINDOW,
                })

    def measure(self, ports: list[int], seconds: float) -> list[dict]:
        def localize(port, tenant, appliance, page, revisit):
            body = {"appliance": appliance, "start": page, "length": WINDOW}
            status, payload, rid, elapsed, net = call(
                port, "POST", f"/houses/{HOUSE}/localize", tenant, body)
            return {"arm": ports.index(port), "appliance": appliance, "start": page,
                    "revisit": revisit, "status": status, "payload": payload,
                    "requests": [(rid, elapsed)], "latency": elapsed, "net": net}

        def rounds_for(i):
            rng = np.random.default_rng(self.walk_seeds[i])
            for r, (new_pages, revisit) in enumerate(inputs.interactive_pages(rng)):
                port = ports[r % len(ports)]
                pages = [(p, False) for p in new_pages] + [(revisit, True)]
                yield [
                    functools.partial(localize, port, TENANTS[i], appliance, page, hit)
                    for page, hit in pages
                    for appliance in self.order(i)
                ]

        return _lockstep(rounds_for, seconds)

    def check(self, client: Client, ops: list[dict]) -> None:
        first: dict[tuple, dict] = {}
        for op in ops:
            payload = op["payload"]
            key = (op["tenant"], op["appliance"], op["start"])
            checks.localize_payload(payload, op["start"], WINDOW)
            check(payload["cached"] == op["revisit"],
                  f"cache use {payload['cached']} on a {'revisit' if op['revisit'] else 'new page'}")
            if payload["cached"]:
                uncached = dict(first[key], cached=True)
                check(payload == uncached, f"cached answer differs from the first: {key}")
            else:
                first[key] = payload
            client.acct.add("check", True)
        # Reference: every 16th miss, up to eight windows.
        misses = [op for op in ops if not op["revisit"]][::16][:8]
        models = checks.program_models()
        for op in misses:
            watts = self.houses[op["tenant"]][op["start"] : op["start"] + WINDOW]
            checks.against_reference(models[op["appliance"]], watts, op["payload"])
            client.acct.add("check", True)


# -- live ----------------------------------------------------------------------


class Live:
    """Two tenants append meter readings and refresh the live 1-day view."""

    MINUTES = 4000

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.history = [
            inputs.house_series(rng, inputs.LIVE_HISTORY_DAYS * inputs.DAY)[0]
            for _ in TENANTS
        ]
        self.streams = [inputs.live_stream(rng, self.MINUTES) for _ in TENANTS]

    def appliance(self, i: int) -> str:
        return APPLIANCES[i % len(APPLIANCES)]

    def setup(self, client: Client) -> None:
        for i, (tenant, watts) in enumerate(zip(TENANTS, self.history)):
            _create_house(client, tenant, watts, (self.appliance(i),))
        for i, tenant in enumerate(TENANTS):
            client.ok("GET", f"/houses/{HOUSE}/live_localize?appliance={self.appliance(i)}"
                       f"&window={WINDOW}", tenant)

    def measure(self, ports: list[int], seconds: float) -> list[dict]:
        chunks = self.MINUTES * inputs.LIVE_FACTOR // inputs.LIVE_CHUNK

        def append_and_refresh(arm, i, n):
            # ``n`` counts this tenant's ops on this server: each server's
            # house receives one contiguous stream.
            port = ports[arm]
            tenant, appliance = TENANTS[i], self.appliance(i)
            at = (n % chunks) * inputs.LIVE_CHUNK
            chunk = self.streams[i][at : at + inputs.LIVE_CHUNK].tolist()
            a = call(port, "POST", f"/houses/{HOUSE}/append", tenant,
                     {"watts": chunk, "factor": inputs.LIVE_FACTOR})
            r = call(port, "GET", f"/houses/{HOUSE}/live_localize?appliance={appliance}"
                     f"&window={WINDOW}", tenant)
            return {"arm": arm, "n": n, "status": max(a[0], r[0]),
                    "append": a[1], "payload": r[1],
                    "requests": [(a[2], a[3]), (r[2], r[3])], "latency": a[3] + r[3],
                    "net": a[4] + r[4]}

        def rounds_for(i):
            for r in itertools.count():
                arm, k = r % len(ports), r // len(ports)
                yield [
                    functools.partial(append_and_refresh, arm, i, n)
                    for n in range(k * inputs.LIVE_ROUND, (k + 1) * inputs.LIVE_ROUND)
                ]

        return _lockstep(rounds_for, seconds)

    def check(self, client: Client, ops: list[dict]) -> None:
        per_sample = inputs.LIVE_CHUNK // inputs.LIVE_FACTOR
        for op in ops:
            total = self.history[op["tenant"]].size + per_sample * (op["n"] + 1)
            payload = op["payload"]
            check(op["append"]["committed"] == per_sample, f"append committed {op['append']}")
            check(op["append"]["n_steps"] == total, "append total differs from samples sent")
            check(payload["start"] + payload["length"] == total,
                  f"live window ends at {payload['start'] + payload['length']}, appended {total}")
            check(not payload["cached"], "a refresh after an append was served from cache")
            checks.localize_payload(payload, payload["start"], payload["length"])
            client.acct.add("check", True)
        # Cold sweeps: every 25th refresh per tenant, up to five each.
        models = checks.program_models()
        for i, tenant in enumerate(TENANTS):
            sample = [op for op in ops if op["tenant"] == i][::25][:5]
            for op in sample:
                payload = op["payload"]
                series = client.ok("GET", f"/houses/{HOUSE}/series?start={payload['start']}"
                                    f"&length={payload['length']}", tenant)
                watts = np.array([np.nan if w is None else w for w in series["watts"]])
                checks.equals_cold_sweep(models[self.appliance(i)], watts, payload)


# -- driver ----------------------------------------------------------------------


def run(workload_cls, seed: int, seconds: float, trace: bool, acct) -> dict:
    """Untraced: set up five times (timed; the last server is kept),
    measure, check. Traced: an untraced and a traced server, set up once
    each, serve alternate rounds of one measurement, so both arms see the
    same host conditions."""
    workload = workload_cls(seed)
    if not trace:
        setups = []
        for attempt in range(SETUP_REPEATS):
            stolen, start = common.steal_seconds(), time.perf_counter()
            server = Server(trace=False)
            try:
                workload.setup(Client(server.port, acct, "setup"))
                elapsed = time.perf_counter() - start
                setups.append((elapsed, common.net_seconds(elapsed, stolen, common.steal_seconds())))
                if attempt == SETUP_REPEATS - 1:
                    (phase,) = _measure(workload, [server], seconds, acct)
                else:
                    server.stop()
            finally:
                server.kill()
        return {"phase": phase, "setups": setups}
    servers = []
    try:
        clients = []
        for traced in (False, True):
            servers.append(Server(trace=traced))
            clients.append(Client(servers[-1].port, acct, "setup"))
            workload.setup(clients[-1])
        plain, traced = _measure(workload, servers, seconds, acct)
    finally:
        for server in servers:
            server.kill()
    traced["setup_requests"] = clients[1].request_ids
    return {"phases": {"measure": plain, "measure-traced": traced}}


def _measure(workload, servers, seconds, acct) -> list[dict]:
    """One measurement; round ``r`` goes to ``servers[r % len(servers)]``.
    Returns one phase per server, each checked against its own server."""
    cpu0 = [common.cpu_seconds(s.pid) for s in servers]
    steal0, start = common.steal_seconds(), time.perf_counter()
    ops = workload.measure([s.port for s in servers], seconds)
    wall = time.perf_counter() - start
    cpu = [common.cpu_seconds(s.pid) - c for s, c in zip(servers, cpu0)]
    steal = common.steal_seconds() - steal0
    phases = []
    for arm, server in enumerate(servers):
        label = ("measure", "measure-traced")[arm]
        rss = common.rss_peak_mb(server.pid)
        arm_ops = [op for op in ops if op["arm"] == arm]
        failed = sum(op["status"] != 200 for op in arm_ops)
        acct.merge(label, len(arm_ops), failed)
        workload.check(Client(server.port, acct, "check"),
                       [op for op in arm_ops if op["status"] == 200])
        phases.append({
            "ops": arm_ops, "wall": wall, "cpu": cpu[arm], "rss": rss, "steal": steal,
            "attempted": len(arm_ops), "failed": failed, "spans": server.stop()["spans"],
        })
    return phases
