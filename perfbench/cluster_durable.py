"""Workload ``cluster_durable``: two WAL-backed nodes, then a restart.

One round:

* setup: start two ``repro cluster node`` processes (2 shards each,
  fresh WALs), build a ``ClusterCoordinator`` over them in this process
  (replication 2, binary wire), ping both (connect and ``hello``), and
  warm up with one replicated append and one read;
* two concurrent closed-loop appenders, 4096-value batches, 2^22
  values over 8 streams in four phases of two streams each (one per
  appender), every phase ending with a read of its streams:
  ``sum_well`` and ``sum_cancel`` (replicated ``append``: acked once
  both nodes hold the batch durably), ``dot`` (``scatter_reduce`` of
  random pairs, 2048 pairs a batch) and ``mapreduce``
  (``scatter``): both striped over the nodes and read back by
  ``gather_value``, the coordinator's exact merge of per-node partials;
* an open-loop reader issues coordinator ``value`` reads of the
  replicated streams at ``READ_RATE`` per second from the start of the
  appenders until they end, and at least ``MIN_READS`` of them, each
  timed from the moment it was due (a round has 1280 write and at
  least 1200 read samples, so each p99 has at least 12 beyond it);
* recovery: node ``n1`` is stopped, and ``recover_s`` runs from
  starting it again on its WAL (a fixed length: the same records every
  round) to its first correct read.

Writes are the appenders' batches; every stream is checked bit for bit
against the serial sparse reference before and after the restart.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from typing import Any, Dict, List

import numpy as np

import common
import layers
from tracer import Tracer

WORKERS = 2  # shards per node, and nodes
FRAME = 4096
STREAM_VALUES = 1 << 19
APPENDERS = 2
READ_RATE = 400.0  # reads per second
MIN_READS = 1200
MAX_READS = 1 << 15
REPLICATED = ("sum_well", "sum_cancel")


def prepare(seed: int) -> Dict[str, Any]:
    from repro.data import generate

    phases: Dict[str, Any] = {}
    refs: Dict[str, str] = {}
    for k, (phase, dist) in enumerate(
        (("sum_well", "well"), ("sum_cancel", "cancel"), ("mapreduce", "random"))
    ):
        data = generate(dist, APPENDERS * STREAM_VALUES, delta=600, seed=seed + k)
        phases[phase] = np.split(data, APPENDERS)
        for i, part in enumerate(phases[phase]):
            refs[f"{phase}{i}"] = common.reference_hex(part)
    x = generate("random", APPENDERS * STREAM_VALUES, delta=400, seed=seed + 10)
    y = generate("random", APPENDERS * STREAM_VALUES, delta=400, seed=seed + 11)
    phases["dot"] = list(zip(np.split(x, APPENDERS), np.split(y, APPENDERS)))
    for i, (xi, yi) in enumerate(phases["dot"]):
        refs[f"dot{i}"] = common.reference_hex(common.dot_terms(xi, yi))
    rng = np.random.default_rng(seed + 20)
    replicated = [f"{p}{i}" for p in REPLICATED for i in range(APPENDERS)]
    reads = [replicated[j] for j in rng.integers(0, len(replicated), size=MAX_READS)]
    return {"phases": phases, "refs": refs, "reads": reads,
            "host_ref_input": phases["sum_well"][0]}


async def _appender(coord, phase: str, i: int, part, out: Dict[str, Any]) -> int:
    """Closed loop over one stream; returns the elements acked."""
    writes = out["write_lat"]
    stream = f"{phase}{i}"
    acked = 0
    if phase == "dot":
        xi, yi = part
        step = FRAME // 2
        for lo in range(0, xi.size, step):
            t = time.perf_counter()
            acked += await coord.scatter_reduce(
                stream, "pairs", xi[lo:lo + step], yi[lo:lo + step], chunk=step)
            writes.append(time.perf_counter() - t)
        return acked
    for lo in range(0, part.size, FRAME):
        t = time.perf_counter()
        if phase in REPLICATED:
            acked += (await coord.append(stream, part[lo:lo + FRAME]))["added"]
        else:
            acked += await coord.scatter(stream, part[lo:lo + FRAME], chunk=FRAME)
        writes.append(time.perf_counter() - t)
    return acked


async def _read(coord, stream: str) -> float:
    if stream.startswith(REPLICATED):
        return float((await coord.value(stream))["value"])
    return float((await coord.gather_value(stream))["value"])


async def _reader(coord, ctx, bulk_done: asyncio.Event, out: Dict[str, Any]) -> int:
    """The open-loop read schedule; returns the number of reads issued."""
    streams = ctx["reads"]

    async def send(i: int) -> List[float]:
        await coord.value(streams[i])
        return out["read_lat"]

    return await common.open_loop(READ_RATE, MIN_READS, MAX_READS, bulk_done, send, out)


async def _bulk(coord, ctx, gate: common.Gate, out: Dict[str, Any]) -> None:
    values = 0
    total_s = 0.0
    for phase in ("sum_well", "sum_cancel", "dot", "mapreduce"):
        parts = ctx["phases"][phase]
        t = time.perf_counter()
        acked = await asyncio.gather(
            *(_appender(coord, phase, i, part, out) for i, part in enumerate(parts)))
        got = [await _read(coord, f"{phase}{i}") for i in range(len(parts))]
        dt = time.perf_counter() - t
        elems = sum(acked)
        step = FRAME // 2 if phase == "dot" else FRAME
        out["attempted"] += elems // step + len(parts)
        for i, value in enumerate(got):
            gate.check(f"cluster {phase}{i}", value, ctx["refs"][f"{phase}{i}"])
        out[f"{phase}_melem_s"] = elems / dt / 1e6
        values += elems
        total_s += dt
    out["values_s"] = values / total_s


async def _round(ctx, gate, traced: bool, tracer: Tracer) -> Dict[str, Any]:
    from repro.cluster import ClusterCoordinator, RemoteNodeHandle
    from repro.cluster.wal import read_wal

    wal_dir = common.WORK / "cluster"
    shutil.rmtree(wal_dir, ignore_errors=True)
    wal_dir.mkdir(parents=True)

    def node(nid: str, suffix: str = "") -> common.ServerProcess:
        return common.ServerProcess(
            f"cluster-{nid}{suffix}",
            ["cluster", "node", "--id", nid, "--host", "127.0.0.1", "--port", "0",
             "--wal", str(wal_dir / f"{nid}.wal"), "--shards", str(WORKERS)],
            trace=traced)

    nodes = {nid: node(nid) for nid in ("n0", "n1")}
    restarted = node("n1", "-restart")
    out: Dict[str, Any] = {"attempted": 0, "failed": 0, "write_lat": [], "read_lat": [],
                           "lateness": []}
    docs: Dict[str, Any] = {}
    coord = None
    try:
        t0 = time.perf_counter()
        for proc in nodes.values():
            proc.spawn()
        for proc in nodes.values():
            proc.wait_ready()
        handles = {nid: RemoteNodeHandle(nid, "127.0.0.1", p.port) for nid, p in nodes.items()}
        coord = ClusterCoordinator(list(handles.values()), replication=2)
        health = await coord.ping_all()
        if not all(health.values()):
            raise RuntimeError(f"cluster nodes not healthy: {health}")
        warm = ctx["phases"]["sum_well"][0][:FRAME]
        await coord.append("warm", warm)
        await coord.value("warm")
        out["setup_s"] = time.perf_counter() - t0

        lo = time.perf_counter_ns()
        bulk_done = asyncio.Event()
        with tracer.span("bench.cluster.bulk", awaits=True):
            _, issued = await asyncio.gather(
                common.then_set(_bulk(coord, ctx, gate, out), bulk_done),
                _reader(coord, ctx, bulk_done, out))
        hi = time.perf_counter_ns()
        out["attempted"] += issued

        stats = {nid: (await h.request("stats"))["stats"] for nid, h in handles.items()}
        out["rss_mb"] = sum(p.rss_mb() for p in nodes.values())
        failovers = coord.failovers
        await coord.close()
        coord = None
        docs["n1"] = nodes["n1"].stop()
        wal_n1, torn = read_wal(wal_dir / "n1.wal")

        t = time.perf_counter()
        restarted.start()
        handle = RemoteNodeHandle("n1", "127.0.0.1", restarted.port)
        first = (await handle.request("value", stream="sum_well0"))["value"]
        out["recover_s"] = time.perf_counter() - t
        gate.check("cluster recovered n1 sum_well0", first, ctx["refs"]["sum_well0"])
        for stream in (f"{p}{i}" for p in REPLICATED for i in range(APPENDERS)):
            got = (await handle.request("value", stream=stream))["value"]
            gate.check(f"cluster recovered n1 {stream}", got, ctx["refs"][stream])
        await handle.close()
        coord = ClusterCoordinator(
            [RemoteNodeHandle("n0", "127.0.0.1", nodes["n0"].port),
             RemoteNodeHandle("n1", "127.0.0.1", restarted.port)], replication=2)
        for name, ref in ctx["refs"].items():
            gate.check(f"cluster recovered {name}", await _read(coord, name), ref)
        await coord.close()
        coord = None
        docs["n0"] = nodes["n0"].stop()
        docs["n1-restart"] = restarted.stop()
    finally:
        if coord is not None:
            await coord.close()
        for proc in (*nodes.values(), restarted):
            proc.kill()

    counts: Dict[str, Any] = {
        "wal.n0.bytes": (wal_dir / "n0.wal").stat().st_size,
        "wal.n1.bytes": (wal_dir / "n1.wal").stat().st_size,
        "wal.n1.records": len(wal_n1),
        "wal.n1.torn_tail": int(torn),
        "wal_writer.records": docs["n0"]["wal_records"] + docs["n1"]["wal_records"],
        "wal_writer.batches": docs["n0"]["wal_batches"] + docs["n1"]["wal_batches"],
        "recovered_records": restarted.ready.get("recovered_records"),
        "failovers": failovers,
    }
    for nid, st in stats.items():
        for mode, w in sorted(st.get("wire", {}).items()):
            for key in ("frames", "payload_bytes", "values"):
                counts[f"{nid}.wire.{mode}.{key}"] = w[key]
        counts[f"{nid}.batches_folded"] = st["batches_folded"]
        counts[f"{nid}.errors_total"] = st["errors_total"]
    counts["read_late_p99_ms"] = round(common.quantile(out["lateness"], 0.99) * 1e3, 3)
    out["counts"] = counts
    if traced:
        folded = sum(st["batches_folded"] for st in stats.values())
        extra = {
            "serve.shards.batches_folded": folded,
            "serve.shards.mean_batch_values": (
                sum(st["mean_batch_values"] * st["batches_folded"] for st in stats.values())
                / folded if folded else 0.0),
            "serve.shards.max_coalesced_ops": max(st["max_coalesced_ops"] for st in stats.values()),
            "serve.shards.queue_depth_peak": max(st["queue_depth_peak"] for st in stats.values()),
            "cluster.coordinator.failovers": failovers,
        }
        loader = {"spans": tracer.spans, "counts": dict(tracer.counts)}
        procs = [loader, docs["n0"], docs["n1"], docs["n1-restart"]]
        out["layers"] = layers.per_layer(procs, extra)
        out["processes"] = common.traced_processes(
            loader, (lo, hi), {f"node {key}": doc for key, doc in docs.items()})
    return out


def run_round(ctx: Dict[str, Any], gate: common.Gate, traced: bool) -> Dict[str, Any]:
    return common.run_async_round(_round, ctx, gate, traced)
