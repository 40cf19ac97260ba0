"""Workload ``serve_mixed``: one ``repro serve`` process, two connections.

One round:

* setup: start ``repro serve --shards 2`` (through ``entry.py``), wait
  for its listening line, connect both clients, ``hello`` on each, and
  warm up with one batch and one read per connection;
* bulk connection (binary wire, closed loop: the next frame goes out
  when the previous one is acked), 4096-value frames, 2^23 values over
  16 streams in four phases of four streams each, every phase ending
  with a read of its streams:
  ``sum_well`` (``add_batch`` of well-conditioned data),
  ``sum_cancel`` (``add_batch`` of massive-cancellation data),
  ``dot`` (``add_pairs`` of random pairs, 2048 pairs a frame, read
  with ``dot``), and ``mapreduce`` (each stream's batches alternate
  between two partial streams, which a ``merge`` op then combines:
  the serve tier's own map and exact reduce);
* chatty connection (JSON wire, open loop at ``CHATTY_RATE`` ops per
  second from the start of the bulk phases until they end, and for at
  least ``MIN_CHATTY_OPS`` ops): half ``value`` reads of the bulk
  streams, half 8-value ``add_array`` writes into 256 small streams, so
  every phase runs under the same chatty load. Each op is timed from
  the moment it was due, and the generator's lateness is reported. A
  round has at least 1200 samples of each kind, so its p99 has at
  least 12 beyond it;
* recovery: SIGTERM makes the server save every stream to its
  ``--state-path``; ``recover_s`` runs from starting a new server on
  that file to the first correct read.

Every bulk stream, merged stream and small stream is checked bit for
bit against the serial sparse reference, before and after the restart.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List

import numpy as np

import common
import layers
from tracer import Tracer

WORKERS = 2  # shards
FRAME = 4096
STREAM_VALUES = 1 << 19
PHASE_STREAMS = 4
SMALL_STREAMS = 256
CHATTY_RATE = 800.0  # ops per second
MIN_CHATTY_OPS = 2400
MAX_CHATTY_OPS = 1 << 16
CHATTY_BATCH = 8


def prepare(seed: int) -> Dict[str, Any]:
    from repro.data import generate

    phases: Dict[str, Any] = {}
    refs: Dict[str, str] = {}
    for k, (phase, dist) in enumerate(
        (("sum_well", "well"), ("sum_cancel", "cancel"), ("mapreduce", "random"))
    ):
        data = generate(dist, PHASE_STREAMS * STREAM_VALUES, delta=600, seed=seed + k)
        parts = np.split(data, PHASE_STREAMS)
        phases[phase] = parts
        for i, part in enumerate(parts):
            refs[f"{phase}{i}"] = common.reference_hex(part)
    half = STREAM_VALUES // 2
    x = generate("random", PHASE_STREAMS * half, delta=400, seed=seed + 10)
    y = generate("random", PHASE_STREAMS * half, delta=400, seed=seed + 11)
    phases["dot"] = list(zip(np.split(x, PHASE_STREAMS), np.split(y, PHASE_STREAMS)))
    for i, (xi, yi) in enumerate(phases["dot"]):
        refs[f"dot{i}"] = common.reference_hex(common.dot_terms(xi, yi))
    rng = np.random.default_rng(seed + 20)
    writes = MAX_CHATTY_OPS // 2
    chatty = {
        "values": generate("random", writes * CHATTY_BATCH, delta=600, seed=seed + 21),
        "targets": rng.integers(0, SMALL_STREAMS, size=writes),
        "reads": rng.integers(0, len(refs), size=writes),
    }
    return {"phases": phases, "refs": refs, "chatty": chatty,
            "host_ref_input": phases["sum_well"][0]}


def _bulk_streams(ctx) -> List[str]:
    """Readable bulk stream names (a mapreduce stream lives in its ``.b``)."""
    return [n + ".b" if n.startswith("mapreduce") else n for n in sorted(ctx["refs"])]


async def _chatty(client, ctx, bulk_done: asyncio.Event, out: Dict[str, Any]) -> int:
    """The open-loop chatty schedule; returns the number of ops issued."""
    chatty, streams = ctx["chatty"], _bulk_streams(ctx)

    async def send(i: int) -> List[float]:
        w = i // 2
        if i % 2 == 0:
            values = chatty["values"][w * CHATTY_BATCH:(w + 1) * CHATTY_BATCH]
            await client.add_array(f"small{chatty['targets'][w]}", values)
            return out["write_lat"]
        await client.value(streams[chatty["reads"][w]])
        return out["read_lat"]

    return await common.open_loop(
        CHATTY_RATE, MIN_CHATTY_OPS, MAX_CHATTY_OPS, bulk_done, send, out)


def _bulk_name(phase: str, i: int, j: int) -> str:
    """Stream of frame ``j`` of stream ``i``: mapreduce frames alternate
    between two partial streams that a ``merge`` joins afterwards."""
    if phase != "mapreduce":
        return f"{phase}{i}"
    return f"{phase}{i}" + (".a" if j % 2 == 0 else ".b")


async def _bulk(client, ctx, gate: common.Gate, out: Dict[str, Any]) -> None:
    phases, refs = ctx["phases"], ctx["refs"]
    values = 0
    total_s = 0.0
    for phase in ("sum_well", "sum_cancel", "dot", "mapreduce"):
        parts = phases[phase]
        t = time.perf_counter()
        if phase == "dot":
            step = FRAME // 2
            for lo in range(0, parts[0][0].size, step):
                for i, (xi, yi) in enumerate(parts):
                    await client.add_pairs(f"dot{i}", xi[lo:lo + step], yi[lo:lo + step])
            got = [await client.dot(f"dot{i}") for i in range(len(parts))]
            elems = sum(xi.size for xi, _ in parts)
            out["attempted"] += elems // step + len(parts)
        else:
            for j, lo in enumerate(range(0, STREAM_VALUES, FRAME)):
                for i, part in enumerate(parts):
                    await client.add_batch(_bulk_name(phase, i, j), part[lo:lo + FRAME])
            if phase == "mapreduce":
                for i in range(len(parts)):
                    await client.merge(f"mapreduce{i}.a", f"mapreduce{i}.b")
                got = [await client.value(f"mapreduce{i}.b") for i in range(len(parts))]
            else:
                got = [await client.value(f"{phase}{i}") for i in range(len(parts))]
            elems = sum(p.size for p in parts)
            out["attempted"] += elems // FRAME + len(parts) * (2 if phase == "mapreduce" else 1)
        dt = time.perf_counter() - t
        for i, value in enumerate(got):
            gate.check(f"serve {phase}{i}", value, refs[f"{phase}{i}"])
        out[f"{phase}_melem_s"] = elems / dt / 1e6
        values += elems
        total_s += dt
    out["values_s"] = values / total_s


async def _verify(client, ctx, gate: common.Gate, small_refs: Dict[str, str],
                  when: str) -> None:
    for name, ref in ctx["refs"].items():
        if name.startswith("dot"):
            got = await client.dot(name)
        else:
            got = await client.value(name + (".b" if name.startswith("mapreduce") else ""))
        gate.check(f"serve {when} {name}", got, ref)
    for name, ref in small_refs.items():
        gate.check(f"serve {when} {name}", await client.value(name), ref)


def _small_refs(ctx, issued: int) -> Dict[str, str]:
    """References of the small streams after the first ``issued`` chatty ops."""
    chatty = ctx["chatty"]
    per: Dict[int, List[np.ndarray]] = {}
    for w in range((issued + 1) // 2):
        per.setdefault(int(chatty["targets"][w]), []).append(
            chatty["values"][w * CHATTY_BATCH:(w + 1) * CHATTY_BATCH])
    return {f"small{s}": common.reference_hex(np.concatenate(v)) for s, v in per.items()}


async def _round(ctx, gate, traced: bool, tracer: Tracer) -> Dict[str, Any]:
    from repro.serve import ReproServeClient

    state = common.WORK / "serve.state"
    state.unlink(missing_ok=True)
    args = ["serve", "--host", "127.0.0.1", "--port", "0", "--shards", str(WORKERS),
            "--state-path", str(state)]
    out: Dict[str, Any] = {"attempted": 0, "failed": 0, "write_lat": [], "read_lat": [],
                           "lateness": []}
    server = common.ServerProcess("serve", args, trace=traced)
    restarted = common.ServerProcess("serve-restart", args, trace=traced)
    docs: Dict[str, Any] = {}
    try:
        t0 = time.perf_counter()
        server.start()
        bulk = await ReproServeClient.connect(port=server.port, wire="binary")
        chatty = await ReproServeClient.connect(port=server.port)
        await chatty.hello(wire="json")
        warm = ctx["phases"]["sum_well"][0][:FRAME]
        await bulk.add_batch("warm", warm)
        await bulk.value("warm")
        await chatty.add_array("warm.json", warm[:CHATTY_BATCH])
        await chatty.value("warm.json")
        out["setup_s"] = time.perf_counter() - t0

        lo = time.perf_counter_ns()
        bulk_done = asyncio.Event()
        with tracer.span("bench.serve.bulk", awaits=True):
            _, issued = await asyncio.gather(
                common.then_set(_bulk(bulk, ctx, gate, out), bulk_done),
                _chatty(chatty, ctx, bulk_done, out))
        hi = time.perf_counter_ns()
        out["attempted"] += issued
        small_refs = _small_refs(ctx, issued)
        await _verify(bulk, ctx, gate, small_refs, "live")
        stats = await bulk.stats()
        out["rss_mb"] = server.rss_mb()
        await bulk.close()
        await chatty.close()
        docs["server"] = server.stop()

        t = time.perf_counter()
        restarted.start()
        reader = await ReproServeClient.connect(port=restarted.port)
        first = await reader.value("sum_well0")
        out["recover_s"] = time.perf_counter() - t
        gate.check("serve recovered sum_well0", first, ctx["refs"]["sum_well0"])
        await _verify(reader, ctx, gate, small_refs, "recovered")
        await reader.close()
        docs["restart"] = restarted.stop()
    finally:
        server.kill()
        restarted.kill()

    wire = stats.get("wire", {})
    out["counts"] = {
        f"wire.{mode}.{key}": wire[mode][key]
        for mode in sorted(wire) for key in ("frames", "payload_bytes", "values")
    }
    for key in ("batches_folded", "mean_batch_values", "max_coalesced_ops",
                "queue_depth_peak", "queue_rejections", "errors_total"):
        out["counts"][key] = stats[key]
    out["counts"]["chatty_ops"] = issued
    out["counts"]["chatty_late_p99_ms"] = round(common.quantile(out["lateness"], 0.99) * 1e3, 3)
    if traced:
        extra = {f"serve.shards.{k}": stats[k] for k in
                 ("batches_folded", "mean_batch_values", "max_coalesced_ops", "queue_depth_peak")}
        loader = {"spans": tracer.spans, "counts": dict(tracer.counts)}
        out["layers"] = layers.per_layer([loader, docs["server"], docs["restart"]], extra)
        out["processes"] = common.traced_processes(
            loader, (lo, hi), {f"serve {key}": doc for key, doc in docs.items()})
    return out


def run_round(ctx: Dict[str, Any], gate: common.Gate, traced: bool) -> Dict[str, Any]:
    return common.run_async_round(_round, ctx, gate, traced)
