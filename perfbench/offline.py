"""Workload ``offline``: in-process library calls, no wire, queue or WAL.

One round, on n = 2^22 arrays made from the seed:

* setup: start the 2-worker MapReduce process pool and run one small
  job on it (the first call of the process-executor path is slow),
  ``SETUPS`` times, each after stopping the pool; ``setup_s`` is the
  median;
* the four bulk jobs, each timed alone: ``exact_sum`` with its default
  method on ``well`` and on ``cancel`` data, ``reduce.dot`` on a
  ``random`` pair, ``mapreduce.parallel_sum`` with 2 process workers
  over the shared-memory data plane. The two jobs that take well under
  a second run ``SHORT_REPEATS`` times and count their median;
* writes and reads: 4096-value folds into 64 in-process running-sum
  streams, each followed by a ``value`` read of one of them, one call
  at a time: the kernel and read-path work of a serve shard with no
  wire or queue in front of it;
* recovery: the float64 data the stream writes came from is written to
  a log file; ``recover_s`` runs from reading it back, through
  replaying every write into fresh streams, to the first correct read
  (the in-process counterpart of a node's WAL replay).

The writes and reads, and the replay, run in ``CHUNKS`` slices, one
after each of the 8 job calls (slice k replays segment k of the log),
so they sample the host across the round; ``recover_s`` is the sum of
the replay slices and the first read, the latencies are the mean of
the slices' percentiles (:func:`common.round_latency`).

Before the jobs, the planner is asked what it would route each sum
input to (``plan.*`` in the traced run); ``exact_sum`` itself does not
consult it.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Dict, List

import numpy as np

import common
import layers
from tracer import Tracer

N = 1 << 22
STREAMS = 64
BATCH = 4096
STREAM_WRITES = 2048
WORKERS = 2
SHORT_REPEATS = 3
SETUPS = 3  # pool starts a round; setup_s is their median
#: The stream writes and their replay are cut into one slice after each
#: of the 8 job calls, so that the latencies and ``recover_s`` sample
#: the host over the whole round rather than over one second of it.
CHUNKS = 8
CHUNK_WRITES = STREAM_WRITES // CHUNKS


def prepare(seed: int) -> Dict[str, Any]:
    from repro.data import generate

    rng = np.random.default_rng(seed)
    well = generate("well", N, delta=600, seed=seed)
    cancel = generate("cancel", N, delta=600, seed=seed + 1)
    # delta 400 keeps every product inside the TwoProduct domain
    x = generate("random", N, delta=400, seed=seed + 2)
    y = generate("random", N, delta=400, seed=seed + 3)
    mr = generate("random", N, delta=600, seed=seed + 4)
    # write i folds batch i of `mr` (mod N / BATCH) into stream i % STREAMS
    per_stream: List[List[np.ndarray]] = [[] for _ in range(STREAMS)]
    for i in range(STREAM_WRITES):
        per_stream[i % STREAMS].append(_batch(mr, i))
    return {
        "well": well, "cancel": cancel, "x": x, "y": y, "mr": mr,
        "reads": rng.integers(0, STREAMS, size=STREAM_WRITES),
        "refs": {
            "well": common.reference_hex(well),
            "cancel": common.reference_hex(cancel),
            "dot": common.reference_hex(common.dot_terms(x, y)),
            "mr": common.reference_hex(mr),
            "streams": [common.reference_hex(np.concatenate(p)) for p in per_stream],
        },
        "warm": generate("random", 1 << 16, delta=600, seed=seed + 6),
        "host_ref_input": well,
    }


def _batch(data: np.ndarray, i: int) -> np.ndarray:
    lo = i * BATCH % data.size
    return data[lo:lo + BATCH]


def run_round(ctx: Dict[str, Any], gate: common.Gate, traced: bool) -> Dict[str, Any]:
    import repro.mapreduce as mapreduce
    import repro.reduce as reduce
    from repro.core import exact_sum
    from repro.kernels import get_kernel
    from repro.mapreduce.runtime import shutdown_shared_executors
    import repro.plan as plan

    refs = ctx["refs"]
    out: Dict[str, Any] = {"attempted": 0, "failed": 0, "counts": {}}
    common.reset_peak_rss()
    setups = []
    for _ in range(SETUPS):
        shutdown_shared_executors()
        t0 = time.perf_counter()
        mapreduce.parallel_sum(ctx["warm"], workers=WORKERS, executor="process")
        setups.append(time.perf_counter() - t0)
    out["setup_s"] = common.median(setups)

    tracer = Tracer()
    if traced:
        layers.install(tracer, role="loader")
    try:
        lo = time.perf_counter_ns()
        for name in ("well", "cancel"):
            plan.plan_sum(plan.DataDescriptor.describe_array(ctx[name]))

        calls = (
            [("sum_well", lambda: exact_sum(ctx["well"]), refs["well"])] * SHORT_REPEATS
            + [("sum_cancel", lambda: exact_sum(ctx["cancel"]), refs["cancel"]),
               ("dot", lambda: reduce.dot(ctx["x"], ctx["y"]), refs["dot"])]
            + [("mapreduce", lambda: mapreduce.parallel_sum(
                ctx["mr"], workers=WORKERS, executor="process", report=True
            ), refs["mr"])] * SHORT_REPEATS
        )
        assert len(calls) == CHUNKS
        kernel = get_kernel("running").exact_variant()
        streams = [kernel.new_stream() for _ in range(STREAMS)]
        restored = [kernel.new_stream() for _ in range(STREAMS)]
        log = common.WORK / "offline.log"
        ctx["mr"].tofile(log)
        times: Dict[str, List[float]] = {name: [] for name, _fn, _ref in calls}
        results = []
        out["write_chunks"], out["read_chunks"] = [], []
        out["recover_s"] = 0.0
        for k, (name, fn, ref) in enumerate(calls):
            with tracer.span(f"bench.offline.{name}"):
                t = time.perf_counter()
                value = fn()
                times[name].append(time.perf_counter() - t)
            out["attempted"] += 1
            gate.check(f"offline {name}", getattr(value, "value", value), ref)
            if name == "mapreduce":
                results.append(value)

            writes: List[float] = []
            reads: List[float] = []
            first_write = k * CHUNK_WRITES
            with tracer.span("bench.offline.streams"):
                for i in range(first_write, first_write + CHUNK_WRITES):
                    batch = _batch(ctx["mr"], i)
                    t = time.perf_counter()
                    kernel.fold_into(streams[i % STREAMS], batch)
                    writes.append(time.perf_counter() - t)
                    t = time.perf_counter()
                    streams[ctx["reads"][i]].value()
                    reads.append(time.perf_counter() - t)
            out["write_chunks"].append(writes)
            out["read_chunks"].append(reads)

            # the same writes replayed from the log: segment k of it
            offset = first_write * BATCH % N * 8
            with tracer.span("bench.offline.recover"):
                t = time.perf_counter()
                data = np.fromfile(log, dtype=np.float64, count=CHUNK_WRITES * BATCH,
                                   offset=offset)
                for j in range(CHUNK_WRITES):
                    kernel.fold_into(restored[(first_write + j) % STREAMS],
                                     data[j * BATCH:(j + 1) * BATCH])
                out["recover_s"] += time.perf_counter() - t
        with tracer.span("bench.offline.recover"):
            t = time.perf_counter()
            first = restored[0].value()
            out["recover_s"] += time.perf_counter() - t
        out["rss_mb"] = common.peak_rss_mb("self") + sum(
            common.peak_rss_mb(p.pid) for p in multiprocessing.active_children()
        )
        out["attempted"] += 3 * STREAM_WRITES + 1
        for s, stream in enumerate(streams):
            gate.check(f"offline stream {s}", stream.value(), refs["streams"][s])
        gate.check("offline recovered stream 0", first, refs["streams"][0])
        for s, stream in enumerate(restored):
            gate.check(f"offline recovered stream {s}", stream.value(), refs["streams"][s])
        hi = time.perf_counter_ns()
    finally:
        tracer.uninstall()
        shutdown_shared_executors()

    for name, samples in times.items():
        out[f"{name}_melem_s"] = N / common.median(samples) / 1e6
    out["values_s"] = len(times) * N / sum(common.median(v) for v in times.values())
    result = results[-1]
    out["counts"] = {
        "mapreduce.blocks": result.blocks,
        "mapreduce.dispatch_bytes": result.dispatch_bytes,
        "mapreduce.shuffle_bytes": result.shuffle_bytes,
    }
    if traced:
        extra = {
            f"mapreduce.{phase}_s": sum(r.phase_seconds.get(phase, 0.0) for r in results)
            for phase in ("combine", "shuffle", "reduce")
        }
        extra["mapreduce.dispatch_bytes"] = sum(r.dispatch_bytes for r in results)
        extra["mapreduce.shuffle_bytes"] = sum(r.shuffle_bytes for r in results)
        doc = {"spans": tracer.spans, "counts": dict(tracer.counts)}
        out["layers"] = layers.per_layer([doc], extra)
        out["processes"] = {"loader": (doc, (lo, hi), common.main_thread_id())}
    return out
