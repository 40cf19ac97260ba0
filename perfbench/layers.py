"""Where the traced run puts its spans, and how spans become per-layer metrics.

:func:`install` patches the public functions at each layer boundary of
``repro`` (plus the few private seams a layer metric needs: the shard
writer's flush and call steps, the WAL group commit) with spans from a
:class:`~tracer.Tracer`. ``role`` is ``"loader"`` for the benchmark
process (client side of the wire) and ``"server"`` for the
``repro serve`` / ``repro cluster node`` processes it starts.

:func:`per_layer` turns the span lists and counters of every process
of one round into absolute per-layer measures, and :func:`shares`
into the ``per_layer`` metrics named in ``BENCHMARK.json``. Every
metric is reported on every workload: a layer the workload never
calls reads 0.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Any, Dict, Iterable, List, Tuple

from tracer import END, NAME, PARENT, SID, START, Tracer, outermost_totals, self_times

#: Service ops reported one by one; the rest are summed under ``other``.
SERVICE_OPS = ("add_array", "add_pairs", "value", "merge", "snapshot")

#: (name, unit) of every per-layer measure, in report order, as
#: absolute amounts per round.
MEASURES = [
    ("plan.ms", "ms"),
    ("plan.kernel.adaptive", "count"),
    ("plan.kernel.binned", "count"),
    ("plan.kernel.other", "count"),
    ("adaptive.tier0", "count"),
    ("adaptive.escalations", "count"),
    ("adaptive.certified_ratio", "ratio"),
    ("kernels.fold_elems", "count"),
    ("kernels.fold_ms", "ms"),
    ("kernels.binned.deposit_ms", "ms"),
    ("kernels.binned.to_sparse_ms", "ms"),
    ("kernels.merge_ms", "ms"),
    ("core.sparse_add_ms", "ms"),
    ("core.round_ms", "ms"),
    ("streaming.absorb_ms", "ms"),
    ("streaming.value_ms", "ms"),
    ("reduce.expand_ms", "ms"),
    ("reduce.fold_ms", "ms"),
    ("mapreduce.combine_s", "s"),
    ("mapreduce.shuffle_s", "s"),
    ("mapreduce.reduce_s", "s"),
    ("mapreduce.dispatch_bytes", "bytes"),
    ("mapreduce.shuffle_bytes", "bytes"),
    ("serve.client.encode_ms", "ms"),
    ("serve.client.wait_ms", "ms"),
    ("serve.protocol.decode_ms", "ms"),
    ("serve.protocol.frames", "count"),
    ("serve.protocol.bytes_in", "bytes"),
]
for _op in SERVICE_OPS + ("other",):
    MEASURES += [
        (f"serve.service.handle_ms.{_op}", "ms"),
        (f"serve.service.requests.{_op}", "count"),
    ]
MEASURES += [
    ("serve.shards.queue_wait_ms", "ms"),
    ("serve.shards.batches_folded", "count"),
    ("serve.shards.mean_batch_values", "values"),
    ("serve.shards.max_coalesced_ops", "count"),
    ("serve.shards.queue_depth_peak", "count"),
    ("cluster.coordinator.append_ms", "ms"),
    ("cluster.coordinator.fanout_wait_ms", "ms"),
    ("cluster.coordinator.failovers", "count"),
    ("cluster.coordinator.retries", "count"),
    ("cluster.wal.append_wait_ms", "ms"),
    ("cluster.wal.append_blob_ms", "ms"),
    ("cluster.wal.fsyncs", "count"),
    ("cluster.wal.records_per_fsync", "count"),
    ("cluster.wal.bytes", "bytes"),
    ("cluster.node.recover_ms", "ms"),
    ("cluster.wal.replay_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("cluster.node.records_applied", "count"),
    ("cluster.node.records_duplicate", "count"),
]



def _exported(name: str, unit: str) -> Tuple[str, str]:
    """Times are exported as shares of the round's wall time (``_pct``)."""
    if unit in ("ms", "s"):
        return re.sub(r"(_ms|\.ms|_s)(?=\.|$)", lambda m: m.group(1)[0] + "pct", name), "%"
    return name, unit


#: (name, unit) of every per-layer metric in ``BENCHMARK.json``: the
#: measures, with each time turned into its share of the round's wall
#: time. A share reads 0 on a workload that never calls the layer,
#: where a time of exactly 0 ms on every run would look like a number
#: that was never measured.
PER_LAYER = [_exported(name, unit) for name, unit in MEASURES]


def shares(measures: Dict[str, float], wall_ms: float) -> Dict[str, float]:
    """Per-layer metrics of one round from its absolute measures."""
    out = {}
    for name, unit in MEASURES:
        value = measures[name]
        if unit in ("ms", "s"):
            value = value * (1e3 if unit == "s" else 1.0) / wall_ms * 100.0
        out[_exported(name, unit)[0]] = value
    return out


def _count(tracer: Tracer, key: str, amount_of) -> Any:
    def on_exit(args, kwargs, result, dur_ns):
        tracer.counts[key] += amount_of(args, kwargs, result)

    return on_exit


def install(tracer: Tracer, role: str) -> None:
    """Patch every layer boundary of ``repro`` with spans from ``tracer``."""
    import repro.adaptive.engine as adaptive_engine
    import repro.cluster.coordinator as coordinator
    import repro.cluster.node as node
    import repro.cluster.wal as wal
    import repro.codec as codec
    import repro.kernels.base as kbase
    import repro.mapreduce as mapreduce
    import repro.plan as plan
    import repro.reduce.engine as reduce_engine
    import repro.reduce.ops as reduce_ops
    import repro.serve.client as client
    import repro.serve.protocol as protocol
    import repro.serve.server as server
    import repro.serve.shards as shards
    from repro.core.sparse import SparseSuperaccumulator
    from repro.kernels import get_kernel, kernel_names
    from repro.kernels.binned import BinnedPartial
    from repro.serve.service import ReproService
    from repro.streaming import ExactRunningSum

    p = tracer.patch
    counts = tracer.counts

    # plan
    def on_plan(args, kwargs, result, dur_ns):
        name = result.kernel if result.kernel in ("adaptive", "binned") else "other"
        counts[f"plan.kernel.{name}"] += 1

    p(plan, "plan_sum", "plan.plan_sum", on_plan)

    # adaptive: one result per ladder run; tier 0/1 certified, 2 exact
    def on_adaptive(args, kwargs, result, dur_ns):
        counts["adaptive.tier0"] += result.tier == 0
        counts["adaptive.certified"] += result.tier < 2
        counts["adaptive.escalations"] += result.escalations

    p(adaptive_engine, "adaptive_sum_detail", "adaptive.ladder", on_adaptive)
    p(adaptive_engine, "certified_cascade_sum", "adaptive.cascade")

    # kernels
    fold_elems = _count(tracer, "kernels.fold_elems", lambda a, k, r: len(a[1]))
    fold_into_elems = _count(tracer, "kernels.fold_elems", lambda a, k, r: int(r))
    seen = set()
    for kname in kernel_names():
        cls = type(get_kernel(kname))
        for klass in cls.__mro__:
            if klass in seen or not issubclass(klass, kbase.SumKernel):
                continue
            seen.add(klass)
            if "fold" in klass.__dict__:
                p(klass, "fold", "kernels.fold", fold_elems)
            if "fold_into" in klass.__dict__:
                # the base fold_into only runs under a subclass's, which counts
                base = klass is kbase.SumKernel
                p(klass, "fold_into", "kernels.fold", None if base else fold_into_elems)
    p(BinnedPartial, "deposit", "kernels.binned.deposit")
    p(BinnedPartial, "to_sparse", "kernels.binned.to_sparse")
    p(BinnedPartial, "resolve", "kernels.binned.to_sparse")
    p(BinnedPartial, "merge", "kernels.merge")
    p(kbase.KernelStream, "merge", "kernels.merge")
    p(ExactRunningSum, "merge", "kernels.merge")

    # core and streaming
    p(SparseSuperaccumulator, "add", "core.sparse_add")
    p(SparseSuperaccumulator, "from_floats", "core.from_floats")
    p(SparseSuperaccumulator, "to_float", "core.round")
    p(ExactRunningSum, "absorb_exact", "streaming.absorb")
    p(ExactRunningSum, "value", "streaming.value")

    # reduce: expansion per op class, folds through the plane runners
    for op_name in reduce_ops.op_names():
        cls = type(reduce_ops.get_op(op_name))
        if "expand" in cls.__dict__ and cls not in seen:
            seen.add(cls)
            p(cls, "expand", "reduce.expand")
    p(plan, "run_plane", "reduce.fold")
    p(reduce_engine, "_fold_fraction", "reduce.fold")

    # mapreduce (phase times come from JobResult; this is the root span)
    p(mapreduce, "parallel_sum", "mapreduce.parallel_sum")

    # serve wire: client side in the loader, server side in servers
    if role == "loader":
        p(client, "encode_batch_frame", "serve.client.encode")
        p(client, "encode_reduce_batch_frame", "serve.client.encode")
        p(protocol, "encode_frame", "serve.client.encode")
        for attr in ("request", "request_batch", "request_reduce"):
            p(client.ReproServeClient, attr, "serve.client.request")
    else:
        p(protocol, "encode_frame", "serve.protocol.encode")

    def on_decode(args, kwargs, result, dur_ns):
        counts["serve.protocol.frames"] += 1
        counts["serve.protocol.bytes_in"] += len(args[0])

    p(server, "parse_payload", "serve.protocol.decode", on_decode)

    def handle_name(args, kwargs):
        request = args[1]
        op = request.get("op") if isinstance(request, dict) else None
        return f"serve.service.handle.{op if op in SERVICE_OPS else 'other'}"

    p(ReproService, "handle", handle_name)

    # shards: queue wait = submit-to-result minus the op's own processing
    processing: Dict[int, int] = {}

    def on_flush(args, kwargs, result, dur_ns):
        for op in args[1]:
            processing[id(op)] = dur_ns

    def on_call(args, kwargs, result, dur_ns):
        processing[id(args[1])] = dur_ns

    def on_submit(args, kwargs, result, dur_ns):
        own = processing.pop(id(args[1]), 0)
        counts["serve.shards.queue_wait_ns"] += max(0, dur_ns - own)

    p(shards.AccumulatorShard, "_flush_folds", "serve.shards.flush", on_flush)
    p(shards.AccumulatorShard, "_execute_call", "serve.shards.call", on_call)
    p(shards.AccumulatorShard, "_submit", "serve.shards.submit", on_submit)

    # cluster coordinator (loader)
    p(coordinator.ClusterCoordinator, "append", "cluster.coordinator.append")
    for attr in ("scatter", "scatter_reduce"):
        p(coordinator.ClusterCoordinator, attr, "cluster.coordinator.scatter")
    for attr in ("value", "gather_value"):
        p(coordinator.ClusterCoordinator, attr, "cluster.coordinator.read")
    for attr in ("add_batch", "add_reduce_batch", "request"):
        p(coordinator.RemoteNodeHandle, attr, "cluster.coordinator.send")

    # WAL and recovery (nodes)
    p(wal.WalWriter, "append", "cluster.wal.append_wait")
    p(wal.WalWriter, "append_reduce", "cluster.wal.append_wait")
    p(wal.WalWriter, "_commit", "cluster.wal.commit",
      _count(tracer, "cluster.wal.records", lambda a, k, r: len(a[1])))

    def on_blob(args, kwargs, result, dur_ns):
        counts["cluster.wal.fsyncs"] += 1
        counts["cluster.wal.bytes"] += len(args[1])

    p(wal.WriteAheadLog, "append_blob", "cluster.wal.append_blob", on_blob)
    p(node.WalService, "recover", "cluster.node.recover",
      _count(tracer, "cluster.node.records_applied", lambda a, k, r: r["records"]))
    p(node, "read_wal", "cluster.wal.replay",
      _count(tracer, "cluster.wal.records_read", lambda a, k, r: len(r[0])))
    p(codec, "decode_wal_any", "codec.decode")


def _fanout(spans: List[tuple], totals: Counter, replication: int) -> None:
    """Per replicated append: wait beyond the fastest member, and retries."""
    kids: Dict[int, List[tuple]] = {}
    for s in spans:
        if s[NAME] == "cluster.coordinator.send":
            kids.setdefault(s[PARENT], []).append(s)
    for s in spans:
        if s[NAME] != "cluster.coordinator.append":
            continue
        sends = kids.get(s[SID], [])
        if sends:
            fastest = min(c[END] - c[START] for c in sends)
            totals["fanout_wait_ns"] += (s[END] - s[START]) - fastest
        totals["retries"] += len(sends) > replication


def per_layer(
    processes: Iterable[Dict[str, Any]], extra: Dict[str, float], replication: int = 2
) -> Dict[str, float]:
    """Per-layer measures of one traced round (absolute amounts).

    ``processes`` are :meth:`Tracer.dump`-shaped dicts (``spans`` and
    ``counts``), one per process; ``extra`` holds values the loader
    read from the program itself (MapReduce ``JobResult`` phases,
    ``stats`` counters, coordinator failovers), keyed by metric name.
    """
    incl: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    fan: Counter = Counter()
    for doc in processes:
        spans = doc["spans"]
        incl.update(outermost_totals(spans))
        st = self_times(spans)
        for s in spans:
            own[s[NAME]] += st[s[SID]]
            calls[s[NAME]] += 1
        counts.update(doc["counts"])
        _fanout(spans, fan, replication)

    def ms(ns: float) -> float:
        return ns / 1e6

    attempts = counts["adaptive.certified"] + counts["adaptive.escalations"]
    out: Dict[str, float] = {
        "plan.ms": ms(incl["plan.plan_sum"]),
        "plan.kernel.adaptive": counts["plan.kernel.adaptive"],
        "plan.kernel.binned": counts["plan.kernel.binned"],
        "plan.kernel.other": counts["plan.kernel.other"],
        "adaptive.tier0": counts["adaptive.tier0"],
        "adaptive.escalations": counts["adaptive.escalations"],
        "adaptive.certified_ratio": (
            counts["adaptive.certified"] / attempts if attempts else 0.0
        ),
        "kernels.fold_elems": counts["kernels.fold_elems"],
        "kernels.fold_ms": ms(incl["kernels.fold"]),
        "kernels.binned.deposit_ms": ms(incl["kernels.binned.deposit"]),
        "kernels.binned.to_sparse_ms": ms(incl["kernels.binned.to_sparse"]),
        "kernels.merge_ms": ms(incl["kernels.merge"]),
        "core.sparse_add_ms": ms(incl["core.sparse_add"]),
        "core.round_ms": ms(incl["core.round"]),
        "streaming.absorb_ms": ms(incl["streaming.absorb"]),
        "streaming.value_ms": ms(incl["streaming.value"]),
        "reduce.expand_ms": ms(incl["reduce.expand"]),
        "reduce.fold_ms": ms(incl["reduce.fold"]),
        "serve.client.encode_ms": ms(incl["serve.client.encode"]),
        "serve.client.wait_ms": ms(own["serve.client.request"]),
        "serve.protocol.decode_ms": ms(incl["serve.protocol.decode"]),
        "serve.protocol.frames": counts["serve.protocol.frames"],
        "serve.protocol.bytes_in": counts["serve.protocol.bytes_in"],
        "serve.shards.queue_wait_ms": ms(counts["serve.shards.queue_wait_ns"]),
        "cluster.coordinator.append_ms": ms(incl["cluster.coordinator.append"]),
        "cluster.coordinator.fanout_wait_ms": ms(fan["fanout_wait_ns"]),
        "cluster.coordinator.retries": fan["retries"],
        "cluster.wal.append_wait_ms": ms(incl["cluster.wal.append_wait"]),
        "cluster.wal.append_blob_ms": ms(incl["cluster.wal.append_blob"]),
        "cluster.wal.fsyncs": counts["cluster.wal.fsyncs"],
        "cluster.wal.records_per_fsync": (
            counts["cluster.wal.records"] / counts["cluster.wal.fsyncs"]
            if counts["cluster.wal.fsyncs"] else 0.0
        ),
        "cluster.wal.bytes": counts["cluster.wal.bytes"],
        "cluster.node.recover_ms": ms(incl["cluster.node.recover"]),
        "cluster.wal.replay_ms": ms(incl["cluster.wal.replay"]),
        "codec.decode_ms": ms(incl["codec.decode"]),
        "cluster.node.records_applied": counts["cluster.node.records_applied"],
        "cluster.node.records_duplicate": max(
            0, counts["cluster.wal.records_read"] - counts["cluster.node.records_applied"]
        ),
    }
    for op in SERVICE_OPS + ("other",):
        out[f"serve.service.handle_ms.{op}"] = ms(own[f"serve.service.handle.{op}"])
        out[f"serve.service.requests.{op}"] = calls[f"serve.service.handle.{op}"]
    for name, _unit in MEASURES:
        out.setdefault(name, 0.0)
    out.update(extra)
    return {name: float(out[name]) for name, _unit in MEASURES}
