"""Shared pieces of the benchmark: statistics, references, processes, host facts."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence

import numpy as np

import layers
from tracer import Tracer, load

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for WALs, state files and span dumps (git-ignored).
WORK = HERE / "_work"


# ----------------------------------------------------------------------
# statistics


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    k = min(len(ordered) - 1, max(0, int(np.ceil(q * len(ordered))) - 1))
    return float(ordered[k])


def median(samples: Sequence[float]) -> float:
    return float(np.median(np.asarray(samples, dtype=float)))


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean without the lowest and the highest value (plain mean of <= 2)."""
    ordered = sorted(values)
    if len(ordered) > 2:
        ordered = ordered[1:-1]
    return float(np.mean(ordered))


def latency_summary(samples_s: Sequence[float]) -> Dict[str, float]:
    """Median, p90 and p99 in ms, with the sample count (p99 needs at
    least 1000 samples for ten beyond it)."""
    return {
        "p50_ms": quantile(samples_s, 0.50) * 1e3,
        "p90_ms": quantile(samples_s, 0.90) * 1e3,
        "p99_ms": quantile(samples_s, 0.99) * 1e3,
        "n": len(samples_s),
    }


def round_latency(round_: Dict, kind: str) -> Dict[str, float]:
    """Latency summary of one round's ``kind`` ("write" or "read").

    A workload that takes its samples in slices spread over the round
    (``<kind>_chunks``, a list of sample lists) gets the mean of the
    slices' p50 and p90: the host runs Python code fast or slow for
    seconds at a time, and the median of the pooled samples jumps
    between the two speeds where the mean over slices moves with the
    share of time spent in each. The p99 and n are the pooled samples'.
    """
    chunks = round_.get(f"{kind}_chunks")
    if not chunks:
        return latency_summary(round_[f"{kind}_lat"])
    pooled = latency_summary([x for chunk in chunks for x in chunk])
    per_chunk = [latency_summary(chunk) for chunk in chunks]
    for q in ("p50_ms", "p90_ms"):
        pooled[q] = float(np.mean([c[q] for c in per_chunk]))
    return pooled


# ----------------------------------------------------------------------
# correctness


def reference_hex(values: np.ndarray) -> str:
    """Serial sparse superaccumulator sum, as ``float.hex``: the gate."""
    from repro.core.sparse import SparseSuperaccumulator

    acc = SparseSuperaccumulator.zero()
    for lo in range(0, values.size, 1 << 20):  # chunked: bounds peak memory
        acc = acc.add(SparseSuperaccumulator.from_floats(values[lo:lo + (1 << 20)]))
    return acc.to_float("nearest").hex()


def dot_terms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The TwoProduct expansion whose exact sum is the exact dot product."""
    from repro.reduce.ops import get_op

    return get_op("dot").expand(x, y)[0]


class Gate:
    """Collects bit-identity checks; any mismatch fails the run."""

    def __init__(self) -> None:
        self.checked = 0
        self.mismatches: List[str] = []

    def check(self, what: str, got: float, want_hex: str) -> bool:
        self.checked += 1
        if float(got).hex() != want_hex:
            self.mismatches.append(f"{what}: got {float(got).hex()} want {want_hex}")
            return False
        return True


# ----------------------------------------------------------------------
# processes under test


def reset_peak_rss() -> None:
    """Restart this process's VmHWM at its current RSS (Linux clear_refs)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb(pid) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _terminate_with_parent() -> None:
    """In the child before exec: get SIGTERM if the benchmark dies first."""
    import ctypes

    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGTERM)


class ServerProcess:
    """A ``repro`` CLI process started through ``perfbench/entry.py``.

    ``start`` returns once the process printed its ready line (the
    JSON line of ``cluster node`` or the ``listening on`` line of
    ``serve``) and records the port. ``stop`` sends SIGTERM, waits, and
    loads the state file the entry point wrote on exit.
    """

    def __init__(self, name: str, cli_args: Sequence[str], *, trace: bool) -> None:
        self.name = name
        self.cli_args = list(cli_args)
        self.trace = trace
        self.out = WORK / f"{name}.state.json"
        self.log = WORK / f"{name}.stderr.log"
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.ready: Dict = {}

    def spawn(self) -> None:
        self.out.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "entry.py"), "--out", str(self.out)]
        if self.trace:
            cmd.append("--trace")
        with open(self.log, "w") as err:
            self.proc = subprocess.Popen(
                cmd + ["--"] + self.cli_args,
                stdout=subprocess.PIPE, stderr=err, text=True, cwd=str(ROOT),
                preexec_fn=_terminate_with_parent,
            )

    def wait_ready(self, timeout: float = 60.0) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"{self.name} exited (rc={self.proc.poll()}) before ready; "
                    f"see {self.log}"
                )
            if line.startswith("{"):
                self.ready = json.loads(line)
                self.port = int(self.ready["port"])
                return
            if "listening on" in line:
                self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
                return
        raise RuntimeError(f"{self.name} not ready within {timeout}s")

    def start(self) -> None:
        self.spawn()
        self.wait_ready()

    def rss_mb(self) -> float:
        assert self.proc is not None
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> Dict:
        """SIGTERM, wait, return what the entry point wrote at exit."""
        if self.proc is None:
            return {}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.proc = None
        if not self.out.exists():
            return {}
        return load(str(self.out))

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        if self.proc is not None:
            self.proc.communicate()
            self.proc = None


# ----------------------------------------------------------------------
# driving the processes under test


async def open_loop(
    rate: float, min_ops: int, max_ops: int, done: asyncio.Event,
    send: Callable[[int], Awaitable[List[float]]], out: Dict[str, Any],
) -> int:
    """Issue op ``i`` at ``i / rate`` s after start, without waiting for
    earlier ops, until ``done`` is set and at least ``min_ops`` went out.

    ``send(i)`` performs op ``i`` and returns the list its latency,
    timed from when the op was due, belongs in. How late each op went
    out is appended to ``out["lateness"]``; an op that raises counts in
    ``out["failed"]``. Returns the number of ops issued.
    """
    tasks = set()

    async def one(i: int, due: float) -> None:
        out["lateness"].append(time.perf_counter() - due)
        try:
            samples = await send(i)
        except Exception:  # a refused or failed op counts against failed_frac
            out["failed"] += 1
            return
        samples.append(time.perf_counter() - due)

    t0 = time.perf_counter()
    i = 0
    while i < max_ops and (i < min_ops or not done.is_set()):
        due = t0 + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        task = asyncio.get_running_loop().create_task(one(i, due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
        i += 1
    await asyncio.gather(*tasks)
    return i


async def then_set(work: Awaitable[None], done: asyncio.Event) -> None:
    """Await ``work``, then set ``done`` (also when it raises)."""
    try:
        await work
    finally:
        done.set()


def traced_processes(loader: Dict, window, servers: Dict[str, Dict]) -> Dict[str, tuple]:
    """(spans doc, window, main thread) per process, for the layer tables.

    A server's window runs from its first span to its last.
    """
    out = {"loader": (loader, window, main_thread_id())}
    for name, doc in servers.items():
        spans = doc["spans"]
        out[name] = (doc, (min(s[1] for s in spans), max(s[2] for s in spans)),
                     doc["main_thread"])
    return out


def run_async_round(round_fn, ctx: Dict[str, Any], gate: Gate, traced: bool) -> Dict[str, Any]:
    """Run ``round_fn(ctx, gate, traced, tracer)`` on a fresh event loop,
    with this process's layer boundaries spanned when ``traced``."""
    tracer = Tracer()
    if traced:
        layers.install(tracer, role="loader")
    try:
        return asyncio.run(round_fn(ctx, gate, traced, tracer))
    finally:
        tracer.uninstall()


# ----------------------------------------------------------------------
# host facts and reference points


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = path.resolve()
    best, fstype = "", "unknown"
    with open("/proc/mounts") as fh:
        for line in fh:
            parts = line.split()
            mnt = parts[1]
            if (str(path) == mnt or str(path).startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best):
                best, fstype = mnt, parts[2]
    return f"{fstype} at {best}"


def host_stamp() -> Dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from harness import bench_stamp

    return bench_stamp()


def _best_rate(fn, items: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return items / best


def host_references(x: np.ndarray) -> Dict[str, float]:
    """The ROADMAP's ceiling, floor and wire bound on this host.

    * ``np.sum`` over ``x``: touching the floats, in cache (2^22 values
      fit the shared L3 of the reference host);
    * a bare ``BinnedKernel.fold``: the exact-arithmetic floor;
    * a raw loopback socket pair: the bound on any wire.
    """
    from repro.kernels.binned import BinnedKernel

    kernel = BinnedKernel()
    refs = {
        "ref.np_sum_gelem_s": _best_rate(lambda: np.sum(x), x.size, 20) / 1e9,
        "ref.binned_fold_melem_s": _best_rate(lambda: kernel.fold(x), x.size, 3) / 1e6,
        "ref.loopback_mb_s": loopback_mb_s(),
    }
    return refs


def loopback_mb_s(total: int = 1 << 26, chunk: int = 1 << 20) -> float:
    a, b = socket.socketpair()
    payload = b"\0" * chunk

    def drain() -> None:
        left = total
        while left > 0:
            got = b.recv(min(chunk, left))
            if not got:
                return
            left -= len(got)

    reader = threading.Thread(target=drain)
    try:
        reader.start()
        t0 = time.perf_counter()
        for _ in range(total // chunk):
            a.sendall(payload)
        reader.join()
        return total / (time.perf_counter() - t0) / 1e6
    finally:
        a.close()
        b.close()
        reader.join()


def cpu_times() -> List[int]:
    """Host-wide CPU jiffies from /proc/stat (user .. steal)."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of host CPU time the hypervisor gave to others in between."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def main_thread_id() -> int:
    return threading.main_thread().ident


def cpu_count() -> int:
    return os.cpu_count() or 1
