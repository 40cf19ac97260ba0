"""Cluster plane: placement, WAL replay, replication, failover (PR 7).

The acceptance invariant tested throughout: killing any single node
mid-ingest and replaying its WAL on a replica yields a final rounded
sum bit-identical (``same_float``) to the uninterrupted single-node
serve path. Exact merges make this a theorem — these tests pin the
machinery that is supposed to inherit it.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import numpy as np
import pytest

from repro import codec
from repro.cluster import (
    ClusterCoordinator,
    HashRing,
    LocalCluster,
    LocalNodeHandle,
    ReplicationManager,
    WalService,
    WalWriter,
    WriteAheadLog,
    read_wal,
    stable_hash,
)
from repro.cluster.node import ClusterNode
from repro.core.exact import exact_sum
from repro.errors import CodecError, NodeDownError, ServiceError
from repro.plan import run_plane
from repro.serve import InProcessClient, ReproService, ServeConfig
from repro.util.bits import same_float


def _panel(n=4000, seed=11):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(n) * 10.0 ** rng.integers(-25, 25, n)
    ).astype(np.float64)


def _batches(data, size=250):
    return [data[i : i + size] for i in range(0, data.size, size)]


async def _serve_reference(batches):
    """The uninterrupted single-node serve path (the acceptance oracle)."""
    async with ReproService(ServeConfig(shards=2)) as service:
        client = InProcessClient(service)
        for batch in batches:
            await client.add_array("ref", [float(v) for v in batch])
        resp = await client.request("value", stream="ref")
        return float(resp["value"]), int(resp["count"])


# ----------------------------------------------------------------------
# placement ring
# ----------------------------------------------------------------------


class TestHashRing:
    def test_stable_hash_is_interpreter_independent(self):
        # pinned value: blake2b is stable by construction, unlike hash()
        assert stable_hash("node-0") == stable_hash("node-0")
        assert stable_hash("node-0") != stable_hash("node-1")

    def test_placement_distinct_nodes_in_ring_order(self):
        ring = HashRing(("a", "b", "c"))
        members = ring.placement("stream-1", 2)
        assert len(members) == 2
        assert len(set(members)) == 2
        assert all(m in ("a", "b", "c") for m in members)

    def test_placement_is_deterministic(self):
        r1 = HashRing(("a", "b", "c"))
        r2 = HashRing(("a", "b", "c"))
        for key in ("x", "y", "orders", "payments"):
            assert r1.placement(key, 2) == r2.placement(key, 2)

    def test_epoch_bumps_on_membership_change(self):
        ring = HashRing(("a", "b"))
        v0 = ring.version
        ring.add("c")
        assert ring.version == v0 + 1
        ring.remove("a")
        assert ring.version == v0 + 2

    def test_remove_moves_only_the_dead_nodes_streams(self):
        ring = HashRing(("a", "b", "c", "d"))
        keys = [f"stream-{i}" for i in range(500)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove("c")
        for k in keys:
            if before[k] != "c":
                assert ring.owner(k) == before[k]

    def test_spread_is_roughly_balanced(self):
        ring = HashRing(("a", "b", "c"))
        counts = ring.spread([f"k{i}" for i in range(3000)])
        assert all(count > 500 for count in counts.values()), counts

    def test_degraded_placement_when_ring_smaller_than_k(self):
        ring = HashRing(("only",))
        assert ring.placement("s", 3) == ("only",)

    def test_errors(self):
        ring = HashRing(("a",))
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(ValueError):
            ring.remove("ghost")
        with pytest.raises(ValueError):
            ring.placement("s", 0)
        with pytest.raises(ValueError):
            HashRing(()).placement("s", 1)


# ----------------------------------------------------------------------
# write-ahead log
# ----------------------------------------------------------------------


class TestWal:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "node.wal")
        a = np.array([1.5, -2.0, 3e300])
        b = np.array([5e-324])
        wal.append(0, "orders", a)
        wal.append(1, "orders", b)
        wal.append(codec.WAL_UNSEQUENCED, "scatter", a)
        records, truncated = wal.replay()
        assert not truncated
        assert [(r.seq, r.stream) for r in records] == [
            (0, "orders"), (1, "orders"), (codec.WAL_UNSEQUENCED, "scatter")
        ]
        assert records[0].values.tobytes() == a.astype("<f8").tobytes()
        assert records[0].sequenced and not records[2].sequenced

    def test_missing_file_is_empty_log(self, tmp_path):
        records, truncated = read_wal(tmp_path / "never-written.wal")
        assert records == [] and truncated is False

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "node.wal"
        wal = WriteAheadLog(path)
        wal.append(0, "s", np.array([1.0, 2.0]))
        wal.append(1, "s", np.array([3.0]))
        blob = path.read_bytes()
        # tear the file at every point inside the *last* record
        first_len = codec.wal_record_size(blob[: codec.WAL_HEADER_SIZE])
        for cut in range(first_len + 1, len(blob)):
            path.write_bytes(blob[:cut])
            records, truncated = read_wal(path)
            assert truncated is True
            assert len(records) == 1 and records[0].seq == 0

    def test_torn_tail_repair_lets_a_restarted_node_append(self, tmp_path):
        """Append 2, cut 5 bytes, replay, append 1, replay.

        Unless recovery cuts the torn bytes off, the new record lands
        behind them and the second replay fails with a CRC mismatch.
        The torn record was never acknowledged, so the complete records
        are the first one and the one appended after recovery.
        """
        path = tmp_path / "node.wal"
        wal = WriteAheadLog(path)
        wal.append(0, "s", np.array([1.0, 2.0]))
        wal.append(1, "s", np.array([3.0]))
        path.write_bytes(path.read_bytes()[:-5])
        records, truncated = read_wal(path, repair=True)
        assert truncated is True and [r.seq for r in records] == [0]
        wal.append(2, "s", np.array([4.0]))
        records, truncated = read_wal(path)
        assert truncated is False
        assert [r.seq for r in records] == [0, 2]

    def test_retried_record_after_torn_append_reads_back_all_three(self, tmp_path):
        path = tmp_path / "node.wal"
        wal = WriteAheadLog(path)
        wal.append(0, "s", np.array([1.0, 2.0]))
        wal.append(1, "s", np.array([3.0]))
        third = codec.encode_wal_record(2, "s", np.array([4.0, 5.0]))
        with open(path, "ab") as fh:  # crash 5 bytes short of the end
            fh.write(third[:-5])
        records, truncated = read_wal(path, repair=True)
        assert truncated is True and len(records) == 2
        wal.append_blob(third)  # the unacknowledged batch, retried
        records, truncated = read_wal(path)
        assert truncated is False
        assert [r.seq for r in records] == [0, 1, 2]
        assert records[2].values.tolist() == [4.0, 5.0]

    def test_plain_read_leaves_a_torn_tail_in_place(self, tmp_path):
        path = tmp_path / "node.wal"
        WriteAheadLog(path).append(0, "s", np.array([1.0]))
        torn = path.read_bytes()[:-3]
        path.write_bytes(torn)
        assert read_wal(path) == ([], True)
        assert path.read_bytes() == torn

    @pytest.mark.parametrize("fail_at", ["write", "fsync"])
    def test_failed_append_rolls_back_to_the_prior_size(
        self, tmp_path, monkeypatch, fail_at
    ):
        import errno
        import os

        import repro.cluster.wal as wal_mod

        path = tmp_path / "node.wal"
        wal = WriteAheadLog(path)
        wal.append(0, "s", np.array([1.0, 2.0]))
        before = path.read_bytes()
        real_write, real_fsync = os.write, os.fsync

        def short_write(fd, data):
            real_write(fd, bytes(data)[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        with monkeypatch.context() as m:
            if fail_at == "write":
                m.setattr(wal_mod.os, "write", short_write)
            else:
                # only the append's own fsync fails, not the rollback's
                calls = []

                def fsync_once(fd):
                    calls.append(fd)
                    if len(calls) == 1:
                        failing_fsync(fd)
                    real_fsync(fd)

                m.setattr(wal_mod.os, "fsync", fsync_once)
            with pytest.raises(OSError):
                wal.append(1, "s", np.array([3.0]))
        assert path.read_bytes() == before
        wal.append(2, "s", np.array([4.0]))
        records, truncated = read_wal(path)
        assert truncated is False and [r.seq for r in records] == [0, 2]

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "node.wal"
        wal = WriteAheadLog(path)
        wal.append(0, "s", np.array([1.0, 2.0]))
        wal.append(1, "s", np.array([3.0]))
        blob = bytearray(path.read_bytes())
        blob[codec.WAL_HEADER_SIZE] ^= 0xFF  # body of record 0
        path.write_bytes(bytes(blob))
        with pytest.raises(CodecError):
            read_wal(path)

    def test_wal_writer_group_commit(self, tmp_path):
        async def run():
            writer = WalWriter(tmp_path / "node.wal", max_batch=64)
            writer.start()
            await asyncio.gather(
                *(writer.append(i, "s", np.array([float(i)])) for i in range(32))
            )
            await writer.stop()
            return writer

        writer = asyncio.run(run())
        assert writer.records_written == 32
        # concurrency must have produced at least one multi-record batch
        assert writer.batches_written < 32
        records, truncated = read_wal(tmp_path / "node.wal")
        assert not truncated
        assert sorted(r.seq for r in records) == list(range(32))


# ----------------------------------------------------------------------
# WAL-backed node service
# ----------------------------------------------------------------------


class TestWalService:
    def test_sequenced_ingest_is_idempotent(self, tmp_path):
        async def run():
            service = WalService(
                ServeConfig(shards=2), wal_path=tmp_path / "n.wal"
            )
            async with service:
                client = InProcessClient(service)
                r1 = await client.request(
                    "add_array", stream="s", values=[1.0, 2.0], seq=0
                )
                r2 = await client.request(
                    "add_array", stream="s", values=[1.0, 2.0], seq=0
                )
                r3 = await client.request(
                    "add_array", stream="s", values=[4.0], seq=1
                )
                value = await client.request("value", stream="s")
                info = await client.request("cluster_info")
            return r1, r2, r3, value, info

        r1, r2, r3, value, info = asyncio.run(run())
        assert r1["added"] == 2 and "duplicate" not in r1
        assert r2["added"] == 0 and r2["duplicate"] is True
        assert r3["added"] == 1
        assert value["value"] == 7.0 and value["count"] == 3
        assert info["applied"] == {"s": 1}
        assert info["wal"]["records_written"] == 2

    def test_recovery_reconstructs_bit_identical_state(self, tmp_path):
        data = _panel(2000, seed=5)
        ref = exact_sum(data)

        async def ingest():
            node = ClusterNode("n0", wal_path=tmp_path / "n0.wal")
            async with node:
                client = InProcessClient(node.service)
                for i, batch in enumerate(_batches(data)):
                    await client.request(
                        "add_array", stream="s",
                        values=[float(v) for v in batch], seq=i,
                    )
                resp = await client.request("value", stream="s")
            return float(resp["value"])

        async def recover():
            node = ClusterNode("n0", wal_path=tmp_path / "n0.wal")
            async with node:  # start() replays the WAL
                client = InProcessClient(node.service)
                resp = await client.request("value", stream="s")
                info = await client.request("cluster_info")
            return float(resp["value"]), int(resp["count"]), info

        live = asyncio.run(ingest())
        recovered, count, info = asyncio.run(recover())
        assert same_float(live, ref)
        assert same_float(recovered, ref)
        assert count == data.size
        # seq high-water marks survive recovery (dedup stays correct)
        assert info["applied"]["s"] == len(_batches(data)) - 1

    def test_restart_after_torn_append_keeps_ingesting(self, tmp_path):
        """Crash mid-append, restart, ingest, restart: nothing is lost."""
        path = tmp_path / "n0.wal"
        data = _panel(600, seed=9)
        first, second, third = np.array_split(data, 3)

        async def session(batches):
            node = ClusterNode("n0", wal_path=path)
            async with node:  # start() replays (and repairs) the WAL
                client = InProcessClient(node.service)
                for seq, batch in batches:
                    await client.request(
                        "add_array", stream="s",
                        values=[float(v) for v in batch], seq=seq,
                    )
                resp = await client.request("value", stream="s")
            return float(resp["value"]), int(resp["count"])

        asyncio.run(session([(0, first), (1, second)]))
        path.write_bytes(path.read_bytes()[:-5])  # crash inside seq 1
        # the client never saw seq 1 acknowledged, so it retries it
        asyncio.run(session([(1, second), (2, third)]))
        value, count = asyncio.run(session([]))
        assert same_float(value, exact_sum(data))
        assert count == data.size

    def test_restore_with_seq_sets_highwater(self, tmp_path):
        async def run():
            donor = WalService(ServeConfig(shards=1))
            target = WalService(ServeConfig(shards=1))
            async with donor, target:
                dc, tc = InProcessClient(donor), InProcessClient(target)
                await dc.request("add_array", stream="s", values=[1.0, 2.0])
                snap = (await dc.request("snapshot", stream="s"))["snapshot"]
                await tc.request("restore", stream="s", snapshot=snap, seq=4)
                dup = await tc.request(
                    "add_array", stream="s", values=[9.0], seq=3
                )
                fresh = await tc.request(
                    "add_array", stream="s", values=[9.0], seq=5
                )
                value = await tc.request("value", stream="s")
            return dup, fresh, value

        dup, fresh, value = asyncio.run(run())
        assert dup["duplicate"] is True
        assert fresh["added"] == 1
        assert value["value"] == 12.0 and value["count"] == 3

    def test_add_block_refused_on_wal_nodes(self, tmp_path):
        async def run():
            service = WalService(
                ServeConfig(shards=1), wal_path=tmp_path / "n.wal"
            )
            async with service:
                return await service.handle(
                    {"op": "add_block", "stream": "s", "block": {}}
                )

        resp = asyncio.run(run())
        assert resp["ok"] is False
        assert "add_block" in resp["error"]

    def test_bad_seq_rejected(self):
        async def run():
            service = WalService(ServeConfig(shards=1))
            async with service:
                return await service.handle(
                    {"op": "add_array", "stream": "s", "values": [1.0], "seq": -1}
                )

        resp = asyncio.run(run())
        assert resp["ok"] is False and "seq" in resp["error"]


# ----------------------------------------------------------------------
# coordinator: replication, scatter/gather, failover
# ----------------------------------------------------------------------


class TestCoordinator:
    def test_placed_ingest_matches_single_node_serve(self):
        data = _panel()
        batches = _batches(data)

        async def run():
            ref_value, ref_count = await _serve_reference(batches)
            async with LocalCluster(nodes=3, replication=2) as lc:
                for batch in batches:
                    await lc.coordinator.append("orders", batch)
                got = await lc.coordinator.value("orders")
            return ref_value, ref_count, got

        ref_value, ref_count, got = asyncio.run(run())
        assert same_float(got["value"], ref_value)
        assert got["count"] == ref_count == data.size

    def test_scatter_gather_matches_single_node_serve(self):
        data = _panel(seed=23)

        async def run():
            ref_value, ref_count = await _serve_reference(_batches(data))
            async with LocalCluster(nodes=3) as lc:
                await lc.coordinator.scatter("stripe", data, chunk=333)
                got = await lc.coordinator.gather_value("stripe")
            return ref_value, ref_count, got

        ref_value, ref_count, got = asyncio.run(run())
        assert same_float(got["value"], ref_value)
        assert got["count"] == ref_count
        assert got["nodes"] == 3

    @pytest.mark.parametrize("victim_index", [0, 1])
    def test_kill_mid_ingest_and_wal_replay_bit_identical(
        self, victim_index, tmp_path
    ):
        """THE acceptance case: kill a placement member mid-ingest,
        fail over, replay its WAL on the survivors — the final rounded
        sum is bit-identical to the uninterrupted single-node path."""
        data = _panel()
        batches = _batches(data)
        half = len(batches) // 2

        async def run():
            ref_value, ref_count = await _serve_reference(batches)
            async with LocalCluster(
                nodes=3, replication=2, base_dir=tmp_path
            ) as lc:
                co = lc.coordinator
                for batch in batches[:half]:
                    await co.append("orders", batch)
                # kill one member of the stream's placement group
                victim = co._placement("orders").members[victim_index]
                lc.kill(victim)
                # ingest continues through failover + retry
                for batch in batches[half:]:
                    await co.append("orders", batch)
                # replay the dead node's WAL on the surviving placement
                replay = await co.replay_wal_onto(lc.wal_path(victim))
                got = await co.value("orders")
                return ref_value, ref_count, got, replay, co.failovers

        ref_value, ref_count, got, replay, failovers = asyncio.run(run())
        assert failovers == 1
        assert got["count"] == ref_count == data.size
        assert same_float(got["value"], ref_value)
        # replay never double-applies: every record either deduped
        # against a survivor or healed a gap
        assert replay["records"] == replay["applied"] + replay["duplicates"]

    def test_whole_group_loss_recovered_from_wal_alone(self, tmp_path):
        """replication=1: the dead node was the only holder. The WAL
        file is then the *only* copy — replay must fully rebuild."""
        data = _panel(1500, seed=3)
        batches = _batches(data)

        async def run():
            ref_value, ref_count = await _serve_reference(batches)
            async with LocalCluster(
                nodes=3, replication=1, base_dir=tmp_path
            ) as lc:
                co = lc.coordinator
                for batch in batches:
                    await co.append("orders", batch)
                victim = co._placement("orders").primary
                lc.kill(victim)
                await co.failover(victim)
                replay = await co.replay_wal_onto(lc.wal_path(victim))
                got = await co.value("orders")
                return ref_value, ref_count, got, replay

        ref_value, ref_count, got, replay = asyncio.run(run())
        assert replay["applied"] == replay["records"] == len(batches)
        assert got["count"] == ref_count
        assert same_float(got["value"], ref_value)

    def test_binary_wal_passthrough_byte_equality(self, tmp_path):
        """WAL record bytes ARE the wire bytes: every logged payload is
        byte-identical to a contiguous slice of the ingested array."""
        data = _panel(3000, seed=21)
        batches = _batches(data, size=500)

        async def run():
            async with LocalCluster(
                nodes=3, replication=2, base_dir=tmp_path
            ) as lc:
                co = lc.coordinator
                # every in-process handle negotiated the binary wire
                for handle in co._handles.values():
                    assert handle._client.wire == "binary"
                for batch in batches:
                    await co.append("orders", batch)
                wals = {
                    n: read_wal(lc.wal_path(n))[0]
                    for n in lc.nodes
                    if lc.wal_path(n).exists()
                }
                return wals

        wals = asyncio.run(run())
        source = data.tobytes()
        logged = 0
        for records in wals.values():
            for rec in records:
                assert rec.values.tobytes() in source
                logged += 1
        assert logged > 0

    def test_json_and_binary_ingest_write_identical_wal(self, tmp_path):
        """The durability contract behind 'bit-identity is provable':
        the same batches produce byte-identical WAL files whether they
        arrived boxed in JSON text or as raw BBAT frame bodies."""
        data = _panel(2000, seed=5)
        batches = _batches(data, size=250)

        async def run():
            for wire, path in (("json", tmp_path / "j.wal"), ("binary", tmp_path / "b.wal")):
                service = WalService(ServeConfig(shards=2), wal_path=path)
                await service.start()
                client = InProcessClient(service, wire=wire)
                for seq, batch in enumerate(batches):
                    await client.request_batch("orders", batch, seq=seq)
                await service.close()

        asyncio.run(run())
        assert (tmp_path / "j.wal").read_bytes() == (tmp_path / "b.wal").read_bytes()
        records, truncated = read_wal(tmp_path / "b.wal")
        assert not truncated and len(records) == len(batches)

    def test_read_fails_over_to_replica(self):
        data = _panel(1000, seed=9)

        async def run():
            async with LocalCluster(nodes=3, replication=2) as lc:
                co = lc.coordinator
                await co.append("orders", data)
                primary = co._placement("orders").primary
                lc.kill(primary)
                got = await co.value("orders")
                return got, primary

        got, primary = asyncio.run(run())
        assert got["node"] != primary
        assert got["count"] == data.size
        assert same_float(got["value"], exact_sum(data))

    def test_health_check_fails_over_dead_nodes(self):
        async def run():
            async with LocalCluster(nodes=3, replication=2) as lc:
                co = lc.coordinator
                await co.append("orders", [1.0, 2.0])
                lc.kill("node-1")
                health = await co.check_health()
                status = await co.status()
                return health, status

        health, status = asyncio.run(run())
        assert health["node-1"] is False
        assert status["nodes"]["node-1"]["on_ring"] is False
        assert status["failovers"] == 1

    def test_all_nodes_down_raises_node_down(self):
        async def run():
            async with LocalCluster(nodes=2, replication=2) as lc:
                co = lc.coordinator
                await co.append("orders", [1.0])
                lc.kill("node-0")
                lc.kill("node-1")
                with pytest.raises(NodeDownError):
                    await co.value("orders")
                with pytest.raises(NodeDownError):
                    await co.scatter("s", [1.0])

        asyncio.run(run())

    def test_duplicate_node_ids_rejected(self):
        service = WalService(ServeConfig(shards=1))
        handles = [
            LocalNodeHandle("same", service),
            LocalNodeHandle("same", service),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            ClusterCoordinator(handles)

    def test_epoch_reported_and_bumped_by_failover(self):
        async def run():
            async with LocalCluster(nodes=3, replication=2) as lc:
                co = lc.coordinator
                r1 = await co.append("orders", [1.0])
                epoch0 = r1["epoch"]
                lc.kill(co._placement("orders").primary)
                r2 = await co.append("orders", [2.0])
                return epoch0, r2["epoch"]

        epoch0, epoch1 = asyncio.run(run())
        assert epoch1 > epoch0


# ----------------------------------------------------------------------
# plane + planner integration
# ----------------------------------------------------------------------


class TestClusterPlane:
    def test_run_plane_cluster_bit_identical_to_serial(self):
        data = _panel(3000, seed=17)
        serial = run_plane("serial", "sparse", data)
        clustered = run_plane(
            "cluster", "sparse", data, workers=3, block_items=512
        )
        assert same_float(clustered, serial)

    def test_cluster_plane_registered(self):
        from repro.plan import PLANES

        assert "cluster" in PLANES


# ----------------------------------------------------------------------
# CLI (in-process parser wiring; process spawning is covered by the
# benchmark and the CI smoke job)
# ----------------------------------------------------------------------


class TestClusterCli:
    def test_cluster_subcommands_registered(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["cluster", "node", "--id", "n0", "--wal", "/tmp/x.wal"]
        )
        assert args.cluster_command == "node" and args.id == "n0"
        args = parser.parse_args(["cluster", "spawn", "--dir", "d", "-n", "5"])
        assert args.nodes == 5
        args = parser.parse_args(["cluster", "status", "--dir", "d"])
        assert args.cluster_command == "status"
        args = parser.parse_args(["cluster", "kill-node", "--dir", "d", "--id", "n1"])
        assert args.id == "n1"

    def test_kill_node_unknown_id_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        from repro.cluster import NodeSpec, save_spec

        save_spec(tmp_path, [NodeSpec("n0", "127.0.0.1", 1, "w", pid=None)])
        rc = main(["cluster", "kill-node", "--dir", str(tmp_path), "--id", "nx"])
        assert rc == 2

    def test_spec_roundtrip(self, tmp_path):
        from repro.cluster import NodeSpec, load_spec, save_spec

        specs = [
            NodeSpec("n0", "127.0.0.1", 1234, "a.wal", pid=42),
            NodeSpec("n1", "127.0.0.1", 1235, "b.wal", pid=None),
        ]
        save_spec(tmp_path, specs, kernel="running")
        assert load_spec(tmp_path) == specs
        doc = json.loads((tmp_path / "cluster.json").read_text())
        assert doc["format"] == "repro-cluster-spec-v1"

    def test_load_spec_rejects_unknown_format(self, tmp_path):
        (tmp_path / "cluster.json").write_text(json.dumps({"format": "nope"}))
        from repro.cluster import load_spec

        with pytest.raises(ValueError, match="unrecognized"):
            load_spec(tmp_path)


# ----------------------------------------------------------------------
# atomic snapshots (PR 7 satellite: serve save_state hardening)
# ----------------------------------------------------------------------


class TestAtomicSnapshot:
    def test_save_state_leaves_no_tmp_file(self, tmp_path):
        target = tmp_path / "state.json"

        async def run():
            async with ReproService(ServeConfig(shards=2)) as service:
                client = InProcessClient(service)
                await client.add_array("s", [1.0, 2.5])
                return await service.save_state(target)

        assert asyncio.run(run()) == 1
        assert target.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_truncated_snapshot_detected_not_silently_loaded(self, tmp_path):
        """A torn snapshot body must fail through the codec's typed
        truncation errors, not restore a wrong (partial) state."""
        target = tmp_path / "state.json"

        async def save():
            async with ReproService(ServeConfig(shards=2)) as service:
                client = InProcessClient(service)
                await client.add_array("s", [1.0, 2.5, -7e300])
                await service.save_state(target)

        asyncio.run(save())
        doc = json.loads(target.read_text())
        # simulate the crash torn-write this satellite forbids: chop the
        # snapshot frame mid-body (valid base64, truncated codec frame)
        import base64

        raw = base64.b64decode(doc["streams"]["s"])
        doc["streams"]["s"] = base64.b64encode(raw[: len(raw) // 2]).decode()
        torn = tmp_path / "torn.json"
        torn.write_text(json.dumps(doc))

        async def load():
            async with ReproService(ServeConfig(shards=2)) as service:
                with pytest.raises(ServiceError, match="corrupt snapshot"):
                    await service.load_state(torn)
                # and nothing was partially restored
                resp = await service.handle({"op": "value", "stream": "s"})
                return resp

        resp = asyncio.run(load())
        assert resp["ok"] is True and resp["count"] == 0
