"""Golden-digest scenarios: the pin behind "faster must not mean different".

Five canned, fully deterministic scenarios (seeded workloads, fixed
simulated durations) each build a *golden document* of their simulated
results:

- ``wrk-tcp``              — wrk closed loop over the full TCP stack
                             against a NoveLSM server (YCSB-A mix),
- ``homa-storm``           — Homa request storm against a 4-core
                             NoveLSM server,
- ``novelsm-ingest-recovery`` — direct NoveLSM ingest into PM, a
                             deterministic crash, and reattach,
- ``cluster-2shard``       — sharded PUT storm over a 2-host
                             replicated cluster (sync acks),
- ``pktstore-reclaim-recovery`` — YCSB-A over TCP into a PacketStore
                             whose pool pressure triggers emergency
                             reclaim (``PacketStore.gc``), then a crash
                             and ``PacketStore.recover``.

The committed captures live in ``tests/fixtures/speed_golden_*.json``
and tests/test_speed_equivalence.py asserts every scenario still
reproduces its capture byte for byte: event order, op counts, latency
stats, metric snapshots and recovered state.  Regenerate them, only
after an intentional behaviour change, with::

    PYTHONPATH=src python -m repro.bench.speed --golden tests/fixtures

Wall-clock speed is measured by the repository benchmark
(``python3 perfbench/run.py``; see docs/PERFORMANCE.md), not here.
"""

import argparse
import hashlib
import json
import os
import sys

from repro.bench.costmodel import CostModel
from repro.bench.testbed import SERVER_IP, make_testbed, preload
from repro.bench.workloads import YcsbWorkload, ZipfianGenerator
from repro.bench.wrk import HomaWrkClient, WrkClient
from repro.cluster.topology import ClusterConfig, build_cluster, \
    preload_cluster
from repro.core.pktstore import PacketStore
from repro.net.checksum import crc32c
from repro.net.pool import BufferPool
from repro.pm.device import PMDevice
from repro.pm.namespace import PMNamespace
from repro.sim.context import NULL_CONTEXT
from repro.storage.engines import NoveLSMEngine
from repro.storage.lsm import novelsm_reattach, novelsm_store
from repro.storage.server import ServerConfig
from repro.testing.journal import OpJournal


# ------------------------------------------------------------ golden capture

class _EventDigest:
    """Watcher that folds the fired-event stream into one sha256.

    Hashing (time, seq, callback qualname) per event pins the *exact*
    dispatch order: any optimization that reorders, drops, duplicates,
    or re-times an event changes the digest.
    """

    def __init__(self, sim):
        self._hash = hashlib.sha256()
        self.count = 0
        sim.add_watcher(self)

    def __call__(self, event):
        fn = event.fn
        name = getattr(fn, "__qualname__", None) or repr(fn)
        self._hash.update(
            f"{event.time!r}|{event.seq}|{name}\n".encode()
        )
        self.count += 1

    def hexdigest(self):
        return self._hash.hexdigest()


def _stats_golden(stats):
    """Deterministic summary of one WrkStats (floats round-trip exactly)."""
    return {
        "completed": stats.completed,
        "errors": stats.errors,
        "rtt_count": len(stats.rtts_ns),
        "rtt_sum_ns": sum(stats.rtts_ns),
        "avg_rtt_us": stats.avg_rtt_us,
        "p50_us": stats.percentile_us(50),
        "p99_us": stats.percentile_us(99),
        "throughput_krps": stats.throughput_krps,
    }


def _run_golden(sim, client):
    """Run ``client`` under an event digest; the shared golden fields."""
    digest = _EventDigest(sim)
    stats = client.run()
    return {
        "event_digest": digest.hexdigest(),
        "events_fired": sim.events_fired,
        "sim_now_ns": sim.now,
        "stats": _stats_golden(stats),
    }


def _mapping_digest(pairs):
    """sha256 over (key, sha256(value)) pairs, in the order given."""
    mapping_hash = hashlib.sha256()
    for key, val in pairs:
        mapping_hash.update(key)
        mapping_hash.update(hashlib.sha256(val).digest())
    return mapping_hash.hexdigest()


def _int_list_digest(values):
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


# ------------------------------------------------------------------ scenarios

def scenario_wrk_tcp():
    """wrk closed loop (YCSB-A) over TCP against a 1-core NoveLSM server."""
    config = ServerConfig(engine="novelsm", metrics=True)
    testbed = make_testbed(config=config)
    preload(testbed, entries=200, value_size=1024)
    workload = YcsbWorkload(mix="A", key_space=200, value_size=1024, seed=7)
    client = WrkClient(
        testbed.client, SERVER_IP, connections=8, value_size=1024,
        duration_ns=20_000_000.0, warmup_ns=2_000_000.0,
        workload=workload,
    )
    return {
        **_run_golden(testbed.sim, client),
        "reads": workload.issued_reads,
        "writes": workload.issued_writes,
        "metrics": testbed.metrics.snapshot(),
    }


def scenario_homa_storm():
    """12 closed loops of Homa RPCs against a 4-core NoveLSM server."""
    config = ServerConfig(transport="homa", engine="novelsm", cores=4,
                          metrics=True)
    testbed = make_testbed(config=config)
    preload(testbed, entries=100, value_size=512)
    client = HomaWrkClient(
        testbed.client, SERVER_IP, connections=12, value_size=512,
        method="PUT", duration_ns=10_000_000.0, warmup_ns=2_000_000.0,
    )
    return {
        **_run_golden(testbed.sim, client),
        "metrics": testbed.metrics.snapshot(),
    }


class _Value:
    """Minimal message shim for driving an engine without a network."""

    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body

    body_slices = ()
    hw_tstamp = None
    wire_csum = None

    def release(self):
        pass


def scenario_novelsm_ingest_recovery():
    """Zipf-keyed NoveLSM ingest into PM, deterministic crash, reattach."""
    device = PMDevice(96 << 20, name="speed-pm")
    ns = PMNamespace(device)
    store = novelsm_store(ns, arena_size=64 << 20, memtable_limit=1 << 30,
                          seed=5)
    engine = NoveLSMEngine(store, CostModel.paste())
    journal = OpJournal(lambda: device.tracker.stores)
    zipf = ZipfianGenerator(2000, seed=11)
    value = bytes((0x41 + (i % 26)) for i in range(1024))
    for index in range(2500):
        key = f"ik-{zipf.next():05d}".encode()
        op = journal.begin("put", key, index)
        engine.put(key, _Value(value), NULL_CONTEXT)
        journal.commit(op)
    dirty_at_crash = len(device.tracker.dirty)
    device.crash()  # rng=None: deterministic conservative drop
    recovered_ns = PMNamespace.reopen(device)
    recovered = novelsm_reattach(recovered_ns, arena_size=64 << 20, seed=5)
    journal_hash = hashlib.sha256()
    for op in journal.ops:
        journal_hash.update(
            f"{op.op_id}|{op.kind}|{op.key!r}|"
            f"{op.begin_event}|{op.commit_event}\n".encode()
        )
    return {
        "count_recovered": recovered.count_recovered,
        "recovered_digest": _mapping_digest(sorted(recovered.scan())),
        "journal_digest": journal_hash.hexdigest(),
        "stores": device.tracker.stores,
        "flushes": device.tracker.flushes,
        "fences": device.tracker.fences,
        "dirty_at_crash": dirty_at_crash,
        "value_crc": crc32c(value),
    }


def scenario_cluster_2shard():
    """Sharded PUT storm over a 2-host replicated cluster (sync acks).

    Every request crosses the fabric twice before its 200: client ->
    primary, then the forwarded packet primary -> backup.  The digest
    pins the whole replication hot path — ring routing,
    store-and-forward, backup apply, deferred acks.
    """
    cluster = build_cluster(ClusterConfig(hosts=2, metrics=True))
    preload_cluster(cluster, entries=50, value_size=512)
    route = cluster.router.primary

    def route_ip(key):
        return cluster.nodes[route(key)].ip

    client = HomaWrkClient(
        cluster.client, None, port=cluster.config.port, connections=8,
        value_size=512, method="PUT", key_space=64,
        duration_ns=8_000_000.0, warmup_ns=2_000_000.0,
        route=route_ip,
    )
    return {
        **_run_golden(cluster.sim, client),
        "replication": {name: dict(node.replicator.stats)
                        for name, node in cluster.nodes.items()},
        "apply": {name: dict(node.applier.stats)
                  for name, node in cluster.nodes.items()},
        "metrics": cluster.metrics.snapshot(),
    }


def scenario_pktstore_reclaim_recovery():
    """YCSB-A over TCP into a PacketStore under pool pressure, then crash.

    Each 6000-byte value spans five frames: a node record plus a
    continuation record.  Superseded versions fill the 384-slot rx
    pool, so the overload controller's emergency reclaim runs
    ``PacketStore.gc`` repeatedly; the crash then forces
    ``PacketStore.recover``.  Pins the run's events and metrics, and
    the recovered mapping, report and free-list order.
    """
    config = ServerConfig(engine="pktstore", overload=True, metrics=True,
                          engine_kwargs={"meta_bytes": 1 << 20})
    testbed = make_testbed(config=config, pm_bytes=8 << 20,
                           paste_pool_bytes=384 * 2048)
    workload = YcsbWorkload(mix="A", key_space=48, value_size=6000, seed=13)
    client = WrkClient(
        testbed.client, SERVER_IP, connections=8, value_size=6000,
        duration_ns=30_000_000.0, warmup_ns=1_000_000.0,
        workload=workload,
    )
    doc = _run_golden(testbed.sim, client)
    device = testbed.pm_device
    device.crash()  # rng=None: deterministic conservative drop
    ns = PMNamespace.reopen(device)
    pool = BufferPool(ns.open("paste-pktbufs"),
                      testbed.server.rx_pool.slot_size)
    store, report = PacketStore.recover(ns.open("pktstore-meta"), pool)
    return {
        **doc,
        "reads": workload.issued_reads,
        "writes": workload.issued_writes,
        "overload": dict(testbed.overload.stats),
        "metrics": testbed.metrics.snapshot(),
        "recovered_digest": _mapping_digest(store.scan()),
        "recovered_count": store.count,
        "report": dict(vars(report)),
        "pool_free_digest": _int_list_digest(pool._free),
        "slab_free_digest": _int_list_digest(store.slab._free),
    }


SCENARIOS = {
    "wrk-tcp": scenario_wrk_tcp,
    "homa-storm": scenario_homa_storm,
    "novelsm-ingest-recovery": scenario_novelsm_ingest_recovery,
    "cluster-2shard": scenario_cluster_2shard,
    "pktstore-reclaim-recovery": scenario_pktstore_reclaim_recovery,
}


def capture_golden():
    """Golden document of every scenario, keyed by scenario name."""
    return {name: fn() for name, fn in SCENARIOS.items()}


# ----------------------------------------------------------------------- CLI

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.speed",
        description="Capture the golden-digest fixtures of the canned "
                    "scenarios.",
    )
    parser.add_argument("--golden", metavar="DIR", required=True,
                        help="write speed_golden_<scenario>.json into DIR")
    args = parser.parse_args(argv)

    os.makedirs(args.golden, exist_ok=True)
    for name, golden in capture_golden().items():
        path = os.path.join(args.golden, f"speed_golden_{name}.json")
        with open(path, "w") as handle:
            json.dump(golden, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
