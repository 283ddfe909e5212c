"""Unit tests for the harness itself: wrk stats, testbed, reports, contexts."""

import pytest

from repro.bench.costmodel import CostModel
from repro.bench.report import format_table, pct_delta, us
from repro.bench.testbed import make_testbed, preload
from repro.bench.wrk import WrkClient, WrkStats
from repro.net.fabric import Fabric
from repro.net.stack import Host
from repro.pm.device import PMDevice
from repro.pm.namespace import PMNamespace
from repro.sim import ExecutionContext
from repro.sim.context import FilterContext
from repro.sim.engine import Simulator
from repro.sim.units import MICROS, MILLIS, SECONDS, ns_to_us, us as us_units
from repro.storage.server import ServerConfig, build_engine


class TestUnits:
    def test_constants(self):
        assert MICROS == 1_000.0
        assert MILLIS == 1_000_000.0
        assert SECONDS == 1_000_000_000.0

    def test_conversions(self):
        assert us_units(3.5) == 3_500.0
        assert ns_to_us(26_710.0) == pytest.approx(26.71)


class TestFilterContext:
    def test_dropped_category_charges_nothing(self):
        inner = ExecutionContext()
        filtered = FilterContext(inner, drop={"persist"})
        filtered.charge(100, "persist")
        filtered.charge(50, "datamgmt.copy")
        assert inner.category("persist") == 0.0
        assert inner.category("datamgmt.copy") == 50.0
        assert inner.elapsed == 50.0

    def test_passthrough_properties(self):
        inner = ExecutionContext()
        filtered = FilterContext(inner, drop=set())
        filtered.charge(10, "x")
        assert filtered.elapsed == 10.0
        assert filtered.category("x") == 10.0
        assert filtered.snapshot() == {"x": 10.0}


class TestWrkStats:
    def test_average_and_percentiles(self):
        stats = WrkStats()
        stats.rtts_ns = [float(i) * 1000 for i in range(1, 101)]
        stats.measure_start, stats.measure_end = 0.0, 1e9
        assert stats.avg_rtt_us == pytest.approx(50.5)
        # Linear interpolation at rank = p/100 * (n-1): over 1..100 us
        # the p-th percentile is exactly 1 + 0.99*p us.
        assert stats.percentile_us(50) == pytest.approx(50.5)
        assert stats.percentile_us(99) == pytest.approx(99.01)
        assert stats.percentile_us(0) == pytest.approx(1.0)
        assert stats.percentile_us(100) == pytest.approx(100.0)

    def test_throughput_from_window(self):
        stats = WrkStats()
        stats.rtts_ns = [1.0] * 500
        stats.measure_start = 0.0
        stats.measure_end = 10_000_000.0  # 10 ms
        assert stats.throughput_krps == pytest.approx(50.0)

    def test_empty_stats_are_zero(self):
        stats = WrkStats()
        assert stats.avg_rtt_us == 0.0
        assert stats.percentile_us(99) == 0.0
        assert stats.throughput_krps == 0.0


class TestReport:
    def test_format_table_aligns(self):
        table = format_table("T", ["a", "bb"], [("x", 1), ("longer", 22)])
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "longer" in table
        widths = {len(line) for line in lines[2:-1]}
        assert len(widths) <= 2  # header and rows aligned

    def test_pct_delta(self):
        assert pct_delta(11.0, 10.0) == "+10.0%"
        assert pct_delta(9.0, 10.0) == "-10.0%"
        assert pct_delta(1.0, 0.0) == "n/a"

    def test_us_formatting(self):
        assert us(3.14159) == "3.14"


class TestTestbed:
    def test_engines_constructible(self):
        for engine in ("null", "rawpm", "novelsm", "novelsm-nopersist", "pktstore"):
            testbed = make_testbed(ServerConfig(engine=engine))
            assert testbed.kv.engine is testbed.engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            make_testbed(ServerConfig(engine="mongodb"))

    def test_server_is_paste_single_core(self):
        testbed = make_testbed(ServerConfig(engine="null"))
        assert testbed.server.paste_mode
        assert len(testbed.server.cpus) == 1
        assert not testbed.client.paste_mode
        assert len(testbed.client.cpus) == 12

    def test_pktstore_requires_paste(self):
        # A host whose rx pool sits in DRAM cannot back a PacketStore.
        sim = Simulator()
        host = Host(sim, "dram-rx", "10.0.0.9", Fabric(sim),
                    CostModel.paste())
        assert not host.paste_mode
        pm_ns = PMNamespace(PMDevice(64 << 20))
        with pytest.raises(ValueError, match="PASTE"):
            build_engine("pktstore", host, pm_ns=pm_ns)

    def test_preload_steady_state(self):
        testbed = make_testbed(ServerConfig(engine="novelsm"))
        count = preload(testbed, entries=20, value_size=64)
        assert count == 20
        assert testbed.engine.get(b"warm-19") == bytes(64)


class TestWrkClient:
    def test_zero_duration_completes_nothing(self):
        testbed = make_testbed(ServerConfig(engine="null"))
        wrk = WrkClient(testbed.client, "10.0.0.1", connections=1,
                        duration_ns=0.0, warmup_ns=0.0)
        stats = wrk.run()
        assert stats.completed == 0

    def test_get_workload(self):
        testbed = make_testbed(ServerConfig(engine="novelsm"))
        preload(testbed, entries=10, value_size=128, key_prefix="key-0")
        wrk = WrkClient(testbed.client, "10.0.0.1", connections=1,
                        method="GET", key_space=5, key_prefix="key",
                        duration_ns=400_000, warmup_ns=100_000)
        stats = wrk.run()
        assert stats.completed > 0
        assert testbed.kv.stats["gets"] == stats.completed

    def test_multiple_connections_complete_independently(self):
        testbed = make_testbed(ServerConfig(engine="null"))
        wrk = WrkClient(testbed.client, "10.0.0.1", connections=8,
                        duration_ns=400_000, warmup_ns=100_000)
        stats = wrk.run()
        sents = [conn.sent for conn in wrk._conns]
        assert all(sent > 0 for sent in sents)
        assert stats.completed == sum(sents) - sum(
            1 for conn in wrk._conns if conn.inflight_since is not None and not conn.stopped
        ) or stats.completed <= sum(sents)
