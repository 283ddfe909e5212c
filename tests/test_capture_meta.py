"""The ``repro-capture/v1`` meta block, pinned.

A capture's meta is on-disk provenance: ``rebuild_standby`` and
``reseed_from_capture`` rebuild a server from it alone, so its keys and
values must not drift when the builders that write it change.  The
literals below are the meta the single-host and cluster builders wrote
before they shared one host constructor; any rewrite of a builder must
reproduce them exactly.
"""

from repro.bench.testbed import make_testbed
from repro.capture.replay import rebuild_standby
from repro.cluster.topology import ClusterConfig, build_cluster
from repro.pm.device import PMDevice
from repro.storage.server import ServerConfig

MIB = 1 << 20


def _server_config(**fields):
    recorded = {
        "ack_policy": None,
        "contain_errors": True,
        "cores": 1,
        "engine": "pktstore",
        "engine_kwargs": {},
        "memtable_arena": 48 * MIB,
        "overload": False,
        "port": 80,
        "reaper_idle_ns": None,
        "transport": "tcp",
        "zero_copy_get": False,
    }
    recorded.update(fields)
    return recorded


def test_single_host_pktstore_meta():
    testbed = make_testbed(ServerConfig(engine="pktstore", capture=True))
    assert testbed.capture.meta == {
        "paste_pool_bytes": 16 * MIB,
        "pm_bytes": 192 * MIB,
        "server_config": _server_config(),
        "server_ip": 167772161,
        "server_name": "server",
    }


def test_single_host_homa_meta_records_pm_override():
    testbed = make_testbed(
        ServerConfig(transport="homa", engine="novelsm", cores=2,
                     capture=True),
        pm_bytes=128 * MIB)
    assert testbed.capture.meta == {
        "paste_pool_bytes": 16 * MIB,
        "pm_bytes": 128 * MIB,
        "server_config": _server_config(transport="homa", engine="novelsm",
                                        cores=2),
        "server_ip": 167772161,
        "server_name": "server",
    }


def test_cluster_meta():
    cluster = build_cluster(ClusterConfig(hosts=3, capture=True))
    assert cluster.capture_tap.meta == {
        "cluster": {
            "ack_policy": "sync",
            "cores": 1,
            "engine": "pktstore",
            "engine_kwargs": {},
            "hosts": 3,
            "paste_pool_bytes": 8 * MIB,
            "pm_bytes": 96 * MIB,
            "pool_slots": 2048,
            "port": 80,
            "repl_port": 81,
            "vnodes": 32,
        },
        "node_ips": {"s0": 167772417, "s1": 167772418, "s2": 167772419},
    }


def test_meta_records_injected_pm_size():
    # The meta must describe the PM the server really had: a standby
    # rebuilt from it lands in the same pool-pressure envelope.
    device = PMDevice(64 * MIB, name="injected")
    testbed = make_testbed(ServerConfig(engine="pktstore", capture=True),
                           pm_device=device)
    capture = testbed.capture.capture()
    assert capture.meta["pm_bytes"] == 64 * MIB
    standby = rebuild_standby(capture)
    assert standby.host.rx_pool.region.device.size == 64 * MIB
