"""Storm equivalence pin: the chaos storms replay event for event.

Each configuration below is a storm that CI or a tier-1 test runs.  Its
committed document under ``tests/fixtures/storm_equivalence/`` records
what one run observed:

- every counter on the storm's report (responses, acks per phase,
  retries, server/overload/replication stats, ...);
- the sorted violation kinds (empty for a clean storm, the tripped
  oracles for a negative control);
- ``sim.events_fired`` and the final ``sim.now``.

A refactor of the storm harness must reproduce every recorded field
exactly: the same events fire at the same simulated times, and the
oracles reach the same verdicts.  Fields a later version adds to a
report are not compared; fields the documents hold must not change.

Regenerate the documents (only for an intended behaviour change)::

    PYTHONPATH=src python tests/test_storm_equivalence.py
"""

import json
import os
import sys

import pytest

from repro.cluster.topology import ClusterConfig
from repro.storage.server import ServerConfig
from repro.testing.chaos import OverloadStorm
from repro.testing.chaos_cluster import HostKillStorm

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures",
                        "storm_equivalence")

#: The TCP storm CI and tests/test_overload.py run.
TCP = dict(connections=40, puts_per_conn=5, keys_per_conn=2,
           pool_slots=96, stalls=2, seed=3)

#: The Homa storm CI, tests/test_overload.py and test_obs_spanlinks.py run.
HOMA = dict(transport="homa", connections=60, puts_per_conn=6,
            pool_slots=128)

#: ``repro-chaoscheck --cluster`` passes its own pool size and key count.
CLUSTER_CLI = dict(keys_per_loop=2, pool_slots=256, value_size=600)


def _capture_smoke_config(transport):
    # repro-capture smoke's storm: a capture-enabled ServerConfig.
    return ServerConfig(
        transport=transport, engine="pktstore", cores=1,
        contain_errors=True, overload=True, metrics=True, capture=True,
        engine_kwargs={"meta_bytes": 64 * 256},
    )


def _capture_smoke(transport, seed):
    return dict(connections=24, puts_per_conn=4, keys_per_conn=2,
                value_size=1200, pool_slots=96,
                config=_capture_smoke_config(transport), seed=seed)


#: name -> (storm class, constructor kwargs).  Config objects are built
#: per call so no run shares state with another.
CONFIGS = {
    # CI overload-smoke and tests/test_overload.py
    "tcp-seed3": (OverloadStorm, lambda: dict(TCP)),
    "tcp-seed3-no-containment": (
        OverloadStorm, lambda: dict(TCP, contain=False)),
    "tcp-4core-seed7": (
        OverloadStorm, lambda: dict(TCP, cores=4, seed=7)),
    "homa-seed5": (OverloadStorm, lambda: dict(HOMA, seed=5)),
    "homa-4core-seed9": (OverloadStorm, lambda: dict(HOMA, cores=4, seed=9)),
    "homa-4core-seed9-no-containment": (
        OverloadStorm, lambda: dict(HOMA, cores=4, seed=9, contain=False)),
    # repro-stats --storm (CI obs-smoke): the default storm sizing
    "obs-storm-homa-2core-seed1": (
        OverloadStorm, lambda: dict(transport="homa", cores=2, seed=1)),
    # repro-capture smoke (TCP and Homa)
    "capture-smoke-tcp-seed3": (
        OverloadStorm, lambda: _capture_smoke("tcp", 3)),
    "capture-smoke-homa-seed5": (
        OverloadStorm, lambda: _capture_smoke("homa", 5)),
    # CI cluster-chaos (repro-chaoscheck --cluster sizing)
    "cluster-cli-sync-seed3": (
        HostKillStorm,
        lambda: dict(CLUSTER_CLI, hosts=3, loops=6, puts_per_loop=4, seed=3)),
    "cluster-cli-primary-only-seed7": (
        HostKillStorm,
        lambda: dict(CLUSTER_CLI, hosts=3, loops=6, puts_per_loop=4,
                     ack_policy="primary-only", seed=7)),
    "cluster-cli-4host-seed11": (
        HostKillStorm,
        lambda: dict(CLUSTER_CLI, hosts=4, loops=8, puts_per_loop=4,
                     seed=11)),
    # tests/test_cluster_failover.py and tests/test_cluster_reseed.py
    "cluster-sync-seed3": (
        HostKillStorm,
        lambda: dict(hosts=3, loops=6, puts_per_loop=4, value_size=600,
                     seed=3)),
    "cluster-primary-only-seed7": (
        HostKillStorm,
        lambda: dict(hosts=3, loops=6, puts_per_loop=4, value_size=600,
                     ack_policy="primary-only", seed=7)),
    "cluster-capture-seed1": (
        HostKillStorm,
        lambda: dict(config=ClusterConfig(hosts=3, ack_policy="sync",
                                          capture=True, metrics=True),
                     loops=8, puts_per_loop=5, seed=1)),
}


def observe(name):
    """Run one configuration; return its JSON-normalised document."""
    storm_class, kwargs = CONFIGS[name]
    storm = storm_class(**kwargs())
    report = storm.run()
    counters = {}
    for field, value in sorted(vars(report).items()):
        if field.startswith("_") or field == "violations":
            continue
        if field == "crashed":
            value = None if value is None else type(value).__name__
        counters[field] = value
    doc = {
        "storm": name,
        "counters": counters,
        "violation_kinds": sorted(kind for kind, _ in report.violations),
        "events_fired": storm.sim.events_fired,
        "now_ns": storm.sim.now,
    }
    return json.loads(json.dumps(doc, sort_keys=True))


def _fixture(name):
    with open(os.path.join(FIXTURES, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_storm_matches_its_recorded_run(name):
    pinned = _fixture(name)
    now = observe(name)
    assert now["events_fired"] == pinned["events_fired"]
    assert now["now_ns"] == pinned["now_ns"]
    assert now["violation_kinds"] == pinned["violation_kinds"]
    for field, value in pinned["counters"].items():
        assert field in now["counters"], f"report lost counter {field!r}"
        assert now["counters"][field] == value, field


def main():
    os.makedirs(FIXTURES, exist_ok=True)
    for name in sorted(CONFIGS):
        doc = observe(name)
        path = os.path.join(FIXTURES, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {doc['events_fired']} events, "
              f"kinds {doc['violation_kinds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
