"""Golden-trace equivalence: "faster" must never mean "different".

The fixtures under tests/fixtures/speed_golden_*.json were captured
from the canned scenarios in repro.bench.speed BEFORE the raw-speed
overhaul of the dispatch/checksum/header/device hot paths, via
``python -m repro.bench.speed --golden``.  Each one pins the simulated
results of a seeded run:

- the sha256 of the exact fired-event sequence (time, seq, callback),
- op counts, simulated clock, wrk latency stats,
- the full metrics snapshot (including t-digest quantiles),
- for the ingest scenario: the recovered key->value mapping digest,
  the op-journal digest, and per-kind persistence event counts;
- for ``pktstore-reclaim-recovery`` (captured later, on the tree just
  before PacketStore switched to field-level reads and batch recovery
  adoption): overload stats, the recovered mapping digest, the
  RecoveryReport fields and the post-recovery free-list order.

These tests re-run every scenario on the optimized code and assert the
golden documents match byte-for-byte.  Any optimization that reorders
an event, drops a charge, changes a checksum, or perturbs recovery
shows up as a digest mismatch here — which is what lets the perf work
in this module's history claim "identical simulated results".

To regenerate after an *intentional* behaviour change (never for a
pure optimization):  PYTHONPATH=src python -m repro.bench.speed \
    --golden tests/fixtures
"""

import json
import os

import pytest

from repro.bench.speed import SCENARIOS

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture_path(name):
    return os.path.join(FIXTURE_DIR, f"speed_golden_{name}.json")


def _canonical(doc):
    """The byte form the --golden flag writes (sorted, 2-space indent)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fixture_exists(name):
    assert os.path.exists(_fixture_path(name)), (
        f"missing golden fixture for {name}; regenerate with "
        f"PYTHONPATH=src python -m repro.bench.speed --golden tests/fixtures"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_reproduces_golden_fixture(name):
    golden = SCENARIOS[name]()
    with open(_fixture_path(name)) as handle:
        fixture_bytes = handle.read()
    fixture = json.loads(fixture_bytes)

    # Compare field by field first so a mismatch names the divergence
    # (event order vs metrics vs recovery) instead of dumping two blobs.
    fresh = json.loads(_canonical(golden))
    assert set(fresh) == set(fixture), "golden document keys changed"
    for field in sorted(fixture):
        assert fresh[field] == fixture[field], (
            f"{name}: golden field {field!r} diverged from the "
            f"pre-optimization capture"
        )
    # And the exact serialized bytes, the strongest form of the claim.
    assert _canonical(golden) == fixture_bytes


def test_goldens_are_deterministic_run_to_run():
    """Two in-process runs of the same scenario agree exactly."""
    scenario = SCENARIOS["novelsm-ingest-recovery"]
    assert scenario() == scenario()


def test_event_digest_covers_order():
    """The event digest is order-sensitive (its reason to exist)."""
    import hashlib

    a = hashlib.sha256()
    a.update(b"1.0|0|f\n")
    a.update(b"1.0|1|g\n")
    b = hashlib.sha256()
    b.update(b"1.0|1|g\n")
    b.update(b"1.0|0|f\n")
    assert a.hexdigest() != b.hexdigest()
