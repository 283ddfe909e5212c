"""Property-based crash testing: seeded-random workloads, stdlib only.

Each property drives a randomly generated put/delete/get/GC interleaving
(deterministic per seed — no hypothesis dependency needed, and every
failure reproduces from the seed printed in the assertion) through the
exhaustive crash sweep.  The §5.1 contract must hold for *every* crash
point of *every* generated history.
"""

import pytest

from repro.testing import (
    NoveLSMWorld,
    PacketStoreWorld,
    mixed_ops,
)
from repro.testing.workloads import value_for


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_random_interleavings_survive_every_crash_point(seed):
    world = PacketStoreWorld(seed=seed)
    model = mixed_ops(world, n=14, keyspace=5, value_size=28, seed=seed)
    # Pre-crash sanity: the store agrees with the volatile model.
    assert dict(world.store.scan()) == model, f"seed={seed}"
    report = world.sweep().run()
    assert report.ok, f"seed={seed}:\n{report.summary()}"
    assert report.recoveries == report.scenarios


@pytest.mark.parametrize("seed", [5, 6])
def test_random_interleavings_with_heavy_deletes(seed):
    world = PacketStoreWorld(seed=seed)
    mixed_ops(world, n=12, keyspace=3, value_size=20, seed=seed,
              delete_every=3)
    report = world.sweep().run()
    assert report.ok, f"seed={seed}:\n{report.summary()}"


def test_gc_crash_never_resurrects_a_deleted_key():
    """GC unlinks one record per commit: the tombstone of ``k`` must go
    after both older versions, or a crash between those unlinks hands
    back a value whose DELETE was acked."""
    world = PacketStoreWorld(seed=1)
    world.put(b"k", value_for(1, 20))
    world.put(b"k", value_for(2, 20))
    world.delete(b"k")
    world.put(b"z", value_for(3, 20))
    assert world.gc() == 3
    report = world.sweep().run()
    assert report.ok, report.summary()
    assert report.recoveries == report.scenarios


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_interleavings_with_gc_survive_every_crash_point(seed):
    world = PacketStoreWorld(seed=seed)
    model = mixed_ops(world, n=30, keyspace=4, value_size=20, seed=seed,
                      delete_every=4)
    assert dict(world.store.scan()) == model, f"seed={seed}"
    report = world.sweep().run()
    assert report.ok, f"seed={seed}:\n{report.summary()}"


@pytest.mark.parametrize("seed", [7, 8])
def test_random_interleavings_novelsm(seed):
    world = NoveLSMWorld(seed=seed)
    model = mixed_ops(world, n=12, keyspace=5, value_size=24, seed=seed,
                      check_gets=False)
    assert dict(world.store.scan()) == model, f"seed={seed}"
    report = world.sweep().run()
    assert report.ok, f"seed={seed}:\n{report.summary()}"


def test_generated_history_is_seed_deterministic():
    """The generator itself is a pure function of its seed — the
    foundation of reproducing any property failure."""
    def history(seed):
        world = PacketStoreWorld(seed=seed)
        mixed_ops(world, n=10, keyspace=4, seed=seed)
        return [(op.kind, op.key, op.value, op.begin_event, op.commit_event)
                for op in world.journal.ops]

    assert history(42) == history(42)
    assert history(42) != history(43)
