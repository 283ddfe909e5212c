"""Tests for packet-store garbage collection (space reclamation)."""

import random

from hypothesis import example, given, settings, strategies as st

from repro.core.pktstore import PacketStore
from repro.core.ppktbuf import FLAG_TOMBSTONE
from repro.net.pool import BufferPool
from repro.pm.device import PMDevice
from repro.pm.namespace import PMNamespace


def make_store(pool_slots=256, meta_bytes=1 << 20):
    dev = PMDevice((pool_slots * 2048) + meta_bytes + (1 << 16))
    ns = PMNamespace(dev)
    pool = BufferPool(ns.create("pool", pool_slots * 2048), 2048)
    store = PacketStore.create(ns.create("meta", meta_bytes), pool)
    return store, pool, dev, ns


def adopt(pool, payload):
    buf = pool.alloc()
    buf.write(64, payload)
    return [(buf, 64, len(payload))]


def crash_and_recover(dev):
    dev.crash()
    ns = PMNamespace.reopen(dev)
    pool = BufferPool(ns.open("pool"), 2048)
    store, _report = PacketStore.recover(ns.open("meta"), pool)
    return store, pool


def reference_victims(store, drop_tombstones=True):
    """The level-0 walk ``gc`` used before it tracked its victims: every
    version that is not its key's newest, plus (when dropping them) each
    newest-version tombstone.  ``[(slot, key, is_newest_tombstone)]`` in
    level-0 order."""
    victims = []
    last_key = None
    cursor = store.slab.read_next(store.head_slot, 0)
    while cursor:
        slot = cursor - 1
        key, _seq, flags = store.slab.read_order(slot)
        cursor = store.slab.read_next(slot, 0)
        if key == last_key:
            victims.append((slot, key, False))
        else:
            last_key = key
            if drop_tombstones and flags & FLAG_TOMBSTONE:
                victims.append((slot, key, True))
    return victims


def spy_unlinks(store):
    """Record the slots ``store`` unlinks, in order."""
    unlinked = []
    unlink = store._unlink

    def spy(slot, ctx):
        unlinked.append(slot)
        unlink(slot, ctx)

    store._unlink = spy
    return unlinked


class TestGC:
    def test_gc_reclaims_superseded_versions(self):
        store, pool, _, _ = make_store()
        for round_no in range(5):
            store.put(b"k", adopt(pool, f"v{round_no}".encode()), 2, 0, 0)
        assert store.count == 5
        reclaimed = store.gc()
        assert reclaimed == 4
        assert store.count == 1
        assert store.get(b"k") == b"v4"

    def test_gc_frees_packet_buffers(self):
        store, pool, _, _ = make_store()
        for i in range(10):
            store.put(b"k", adopt(pool, bytes([i]) * 100), 100, 0, 0)
        in_use_before = pool.in_use
        store.gc()
        assert pool.in_use == in_use_before - 9

    def test_gc_frees_metadata_slots(self):
        store, pool, _, _ = make_store()
        for i in range(8):
            store.put(b"k", adopt(pool, b"x"), 1, 0, 0)
        used_before = store.slab.used
        store.gc()
        assert store.slab.used == used_before - 7

    def test_gc_drops_newest_tombstones(self):
        store, pool, _, _ = make_store()
        store.put(b"dead", adopt(pool, b"v"), 1, 0, 0)
        store.delete(b"dead")
        store.put(b"live", adopt(pool, b"v"), 1, 0, 0)
        reclaimed = store.gc()
        assert reclaimed == 2  # old version + its tombstone
        assert list(store.scan()) == [(b"live", b"v")]
        assert store.get(b"dead") is None

    def test_gc_keeps_tombstones_when_asked(self):
        store, pool, _, _ = make_store()
        store.put(b"k", adopt(pool, b"v"), 1, 0, 0)
        store.delete(b"k")
        reclaimed = store.gc(drop_tombstones=False)
        assert reclaimed == 1  # only the superseded value
        assert store.get(b"k") is None  # tombstone still hides it

    def test_gc_on_clean_store_is_noop(self):
        store, pool, _, _ = make_store()
        for i in range(5):
            store.put(f"k{i}".encode(), adopt(pool, b"v"), 1, 0, 0)
        assert store.gc() == 0
        assert store.count == 5

    def test_store_fully_usable_after_gc(self):
        store, pool, _, _ = make_store()
        for i in range(4):
            store.put(b"a", adopt(pool, bytes([i])), 1, 0, 0)
            store.put(b"b", adopt(pool, bytes([i + 100])), 1, 0, 0)
        store.gc()
        store.put(b"c", adopt(pool, b"new"), 3, 0, 0)
        assert store.get(b"a") == bytes([3])
        assert store.get(b"b") == bytes([103])
        assert store.get(b"c") == b"new"
        assert [k for k, _ in store.scan()] == [b"a", b"b", b"c"]

    def test_gc_survives_crash(self):
        store, pool, dev, ns = make_store()
        for i in range(6):
            store.put(b"k", adopt(pool, bytes([i]) * 10), 10, 0, 0)
        store.put(b"other", adopt(pool, b"keep"), 4, 0, 0)
        store.gc()
        dev.crash()
        ns2 = PMNamespace.reopen(dev)
        pool2 = BufferPool(ns2.open("pool"), 2048)
        store2, report = PacketStore.recover(ns2.open("meta"), pool2)
        assert dict(store2.scan()) == {b"k": bytes([5]) * 10, b"other": b"keep"}
        assert report.recovered == 2

    def test_gc_unlinks_a_tombstone_after_its_older_versions(self):
        # Each unlink commits alone: were the tombstone unlinked first, a
        # crash before the next unlink would bring the deleted key back.
        store, pool, _, _ = make_store()
        store.put(b"k", adopt(pool, b"v1"), 2, 0, 0)
        store.put(b"k", adopt(pool, b"v2"), 2, 0, 0)
        store.delete(b"k")
        store.put(b"z", adopt(pool, b"z"), 1, 0, 0)
        walk = [slot for slot, _key, _tomb in reference_victims(store)]
        unlinked = spy_unlinks(store)
        assert store.gc() == 3
        assert unlinked == walk[1:] + walk[:1]

    def test_put_over_a_tombstone_tracks_it_as_superseded(self):
        store, pool, _, _ = make_store()
        store.put(b"k", adopt(pool, b"v"), 1, 0, 0)
        store.delete(b"k")
        assert store.gc(drop_tombstones=False) == 1
        store.put(b"k", adopt(pool, b"w"), 1, 0, 0)
        assert sorted(store._reclaimable) == sorted(
            slot for slot, _key, _tomb in reference_victims(store))
        assert store.gc(drop_tombstones=False) == 1
        assert store.get(b"k") == b"w"
        assert store.count == 1

    def test_gc_with_nothing_tracked_reads_no_pm(self):
        store, pool, _, _ = make_store()
        for i in range(5):
            store.put(f"k{i}".encode(), adopt(pool, b"v"), 1, 0, 0)
        store.slab.read_next = store.slab.read_order = None
        assert store.gc() == 0

    def test_recovery_rebuilds_the_tracked_set(self):
        store, pool, dev, _ = make_store()
        for i in range(3):
            store.put(b"a", adopt(pool, bytes([i])), 1, 0, 0)
        store.delete(b"b")
        store.put(b"c", adopt(pool, b"c"), 1, 0, 0)
        store.delete(b"c")
        before = dict(store._reclaimable)
        assert len(before) == 5  # two old a's, tombstone b, old c, tombstone c
        store2, _pool2 = crash_and_recover(dev)
        assert store2._reclaimable == before
        assert store2.gc() == 5
        assert dict(store2.scan()) == {b"a": bytes([2])}

    def test_slots_reclaimed_by_gc_are_reusable(self):
        store, pool, _, _ = make_store(pool_slots=8)
        # Fill the pool with versions of one key, GC, then refill.
        for i in range(6):
            store.put(b"k", adopt(pool, bytes([i])), 1, 0, 0)
        store.gc()
        for i in range(5):
            store.put(f"fresh-{i}".encode(), adopt(pool, b"y"), 1, 0, 0)
        assert len(list(store.scan())) == 6


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "del", "gc"]),
            st.integers(0, 6),
            st.binary(min_size=1, max_size=64),
        ),
        max_size=40,
    )
)
def test_property_gc_never_changes_visible_contents(ops):
    """GC at any moment is invisible to readers (modulo tombstone drop)."""
    store, pool, _, _ = make_store(pool_slots=512)
    model = {}
    for op, key_id, value in ops:
        key = f"key-{key_id}".encode()
        if op == "put":
            store.put(key, adopt(pool, value), len(value), 0, 0)
            model[key] = value
        elif op == "del":
            store.delete(key)
            model.pop(key, None)
        else:
            store.gc()
        assert dict(store.scan()) == {k: v for k, v in sorted(model.items())}
    store.gc()
    assert dict(store.scan()) == model


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("put"), st.integers(0, 4),
                      st.binary(min_size=1, max_size=32)),
            st.tuples(st.just("del"), st.integers(0, 4)),
            st.tuples(st.just("gc"), st.booleans()),
            st.tuples(st.just("crash")),
        ),
        max_size=40,
    )
)
@example(ops=[("put", 0, b"v"), ("del", 0), ("gc", False), ("crash",),
              ("put", 0, b"w"), ("gc", True)])
def test_property_tracked_reclaim_matches_the_level0_walk(ops):
    """After every step the tracked set is what the old walk would find,
    ``gc`` reclaims exactly that many, and it unlinks in level-0 order
    with each newest-version tombstone after its key's older versions."""
    store, pool, dev, _ = make_store(pool_slots=128)
    model = {}
    for op in ops:
        if op[0] == "put":
            key = f"key-{op[1]}".encode()
            store.put(key, adopt(pool, op[2]), len(op[2]), 0, 0)
            model[key] = op[2]
        elif op[0] == "del":
            key = f"key-{op[1]}".encode()
            store.delete(key)
            model.pop(key, None)
        elif op[0] == "gc":
            walk = reference_victims(store, drop_tombstones=op[1])
            unlinked = spy_unlinks(store)
            assert store.gc(drop_tombstones=op[1]) == len(walk)
            # Stable sort: level-0 order within a key, its tombstone last.
            expected = sorted(walk, key=lambda victim: victim[1:])
            assert unlinked == [slot for slot, _key, _tomb in expected]
            del store._unlink
        else:
            store, pool = crash_and_recover(dev)
        assert sorted(store._reclaimable) == sorted(
            slot for slot, _key, _tomb in reference_victims(store))
        assert dict(store.scan()) == model
