"""Canonical crash-sweep worlds: the persistence-path clients.

A *world* bundles a recording device, the stores built over it, an op
journal, and the matching recovery callable — everything a
:class:`~repro.testing.harness.CrashSweep` needs.  Three are provided:

- :class:`PacketStoreWorld` — the paper's packet-native store (§4.2),
  the primary subject of the §5.1 durability claim;
- :class:`NoveLSMWorld` — the persistent-PM-memtable LSM, the second
  PM client of the harness;
- :class:`WalWorld` — the disk-era WAL over a block device, crash-
  tested with torn block writes.

Worlds are deliberately small (kilobytes, not the testbed's hundreds
of megabytes): an exhaustive sweep copies the persistence image once
per crash scenario, so image size is the sweep's unit cost.
"""

from repro.core.pktstore import PacketStore
from repro.net.pool import BufferPool
from repro.pm.namespace import PMNamespace
from repro.sim.context import NULL_CONTEXT
from repro.storage.lsm import novelsm_reattach, novelsm_store
from repro.storage.skiplist import _XorShift
from repro.storage.wal import WriteAheadLog

from repro.testing.harness import CrashSweep
from repro.testing.journal import OpJournal
from repro.testing.oracle import (
    KVDurabilityOracle,
    PacketStoreStructureOracle,
    WalPrefixOracle,
)
from repro.testing.record import RecordingBlockDevice, RecordingPMDevice


class RecoveredPacketStore:
    """Recovery result bundle satisfying both oracle protocols."""

    def __init__(self, store, report, pool):
        self.store = store
        self.report = report
        self.pool = pool

    def mapping(self):
        return dict(self.store.scan())


class PacketStoreWorld:
    """A packet store over a recording PM device, journalled end to end."""

    POOL_REGION = "crash-pktbufs"
    META_REGION = "crash-meta"

    def __init__(self, device_bytes=1 << 20, pool_bytes=256 << 10,
                 meta_bytes=64 << 10, slot_size=2048, seed=1, clock=None):
        self.device = RecordingPMDevice(device_bytes, clock=clock)
        self.journal = OpJournal(lambda: self.device.event_count)
        self.slot_size = slot_size
        self.seed = seed
        self.ns = PMNamespace(self.device)
        self.pool = BufferPool(
            self.ns.create(self.POOL_REGION, pool_bytes), slot_size
        )
        self.meta_region = self.ns.create(self.META_REGION, meta_bytes)
        self.store = PacketStore.create(self.meta_region, self.pool, seed=seed)
        self.device.mark_setup_complete()
        self._tstamp = 0

    # ------------------------------------------------------------- operations

    def put(self, key, value, ctx=NULL_CONTEXT):
        """One acked put: value lands in a fresh PM packet buffer."""
        if len(value) > self.slot_size:
            raise ValueError("value larger than a packet-buffer slot")
        op = self.journal.begin("put", key, value)
        buf = self.pool.alloc()
        buf.write(0, value)
        self._tstamp += 1
        self.store.put(key, [(buf, 0, len(value))], len(value),
                       self._tstamp, 0, ctx)
        self.journal.commit(op)
        return op

    def delete(self, key, ctx=NULL_CONTEXT):
        op = self.journal.begin("delete", key)
        self.store.delete(key, ctx)
        self.journal.commit(op)
        return op

    def get(self, key, ctx=NULL_CONTEXT):
        return self.store.get(key, ctx)

    def gc(self, ctx=NULL_CONTEXT):
        """Compaction, not journalled: it must not change content, so
        every crash point inside it recovers the journalled mapping."""
        return self.store.gc(ctx)

    # --------------------------------------------------------------- recovery

    def recover(self, device):
        ns = PMNamespace.reopen(device)
        pool = BufferPool(ns.open(self.POOL_REGION), self.slot_size)
        store, report = PacketStore.recover(
            ns.open(self.META_REGION), pool, seed=self.seed
        )
        return RecoveredPacketStore(store, report, pool)

    def oracles(self):
        return [KVDurabilityOracle(), PacketStoreStructureOracle()]

    def sweep(self, **kwargs):
        """A ready-to-run :class:`CrashSweep` over this world's trace."""
        kwargs.setdefault("oracles", self.oracles())
        return CrashSweep(self.device.trace, self.recover,
                          kwargs.pop("oracles"), self.journal, **kwargs)


class RecoveredLSM:
    """Mapping-protocol wrapper over a reattached LSM store."""

    def __init__(self, store):
        self.store = store

    def mapping(self):
        return dict(self.store.scan())


class NoveLSMWorld:
    """NoveLSM's persistent PM memtable as the harness's second client."""

    def __init__(self, device_bytes=2 << 20, arena_size=512 << 10, seed=1,
                 clock=None):
        self.device = RecordingPMDevice(device_bytes, clock=clock)
        self.journal = OpJournal(lambda: self.device.event_count)
        self.arena_size = arena_size
        self.seed = seed
        self.ns = PMNamespace(self.device)
        # memtable_limit above the arena keeps everything in PM (the
        # paper's §3 configuration: no rotation, no disk).
        self.store = novelsm_store(self.ns, arena_size=arena_size,
                                   memtable_limit=1 << 30, seed=seed)
        self.device.mark_setup_complete()

    def put(self, key, value, ctx=NULL_CONTEXT):
        op = self.journal.begin("put", key, value)
        self.store.put(key, value, ctx)
        self.journal.commit(op)
        return op

    def delete(self, key, ctx=NULL_CONTEXT):
        op = self.journal.begin("delete", key)
        self.store.delete(key, ctx)
        self.journal.commit(op)
        return op

    def recover(self, device):
        ns = PMNamespace.reopen(device)
        store = novelsm_reattach(ns, arena_size=self.arena_size,
                                 seed=self.seed)
        return RecoveredLSM(store)

    def oracles(self):
        return [KVDurabilityOracle()]

    def sweep(self, **kwargs):
        kwargs.setdefault("oracles", self.oracles())
        return CrashSweep(self.device.trace, self.recover,
                          kwargs.pop("oracles"), self.journal, **kwargs)


class RecoveredWal:
    """Replayed-record list for :class:`WalPrefixOracle`."""

    def __init__(self, records):
        self.records = records

    def payloads(self):
        return self.records


class WalWorld:
    """Write-ahead log over a recording block device (torn block writes)."""

    def __init__(self, device_bytes=256 << 10, log_bytes=128 << 10, seed=1):
        self.device = RecordingBlockDevice(device_bytes)
        self.journal = OpJournal(lambda: self.device.event_count)
        self.log_bytes = log_bytes
        self.wal = WriteAheadLog(self.device, 0, log_bytes)
        self.device.mark_setup_complete()
        self._index = 0

    def append(self, payload, ctx=NULL_CONTEXT, sync=True):
        op = self.journal.begin("append", self._index, payload)
        self._index += 1
        self.wal.append(payload, ctx, sync=sync)
        if sync:
            # Only a synced append is acked; an unsynced append stays
            # in flight until a later sync-bearing append commits it.
            self.journal.commit(op)
        return op

    def recover(self, device):
        wal = WriteAheadLog(device, 0, self.log_bytes)
        return RecoveredWal(list(wal.replay(durable_only=True)))

    def oracles(self):
        return [WalPrefixOracle()]

    def sweep(self, **kwargs):
        kwargs.setdefault("oracles", self.oracles())
        return CrashSweep(self.device.trace, self.recover,
                          kwargs.pop("oracles"), self.journal, **kwargs)


# ------------------------------------------------------------------ workloads

def value_for(index, size, seed=1):
    """Deterministic distinct value bytes for op ``index``."""
    return bytes((seed * 131 + index * 7 + j) % 256 for j in range(size))


def sequential_puts(world, n=50, value_size=64, key_prefix="key"):
    """The acceptance workload: n acked puts of distinct keys/values."""
    for index in range(n):
        key = f"{key_prefix}-{index:04d}".encode()
        world.put(key, value_for(index, value_size + (index % 7)))


def mixed_ops(world, n=60, keyspace=10, value_size=48, seed=1,
              delete_every=7, check_gets=True):
    """Seeded random interleaving of puts, overwrites, and deletes.

    Returns the volatile model dict for pre-crash sanity checking.
    Gets (when the world supports them) are validated against the model
    inline, so the recorded trace also witnesses read consistency; a
    world with ``gc`` compacts after every 10th op, so the trace also
    crashes inside reclaim.
    """
    rng = _XorShift(seed)
    model = {}
    for index in range(n):
        key = f"k{rng.next() % keyspace:03d}".encode()
        if delete_every and index % delete_every == delete_every - 1 and model:
            victim = sorted(model)[rng.next() % len(model)]
            world.delete(victim)
            del model[victim]
        else:
            value = value_for(index, value_size + (rng.next() % 17), seed)
            world.put(key, value)
            model[key] = value
        if hasattr(world, "gc") and index % 10 == 9:
            world.gc()
        if check_gets and hasattr(world, "get") and model:
            probe = sorted(model)[rng.next() % len(model)]
            found = world.get(probe)
            if found != model[probe]:
                raise AssertionError(
                    f"pre-crash read of {probe!r} returned {found!r}"
                )
    return model
