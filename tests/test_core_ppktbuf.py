"""Unit + property tests for persistent packet metadata records."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.pktstore import PacketStore
from repro.core.ppktbuf import (
    INLINE_FRAGS,
    KIND_INODE,
    KIND_NODE,
    MAX_HEIGHT,
    MAX_KEY,
    PMetaSlab,
    PPktRecord,
    RECORD_SIZE,
    SlabExhausted,
)
from repro.net.pool import BufferPool
from repro.pm.device import PMDevice
from repro.sim import ExecutionContext


class TestRecordCodec:
    def test_roundtrip_all_fields(self):
        record = PPktRecord(
            kind=KIND_NODE, height=3, key=b"user:42", seq=777,
            hw_tstamp=123456789, wire_csum=0xBEEF, value_len=2048,
            cont=5, frags=[(10, 0, 1024), (11, 64, 1024)],
            nexts=[1, 2, 3, 0, 0, 0, 0, 0],
        )
        again = PPktRecord.decode(record.encode())
        assert again.kind == KIND_NODE
        assert again.height == 3
        assert again.key == b"user:42"
        assert again.seq == 777
        assert again.hw_tstamp == 123456789
        assert again.wire_csum == 0xBEEF
        assert again.value_len == 2048
        assert again.cont == 5
        assert again.frags == [(10, 0, 1024), (11, 64, 1024)]
        assert again.nexts == [1, 2, 3, 0, 0, 0, 0, 0]

    def test_encoded_size_is_four_cache_lines(self):
        assert len(PPktRecord(key=b"k").encode()) == RECORD_SIZE == 256

    def test_key_capacity_enforced(self):
        PPktRecord(key=b"x" * MAX_KEY)
        with pytest.raises(ValueError):
            PPktRecord(key=b"x" * (MAX_KEY + 1))

    def test_too_many_inline_frags_rejected(self):
        frags = [(1, 0, 10)] * (INLINE_FRAGS + 1)
        with pytest.raises(ValueError):
            PPktRecord(frags=frags)

    def test_crc_covers_key_and_fields_not_links(self):
        record = PPktRecord(key=b"abc", seq=1)
        blob = bytearray(record.encode())
        # Mutating a next pointer keeps the record valid (links are
        # updated in place after the record is persisted).
        blob[80] ^= 0xFF
        assert PPktRecord.validate(bytes(blob))
        # Mutating the key is caught.
        blob2 = bytearray(record.encode())
        blob2[144] ^= 0x01
        assert not PPktRecord.validate(bytes(blob2))
        # Mutating the sequence number is caught.
        blob3 = bytearray(record.encode())
        blob3[16] ^= 0x01
        assert not PPktRecord.validate(bytes(blob3))

    def test_garbage_is_invalid(self):
        assert not PPktRecord.validate(bytes(RECORD_SIZE))
        assert not PPktRecord.validate(b"\xff" * RECORD_SIZE)

    def test_tombstone_flag(self):
        from repro.core.ppktbuf import FLAG_TOMBSTONE, FLAG_VALID

        record = PPktRecord(flags=FLAG_VALID | FLAG_TOMBSTONE, key=b"k")
        assert PPktRecord.decode(record.encode()).tombstone


@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=0, max_size=MAX_KEY),
    seq=st.integers(0, 2**62),
    tstamp=st.integers(0, 2**62),
    csum=st.integers(0, 0xFFFF),
    value_len=st.integers(0, 2**31 - 1),
    frags=st.lists(
        st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2047), st.integers(0, 2048)),
        max_size=INLINE_FRAGS,
    ),
)
def test_property_codec_roundtrip(key, seq, tstamp, csum, value_len, frags):
    record = PPktRecord(
        key=key, seq=seq, hw_tstamp=tstamp, wire_csum=csum,
        value_len=value_len, frags=frags,
    )
    again = PPktRecord.decode(record.encode())
    assert (again.key, again.seq, again.hw_tstamp) == (key, seq, tstamp)
    assert again.wire_csum == csum
    assert again.value_len == value_len
    assert again.frags == [tuple(f) for f in frags]


@settings(max_examples=60, deadline=None)
@given(bit=st.integers(0, 8 * 40 - 1))
def test_property_single_bit_flip_in_protected_area_detected(bit):
    record = PPktRecord(key=b"some-key", seq=42, frags=[(1, 2, 3)])
    blob = bytearray(record.encode())
    # Flip within the CRC-protected fixed fields [8, 48) — always caught.
    # (Next pointers [80, 144) are mutable and deliberately unprotected;
    # the reserved field [14, 16) and unused frag-slot padding are
    # semantically don't-care.)
    position = 8 * 8 + bit
    if position // 8 in (14, 15):
        position += 16
    blob[position // 8] ^= 1 << (position % 8)
    assert not PPktRecord.validate(bytes(blob))


class TestSlab:
    def make(self, size=1 << 16):
        dev = PMDevice(size)
        return PMetaSlab(dev.region(0, size, "slab")), dev

    def test_alloc_write_read(self):
        slab, _ = self.make()
        slot = slab.alloc()
        slab.write_record(slot, PPktRecord(key=b"hello", seq=9))
        record = slab.read_record(slot, check=True)
        assert record.key == b"hello"

    def test_exhaustion(self):
        slab, _ = self.make(size=1 << 10)  # tiny: few slots
        with pytest.raises(SlabExhausted):
            for _ in range(100):
                slab.alloc()

    def test_free_invalidates_magic(self):
        slab, _ = self.make()
        slot = slab.alloc()
        slab.write_record(slot, PPktRecord(key=b"x"))
        slab.free(slot)
        assert slab.valid_record(slot) is None

    def test_double_free_rejected(self):
        slab, _ = self.make()
        slot = slab.alloc()
        slab.free(slot)
        with pytest.raises(RuntimeError):
            slab.free(slot)

    def test_next_pointer_read_write(self):
        slab, _ = self.make()
        slot = slab.alloc()
        slab.write_record(slot, PPktRecord(key=b"n"))
        slab.write_next(slot, 2, 77)
        assert slab.read_next(slot, 2) == 77
        # Record still CRC-valid (links excluded from the CRC).
        assert slab.valid_record(slot) is not None

    def test_read_next_is_zero_for_nil_links_at_every_level(self):
        slab, _ = self.make()
        slot = slab.alloc()
        slab.write_record(slot, PPktRecord(key=b"n", height=MAX_HEIGHT))
        assert [slab.read_next(slot, level) for level in range(MAX_HEIGHT)] \
            == [0] * MAX_HEIGHT
        # Setting some links leaves the others nil.
        slab.write_next(slot, 0, 9)
        slab.write_next(slot, MAX_HEIGHT - 1, 2**64 - 1)
        assert [slab.read_next(slot, level) for level in range(MAX_HEIGHT)] \
            == [9] + [0] * (MAX_HEIGHT - 2) + [2**64 - 1]

    def test_root_roundtrip_survives_crash(self):
        slab, dev = self.make()
        slab.write_root(5)
        dev.crash()
        slab2 = PMetaSlab(dev.region(0, 1 << 16, "slab"))
        assert slab2.read_root() == 5

    def test_adopt_reachable_resets_free_list(self):
        slab, _ = self.make()
        slots = [slab.alloc() for _ in range(5)]
        slab.adopt_reachable({slots[0], slots[2]})
        assert slab.used == 2
        fresh = slab.alloc()
        assert fresh not in (slots[0], slots[2])

    def test_alloc_charges_slab_cost(self):
        slab, _ = self.make()
        ctx = ExecutionContext()
        slab.alloc(ctx)
        assert 0 < ctx.category("datamgmt.insert") < 500  # cheaper than PM malloc


_KEYS = st.one_of(
    st.binary(min_size=1, max_size=1),
    st.binary(min_size=MAX_KEY, max_size=MAX_KEY),
    st.binary(min_size=1, max_size=MAX_KEY),
)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["put", "delete", "gc"]), _KEYS,
              st.integers(0, 3 * INLINE_FRAGS + 1)),
    min_size=1, max_size=25,
))
@example(ops=[("put", b"a", 1), ("put", b"k" * MAX_KEY, 2 * INLINE_FRAGS + 1),
              ("put", b"a", 3), ("delete", b"k" * MAX_KEY, 0), ("gc", b"-", 0),
              ("put", b"b", INLINE_FRAGS + 1)])
def test_property_read_order_agrees_with_read_record(ops):
    """For every live slot, the field reader matches the full decode.

    Live slots are the head, nodes, tombstones and the continuation
    records of values with more than INLINE_FRAGS fragments.
    """
    dev = PMDevice(512 * 2048 + (1 << 20) + (1 << 16))
    pool = BufferPool(dev.region(0, 512 * 2048, "pool"), 2048)
    store = PacketStore.create(dev.region(512 * 2048, 1 << 20, "meta"), pool)
    for op, key, nfrags in ops:
        if op == "gc":
            store.gc(drop_tombstones=False)
        elif op == "delete":
            store.delete(key)
        else:
            frags = [(pool.alloc(), 0, 16) for _ in range(nfrags)]
            store.put(key, frags, 16 * nfrags, 0, 0)
    for slot in sorted(store.slab._used):
        record = store.slab.read_record(slot, check=True)
        assert store.slab.read_order(slot) == (
            record.key, record.seq, record.flags)
