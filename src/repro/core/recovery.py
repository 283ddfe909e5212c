"""Shared post-crash recovery reporting.

Both the packet store and the packet file system recover the same way
(§5.1's crash-consistency agenda): walk the persistent metadata from a
named root, validate each record's CRC, adopt everything reachable,
and garbage-collect the rest (allocations that were in flight when the
power failed).  :class:`RecoveryReport` is the common summary.
"""


class RecoveryReport:
    """What a recovery pass found."""

    def __init__(self):
        #: Committed entries that survived (reachable + CRC-valid).
        self.recovered = 0
        #: Metadata records discarded (unreachable-but-intact orphans,
        #: i.e. allocations in flight at the crash).
        self.discarded_records = 0
        #: Record slots whose magic was intact but whose CRC (or
        #: structure) failed validation — torn metadata writes.
        self.crc_failures = 0
        #: Packet-buffer slots re-adopted as live payload.
        self.adopted_buffers = 0
        #: Packet-buffer slots referenced only by discarded records —
        #: they stay on the pool free list (returned to the pool).
        self.reclaimed_buffers = 0
        #: Highest sequence number seen (the store resumes after it).
        self.max_seq = 0
        #: Wall-clock-equivalent simulated cost of the scan, if charged.
        self.scan_cost_ns = 0.0

    def __repr__(self):
        return (
            f"<RecoveryReport recovered={self.recovered} "
            f"discarded={self.discarded_records} "
            f"crc_failures={self.crc_failures} "
            f"buffers={self.adopted_buffers}+{self.reclaimed_buffers}r>"
        )


def chain_buffers(slab, record, reachable):
    """Buffer slots of a recovered record's fragments, in order,
    continuation records included (their slots join ``reachable``)."""
    buf_slots = [frag[0] for frag in record.frags]
    while record.cont:
        reachable.add(record.cont - 1)
        record = slab.read_record(record.cont - 1)
        buf_slots.extend(frag[0] for frag in record.frags)
    return buf_slots


def adopt_payload(pool, chains):
    """Adopt, in one batch, every buffer that recovered records reference.

    ``chains`` maps record slot -> :func:`chain_buffers`, in walk order.
    Returns ``(buffers, refs)``: buffer slot -> handle in first-reference
    order, record slot -> one data reference per fragment.
    """
    order = dict.fromkeys(b for buf_slots in chains.values() for b in buf_slots)
    buffers = dict(zip(order, pool.adopt(order)))
    refs = {slot: [buffers[b].get() for b in buf_slots]
            for slot, buf_slots in chains.items()}
    for buf in buffers.values():
        buf.put()  # the adoption reference: each fragment holds its own
    return buffers, refs
