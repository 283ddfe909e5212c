"""Pluggable recovery invariants (the §5.1 contract, checkable).

An oracle inspects one recovered world and returns a list of violation
strings (empty = healthy).  The harness runs every oracle at every
crash scenario; a single surviving violation fails the sweep.

Writing a new oracle is three steps: subclass :class:`Oracle`, give it
a ``name``, and implement ``check(recovered, scenario, journal)``.
``recovered`` is whatever the world's ``recover`` callable returned —
the bundled oracles rely on two informal protocols:

- *mapping protocol*: ``recovered.mapping()`` returns the visible
  ``{key: value}`` dict (used by :class:`KVDurabilityOracle`);
- *packet-store protocol*: ``recovered.store`` / ``.pool`` /
  ``.report`` (used by :class:`PacketStoreStructureOracle`).

Every checker built on these (crash sweeps, chaos storms, soaks,
capture rebuilds) reports through one :class:`Verdict` and exits
through :func:`exit_status`.
"""

from repro.core.pktstore import MAX_SEQ
from repro.core.ppktbuf import KIND_CONT, KIND_NODE

from repro.testing.journal import ABSENT


class Oracle:
    """Base class: one named recovery invariant."""

    name = "oracle"

    def check(self, recovered, scenario, journal):
        """Return a list of violation messages (empty when satisfied)."""
        raise NotImplementedError

    def __repr__(self):
        return f"<Oracle {self.name}>"


def _show(value):
    if value is ABSENT:
        return "<absent>"
    if len(value) > 24:
        return f"{value[:24]!r}…({len(value)}B)"
    return repr(value)


class KVDurabilityOracle(Oracle):
    """Acked puts present, unacked puts atomically absent, no inventions.

    The §5.1 contract over the journal's expectations: at crash point
    ``k`` every key's recovered value must be one of the allowed
    outcomes (last acked effect, or a whole in-flight effect), and
    recovery must not conjure keys nobody ever wrote.
    """

    name = "kv-durability"

    def check(self, recovered, scenario, journal):
        violations = []
        mapping = recovered.mapping()
        expect = journal.expectations(scenario.event_index)
        for key, allowed in expect.items():
            actual = mapping.get(key, ABSENT)
            if actual not in allowed:
                wanted = " | ".join(sorted(_show(v) for v in allowed))
                violations.append(
                    f"key {key!r}: recovered {_show(actual)}, "
                    f"allowed {{{wanted}}}"
                )
        for key in mapping:
            if key not in expect:
                violations.append(f"key {key!r}: invented by recovery")
        return violations


class PacketStoreStructureOracle(Oracle):
    """Structural health of a recovered :class:`PacketStore`.

    - every reachable record (nodes and continuation chains) is
      CRC-valid,
    - every payload fragment reference lands inside a live pool slot
      (no dangling buffer refs),
    - buffer refcounts equal the number of fragment references the
      store re-took (no leaks, no over-release),
    - the pool's in-use set is exactly the adopted buffer set,
    - the rebuilt reclaimable set holds exactly the superseded versions
      and newest-version tombstones level 0 shows, with their unlink
      sort keys (a tombstone after its key's older versions),
    - the recovery report agrees with the rebuilt store.
    """

    name = "pktstore-structure"

    def check(self, recovered, scenario, journal):
        violations = []
        store = recovered.store
        pool = recovered.pool
        report = recovered.report
        slab = store.slab

        ref_counts = {}
        reclaimable = {}
        last_key = None
        records = 0
        cursor = slab.read_next(store.head_slot, 0)
        while cursor:
            slot = cursor - 1
            record = slab.valid_record(slot)
            if record is None:
                violations.append(f"record slot {slot}: reachable but CRC-invalid")
                break
            if record.kind != KIND_NODE:
                violations.append(
                    f"record slot {slot}: reachable with kind={record.kind}"
                )
                break
            records += 1
            if record.key == last_key:
                reclaimable[slot] = (record.key, MAX_SEQ - record.seq)
            elif record.tombstone:
                reclaimable[slot] = (record.key, MAX_SEQ)
            last_key = record.key
            chain = record
            chain_slot = slot
            while True:
                for buf_slot, off, length in chain.frags:
                    if not 0 <= buf_slot < pool.nslots:
                        violations.append(
                            f"record slot {chain_slot}: frag buffer {buf_slot} "
                            f"outside pool of {pool.nslots} slots"
                        )
                        continue
                    if off + length > pool.slot_size:
                        violations.append(
                            f"record slot {chain_slot}: frag [{off}, {off + length}) "
                            f"overruns {pool.slot_size}B slot {buf_slot}"
                        )
                    if buf_slot not in store._buffers:
                        violations.append(
                            f"record slot {chain_slot}: dangling ref to buffer "
                            f"{buf_slot} (not re-adopted)"
                        )
                    else:
                        ref_counts[buf_slot] = ref_counts.get(buf_slot, 0) + 1
                if not chain.cont:
                    break
                chain_slot = chain.cont - 1
                chain = slab.valid_record(chain_slot)
                if chain is None or chain.kind != KIND_CONT:
                    violations.append(
                        f"record slot {slot}: broken continuation chain at "
                        f"{chain_slot}"
                    )
                    break
            cursor = slab.read_next(slot, 0)

        for buf_slot, expected in ref_counts.items():
            actual = store._buffers[buf_slot].refcount
            if actual != expected:
                violations.append(
                    f"buffer {buf_slot}: refcount {actual}, "
                    f"{expected} reachable references"
                )
        if pool._in_use != set(store._buffers):
            violations.append(
                f"pool in-use set {sorted(pool._in_use)} != adopted buffers "
                f"{sorted(store._buffers)}"
            )
        if store._reclaimable != reclaimable:
            violations.append(
                f"reclaimable set {sorted(store._reclaimable.items())} != "
                f"{sorted(reclaimable.items())} derived from level 0"
            )
        if report.recovered != records:
            violations.append(
                f"report.recovered={report.recovered} but store holds "
                f"{records} reachable records"
            )
        if report.adopted_buffers != len(store._buffers):
            violations.append(
                f"report.adopted_buffers={report.adopted_buffers} but "
                f"{len(store._buffers)} buffers adopted"
            )
        return violations


class WalPrefixOracle(Oracle):
    """WAL replay yields the acked appends, in order, plus at most a
    whole in-flight tail — never a gap, reorder, or torn record.

    Expects ``recovered.payloads()`` (or a plain list) of replayed
    record payloads.
    """

    name = "wal-prefix"

    def check(self, recovered, scenario, journal):
        payloads = (recovered.payloads()
                    if hasattr(recovered, "payloads") else list(recovered))
        k = scenario.event_index
        committed = [op.value for op in journal.committed(k)]
        started = committed + [op.value for op in journal.in_flight(k)]
        violations = []
        if payloads[:len(committed)] != committed:
            violations.append(
                f"acked prefix broken: replayed {len(payloads)} records, "
                f"first divergence within the {len(committed)} acked appends"
            )
        elif payloads != started[:len(payloads)]:
            violations.append(
                "replayed tail does not match any prefix of attempted appends"
            )
        return violations


def refcount_mismatches(engine):
    """The refcount-exact walk over a packet store's adopted buffers.

    Once traffic has drained, the references the store holds are the
    only thing that may pin a storage buffer.  Yields ``(slot,
    refcount, held)`` for each buffer whose refcount differs from the
    store's references to it; engines without a packet store yield
    nothing.
    """
    store = getattr(engine, "store", None)
    if not (hasattr(store, "_refs") and hasattr(store, "_buffers")):
        return
    held = {}
    for refs in store._refs.values():
        for buf in refs:
            held[buf.slot] = held.get(buf.slot, 0) + 1
    for slot, buf in store._buffers.items():
        if buf.refcount != held.get(slot, 0):
            yield slot, buf.refcount, held.get(slot, 0)


# -- verdicts ------------------------------------------------------------------


class Verdict:
    """What one checker found: its violations and whether it passed.

    A violation is a ``(kind, detail)`` pair; the kind names the oracle
    that tripped.  Subclasses add only their own counters and the
    :meth:`header` lines printed above the violation listing.
    """

    #: Prefix of every summary line, e.g. ``"[chaos]"``.
    tag = "[check]"
    #: The summary's last line when nothing was violated.
    clean = "no violations"
    #: Violations listed in full before the rest are counted.
    LISTED = 10

    def __init__(self):
        self.violations = []

    @property
    def ok(self):
        return not self.violations

    def violation(self, kind, detail):
        self.violations.append((kind, detail))

    def messages(self):
        """Each violation as one ``"kind: detail"`` string."""
        return [f"{kind}: {detail}" for kind, detail in self.violations]

    def header(self):
        """Lines printed above the violation listing."""
        return []

    def summary(self):
        lines = list(self.header())
        if self.ok:
            lines.append(f"{self.tag} {self.clean}")
            return "\n".join(lines)
        lines.append(f"{self.tag} {len(self.violations)} violation(s):")
        lines.extend(f"{self.tag}   {message}"
                     for message in self.messages()[:self.LISTED])
        if len(self.violations) > self.LISTED:
            lines.append(f"{self.tag}   ... "
                         f"{len(self.violations) - self.LISTED} more")
        return "\n".join(lines)


def exit_status(verdict, expect_violations, held, broken):
    """Print a checker's closing line and return its exit status.

    A clean verdict exits 0 with ``held``, a violated one 1 with
    ``broken``.  ``expect_violations`` inverts this for negative
    controls: a planted fault must be caught, so a clean run fails.
    """
    found = len(verdict.violations)
    if expect_violations:
        if verdict.ok:
            print(f"{verdict.tag} FAIL: expected violations, the run was "
                  f"clean")
            return 1
        print(f"{verdict.tag} OK: {found} violation(s) found, as expected")
        return 0
    if not verdict.ok:
        print(f"{verdict.tag} FAIL: {broken}")
        return 1
    print(f"{verdict.tag} OK: {held}")
    return 0
