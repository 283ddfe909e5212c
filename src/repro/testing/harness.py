"""The exhaustive crash-point sweep.

One recorded run of a workload yields a persistence-event trace and an
op journal.  :class:`CrashSweep` then walks every event boundary and,
at each one, materialises every distinct image a power cut could leave
behind, runs real recovery on it, and applies every oracle:

==========  =============================================================
mode        persistence-domain image at the crash
==========  =============================================================
``clean``   every pending (written-back, unfenced) line dropped — the
            conservative outcome recovery must always tolerate
``drain``   every pending line made it out of the write-pending queue
``torn``    exactly one pending line drained, and all-but-one — the
            boundary cases of a torn multi-line write-back
``reorder`` seeded pseudo-random subsets of pending lines — unordered
            write-pending-queue drain beyond the torn boundary cases
==========  =============================================================

Because per-line drain is independent and last-snapshot-wins, every
physically possible post-crash image is some subset of pending lines
over the fenced image; ``clean``/``drain``/``torn`` cover the subset
lattice's corners and ``reorder`` samples its interior.

A sweep with zero violations is the §5.1 claim made exhaustive: acked
writes always survive, in-flight writes vanish atomically, at **every**
event boundary — not just the schedules a probabilistic test happened
to visit.
"""

import struct

from repro.pm.namespace import NamespaceError
from repro.storage.skiplist import SkipListCorruption, _XorShift

from repro.testing.oracle import Verdict
from repro.testing.replay import make_cursor

#: Exception types a recovery may raise for a crash that predates full
#: initialisation (no namespace directory, no store root yet).  After
#: the setup boundary these — like any other exception — are violations.
CLEAN_FAILURES = (
    NamespaceError,
    SkipListCorruption,
    ValueError,
    IndexError,
    KeyError,
    struct.error,
)


class CrashScenario:
    """One (crash point, drain outcome) the sweep is probing."""

    __slots__ = ("event_index", "mode", "drained", "total_events")

    def __init__(self, event_index, mode, drained, total_events):
        self.event_index = event_index
        self.mode = mode
        self.drained = drained
        self.total_events = total_events

    def __repr__(self):
        drain = f" drained={list(self.drained)}" if self.drained else ""
        return (
            f"<crash@{self.event_index}/{self.total_events} "
            f"{self.mode}{drain}>"
        )


class SweepReport(Verdict):
    """What an exhaustive sweep covered and what it found.

    Each violation's kind is the oracle that tripped (``recovery`` when
    recovery itself failed); its detail names the crash scenario.
    """

    tag = "[crashcheck]"
    clean = "no oracle violated at any crash point"

    def __init__(self, total_events, first_point):
        super().__init__()
        self.total_events = total_events
        self.first_point = first_point
        self.crash_points = 0
        self.scenarios = 0
        self.recoveries = 0
        self.tolerated_failures = 0
        self.per_mode = {}

    def header(self):
        modes = ", ".join(f"{mode} {count}"
                          for mode, count in sorted(self.per_mode.items()))
        last = self.first_point + self.crash_points - 1
        return [
            f"[crashcheck] crash points: {self.crash_points} "
            f"(events {self.first_point}..{last} of {self.total_events})",
            f"[crashcheck] scenarios: {self.scenarios} ({modes})",
            f"[crashcheck] recoveries: {self.recoveries}"
            + (f", tolerated pre-setup failures: {self.tolerated_failures}"
               if self.tolerated_failures else ""),
        ]

    def __repr__(self):
        state = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return f"<SweepReport {self.scenarios} scenarios {state}>"


class CrashSweep:
    """Exhaustive crash-point fault injection over one recorded trace.

    Args:
        trace: the :class:`~repro.testing.events.EventTrace` to sweep.
        recover_fn: callable(device) -> recovered world; runs the real
            recovery path against the materialised post-crash device.
        oracles: iterable of :class:`~repro.testing.oracle.Oracle`.
        journal: the workload's :class:`~repro.testing.journal.OpJournal`.
        modes: subset of {"clean", "drain", "torn", "reorder"}.
        torn_cap: max single-line scenarios per crash point (each
            direction), keeping torn sweeps bounded on wide flushes.
        reorder_samples: sampled subsets per crash point in reorder mode.
        max_events: bound the sweep to the first N events (CI smoke).
        include_setup: also crash during world construction; recovery
            may then raise a :data:`CLEAN_FAILURES` exception, which is
            tolerated *before* the setup boundary only.
        drop_fences / drop_flushes: replay-level fault injection — run
            the sweep as if the protocol had no sfence / no clwb.
        seed: seed for reorder-mode subset sampling.
    """

    def __init__(self, trace, recover_fn, oracles, journal,
                 modes=("clean", "drain", "torn"), torn_cap=4,
                 reorder_samples=3, max_events=None, include_setup=False,
                 drop_fences=False, drop_flushes=False, seed=1):
        self.trace = trace
        self.recover_fn = recover_fn
        self.oracles = list(oracles)
        self.journal = journal
        self.modes = frozenset(modes)
        unknown = self.modes - {"clean", "drain", "torn", "reorder"}
        if unknown:
            raise ValueError(f"unknown sweep modes: {sorted(unknown)}")
        self.torn_cap = torn_cap
        self.reorder_samples = reorder_samples
        self.max_events = max_events
        self.include_setup = include_setup
        self.drop_fences = drop_fences
        self.drop_flushes = drop_flushes
        self.seed = seed

    def _scenarios(self, cursor, rng):
        pending = cursor.pending_units()
        seen = set()

        def emit(mode, drained):
            drained = tuple(drained)
            if drained in seen:
                return None
            seen.add(drained)
            return (mode, drained)

        if "clean" in self.modes:
            yield emit("clean", ())
        if pending:
            if "drain" in self.modes:
                scenario = emit("drain", pending)
                if scenario:
                    yield scenario
            if "torn" in self.modes:
                for unit in pending[:self.torn_cap]:
                    scenario = emit("torn", (unit,))
                    if scenario:
                        yield scenario
                if len(pending) > 2:
                    for unit in pending[:self.torn_cap]:
                        scenario = emit(
                            "torn", tuple(u for u in pending if u != unit)
                        )
                        if scenario:
                            yield scenario
            if "reorder" in self.modes and len(pending) > 1:
                for _ in range(self.reorder_samples):
                    subset = tuple(u for u in pending if rng.next() & 1)
                    scenario = emit("reorder", subset)
                    if scenario:
                        yield scenario

    def run(self, progress=None):
        """Sweep every crash point; returns a :class:`SweepReport`."""
        events = self.trace.events
        limit = len(events)
        if self.max_events is not None:
            limit = min(limit, self.max_events)
        first_point = 0 if self.include_setup else self.trace.setup_events
        cursor = make_cursor(self.trace, drop_fences=self.drop_fences,
                             drop_flushes=self.drop_flushes)
        rng = _XorShift(self.seed)
        report = SweepReport(len(events), first_point)

        for k in range(0, limit + 1):
            if k > 0:
                cursor.apply(events[k - 1])
            if k < first_point:
                continue
            report.crash_points += 1
            for item in self._scenarios(cursor, rng):
                if item is None:
                    continue
                mode, drained = item
                scenario = CrashScenario(k, mode, drained, len(events))
                report.scenarios += 1
                report.per_mode[mode] = report.per_mode.get(mode, 0) + 1
                image = cursor.crash_image(drained)
                device = cursor.materialize(image)
                try:
                    recovered = self.recover_fn(device)
                except CLEAN_FAILURES as exc:
                    if k < self.trace.setup_events:
                        report.tolerated_failures += 1
                    else:
                        report.violation(
                            "recovery",
                            f"{scenario!r} recovery raised "
                            f"{type(exc).__name__}: {exc}",
                        )
                    continue
                except Exception as exc:  # noqa: BLE001 — report, don't die
                    report.violation(
                        "recovery",
                        f"{scenario!r} recovery crashed with "
                        f"{type(exc).__name__}: {exc}",
                    )
                    continue
                report.recoveries += 1
                for oracle in self.oracles:
                    for message in oracle.check(recovered, scenario,
                                                self.journal):
                        report.violation(oracle.name,
                                         f"{scenario!r} {message}")
            if progress is not None:
                progress(k, limit, report)
        return report


def run_until_persistence_events(sim, device, target, until=None,
                                 max_events=None):
    """Drive a live simulation until ``device`` has recorded ``target``
    persistence events, then stop at that sim-event boundary.

    This is the deterministic crash scheduler for integration tests:
    unlike "run for N microseconds", the stop point is pinned to the
    persistence-event sequence, so the same seeds always crash the
    world at the same protocol step.  Returns the device's event count
    at the stop.
    """
    if device.event_count >= target:
        return device.event_count

    def watch(_event):
        if device.event_count >= target:
            sim.stop()

    sim.add_watcher(watch)
    try:
        sim.run(until=until, max_events=max_events)
    finally:
        sim.remove_watcher(watch)
    return device.event_count
