"""Whole-host-kill chaos: does a client ack survive the host that gave it?

:mod:`repro.testing.chaos` storms one server until its pools give out;
this module storms a *cluster* until a host dies.  A closed-loop fleet
of Homa requesters PUTs through the consistent-hash router while the
storm pulls the plug on a primary mid-burst.  Failure detection is the
router's: unanswered RPCs accumulate per node and at the threshold the
router triggers the failover (ring eviction = backup promotion +
transport teardown), with a scheduled failsafe bounding detection in
case the squall of traffic misses the corpse.  Then the oracles:

- **durability** — every client-acked PUT is readable from the key's
  *current* primary after the kill and failover.  Under
  ``ack_policy="sync"`` an ack means two hosts applied the put, so the
  promoted backup must serve it — this is the claim the replication
  design exists to earn.  It is checked twice: at the promotion itself,
  for every key the victim owned (before the second burst overwrites
  them), and once more after the storm, for every key;
- **refcount exactness** — on every surviving host, the rx pool's
  in-use count equals the store's owned count and each adopted
  buffer's refcount equals the references the store holds (the same
  per-slot walk as the single-host storm, per survivor);
- **span stitching** — a replicated put is *one* trace: the origin
  RPC's chain and the replication RPC's chain are stitched
  (``Recorder.stitched``), no retransmitted message is left an orphan
  (terminal give-up spans cover messages aimed at the corpse), and no
  logical request ran a handler twice;
- **vacuity** — a storm that never killed anyone, never failed over,
  never acked a put on both sides of the kill, or never acked a put on
  a shard the victim owned has tested nothing, and fails loudly.
"""

from repro.bench.workloads import StormBurstSource
from repro.cluster.topology import ClusterConfig, build_cluster
from repro.sim.units import MILLIS
from repro.testing.chaos import Storm, StormReport


class ClusterChaosReport(StormReport):
    """Outcome of one host-kill storm."""

    tag = "[cluster-chaos]"
    clean = "contract held: every acked put survived the host that acked it"

    def __init__(self):
        super().__init__()
        self.acked_by_phase = {"pre": 0, "kill": 0, "post": 0}
        self.victim = None
        self.kills = 0
        self.failovers = 0
        self.failover_by = None       # "router" or "failsafe"
        #: acked victim keys read from the promoted backup at promotion
        self.promotion_checked = 0
        self.stitched_families = 0
        self.degraded_acks = 0
        self.repl_stats = {}

    def header(self):
        lines = [
            f"[cluster-chaos] puts acked {self.acked_puts}/"
            f"{self.attempted_puts} "
            f"(pre-kill {self.acked_by_phase['pre']}, "
            f"kill-window {self.acked_by_phase['kill']}, "
            f"post-failover {self.acked_by_phase['post']}), "
            f"retries {self.retries}, timeouts {self.timeouts}, "
            f"give-ups {self.give_ups}",
            f"[cluster-chaos] victim {self.victim}: kills {self.kills}, "
            f"failover by {self.failover_by or 'NOBODY'}, "
            f"degraded acks {self.degraded_acks}, "
            f"{self.promotion_checked} acked key(s) read at promotion",
            f"[cluster-chaos] span stitching: {self.stitched_families} "
            f"replicated put(s) traced across hosts",
        ]
        if self.repl_stats:
            lines.append("[cluster-chaos] replication: " + ", ".join(
                f"{k} {v}" for k, v in sorted(self.repl_stats.items())
                if not k.startswith("lag")))
        return lines


class HostKillStorm(Storm):
    """Build the cluster, storm it, kill a primary, check the contract."""

    #: Per-attempt client watchdog.  Far below Homa's 50 ms give-up: the
    #: router's failure detection is driven by these expiries, and two
    #: of them must fire before the failover (fail_threshold=2).
    WATCHDOG_NS = 10 * MILLIS
    #: Attempts per logical put before the loop abandons it (counted).
    MAX_ATTEMPTS = 8
    RETRY_ON_GIVE_UP = True

    def __init__(self, hosts=3, loops=8, puts_per_loop=5, keys_per_loop=2,
                 value_size=1024, ack_policy="sync", seed=1, cores=1,
                 pool_slots=512, kill_delay_ns=200_000.0,
                 failsafe_ns=45 * MILLIS, max_events=20_000_000,
                 config=None):
        if config is None:
            config = ClusterConfig(hosts=hosts, cores=cores,
                                   ack_policy=ack_policy,
                                   pool_slots=pool_slots)
        if not config.metrics:
            raise ValueError(
                "HostKillStorm needs config.metrics=True: the oracles "
                "read the shared recorder's gauges and span chains")
        self.config = config
        self.loops = loops
        self.puts_per_loop = puts_per_loop
        self.seed = seed
        self.kill_delay_ns = kill_delay_ns
        self.failsafe_ns = failsafe_ns
        self.max_events = max_events

        # The kill storm's bursts are the same TrafficSource protocol
        # as every other generator, with cluster-specific key/stamp
        # prefixes so values attribute to the loop that wrote them.
        self.source = StormBurstSource(
            loops, puts_per_loop, keys_per_loop, value_size,
            key_prefix="ck", stamp_prefix="l",
        )

        self.cluster = build_cluster(config)
        self.sim = self.cluster.sim
        self.client = self.cluster.client
        self.router = self.cluster.router
        self.recorder = self.cluster.recorder
        self.metrics = self.cluster.metrics
        self.transport = "homa"
        self.port = config.port
        self.report = ClusterChaosReport()
        self.phase = "pre"
        self.victim = None
        self._victim_keys = []
        self._conns = []

    # -- routing, failure detection, promotion ----------------------------------

    def route(self, key):
        """Each attempt goes to the key's primary in the live ring."""
        target = self.router.primary(key)
        return target, self.router.ip_of(target)

    def report_success(self, target):
        self.router.report_success(target)

    def report_failure(self, target):
        """Loop-observed failure; a router-triggered failover flips the
        storm into its post-failover phase."""
        if self.router.report_failure(target):
            self._promoted("router")

    def _kill_victim(self):
        self.cluster.kill(self.victim)
        self.phase = "kill"

    def _failsafe(self):
        """Detection bound: if the router hasn't evicted the victim by
        now (e.g. the burst drained before two watchdogs expired), the
        control plane's timer does."""
        if self.victim in self.cluster.ring.alive:
            self.cluster.failover(self.victim)
            self._promoted("failsafe")

    def _promoted(self, by):
        """The victim's shards now route to their backups.

        Under ``ack_policy="sync"`` an ack meant the backup applied the
        put, so at this instant every victim key the promoted backup
        serves must be its newest acked value or a later issued one.
        Checking now, before the second burst rewrites those keys,
        is what puts the *pre-kill* acks on trial.  The read uses the
        engine directly with a null context: it adds no simulated
        events and charges no core.
        """
        self.phase = "post"
        if self.report.failover_by is None:
            self.report.failover_by = by
        if self.config.ack_policy != "sync":
            return  # primary-only acks may legally lose the kill window
        self.report.promotion_checked += sum(
            1 for loop in self._conns for key in loop.last_acked
            if key in self._victim_keys)
        for key, got in self._lost_acks(self.cluster.read_value,
                                        self._victim_keys):
            self.report.violation(
                "durability:promotion",
                f"key {key!r}: promoted {self.router.primary(key)} holds "
                f"{got!r} at failover, not the acked value or a later "
                f"issued one",
            )

    # -- phases ---------------------------------------------------------------

    def _storm(self):
        self._build_loops(self.loops, self.source)
        self._stagger(lambda loop, ctx: loop.start(ctx))
        self.sim.run_until_idle(max_events=self.max_events)
        self._pick_victim()
        # The post-kill burst: every loop issues the same count again,
        # retrying through detection and failover.
        self._stagger(lambda loop, ctx: loop.resume(self.puts_per_loop, ctx))
        self.sim.schedule(self.kill_delay_ns, self._kill_victim)
        self.sim.schedule(self.failsafe_ns, self._failsafe)
        self.sim.run_until_idle(max_events=self.max_events)
        self._probe()

    def _pick_victim(self):
        """The primary owning the most loop keys: guaranteed to hold
        acked data, so its death puts the durability claim on trial."""
        owned = {}
        for loop in self._conns:
            for key in loop.keys:
                owned[self.router.primary(key)] = \
                    owned.get(self.router.primary(key), 0) + 1
        self.victim = max(sorted(owned), key=lambda n: owned[n])
        self.report.victim = self.victim
        self._victim_keys = [
            key for loop in self._conns for key in loop.keys
            if self.router.primary(key) == self.victim
        ]

    def _probe(self):
        """End-to-end read-your-acked-writes: GET a victim-owned key
        over the network from whatever the ring now routes to."""
        probed = next(((key, loop) for loop in self._conns
                       for key in self._victim_keys
                       if key in loop.last_acked), None)
        if probed is None:
            return  # the vacuity oracle flags this separately
        key, loop = probed
        allowed = [loop.last_acked[key]] + loop.issued_after_ack.get(key, [])
        status, body = self._get(key, self.router.ip_of(
            self.router.primary(key)))
        self.report.probe_ok = status == 200 and body in allowed
        if not self.report.probe_ok:
            self.report.violation(
                "durability:probe",
                f"post-failover GET /{key.decode()} got {status!r} — the "
                f"promoted primary does not serve the acked put over the "
                f"network",
            )

    # -- oracles --------------------------------------------------------------

    def _check(self):
        report = self.report
        survivors = self.cluster.alive_nodes()
        self._check_liveness([(node.name, len(node.host.cpus))
                              for node in survivors])

        # Refcount exactness, per survivor.
        for node in survivors:
            self._check_store(node.name, f"{node.name}.rx_pool.in_use",
                              f"{node.name}.engine.store.owned", node.engine)

        # Orphans are checked across hosts: terminal give-up spans
        # (abort_peer) cover messages aimed at, or half-received from,
        # the corpse.
        self._check_span_links()
        self._check_stitching()

        # Every acked put is readable from the key's current primary —
        # including every key the dead host used to own.
        for key, got in self._lost_acks(self.cluster.read_value):
            report.violation(
                "durability:failover" if key in self._victim_keys
                else "durability",
                f"key {key!r} (now on {self.router.primary(key)}): stored "
                f"{got!r} is neither the acked value nor a later issued one",
            )
        self._check_vacuity()

    def _check_stitching(self):
        """One request, one trace — across hosts, kills and retries.

        An acked put outside the detection window had a live backup, so
        its origin RPC must trace into at least one replication RPC.
        (Kill-window acks may legitimately have degraded via the suspect
        fast-path without a forward.)
        """
        families = 0
        for loop in self._conns:
            for key, rpc_id in loop.acked_rpcs.items():
                stitched = self.recorder.stitched(rpc_id)
                if len(stitched) > 1:
                    families += 1
                elif loop.acked_phase.get(key) in ("pre", "post") and \
                        len(self.cluster.ring.alive) >= 2:
                    self.report.violation(
                        "spanlink:unstitched",
                        f"key {key!r}: acked rpc {rpc_id} "
                        f"({loop.acked_phase.get(key)}-phase) has no "
                        f"replication hop in its trace",
                    )
        self.report.stitched_families = families

    def _check_vacuity(self):
        """A kill storm that killed nothing, detected nothing or acked
        nothing on either side of the cut proves nothing."""
        report = self.report
        report.kills = self.cluster.stats["kills"]
        report.failovers = self.cluster.stats["failovers"]
        victim_acked = sum(
            1 for loop in self._conns for key in loop.last_acked
            if key in self._victim_keys)
        for vacuous, kind, detail in (
            (report.kills == 0, "vacuous:no-kill",
             "no host was ever killed — nothing failed"),
            (report.failovers == 0, "vacuous:no-failover",
             "the victim was never evicted — neither the router's failure "
             "detection nor the failsafe fired"),
            (report.acked_by_phase["pre"] == 0, "vacuous:no-pre-kill-acks",
             "zero puts were acked before the kill — the victim died "
             "holding nothing worth checking"),
            (report.acked_by_phase["post"] == 0,
             "vacuous:no-post-failover-acks",
             "zero puts were acked after the failover — promotion was "
             "never exercised by live traffic"),
            (victim_acked == 0, "vacuous:victim-untouched",
             f"no acked put landed on a shard {self.victim} owned — the "
             f"kill endangered nothing"),
        ):
            if vacuous:
                report.violation(kind, detail)

    def _finalize(self):
        totals = {}
        for node in self.cluster.nodes.values():
            applier = node.applier.stats
            for key, value in dict(
                    node.replicator.stats, applied=applier["applied"],
                    dup_suppressed=applier["dup_suppressed"]).items():
                if not key.startswith("lag"):
                    totals[key] = totals.get(key, 0) + value
        self.report.repl_stats = totals
        self.report.degraded_acks = totals.get("degraded_acks", 0)
