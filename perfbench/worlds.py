"""The benchmark's four workloads.

Each workload builds a simulated world from a seed, drives traffic
through the program's public client classes, crashes its persistent
memory, recovers, and checks the outcome.  The program only ever sees
the generated operations; the seed stays here.

One :class:`Workload` instance is one repetition:

1. ``build()`` — hosts, PM namespace, engine (or cluster) and preload
   (this is ``setup_s``);
2. ``warm_up()`` — start the clients and run the simulation up to the
   start of the measurement window (untimed);
3. ``sim.run(until=measure_end)`` — the measurement window, timed by
   the caller (``ops_per_wall_s``);
4. ``drain()`` — let in-flight requests finish, then run the live
   checks (cluster replicas, leak and refcount oracles);
5. ``crash()`` + ``recover()`` — power-fail every PM device and rebuild
   a queryable store (``recover_s`` times ``recover`` only);
6. ``check_recovered()`` — durability checks against the recovered
   state.

Every PUT value is stamped with its key and a sequence number by
:class:`StampedValues`, so any stored byte string can be traced to the
operation that wrote it.

Nothing in ``src/`` is edited.  The checked clients subclass the
program's own load generators and hook the methods those use to issue
a request and to account its answer (``next_request``, ``_record``,
``_done``, ``_request_bytes``), so what they see is exactly what the
program's clients see, and they add no simulation events.
"""

from repro.bench.openloop import OpenLoopSource
from repro.bench.testbed import SERVER_IP, make_testbed
from repro.bench.workloads import YcsbWorkload
from repro.bench.wrk import HomaWrkClient, OpenLoopWrkClient, WrkClient
from repro.cluster.topology import ClusterConfig, build_cluster
from repro.core.overload import OverloadController, QueuePressure
from repro.core.pktstore import PacketStore
from repro.net.http import HttpParser, build_request
from repro.net.pool import BufferPool
from repro.pm.namespace import PMNamespace
from repro.sim.context import NULL_CONTEXT
from repro.storage.engines import direct_put
from repro.storage.lsm import novelsm_reattach
from repro.storage.server import ServerConfig

#: Every workload's keys are Zipf(0.99) over this many keys, all of them
#: preloaded except in the overload workload.
KEY_SPACE = 2000
ZIPF_THETA = 0.99

#: PacketStore metadata region: 16384 records of 256 bytes, several
#: times what any trial writes.  Recovery scans every slot, so the
#: engine's 32 MiB default would mostly time a scan of empty slots.
PKTSTORE = {"meta_bytes": 4 << 20}

#: PM device bytes per server: the regions a world creates (rx packet
#: pool, PacketStore metadata or NoveLSM memtable arena) plus headroom.
#: The testbed default (192 MiB) would only add untouched memory.
PM_BYTES_PKTSTORE = 24 << 20
PM_BYTES_NOVELSM = 80 << 20


class StampedValues:
    """Stamps PUT values with ``<key>#<seq>#`` and remembers them.

    Sequence 0 marks preloaded values.  A logical clock orders PUT
    issues and acknowledgements as the client saw them, and
    :meth:`verify` accepts a stored value only if its stamp names the
    key it is stored under, the sequence number was issued for that
    key, the filler is intact, and the value is not stale: no
    acknowledged PUT to the key was issued after this value's PUT had
    been acknowledged (that later PUT must have replaced it).  Preloaded
    values count as acknowledged before any PUT was issued.
    """

    def __init__(self, value_size):
        self.value_size = value_size
        self._filler = bytes(0x41 + (i % 26) for i in range(value_size))
        self._seq = 0
        self._clock = 0
        self.written = {}
        #: seq -> clock when its PUT was issued / acknowledged.
        self.issued = {}
        self.acked = {0: 0}
        #: key bytes -> issue clock of its latest-issued acknowledged PUT.
        self.floor = {}

    def tick(self):
        self._clock += 1
        return self._clock

    def value(self, key, preload=False):
        """A fresh stamped value for ``key`` (a str)."""
        if preload:
            seq = 0
        else:
            self._seq += 1
            seq = self._seq
            self.issued[seq] = self.tick()
        self.written.setdefault(key.encode(), set()).add(seq)
        return self.stamped(key, seq)

    def stamped(self, key, seq):
        stamp = f"{key}#{seq}#".encode()
        return stamp + self._filler[len(stamp):]

    @staticmethod
    def seq_of(value):
        return int(value.split(b"#", 2)[1])

    def ack(self, key, value, clock):
        """Record that the PUT of ``value`` to ``key`` (bytes) was
        acknowledged at logical time ``clock``."""
        seq = self.seq_of(value)
        self.acked[seq] = clock
        if self.issued[seq] > self.floor.get(key, 0):
            self.floor[key] = self.issued[seq]

    def verify(self, key, value, floor=None):
        """None if ``value`` is one the client wrote for ``key`` and no
        acknowledged PUT has superseded it, else what is wrong.

        ``floor`` replaces the key's current floor; a read checks its
        answer against the floor the key had when the read was issued,
        as PUTs acknowledged since may have landed after the read."""
        if value is None:
            return "missing"
        parts = value.split(b"#", 2)
        if len(parts) != 3 or parts[0] != key:
            return f"stamp names another key: {value[:40]!r}"
        try:
            seq = int(parts[1])
        except ValueError:
            return f"unreadable stamp: {value[:40]!r}"
        if seq not in self.written.get(key, ()):
            return f"sequence {seq} was never written for this key"
        stamp_len = len(parts[0]) + len(parts[1]) + 2
        if len(value) != self.value_size or \
                parts[2] != self._filler[stamp_len:]:
            return f"value body corrupted ({len(value)} bytes)"
        if floor is None:
            floor = self.floor.get(key, 0)
        if self.acked.get(seq, float("inf")) < floor:
            return (f"stale: sequence {seq} was acknowledged before a "
                    f"later acknowledged PUT to the key was issued")
        return None


class StampedYcsb(YcsbWorkload):
    """YCSB mix whose PUT values carry a key + sequence stamp."""

    def __init__(self, stamps, **kwargs):
        super().__init__(**kwargs)
        self.stamps = stamps

    def next_op(self, loop_id=0):
        method, key, value = super().next_op(loop_id)
        if value is not None:
            value = self.stamps.value(key)
        return method, key, value


class StampedOpenLoop(OpenLoopSource):
    """Open-loop arrivals whose PUT values carry a key + sequence stamp."""

    def __init__(self, rate_rps, stamps, **kwargs):
        super().__init__(rate_rps, **kwargs)
        self.stamps = stamps

    def _draw_op(self):
        method, key, value = super()._draw_op()
        if value is not None:
            value = self.stamps.value(key)
        return method, key, value


class Outcomes:
    """What the client saw: acks, window accounting, RTTs, violations.

    Requests count in the window when their answer lands between
    ``measure_start`` and ``measure_end`` (simulated ns).
    """

    def __init__(self, stamps):
        self.stamps = stamps
        self.measure_start = None
        self.measure_end = None
        self.ok_rtts_ns = []
        self.answered = 0
        self.ok = 0
        self.refused = 0
        self.errors = 0
        self.puts = 0
        self.violations = []

    @property
    def acked(self):
        """The keys with at least one acknowledged PUT."""
        return self.stamps.floor

    def answer(self, op, status, finished, started=None, body=None,
               clock=None, floor=None):
        """Account one response to ``op`` = (method, key, value).

        ``body`` is a GET's answer and ``floor`` the key's floor when
        the GET was issued; ``clock`` is the logical time the client
        read the response, if that was before this call."""
        method, key, value = op
        kb = key.encode()
        if status == 200:
            if method == "PUT":
                self.stamps.ack(kb, value,
                                self.stamps.tick() if clock is None
                                else clock)
            elif body is not None:
                problem = self.stamps.verify(kb, body, floor)
                if problem:
                    self.violate(f"GET {key} returned a wrong value: "
                                 f"{problem}")
        elif status == 404:
            self.violate(f"GET {key} answered 404 for a preloaded key")
        if not self.measure_start <= finished <= self.measure_end:
            return
        self.answered += 1
        if method == "PUT":
            self.puts += 1
        if status == 200:
            self.ok += 1
            if started is not None:
                self.ok_rtts_ns.append(finished - started)
        elif status in (503, 507):
            self.refused += 1
        else:
            self.errors += 1

    def violate(self, detail):
        self.violations.append(detail)


# ------------------------------------------------------------------ clients

class _Answer(int):
    """A response status that carries the request it answers.

    ``WrkClient`` hands only the status to ``_record``; tagging it lets
    the completion be matched to its request without adding events.
    """


class _CheckingParser(HttpParser):
    """Response parser of one closed-loop connection."""

    def __init__(self, client, conn_id):
        super().__init__(is_response=True)
        self._client = client
        self._conn_id = conn_id

    def feed(self, segment, ctx=None, costs=None):
        messages = super().feed(segment, ctx, costs)
        for message in messages:
            answer = _Answer(message.status)
            answer.op, answer.floor = self._client.pending_ops.pop(
                self._conn_id)
            # The connection issues its next request before the answer
            # is recorded, so the acknowledgement is timed here.
            answer.clock = self._client.outcomes.stamps.tick()
            # Read the body now: the connection releases it next.
            answer.body = message.body \
                if answer.op[0] == "GET" and message.status == 200 else None
            message.status = answer
        return messages


class CheckedWrkClient(WrkClient):
    """Closed-loop HTTP/TCP client that checks every answer it gets."""

    def __init__(self, host, server_ip, outcomes, **kwargs):
        super().__init__(host, server_ip, **kwargs)
        self.outcomes = outcomes
        #: conn id -> (the op awaiting its answer, its key's floor then).
        self.pending_ops = {}

    def start(self):
        super().start()
        for conn in self._conns:
            conn.parser = _CheckingParser(self, conn.conn_id)
        return self

    def next_request(self, conn):
        op = self.workload.next_op(conn.conn_id)
        self.pending_ops[conn.conn_id] = (
            op, self.outcomes.stamps.floor.get(op[1].encode(), 0))
        return _request_bytes(op)

    def _record(self, started, finished, status=None):
        self.outcomes.answer(status.op, int(status), finished, started,
                             status.body, status.clock, status.floor)
        super()._record(started, finished, int(status))

    def _conn_error(self, conn):
        super()._conn_error(conn)
        self.pending_ops.pop(conn.conn_id, None)
        self.outcomes.errors += 1


def _request_bytes(op):
    method, key, value = op
    if value is None:
        return build_request(method, f"/{key}")
    return build_request(method, f"/{key}", value)


class CheckedHomaClient(HomaWrkClient):
    """Closed-loop Homa RPC client that checks every answer it gets."""

    def __init__(self, host, server_ip, outcomes, **kwargs):
        super().__init__(host, server_ip, **kwargs)
        self.outcomes = outcomes
        #: loop id -> the op awaiting its answer.
        self.pending_ops = {}

    def _request_bytes(self, loop_id):
        op = self.workload.next_op(loop_id)
        if op is None:
            return None
        self.pending_ops[loop_id] = op
        self._last_key = op[1]
        return _request_bytes(op)

    def _done(self, loop_id, started, finished, status=None, rpc_id=None):
        self.outcomes.answer(self.pending_ops.pop(loop_id), status, finished,
                             started)
        super()._done(loop_id, started, finished, status, rpc_id)


class CheckedOpenLoopClient(OpenLoopWrkClient):
    """Open-loop client that checks every answer it gets.

    RTTs are timed from each request's scheduled arrival.
    """

    def __init__(self, host, server_ip, source, outcomes, **kwargs):
        super().__init__(host, server_ip, source, **kwargs)
        self.outcomes = outcomes

    def _record(self, pending, finished, status):
        scheduled, arrival = pending
        self.outcomes.answer(arrival.op(), status, finished, scheduled)
        super()._record(pending, finished, status)


# ---------------------------------------------------------------- workloads

def _preload(stamps, engines_for_key, prefix="k"):
    """Write every key once, straight into the engine(s) holding it."""
    for index in range(KEY_SPACE):
        key = f"{prefix}-{index}"
        value = stamps.value(key, preload=True)
        for engine in engines_for_key(key.encode()):
            direct_put(engine, key.encode(), value)


def _recover_pktstore(device, slot_size):
    """Reopen a crashed PASTE host's PM and rebuild its PacketStore."""
    ns = PMNamespace.reopen(device)
    pool = BufferPool(ns.open("paste-pktbufs"), slot_size)
    store, _report = PacketStore.recover(ns.open("pktstore-meta"), pool)
    return store


class Workload:
    """One repetition of one workload; see the module docstring."""

    name = None
    value_size = None
    warmup_ns = 2_000_000.0
    window_ns = None
    #: Independent worlds a run pools its simulated metrics over.  Two
    #: keep a cycle over them short, so a run has time for several.
    trials = 2
    #: Faults a negative control can plant (see test_perfbench.py).
    plants = ("drop-acked-key",)

    def __init__(self, seed, plant=None):
        if plant is not None and plant not in self.plants:
            raise ValueError(f"{self.name} cannot plant {plant!r}; pick "
                             f"from {self.plants}")
        self.seed = seed
        self.plant = plant
        self.stamps = StampedValues(self.value_size)
        self.outcomes = Outcomes(self.stamps)
        self.sim = None
        self.client = None
        self.hosts = []
        self.pm_devices = []
        self.controllers = []
        self.replicators = []
        self.recorder = None

    # -- phases -------------------------------------------------------------

    def build(self):
        raise NotImplementedError

    def warm_up(self):
        self.client.start()
        self.outcomes.measure_start = self.client.stats.measure_start
        self.outcomes.measure_end = self.client.stats.measure_end
        self.sim.run(until=self.measure_start)

    @property
    def measure_start(self):
        return self.outcomes.measure_start

    @property
    def measure_end(self):
        return self.outcomes.measure_end

    def drain(self):
        """Finish the run: in-flight requests complete, loops stop."""
        self.client.run()

    def check_live(self):
        """Checks on the running system after the drain."""
        if self.unanswered():
            self.outcomes.violate(
                f"{self.unanswered()} request(s) never answered")

    def snapshot(self):
        """The store contents before the crash: {store label: mapping}."""
        raise NotImplementedError

    def crash(self):
        for device in self.pm_devices:
            device.crash()

    def recover(self):
        """Rebuild queryable stores from PM; {store label: store}."""
        raise NotImplementedError

    def check_recovered(self, before, after):
        """Durability checks.  ``before`` is :meth:`snapshot`'s result,
        ``after`` the same for the recovered stores."""
        if self.plant == "drop-acked-key":
            key = min(self.outcomes.acked)
            after = {label: {k: v for k, v in mapping.items() if k != key}
                     for label, mapping in after.items()}
        for label in sorted(before):
            if after[label] != before[label]:
                differ = sum(1 for k in set(before[label]) | set(after[label])
                             if before[label].get(k) != after[label].get(k))
                self.outcomes.violate(
                    f"{label}: recovered mapping differs from the "
                    f"pre-crash mapping in {differ} key(s)")
            for key, value in after[label].items():
                problem = self.stamps.verify(key, value)
                if problem:
                    self.outcomes.violate(
                        f"{label}: recovered {key!r}: {problem}")
        for key in sorted(self.outcomes.acked):
            for label in self.holders(key):
                problem = self.stamps.verify(key, after[label].get(key))
                if problem:
                    self.outcomes.violate(
                        f"{label}: acknowledged key {key!r} after "
                        f"recovery: {problem}")

    def holders(self, key):
        """Labels of the stores that must hold ``key``."""
        return ("server",)

    # -- accounting ---------------------------------------------------------

    @property
    def attempted(self):
        """Requests attempted in the window, answered or not."""
        return self.outcomes.answered + self.unanswered()

    def unanswered(self):
        """Requests still waiting for an answer after the drain."""
        return len(self.client.pending_ops)

    def counters(self):
        """Deterministic program counters, read around the window."""
        counts = {"events": self.sim.events_fired, "stores": 0,
                  "flushes": 0, "fences": 0, "pool_allocs": 0,
                  "pool_exhaustions": 0, "homa_retransmits": 0,
                  "reclaims": 0, "forwards": 0, "degraded_acks": 0}
        for device in self.pm_devices:
            counts["stores"] += device.tracker.stores
            counts["flushes"] += device.tracker.flushes
            counts["fences"] += device.tracker.fences
        for host in self.hosts:
            for pool in (host.rx_pool, host.tx_pool):
                counts["pool_allocs"] += pool.allocs
                counts["pool_exhaustions"] += pool.exhaustions
            if host.homa is not None:
                counts["homa_retransmits"] += (
                    host.homa.stats["send_retries"]
                    + host.homa.stats["resends"])
        for controller in self.controllers:
            counts["reclaims"] += controller.stats["reclaims"]
        for replicator in self.replicators:
            counts["forwards"] += replicator.stats["sent"]
            counts["degraded_acks"] += replicator.stats["degraded_acks"]
        return counts

    def attach_recorder(self):
        """A Recorder over every host and the fabric, for stage times."""
        from repro.obs.trace import Recorder

        if self.recorder is None:
            self.recorder = Recorder(sim=self.sim)
            for host in self.hosts:
                self.recorder.attach_host(host)
            self.recorder.attach_fabric(self.fabric)
        return self.recorder


class _Testbed(Workload):
    """Single server + client testbed workloads."""

    #: Write every key once before the run (reads then always hit).
    preload = True

    def _adopt(self, testbed):
        self.testbed = testbed
        self.sim = testbed.sim
        self.fabric = testbed.fabric
        self.hosts = [testbed.server, testbed.client]
        self.pm_devices = [testbed.pm_device]
        self.recorder = testbed.recorder
        if testbed.overload is not None:
            self.controllers = [testbed.overload]
        if self.preload:
            _preload(self.stamps, lambda key: (testbed.engine,))

    def snapshot(self):
        return {"server": dict(self.testbed.engine.store.scan())}


class TcpPktstoreYcsbA(_Testbed):
    """The paper's proposal end to end, with reads beside writes."""

    name = "tcp-pktstore-ycsbA"
    value_size = 1024
    window_ns = 30_000_000.0

    def build(self):
        self._adopt(make_testbed(
            ServerConfig(engine="pktstore", zero_copy_get=True,
                         engine_kwargs=PKTSTORE),
            pm_bytes=PM_BYTES_PKTSTORE))
        source = StampedYcsb(self.stamps, mix="A", key_space=KEY_SPACE,
                             value_size=self.value_size, theta=ZIPF_THETA,
                             seed=self.seed, key_prefix="k")
        self.client = CheckedWrkClient(
            self.testbed.client, SERVER_IP, self.outcomes, connections=8,
            duration_ns=self.window_ns, warmup_ns=self.warmup_ns,
            workload=source)

    def recover(self):
        return {"server": _recover_pktstore(
            self.testbed.pm_device, self.testbed.server.rx_pool.slot_size)}


class HomaNovelsmPut(_Testbed):
    """The paper's baseline: write-only NoveLSM behind Homa, 4 cores."""

    name = "homa-novelsm-put"
    value_size = 512
    window_ns = 10_000_000.0
    # The RTT tail of one trial (12 loops queueing on 4 cores) moves by
    # about 20 % from seed to seed; eight trials average that down.
    trials = 8

    def build(self):
        self._adopt(make_testbed(
            ServerConfig(transport="homa", engine="novelsm", cores=4),
            pm_bytes=PM_BYTES_NOVELSM))
        source = StampedYcsb(self.stamps, mix="W", key_space=KEY_SPACE,
                             value_size=self.value_size, theta=ZIPF_THETA,
                             seed=self.seed, key_prefix="k")
        self.client = CheckedHomaClient(
            self.testbed.client, SERVER_IP, self.outcomes, connections=12,
            duration_ns=self.window_ns, warmup_ns=self.warmup_ns,
            workload=source)

    def recover(self):
        ns = PMNamespace.reopen(self.testbed.pm_device)
        return {"server": novelsm_reattach(
            ns, arena_size=self.testbed.config.memtable_arena)}


class OpenloopPktstoreOverload(_Testbed):
    """Open-loop overload: queues grow, load is shed, reclaim runs."""

    name = "openloop-pktstore-overload"
    value_size = 256
    warmup_ns = 5_000_000.0
    window_ns = 30_000_000.0
    rate_rps = 45_000.0
    plants = Workload.plants + ("no-containment",)
    # The store starts empty and about 1575 PUT versions arrive in the
    # run: more than the 768-slot pool holds, so the pool's watermark
    # trips in every trial and reclaim frees superseded versions.
    preload = False
    pool_slots = 768
    # The controller's pressure cycles make one trial's goodput and
    # median RTT swing by about 10 % from seed to seed; eight trials
    # average that down.
    trials = 8

    def build(self):
        controller = None if self.plant == "no-containment" \
            else OverloadController()
        config = ServerConfig(engine="pktstore", overload=controller,
                              metrics=True, engine_kwargs=PKTSTORE)
        testbed = make_testbed(config=config, pm_bytes=PM_BYTES_PKTSTORE,
                               paste_pool_bytes=self.pool_slots * 2048)
        if controller is not None:
            controller.watch(QueuePressure(testbed.server, high_ns=150_000.0,
                                           low_ns=40_000.0))
        self._adopt(testbed)
        source = StampedOpenLoop(
            self.rate_rps, self.stamps, clients=200_000,
            key_space=KEY_SPACE, value_size=self.value_size,
            theta=ZIPF_THETA, churn=0.002, seed=self.seed, key_prefix="k")
        self.client = CheckedOpenLoopClient(
            testbed.client, SERVER_IP, source, self.outcomes, sockets=32,
            duration_ns=self.window_ns, warmup_ns=self.warmup_ns)
        testbed.recorder.attach_openloop(self.client)
        self._tx_baseline = testbed.metrics.value("server.tx_pool.in_use")

    def drain(self):
        super().drain()
        # Let retransmissions and FINs finish so the pool gauges rest.
        self.sim.run(until=self.sim.now + 2_000_000.0)

    def unanswered(self):
        """Arrivals the client abandoned, plus requests sent and never
        answered.  Arrivals still queued in the client when it hangs up
        at the window's end were never sent: they are not attempted
        (``client.backlog_at_stop`` counts them)."""
        return self.client.stats.abandoned + self.client.inflight

    def check_live(self):
        if self.client.inflight:
            self.outcomes.violate(
                f"{self.client.inflight} sent request(s) never answered")
        from repro.bench.soak import SoakReport, _leak_oracles

        report = SoakReport({})
        _leak_oracles(report, self.name, self.testbed, self._tx_baseline)
        for kind, detail in report.violations:
            self.outcomes.violate(f"{kind}: {detail}")
        exhaustions = self.testbed.server.rx_pool.exhaustions
        if exhaustions:
            self.outcomes.violate(
                f"shed-before-exhaustion: rx pool exhausted {exhaustions} "
                f"time(s)")
        if self.client.use_after_close:
            self.outcomes.violate(
                f"churn-safety: {self.client.use_after_close} sends on "
                f"churned connections")

    def recover(self):
        return {"server": _recover_pktstore(
            self.testbed.pm_device, self.testbed.server.rx_pool.slot_size)}


class Cluster3HostSyncPut(Workload):
    """PUTs sharded over a 3-host PacketStore cluster with sync acks."""

    name = "cluster-3host-sync-put"
    value_size = 512
    window_ns = 15_000_000.0
    plants = Workload.plants + ("revert-backup-key",)

    def build(self):
        cluster = build_cluster(ClusterConfig(
            hosts=3, ack_policy="sync", metrics=False,
            pm_bytes=PM_BYTES_PKTSTORE, engine_kwargs=PKTSTORE))
        self.cluster = cluster
        self.sim = cluster.sim
        self.fabric = cluster.fabric
        nodes = list(cluster.nodes.values())
        self.hosts = [node.host for node in nodes] + [cluster.client]
        self.pm_devices = [node.pm_device for node in nodes]
        self.replicators = [node.replicator for node in nodes]
        _preload(self.stamps, lambda key: [
            cluster.nodes[name].engine for name in cluster.ring.route(key)])
        source = StampedYcsb(self.stamps, mix="W", key_space=KEY_SPACE,
                             value_size=self.value_size, theta=ZIPF_THETA,
                             seed=self.seed, key_prefix="k")
        route = cluster.router.primary
        self.client = CheckedHomaClient(
            cluster.client, None, self.outcomes, port=cluster.config.port,
            connections=8, duration_ns=self.window_ns,
            warmup_ns=self.warmup_ns, workload=source,
            route=lambda key: cluster.nodes[route(key)].ip)

    def holders(self, key):
        return tuple(self.cluster.ring.route(key))

    def check_live(self):
        super().check_live()
        if self.plant == "revert-backup-key":
            key = min(self.outcomes.acked)
            backup = self.cluster.nodes[self.holders(key)[1]]
            direct_put(backup.engine, key,
                       self.stamps.stamped(key.decode(), 0))
        for key in sorted(self.outcomes.acked):
            for name in self.holders(key):
                value = self.cluster.nodes[name].engine.get(key, NULL_CONTEXT)
                problem = self.stamps.verify(key, value)
                if problem:
                    self.outcomes.violate(
                        f"{name}: sync-acked key {key!r}: {problem}")

    def snapshot(self):
        return {name: dict(node.engine.store.scan())
                for name, node in self.cluster.nodes.items()}

    def recover(self):
        return {name: _recover_pktstore(node.pm_device,
                                        node.host.rx_pool.slot_size)
                for name, node in self.cluster.nodes.items()}


WORKLOADS = {cls.name: cls for cls in (
    TcpPktstoreYcsbA, HomaNovelsmPut, OpenloopPktstoreOverload,
    Cluster3HostSyncPut)}
