"""Overload chaos world: does the server survive the traffic it measures?

The crash sweep (:mod:`repro.testing.harness`) proves the *persistence*
path honest; this module does the same for the *serving* path.  It
drives a deliberately under-provisioned testbed — a PM packet pool and
metadata slab sized to exhaust under a many-connection PUT burst —
through pool-exhaustion bursts, fabric loss/duplication squalls and
slow-client stalls, then checks the §4 coupling's failure-containment
contract:

- **liveness** — the server answers every surviving connection and a
  post-storm probe; overload surfaces as 503/507 responses, never as an
  exception unwinding the TCP receive path;
- **durability** — every acked PUT's value is still readable after the
  storm (the newest acked, or a later issued, version per key);
- **no leaks** — after the storm drains, tx pools are empty, every
  in-use rx slot is owned by the store, and each adopted buffer's
  refcount equals the references the store actually holds.

Running the same storm with ``contain=False`` (no overload controller,
``contain_errors=False``) must *fail* — the sweep records the crash or
stall as a violation.  That negative check wires into CI via
``repro-chaoscheck --no-containment --expect-violations``, proving the
detector detects.

:class:`Storm` is the engine this storm shares with the host-kill storm
(:mod:`repro.testing.chaos_cluster`): one closed-loop requester with
one ack ledger over two transports (an HTTP/TCP stream, or Homa RPCs
with a watchdog, an attempt budget and a per-attempt route), one
crash-catching run, and one copy of each oracle both storms apply.
"""

import functools
import random

from repro.bench.testbed import SERVER_IP, make_testbed
from repro.bench.workloads import StormBurstSource
from repro.net.fabric import LinkFaults
from repro.net.http import HttpParser, build_request
from repro.sim.units import MILLIS
from repro.storage.server import ServerConfig
from repro.testing.oracle import Verdict, exit_status, refcount_mismatches

PORT = 80

#: Slot size of the host pools (mirrors Host's default).
SLOT = 2048


class StormReport(Verdict):
    """What a storm's loops issued and saw, and what its oracles found."""

    def __init__(self):
        super().__init__()
        self.responses = {200: 0, 503: 0, 507: 0, 400: 0, 404: 0}
        self.attempted_puts = 0
        self.acked_puts = 0
        #: storm phase -> puts acked in it
        self.acked_by_phase = {}
        self.timeouts = 0
        self.retries = 0
        self.give_ups = 0
        self.abandoned_puts = 0
        #: (rpc, direction) pairs that retransmitted at least once —
        #: how much the span-link oracle actually exercised (Homa only).
        self.retransmitted_rpcs = 0
        self.crashed = None
        self.probe_ok = False


class ChaosReport(StormReport):
    """Outcome of one overload storm."""

    tag = "[chaos]"
    clean = "contract held: live, durable, leak-free"

    def __init__(self):
        super().__init__()
        self.resets = 0
        self.stall_aborts = 0
        self.server_stats = {}
        self.overload_stats = {}

    def header(self):
        lines = [
            f"[chaos] puts acked {self.acked_puts}/{self.attempted_puts}, "
            f"responses {dict(self.responses)}, resets {self.resets}, "
            f"timeouts {self.timeouts}",
        ]
        if self.retransmitted_rpcs:
            lines.append(
                f"[chaos] span links: {self.retransmitted_rpcs} "
                f"message(s) retransmitted, all chains resolved"
            )
        if self.server_stats:
            keys = ("shed", "contained_errors", "degraded_gets",
                    "dropped_responses", "parse_errors")
            lines.append("[chaos] server: " + ", ".join(
                f"{k} {self.server_stats.get(k, 0)}" for k in keys))
        if self.overload_stats:
            lines.append("[chaos] overload: " + ", ".join(
                f"{k} {v}" for k, v in sorted(self.overload_stats.items())))
        return lines


# -- the load loop ------------------------------------------------------------


class _Loop:
    """One closed-loop requester and its ack ledger.

    The loop issues its TrafficSource's ops one at a time.  Per key it
    keeps the newest acked value and every value issued after it: the
    durability oracles accept any of those, since an unacked write may
    legally persist.  ``puts > len(keys)`` forces overwrites, giving
    the emergency GC superseded versions to reclaim mid-storm.  A
    transport subclass supplies ``start`` and ``_send``.
    """

    def __init__(self, storm, loop_id, source):
        self.storm = storm
        self.loop_id = loop_id
        self.source = source
        keys_for = getattr(source, "keys_for", None)
        self.keys = [key.encode() for key in keys_for(loop_id)] \
            if keys_for is not None else []
        self.sent = 0
        self.done = False
        self.in_flight = None       # (key, value) awaiting its response
        self.rpc_id = None          # transport id of the latest attempt
        self.last_acked = {}        # key -> value of the newest acked put
        self.issued_after_ack = {}  # key -> [values issued after that ack]
        self.acked_rpcs = {}        # key -> rpc id of the acking attempt
        self.acked_phase = {}       # key -> storm phase at ack time

    def resume(self, extra_puts, ctx):
        """Issue ``extra_puts`` more (the host-kill storm's second burst)."""
        self.source.extend(self.loop_id, extra_puts)
        if self.done:
            self.done = False
            self._next(ctx)

    def _next(self, ctx):
        op = self.source.next_op(self.loop_id)
        if op is None:
            self.done = True
            self._finish(ctx)
            return
        method, key_str, value = op
        key = key_str.encode()
        self.in_flight = (key, value)
        self.issued_after_ack.setdefault(key, []).append(value)
        self.sent += 1
        self.storm.report.attempted_puts += 1
        self._send(build_request(method, "/" + key_str, value), ctx)

    def _finish(self, ctx):
        """The source ran dry (the TCP loop closes its connection)."""

    def _settle(self, status):
        """Book the response (``None``: unparseable) to the op in flight."""
        report = self.storm.report
        if status is not None:
            report.responses[status] = report.responses.get(status, 0) + 1
            if self.in_flight is not None and status == 200:
                key, value = self.in_flight
                phase = self.storm.phase
                self.last_acked[key] = value
                self.issued_after_ack[key] = []
                self.acked_rpcs[key] = self.rpc_id
                self.acked_phase[key] = phase
                report.acked_puts += 1
                report.acked_by_phase[phase] = \
                    report.acked_by_phase.get(phase, 0) + 1
        self.in_flight = None


class _TcpLoop(_Loop):
    """The loop over one HTTP/TCP connection to the server."""

    def __init__(self, storm, loop_id, source):
        super().__init__(storm, loop_id, source)
        self.parser = HttpParser(is_response=True)
        self.sock = None

    def start(self, ctx):
        self.sock = self.storm.client.stack.connect(SERVER_IP, PORT, ctx)
        self.sock.on_data = self._on_data
        self.sock.on_established = lambda s, c: self._next(c)
        self.sock.on_reset = self._on_reset

    def _send(self, request, ctx):
        self.sock.send(request, ctx)

    def _finish(self, ctx):
        self.sock.close(ctx)

    def _on_reset(self, _sock):
        self.storm.report.resets += 1
        self.done = True
        self.parser.reset()

    def _on_data(self, _sock, segment, ctx):
        for message in self.parser.feed(segment):
            status = message.status
            message.release()
            self._settle(status)
            if self.done:
                return
            self._next(ctx)


class _HomaLoop(_Loop):
    """The loop over Homa RPCs, routed afresh on every attempt.

    Homa has no connections, so there is no stream to half-send and
    stall.  An attempt ends in a reply, in the storm's watchdog expiry
    or, where the storm retries on it, in the transport's give-up.  An
    attempt that ended without a reply is reported to the storm's
    failure detector and retried (same request, new route: after a
    failover the key lands on the promoted backup) until the storm's
    attempt budget is spent; then the put is abandoned.
    """

    def __init__(self, storm, loop_id, source):
        super().__init__(storm, loop_id, source)
        self.core = None
        self.awaiting = None    # (put, attempt) of the live RPC
        self.attempt = 0
        self.target = None      # route target of the live attempt
        self.request = None

    def start(self, ctx):
        cpus = self.storm.client.cpus
        self.core = cpus[self.loop_id % len(cpus)]
        self._next(ctx)

    def _send(self, request, ctx):
        self.request = request
        self.attempt = 0
        self._fire(ctx)

    def _fire(self, ctx):
        storm = self.storm
        token = (self.sent, self.attempt)
        self.awaiting = token
        self.target, ip = storm.route(self.in_flight[0])
        self.rpc_id = storm.client.homa.send_request(
            ip, storm.port, self.request, ctx,
            on_reply=lambda segments, c, t=token: self._on_reply(
                t, segments, c),
            on_giveup=lambda _rpc, t=token: self._on_giveup(t),
        )
        storm.sim.schedule(storm.WATCHDOG_NS, self._watchdog, token)

    def _retry(self, ctx):
        if self.attempt + 1 >= self.storm.MAX_ATTEMPTS:
            self.storm.report.abandoned_puts += 1
            self.in_flight = None
            self._next(ctx)
            return
        self.attempt += 1
        self.storm.report.retries += 1
        self._fire(ctx)

    def _on_reply(self, token, segments, ctx):
        if self.awaiting != token:
            return  # a watchdog or give-up already moved on
        self.awaiting = None
        self.storm.report_success(self.target)
        parser = HttpParser(is_response=True)
        status = None
        for segment in segments:
            for message in parser.feed(segment):
                status = message.status
                message.release()
        parser.reset()
        self._settle(status)
        if not self.done:
            self._next(ctx)

    def _on_giveup(self, token):
        if self.awaiting != token or not self.storm.RETRY_ON_GIVE_UP:
            return
        self.storm.report.give_ups += 1
        self._expire()

    def _watchdog(self, token):
        if self.awaiting != token:
            return
        self.storm.report.timeouts += 1
        self._expire()

    def _expire(self):
        self.awaiting = None
        self.storm.report_failure(self.target)
        self.storm.client.process_on_core(self.core, self._retry)


# -- the storm engine ---------------------------------------------------------


class Storm:
    """What the overload and host-kill storms share.

    A storm runs its phases and probe (``_storm``), then checks its
    contract (``_check``), then copies the server's counters into its
    report (``_finalize``).  An exception anywhere in the storm is
    itself the finding: it becomes a ``crash`` violation and the
    oracles are skipped, since the world they would read is half-run.
    Subclasses build ``sim``, ``client``, ``metrics``, ``recorder``,
    ``transport``, ``port``, ``max_events`` and ``report``, and may
    override the Homa loops' routing and failure reporting.
    """

    #: Homa loops: per-attempt client watchdog.
    WATCHDOG_NS = 80 * MILLIS
    #: Homa loops: attempts per put before the loop abandons it.
    MAX_ATTEMPTS = 1
    #: Homa loops: whether a transport give-up ends the attempt, or the
    #: loop waits for its watchdog.
    RETRY_ON_GIVE_UP = False

    #: Storm phase that acks are booked under.
    phase = "storm"

    def route(self, _key):
        """(target, ip) a Homa loop's next attempt is sent to."""
        return None, SERVER_IP

    def report_success(self, target):
        """A Homa attempt to ``target`` got its reply."""

    def report_failure(self, target):
        """A Homa attempt to ``target`` expired or was given up."""

    def run(self):
        try:
            self._storm()
        except Exception as exc:  # noqa: BLE001 — a crash IS the finding
            self.report.crashed = exc
            self.report.violation("crash", f"{type(exc).__name__}: {exc}")
        else:
            if self.report.attempted_puts == 0:
                self.report.violation(
                    "vacuous:no-requests",
                    "the storm issued zero PUTs — nothing was tested")
            self._check()
        self._finalize()
        return self.report

    # -- shared phases ----------------------------------------------------------

    def _build_loops(self, count, source):
        loop_class = _HomaLoop if self.transport == "homa" else _TcpLoop
        self._conns = [loop_class(self, loop_id, source)
                       for loop_id in range(count)]

    def _stagger(self, action):
        """Run ``action(loop, ctx)`` for every loop on its own core, 2 µs
        apart, so a burst's opening doesn't serialise into one slice."""
        cpus = self.client.cpus
        for loop in self._conns:
            self.sim.schedule(
                loop.loop_id * 2_000.0, self.client.process_on_core,
                cpus[loop.loop_id % len(cpus)],
                functools.partial(action, loop),
            )

    def _get(self, key, ip):
        """GET ``key`` from ``ip`` after the storm: ``(status, body)``."""
        result = {"status": None, "body": None}
        parser = HttpParser(is_response=True)
        request = build_request("GET", "/" + key.decode())

        def collect(segments, answered):
            for segment in segments:
                for message in parser.feed(segment):
                    result["status"] = message.status
                    result["body"] = message.body
                    message.release()
                    answered()

        def start(ctx):
            if self.transport == "homa":
                self.client.homa.send_request(
                    ip, self.port, request, ctx,
                    on_reply=lambda segments, c: collect(segments,
                                                         lambda: None))
                return
            sock = self.client.stack.connect(ip, self.port, ctx)
            sock.on_data = lambda s, segment, c: collect(
                [segment], lambda: s.close(c))
            sock.on_established = lambda s, c: s.send(request, c)

        self.client.process_on_core(self.client.cpus[0], start)
        self.sim.run_until_idle(max_events=self.max_events)
        return result["status"], result["body"]

    # -- shared oracles ---------------------------------------------------------

    def _check_liveness(self, hosts):
        """No core of ``hosts`` (``(gauge prefix, cores)`` pairs) may
        still hold queued work at drain, and no loop may still await a
        response."""
        # Settle: run_until_idle leaves the clock at the last *event*,
        # which can precede the end of the last core slice by a few µs;
        # advancing past it makes queue_ns a true stuck-work detector.
        self.sim.run(until=self.sim.now + MILLIS)
        for name, cores in hosts:
            for index in range(cores):
                queued = self.metrics.value(f"{name}.core{index}.queue_ns")
                if queued > 0:
                    self.report.violation(
                        "liveness:core-queue",
                        f"{name} core {index} still has {queued:.0f} ns of "
                        f"queued work after the storm drained",
                    )
        stalled = sum(1 for loop in self._conns
                      if loop.in_flight is not None and not loop.done)
        if stalled:
            self.report.violation(
                "liveness:stalled",
                f"{stalled} loop(s) still awaiting a response at idle",
            )

    def _check_store(self, label, rx_gauge, owned_gauge, engine):
        """Only the store holds rx slots once the storm has drained, and
        each adopted buffer's refcount equals the store's references."""
        rx_in_use = self.metrics.value(rx_gauge)
        owned = self.metrics.value(owned_gauge)
        if rx_in_use != owned:
            # Internals only for the diagnostic detail, not the verdict.
            store = engine.store
            stray = sorted(set(store.pool._in_use) - set(store._buffers))
            missing = sorted(set(store._buffers) - set(store.pool._in_use))
            self.report.violation(
                "leak:server-rx",
                f"{rx_gauge} = {rx_in_use:.0f} but {owned_gauge} = "
                f"{owned:.0f} (stray {stray[:8]}, freed-but-referenced "
                f"{missing[:8]})",
            )
        for slot, refcount, held in refcount_mismatches(engine):
            self.report.violation(
                "refcount:buffer",
                f"{label} slot {slot}: refcount {refcount}, store holds "
                f"{held}",
            )

    def _check_span_links(self):
        """Every retransmitted RPC resolves, and none ran twice.

        The recorder threads one chain per RPC id through the trace
        ring (see :mod:`repro.obs.trace`).  After the storm drains,
        each direction that retransmitted must have ended in delivery
        or an explicit give-up — a chain that did neither is an orphan:
        retransmit spans dangling with no terminal span.  And no
        logical request may have run the handler twice — that would
        double-count its stages in the live Table-1 totals (the
        transport's completed-RPC dedup exists exactly to prevent it).
        """
        report = self.report
        retransmitted = 0
        for rpc_id, chain in self.recorder.chains().items():
            for direction in ("request", "reply"):
                side = chain[direction]
                if side["retransmits"] == 0:
                    continue
                retransmitted += 1
                if direction not in chain["delivered"] and \
                        direction not in chain["gave_up"]:
                    report.violation(
                        "spanlink:orphan",
                        f"rpc {rpc_id} {direction}: "
                        f"{side['retransmits']} retransmit(s) but the "
                        f"message was neither delivered nor given up",
                    )
        # Vacuity is recorded, not a violation: whether the squall
        # forced retransmits depends on seed and sizing, and a quiet
        # storm still proves liveness/durability.  The dedicated
        # span-link test asserts retransmitted_rpcs > 0 on a seed that
        # does storm.
        report.retransmitted_rpcs = retransmitted
        double = self.metrics.value("server.rpc.double_dispatch")
        if double:
            report.violation(
                "spanlink:double-dispatch",
                f"{double:.0f} RPC(s) ran the handler more than once — "
                f"their stage costs are double-counted in Table 1",
            )

    def _lost_acks(self, read, keys=None):
        """``(key, head)`` for each acked key (of ``keys``, if given)
        whose ``read(key)`` is neither the newest acked value nor one
        issued after it; ``head`` is what was read, cut to 48 bytes."""
        for loop in self._conns:
            for key, value in loop.last_acked.items():
                if keys is not None and key not in keys:
                    continue
                stored = read(key)
                if stored not in [value] + loop.issued_after_ack.get(key, []):
                    yield key, None if stored is None else bytes(stored[:48])


class OverloadStorm(Storm):
    """Build the under-provisioned testbed and run the storm."""

    def __init__(self, connections=100, puts_per_conn=6, keys_per_conn=2,
                 value_size=1400, pool_slots=256, slab_slots=None,
                 contain=True, zero_copy=False, stalls=4,
                 storm_faults=True, seed=1, max_events=20_000_000,
                 transport="tcp", cores=1, config=None, source=None):
        self.connections = connections
        self.value_size = value_size
        # The storm's burst phase is a TrafficSource like any other
        # generator; passing one in substitutes the traffic (e.g. a
        # captured stream) while the oracles stay unchanged.
        self.source = source if source is not None else StormBurstSource(
            connections, puts_per_conn, keys_per_conn, value_size,
        )
        # Default slab sizing: enough for steady state (live keys) but
        # well short of the versions the burst creates, so the slab —
        # not just the pool — sees pressure.
        if slab_slots is None:
            slab_slots = max(64, connections * keys_per_conn * 2)
        self.stalls = stalls
        self.storm_faults = storm_faults
        self.seed = seed
        self.max_events = max_events

        # One ServerConfig shapes the whole server side; the individual
        # kwargs are folded into one (and metrics are always on — the
        # oracles read the gauges).
        if config is None:
            config = ServerConfig(
                transport=transport,
                engine="pktstore",
                cores=cores,
                zero_copy_get=zero_copy,
                contain_errors=contain,
                overload=True if contain else None,
                metrics=True,
                engine_kwargs={"meta_bytes": slab_slots * 256},
            )
        if not config.metrics:
            raise ValueError(
                "OverloadStorm needs config.metrics=True: the liveness "
                "and leak oracles read the recorder's gauges"
            )
        self.config = config
        self.transport = config.transport
        self.contain = config.contain_errors

        self.testbed = make_testbed(
            config=config,
            paste_pool_bytes=pool_slots * SLOT,
        )
        self.overload = self.testbed.overload
        self.metrics = self.testbed.metrics
        self.recorder = self.testbed.recorder
        self.sim = self.testbed.sim
        self.client = self.testbed.client
        self.server = self.testbed.server
        self.port = PORT
        if self.transport == "homa":
            self.client.enable_homa()
        self.report = ChaosReport()

    # -- phases ---------------------------------------------------------------

    def _storm(self):
        metrics = self.metrics
        self.baseline = {
            "server_tx": metrics.value("server.tx_pool.in_use"),
            "client_tx": metrics.value("client.tx_pool.in_use"),
            "client_rx": metrics.value("client.rx_pool.in_use"),
        }
        self._build_loops(self.connections, self.source)
        self._stagger(lambda loop, ctx: loop.start(ctx))
        # Stall clients are a TCP stream phenomenon (half a request
        # parked in the server's parser); Homa messages are atomic, so
        # the storm skips them there.
        stalls = 0 if self.transport == "homa" else self.stalls
        for stall_id in range(stalls):
            # Abort after the fault squall clears (60 ms): a RST is never
            # retransmitted, so one lost to the squall would leave the
            # server connection half-open with the partial request pinned
            # — a TCP property, not a containment bug.  The server-side
            # idle reaper (NetworkStack.enable_idle_reaper, opt in via
            # ServerConfig(reaper_idle_ns=)) bounds that pin to the idle
            # timeout.
            stall = _StallConn(self, stall_id, self.value_size,
                               stall_ns=70 * MILLIS)
            core = self.client.cpus[stall_id % len(self.client.cpus)]
            self.sim.schedule(1_000.0 + stall_id * 3_000.0,
                              self.client.process_on_core, core, stall.start)
        self._faults = None
        if self.storm_faults:
            # A loss+duplication squall mid-burst; clears before drain.
            # Keep the handle: the vacuity oracle reads its counters.
            # Opens at 0.5 ms — fast multi-core configs drain their PUT
            # burst within a few ms, and a squall that opens after the
            # last data frame is vacuous (the guard that now fails such
            # a run is what caught the old 5 ms open being exactly that
            # for the CI smoke sizings).
            self._faults = LinkFaults(random.Random(self.seed), loss=0.02,
                                      duplicate=0.02)
            self.sim.schedule(MILLIS / 2, self._set_faults, self._faults)
            self.sim.schedule(60 * MILLIS, self._set_faults, None)
        self.sim.run_until_idle(max_events=self.max_events)
        self._probe()

    def _set_faults(self, faults):
        self.testbed.fabric.faults = faults

    def _probe(self):
        """Post-storm liveness: a fresh request must get an answer."""
        probe_key = next(
            (conn.keys[0] for conn in self._conns if conn.keys), b"probe"
        )
        status, _body = self._get(probe_key, SERVER_IP)
        self.report.probe_ok = status in (200, 404, 503)
        if not self.report.probe_ok:
            self.report.violation(
                "liveness:probe",
                f"post-storm GET got {status!r} (expected 200/404/503)",
            )

    # -- oracles --------------------------------------------------------------

    def _check(self):
        """Progress, vacuity, liveness, leak, span-link and durability.

        The pool/store comparisons read the live metrics registry — the
        same numbers an operator would see from ``repro-stats`` — so the
        oracles hold for any transport and any core count without
        knowing server internals.  Only the refcount-*exact* oracle
        still walks the store's tables: per-slot expected-vs-actual
        refcounts are deliberately finer than any gauge.
        """
        report = self.report
        metrics = self.metrics
        if report.acked_puts == 0:
            report.violation(
                "liveness:no-progress", "not a single PUT was acked"
            )
        self._check_vacuity()
        if self.contain and report.responses.get(503, 0) == 0 and \
                report.responses.get(507, 0) == 0:
            report.violation(
                "config:no-overload",
                "storm never triggered shedding — the world is not "
                "under-provisioned enough to test anything",
            )
        self._check_liveness([("server", len(self.server.cpus))])

        # Leak oracles: after the storm drains, transient users of every
        # pool are gone; only the store legitimately holds rx slots.
        for gauge_name, base_key, kind in (
            ("server.tx_pool.in_use", "server_tx", "leak:server-tx"),
            ("client.tx_pool.in_use", "client_tx", "leak:client-tx"),
            ("client.rx_pool.in_use", "client_rx", "leak:client-rx"),
        ):
            in_use = metrics.value(gauge_name)
            if in_use != self.baseline[base_key]:
                report.violation(
                    kind,
                    f"{gauge_name} = {in_use:.0f} "
                    f"(baseline {self.baseline[base_key]:.0f})",
                )
        self._check_store("server", "server.rx_pool.in_use",
                          "engine.store.owned", self.testbed.engine)

        if self.transport == "homa":
            self._check_span_links()

        # Durability oracle: the newest acked value (or a later issued
        # one) per key is what the store serves.
        for key, got in self._lost_acks(self.testbed.engine.get):
            report.violation(
                "durability",
                f"key {key!r}: stored {got!r} is neither the acked value "
                f"nor a later issued one",
            )

    def _check_vacuity(self):
        """A storm that stressed nothing proves nothing — fail loudly.

        A quiet pass is worse than a failure: the oracles all "hold"
        while the code under test never ran.  Besides a burst that
        issued zero requests (:meth:`Storm.run`), two ways a storm can
        go vacuous, each a configuration bug, not a server bug: the
        fault squall was requested but never touched a frame, or the
        stall clients were requested but none ever reset.  (Retransmit vacuity stays advisory — see
        :meth:`Storm._check_span_links` — because whether the squall
        forces a retransmit is legitimately seed-dependent; whether it
        drops any frame at all, across a multi-thousand-frame storm, is
        not.)
        """
        report = self.report
        if self.storm_faults and self._faults is not None:
            faults = self._faults
            observed = (faults.dropped + faults.duplicated +
                        faults.corrupted + faults.reordered)
            if observed == 0:
                report.violation(
                    "vacuous:no-faults",
                    "a fault squall was requested but zero frames were "
                    "dropped/duplicated/corrupted/reordered — the storm "
                    "finished before the squall window or traffic never "
                    "crossed the fabric",
                )
        expected_stalls = 0 if self.transport == "homa" else self.stalls
        if expected_stalls and report.stall_aborts == 0:
            report.violation(
                "vacuous:no-stalls",
                f"{expected_stalls} stall client(s) requested but none "
                f"ever aborted mid-request — the slow-client phase "
                f"never ran",
            )

    def _finalize(self):
        self.report.server_stats = dict(self.testbed.kv.stats)
        if self.overload is not None:
            self.report.overload_stats = dict(self.overload.stats)


class _StallConn:
    """A slow client: sends half a PUT, stalls, then resets.

    The half-request's body slices sit retained in the server's parser;
    the RST must release them (connection-level resilience) or the
    stall permanently pins pool slots.
    """

    def __init__(self, storm, conn_id, value_size, stall_ns):
        self.storm = storm
        self.conn_id = conn_id
        self.value_size = value_size
        self.stall_ns = stall_ns
        self.sock = None

    def start(self, ctx):
        self.sock = self.storm.client.stack.connect(SERVER_IP, PORT, ctx)
        self.sock.on_established = self._send_half

    def _send_half(self, sock, ctx):
        request = build_request(
            "PUT", f"/stall-{self.conn_id}", bytes(self.value_size)
        )
        sock.send(request[:len(request) // 2], ctx)
        self.storm.sim.schedule(self.stall_ns, self._abort)

    def _abort(self):
        if self.sock.state.value != "CLOSED":
            self.storm.report.stall_aborts += 1
            self.storm.client.process_on_core(
                self.sock.core, lambda ctx: self.sock.abort(ctx)
            )


# -- CLI ----------------------------------------------------------------------


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-chaoscheck",
        description="Overload chaos storm against the serving path: "
                    "pool-exhaustion bursts, fabric fault squalls and "
                    "slow-client stalls, with liveness/durability/leak "
                    "oracles.",
    )
    parser.add_argument("--cluster", action="store_true",
                        help="run the whole-host-kill cluster storm "
                             "instead of the single-server overload storm "
                             "(see repro.testing.chaos_cluster)")
    parser.add_argument("--hosts", type=int, default=3,
                        help="cluster mode: server hosts (default: 3)")
    parser.add_argument("--ack-policy", choices=("sync", "primary-only"),
                        default="sync",
                        help="cluster mode: when the client's 200 is sent "
                             "relative to the backup's ack (default: sync)")
    parser.add_argument("--transport", choices=("tcp", "homa"),
                        default="tcp",
                        help="serve over HTTP/TCP or the Homa-like "
                             "message transport (default: tcp)")
    parser.add_argument("--cores", type=int, default=1,
                        help="server cores (default: 1)")
    parser.add_argument("--connections", type=int, default=100,
                        help="burst connections (default: 100)")
    parser.add_argument("--puts-per-conn", type=int, default=6,
                        help="PUTs per connection (default: 6)")
    parser.add_argument("--keys-per-conn", type=int, default=2,
                        help="private keys per connection; smaller than "
                             "--puts-per-conn forces overwrites, feeding "
                             "the emergency GC (default: 2)")
    parser.add_argument("--value-size", type=int, default=1400,
                        help="PUT value size in bytes (default: 1400)")
    parser.add_argument("--pool-slots", type=int, default=256,
                        help="PM packet-pool slots — small enough that the "
                             "burst exhausts it (default: 256)")
    parser.add_argument("--slab-slots", type=int, default=None,
                        help="metadata slab slots (default: sized to "
                             "pressure under the burst)")
    parser.add_argument("--stalls", type=int, default=4,
                        help="slow clients that stall mid-request then "
                             "reset (default: 4)")
    parser.add_argument("--no-faults", action="store_true",
                        help="skip the mid-burst loss/duplication squall")
    parser.add_argument("--zero-copy", action="store_true",
                        help="serve GETs zero-copy (exercises degrade-to-"
                             "copy under pressure)")
    parser.add_argument("--no-containment", action="store_true",
                        help="run without the overload controller and with "
                             "error containment disabled (negative testing)")
    parser.add_argument("--expect-violations", action="store_true",
                        help="invert the exit status: succeed only if the "
                             "storm finds violations")
    parser.add_argument("--max-events", type=int, default=20_000_000,
                        help="simulator event budget (default: 20M)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed for fault injection and value patterns")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.cluster:
        from repro.testing.chaos_cluster import HostKillStorm

        # The overload-storm knobs map onto the cluster storm:
        # connections become client loops, puts-per-conn the per-burst
        # put count (the storm runs two bursts, the kill lands inside
        # the second).
        print(f"[cluster-chaos] storm: {args.hosts} hosts x{args.cores}core, "
              f"ack_policy={args.ack_policy}, {args.connections} loops x "
              f"2x{args.puts_per_conn} PUTs ({args.value_size} B), "
              f"pool {args.pool_slots} slots, seed {args.seed}")
        storm = HostKillStorm(
            hosts=args.hosts,
            cores=args.cores,
            ack_policy=args.ack_policy,
            loops=args.connections,
            puts_per_loop=args.puts_per_conn,
            keys_per_loop=args.keys_per_conn,
            value_size=args.value_size,
            pool_slots=args.pool_slots,
            seed=args.seed,
            max_events=args.max_events,
        )
        held = ("acked puts survived the host kill, refcounts exact, "
                "traces stitched")
        broken = "failover contract violated"
    else:
        contain = not args.no_containment
        print(f"[chaos] storm: {args.transport} x{args.cores}core, "
              f"{args.connections} conns x "
              f"{args.puts_per_conn} PUTs ({args.value_size} B), "
              f"pool {args.pool_slots} slots, stalls {args.stalls}, "
              f"faults {'off' if args.no_faults else 'on'}, "
              f"containment {'on' if contain else 'OFF'}")
        storm = OverloadStorm(
            transport=args.transport,
            cores=args.cores,
            connections=args.connections,
            puts_per_conn=args.puts_per_conn,
            keys_per_conn=args.keys_per_conn,
            value_size=args.value_size,
            pool_slots=args.pool_slots,
            slab_slots=args.slab_slots,
            contain=contain,
            zero_copy=args.zero_copy,
            stalls=args.stalls,
            storm_faults=not args.no_faults,
            seed=args.seed,
            max_events=args.max_events,
        )
        held = ("server stayed live, acked writes durable, no leaks after "
                "the storm")
        broken = "overload contract violated"
    report = storm.run()
    print(report.summary())
    return exit_status(report, args.expect_violations, held, broken)


if __name__ == "__main__":
    import sys

    sys.exit(main())
