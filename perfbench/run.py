"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload tcp-pktstore-ycsbA --seed 1 \\
        --seconds 30 --trace 0

A run is a fixed set of trials (fresh worlds seeded from ``--seed``).
``--trace 0`` runs whole cycles over the trials for about ``--seconds``
and reports the end-to-end metrics of BENCHMARK.json (medians over the
cycles, combined over the trials with fixed weights).  Every timed
interval is scaled by the host's speed, measured right before it
(hostspeed.py), into reference seconds.  ``--trace 1`` runs every
trial three times — with a stage Recorder attached, plain, and under
:mod:`cProfile` — checks that all three simulate exactly the same
thing, and reports the per-layer metrics.  ``--plant`` runs a negative
control: a planted fault that the correctness checks must catch.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check passed, 1 when one failed, 2 on a usage error.
RATIONALE.md explains the workloads and metrics.
"""

# The wall clock measures the simulator; it never feeds the simulation.

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import statistics
import sys
import time

import hostspeed
import layers
import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Recoveries per repetition: until this much wall time is spent, and
#: at most this many.
RECOVER_BUDGET_S = 1.0
MAX_RECOVERIES = 5

#: The measurement window is timed in this many equal slices of
#: simulated time, so a burst of load from elsewhere on the host spoils
#: one slice rather than the whole window.
SLICES = 10


def trial_seeds(workload_cls, seed):
    """The seeds of the trials a run makes for ``seed``.

    Each trial is a fresh world; the simulated metrics pool all of them,
    which averages out how much one seed's inputs steer the result.
    """
    count = workload_cls.trials
    return [seed * count + trial for trial in range(count)]


class Rep:
    """The measurements of one repetition (one trial) of a workload.

    Times are in reference seconds (see hostspeed.py) unless named
    ``wall``.
    """

    def __init__(self, workload, setup_s, slices, recover_times, counters,
                 stages, wall_window_s, bursts):
        self.setup_s = setup_s
        #: (requests answered, reference seconds) of each window slice.
        self.slices = slices
        self.window_s = sum(seconds for _, seconds in slices)
        self.wall_window_s = wall_window_s
        #: Host speed: the reference burst time over its median here.
        self.host_speed = hostspeed.REFERENCE_S / statistics.median(bursts)
        self.recover_s = statistics.median(recover_times)
        self.stages = stages
        out = workload.outcomes
        self.violations = list(out.violations)
        self.window_ms = (workload.measure_end - workload.measure_start) / 1e6
        self.rtts_ns = out.ok_rtts_ns
        attempted = workload.attempted
        # Everything the simulation decided; identical for one seed.
        self.sim = {
            "answered": out.answered,
            "attempted": attempted,
            "ok": out.ok,
            "refused": out.refused,
            "errors": out.errors,
            "unanswered": attempted - out.answered,
            "puts": out.puts,
            "acked_keys": len(out.acked),
            "rtt_samples": len(out.ok_rtts_ns),
            "rtt_sum_ns": sum(out.ok_rtts_ns),
            "backlog_peak": getattr(workload.client.stats, "backlog_peak", 0),
            "backlog_at_stop": getattr(workload.client.stats,
                                       "backlog_at_stop", 0),
            **counters,
        }

    @property
    def failed(self):
        return (self.sim["errors"] + self.sim["unanswered"]
                + len(self.violations))

    @property
    def ops_per_wall_s(self):
        return self.sim["answered"] / self.window_s


def tail_percentile(samples):
    """99, or the highest percentile with at least 10 samples beyond it."""
    if samples >= 1000:
        return 99.0
    return max(0.0, 100.0 * (1.0 - 10.0 / samples)) if samples else 0.0


def summarize(trials):
    """Simulated results of one set of trials, pooled."""
    from repro.bench.wrk import WrkStats

    total = {key: sum(rep.sim[key] for rep in trials)
             for key in trials[0].sim}
    total["backlog_peak"] = max(rep.sim["backlog_peak"] for rep in trials)
    stats = WrkStats()
    stats.rtts_ns = [rtt for rep in trials for rtt in rep.rtts_ns]
    total["sim_goodput_krps"] = total["ok"] / sum(r.window_ms for r in trials)
    total["sim_p50_us"] = stats.percentile_us(50)
    total["sim_p99_us"] = stats.percentile_us(
        tail_percentile(len(stats.rtts_ns)))
    return total


def sim_digest(sim):
    text = json.dumps(sim, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _time(fn, *args):
    """(result, wall seconds, burst seconds) of ``fn(*args)``, run right
    after a reference burst times the host's speed."""
    burst = hostspeed.burst_s()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start, burst


def run_rep(workload_cls, seed, plant=None, profiler=None, stages=False,
            recover_budget_s=RECOVER_BUDGET_S):
    """Build, warm up, measure, drain, crash, recover and check once.

    Every timed phase is scaled to reference seconds by the burst timed
    right before it.
    """
    workload = workload_cls(seed, plant=plant)
    # Each timed phase starts from a collected heap, so a collection
    # owed by earlier garbage does not land in it.
    gc.collect()
    _, wall, burst = _time(workload.build)
    bursts = [burst]
    setup_s = hostspeed.scaled(wall, burst)
    recorder = workload.attach_recorder() if stages else None
    workload.warm_up()
    before = workload.counters()
    stage_before = _stage_totals(recorder)
    span = workload.measure_end - workload.measure_start
    ends = [workload.measure_start + span * index / SLICES
            for index in range(1, SLICES)] + [workload.measure_end]
    slices = []
    wall_window_s = 0.0
    gc.collect()
    for end in ends:
        answered = workload.outcomes.answered
        burst = hostspeed.burst_s()
        # The profiler sees the simulation, never the bursts.
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        workload.sim.run(until=end)
        wall = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
        bursts.append(burst)
        wall_window_s += wall
        slices.append((workload.outcomes.answered - answered,
                       hostspeed.scaled(wall, burst)))
    after = workload.counters()
    stage_after = _stage_totals(recorder)
    counters = {k: after[k] - before[k] for k in before}
    stage_ns = {k: stage_after[k] - stage_before[k] for k in stage_after}
    workload.drain()
    workload.check_live()
    snapshot = workload.snapshot()
    workload.crash()
    # Recovering a small store takes well under a second, so recovery
    # of the crashed image is repeated and the median taken.  Every
    # recovery must reach the same state.
    recover_times = []
    spent = 0.0
    first = recovered = None
    while not recover_times or (spent < recover_budget_s
                                and len(recover_times) < MAX_RECOVERIES):
        recovered = None
        gc.collect()
        recovered, wall, burst = _time(workload.recover)
        bursts.append(burst)
        spent += wall
        recover_times.append(hostspeed.scaled(wall, burst))
        state = {label: dict(store.scan())
                 for label, store in recovered.items()}
        if first is None:
            first = state
            workload.check_recovered(snapshot, state)
        elif state != first:
            workload.outcomes.violate(
                "recovering the crashed image again reached a different "
                "state")
    return Rep(workload, setup_s, slices, recover_times,
               counters, stage_ns, wall_window_s, bursts)


def _stage_totals(recorder):
    """Table-1 stage nanoseconds so far; wire time counts as networking."""
    if recorder is None:
        return {}
    totals = recorder.stage_totals()
    totals["networking"] += recorder.registry.value("fabric.wire_ns")
    return totals


def _same_simulation(reps, reference, label):
    """Violations where ``reps`` did not simulate what ``reference`` did
    (both lists are indexed by trial, ``reps`` may repeat them)."""
    problems = []
    for index, rep in enumerate(reps):
        expected = reference[index % len(reference)].sim
        if rep is not reference[index % len(reference)] and \
                rep.sim != expected:
            differ = sorted(k for k in expected if rep.sim[k] != expected[k])
            problems.append(f"{label} {index + 1} simulated differently "
                            f"from the first run of its trial: {differ}")
    return problems


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(workload_cls, seed, seconds, plant):
    """End-to-end metrics from whole cycles over the trials.

    Cycles run until the next one would end after ``seconds`` (at least
    one).  Wall-clock metrics take each cell's median over the cycles
    and combine a fixed set of cells, so how many cycles the host had
    time for never changes which trials count.  ``ops_per_wall_s`` is
    the requests of all trials over the summed medians of their window
    slices' reference seconds; ``setup_s`` and ``recover_s`` are medians
    over the trials.
    Simulated metrics pool the first cycle; every later cycle must
    simulate exactly what the first did.
    """
    seeds = trial_seeds(workload_cls, seed)
    deadline = time.perf_counter() + seconds
    cycles = []
    while True:
        start = time.perf_counter()
        cycles.append([run_rep(workload_cls, s, plant=plant) for s in seeds])
        end = time.perf_counter()
        if end + (end - start) > deadline:
            break
    first = cycles[0]
    by_trial = list(zip(*cycles))

    def median_of_trials(attr):
        return statistics.median(
            statistics.median(getattr(rep, attr) for rep in reps)
            for reps in by_trial)

    window_s = sum(statistics.median(rep.slices[index][1] for rep in reps)
                   for reps in by_trial for index in range(SLICES))
    sim = summarize(first)
    metrics = {
        "ops_per_wall_s": (sim["answered"] / window_s, "ops/s"),
        "setup_s": (median_of_trials("setup_s"), "s"),
        "recover_s": (median_of_trials("recover_s"), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
        "sim_goodput_krps": (sim["sim_goodput_krps"], "krps"),
        "sim_p50_us": (sim["sim_p50_us"], "us"),
        "sim_p99_us": (sim["sim_p99_us"], "us"),
        "served_frac": (sim["ok"] / sim["attempted"], "ratio"),
    }
    reps = [rep for cycle in cycles for rep in cycle]
    violations = _same_simulation(reps, first, "repetition")
    lines = [f"{len(cycles)} cycle(s) over {len(seeds)} trials (seeds "
             f"{seeds})"]
    for index, rep in enumerate(reps):
        lines.append(
            f"  cycle {index // len(seeds) + 1} trial {index % len(seeds)}: "
            f"setup {rep.setup_s:.3f} s, window {rep.window_s:.3f} s "
            f"({rep.ops_per_wall_s:.1f} ops/s), recover "
            f"{rep.recover_s:.3f} s; host speed {rep.host_speed:.3f}, "
            f"window wall {rep.wall_window_s:.3f} s")
    return reps, sim, metrics, violations, lines


# Per-layer counters read from the program state around the window:
# (metric, counter, divided by requests answered?, unit).
COUNTERS = (
    ("sim.events_per_op", "events", True, "count"),
    ("pm.device.stores_per_op", "stores", True, "count"),
    ("pm.device.flushes_per_op", "flushes", True, "count"),
    ("pm.device.fences_per_op", "fences", True, "count"),
    ("net.pool.allocs_per_op", "pool_allocs", True, "count"),
    ("net.pool.exhaustions", "pool_exhaustions", False, "count"),
    ("net.homa.retransmits", "homa_retransmits", False, "count"),
    ("core.overload.reclaims", "reclaims", False, "count"),
    ("cluster.replication.degraded_acks", "degraded_acks", False, "count"),
)


def traced(workload_cls, seed, plant):
    """Per-layer metrics of one seed's trials, from profiled runs.

    Every trial runs three times: with a stage Recorder attached (this
    also warms caches), plain (the wall-clock reference), and under
    cProfile.  All three must simulate exactly the same thing.  Recovery
    time is not reported here, so each repetition recovers once.
    """
    seeds = trial_seeds(workload_cls, seed)
    once = {"plant": plant, "recover_budget_s": 0.0}
    staged = [run_rep(workload_cls, s, stages=True, **once) for s in seeds]
    plain = [run_rep(workload_cls, s, **once) for s in seeds]
    profiler = cProfile.Profile()
    profiled = [run_rep(workload_cls, s, profiler=profiler, **once)
                for s in seeds]
    violations = (_same_simulation(profiled, plain, "profiled trial")
                  + _same_simulation(staged, plain, "staged trial"))
    attribution = layers.Attribution(pstats.Stats(profiler), SRC)
    sim = summarize(plain)
    ops = sim["answered"]
    total_self = sum(attribution.self_s.values())
    plain_s = sum(rep.window_s for rep in plain)
    profiled_s = sum(rep.window_s for rep in profiled)
    wall_us_per_op = plain_s / ops * 1e6
    stage_ns = {stage: sum(rep.stages[stage] for rep in staged)
                for stage in staged[0].stages}
    metrics = {}
    for layer in layers.LAYERS:
        share = attribution.self_s[layer] / total_self
        metrics[f"{layer}.self_us_per_op"] = (share * wall_us_per_op, "us")
        metrics[f"{layer}.calls_per_op"] = (
            attribution.calls_in[layer] / ops, "calls")
    for name, counter, per_op, unit in COUNTERS:
        value = sim[counter]
        metrics[name] = (value / ops if per_op else value, unit)
    for stage in ("networking", "datamgmt", "persistence", "other"):
        metrics[f"stage.{stage}_ns_per_op"] = (stage_ns[stage] / ops, "ns")
    metrics["net.tcp.retransmits"] = (
        attribution.calls("repro/net/tcp.py", "_retransmit_head"), "count")
    metrics["core.pktstore.gc_calls"] = (
        attribution.calls("repro/core/pktstore.py", "gc"), "count")
    metrics["core.pktstore.gc_share"] = (
        attribution.cumulative_s("repro/core/pktstore.py", "gc")
        / total_self, "ratio")
    metrics["cluster.replication.forwards_per_put"] = (
        sim["forwards"] / sim["puts"] if sim["puts"] else 0.0, "ratio")
    metrics["client.backlog_peak"] = (sim["backlog_peak"], "count")
    metrics["client.backlog_at_stop"] = (sim["backlog_at_stop"], "count")
    metrics["client.rtt_samples"] = (sim["rtt_samples"], "count")
    metrics["client.failed_frac"] = (
        (sim["errors"] + sim["refused"] + sim["unanswered"])
        / sim["attempted"], "ratio")
    metrics["trace.overhead_frac"] = (profiled_s / plain_s - 1.0, "ratio")
    loc = layers.line_counts(SRC)
    lines = [f"{'layer':<22} {'lines':>6} {'calls/op':>10} "
             f"{'self us/op':>11} {'share':>7}"]
    for layer in layers.LAYERS:
        lines.append(
            f"{layer:<22} {loc[layer]:>6} "
            f"{metrics[layer + '.calls_per_op'][0]:>10.2f} "
            f"{metrics[layer + '.self_us_per_op'][0]:>11.2f} "
            f"{attribution.self_s[layer] / total_self:>7.1%}")
    staged_s = sum(rep.window_s for rep in staged)
    lines.append(f"window over {len(seeds)} trials (seeds {seeds}), in "
                 f"reference s: plain {plain_s:.3f}, profiled "
                 f"{profiled_s:.3f}, staged {staged_s:.3f}")
    return plain + profiled + staged, sim, metrics, violations, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", default=None,
                        help="negative control: plant this fault")
    args = parser.parse_args(argv)

    try:
        definition = spec.load(os.path.join(ROOT, "BENCHMARK.json"))
    except (OSError, spec.SpecError) as exc:
        print(f"error: BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import worlds
    import_s = time.perf_counter() - start

    names = [w["name"] for w in definition["workloads"]]
    if args.workload not in names or args.workload not in worlds.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from "
              f"{names}", file=sys.stderr)
        return 2
    workload_cls = worlds.WORKLOADS[args.workload]
    if args.plant is not None and args.plant not in workload_cls.plants:
        print(f"error: {args.workload} cannot plant {args.plant!r}; pick "
              f"from {workload_cls.plants}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.trace:
        reps, sim, metrics, violations, lines = traced(
            workload_cls, args.seed, args.plant)
        declared = definition["per_layer"]
    else:
        reps, sim, metrics, violations, lines = timed(
            workload_cls, args.seed, args.seconds, args.plant)
        declared = definition["end_to_end"]
    for rep in reps:
        violations.extend(rep.violations)
    result = {name: {"value": value, "unit": unit}
              for name, (value, unit) in metrics.items()}
    try:
        spec.check_emitted(result, declared)
    except spec.SpecError as exc:
        print(f"error: BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'timed'}; imports {import_s:.3f} s")
    print(f"sim digest {sim_digest(sim)}: {sim['attempted']} attempted, "
          f"{sim['ok']} ok, {sim['refused']} refused (503/507), "
          f"{sim['errors']} errors, {sim['unanswered']} unanswered, "
          f"{sim['rtt_samples']} RTT samples")
    print(f"simulated: goodput {sim['sim_goodput_krps']:.6g} krps, p50 "
          f"{sim['sim_p50_us']:.6g} us, p99 {sim['sim_p99_us']:.6g} us, "
          f"served {sim['ok'] / sim['attempted']:.6g}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for detail in violations[:20]:
        print(f"VIOLATION: {detail}")
    if len(violations) > 20:
        print(f"VIOLATION: ... {len(violations) - 20} more")
    print(json.dumps({
        "correct": not violations,
        "attempted": sum(r.sim["attempted"] for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": result,
    }))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
