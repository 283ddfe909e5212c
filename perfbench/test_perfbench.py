"""Tests of the benchmark itself: layer map, spec rules, determinism and
negative controls.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import copy
import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import worlds  # noqa: E402


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


# ------------------------------------------------------------- layer map

def test_every_module_maps_to_exactly_one_layer():
    assert layers.check_map(SRC) == []


def test_unmapped_module_is_reported(monkeypatch):
    reduced = {layer: [m for m in modules if m != "repro.net.tcp"]
               for layer, modules in layers.LAYER_MODULES.items()}
    monkeypatch.setattr(layers, "LAYER_MODULES", reduced)
    monkeypatch.setattr(layers, "MODULE_LAYER", {
        m: layer for layer, modules in reduced.items() for m in modules})
    assert layers.check_map(SRC) == ["repro.net.tcp is not mapped to a layer"]


def test_builtins_are_charged_to_the_calling_layer():
    from repro.net.headers import IPV4_HEADER_LEN, IPv4Header

    raw = IPv4Header(src=1, dst=2, total_len=60).pack()[:IPV4_HEADER_LEN]

    def parse_many():
        for _ in range(3000):
            IPv4Header.unpack(raw)

    profiler = cProfile.Profile()
    profiler.enable()
    parse_many()
    profiler.disable()
    stats = pstats.Stats(profiler)
    attribution = layers.Attribution(stats, SRC)
    builtin_s = sum(
        entry[2] for func, entry in stats.stats.items()
        if func[0] == "~" and "unpack" in func[2]
        and all(attribution.layer_of(c) == "net.headers" for c in entry[4]))
    assert builtin_s > 0
    headers_own = sum(entry[2] for func, entry in stats.stats.items()
                      if attribution.layer_of(func) == "net.headers")
    assert attribution.self_s["net.headers"] >= headers_own + builtin_s * 0.999
    total = sum(entry[2] for entry in stats.stats.values())
    assert sum(attribution.self_s.values()) == pytest.approx(total, rel=1e-6)
    assert attribution.calls_in["net.headers"] == 3000


# ------------------------------------------------------------ spec rules

def _definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_committed_definition_is_valid():
    spec.validate(_definition())


@pytest.mark.parametrize("name", ["has space", "semi;colon", "ünicode",
                                  "-leading", "x" * 65])
def test_bad_metric_names_are_rejected(name):
    doc = _definition()
    doc["per_layer"][0]["name"] = name
    with pytest.raises(spec.SpecError):
        spec.validate(doc)


def test_too_many_end_to_end_metrics_are_rejected():
    doc = _definition()
    template = doc["end_to_end"][0]
    doc["end_to_end"] += [dict(template, name=f"extra{i}")
                          for i in range(17 - len(doc["end_to_end"]))]
    assert len(doc["end_to_end"]) == 17
    with pytest.raises(spec.SpecError):
        spec.validate(doc)


def test_too_many_per_layer_metrics_are_rejected():
    doc = _definition()
    template = doc["per_layer"][0]
    doc["per_layer"] += [dict(template, name=f"extra{i}")
                         for i in range(129 - len(doc["per_layer"]))]
    with pytest.raises(spec.SpecError):
        spec.validate(doc)


def test_undeclared_emitted_metric_is_a_definition_error(monkeypatch,
                                                        capsys):
    full = _definition()["end_to_end"]
    doc = _definition()
    doc["end_to_end"] = full[1:]
    monkeypatch.setattr(run.spec, "load", lambda path: doc)
    emitted = {m["name"]: (1.0, m["unit"]) for m in full}
    monkeypatch.setattr(run, "timed", lambda *args: ([], {}, emitted, [], []))
    code = run.main(["--workload", "tcp-pktstore-ycsbA", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert '"correct"' not in capsys.readouterr().out


def test_emitted_metrics_must_match_the_declaration():
    declared = _definition()["end_to_end"]
    emitted = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in declared}
    spec.check_emitted(emitted, declared)
    extra = copy.deepcopy(emitted)
    extra["undeclared"] = {"value": 1.0, "unit": "s"}
    with pytest.raises(spec.SpecError):
        spec.check_emitted(extra, declared)


# ----------------------------------------------------- seeds and inputs

def _ops(workload_cls, seed, count=300):
    workload = workload_cls(seed)
    workload.build()
    client = workload.client
    source = getattr(client, "source", None) or client.workload
    if hasattr(source, "next_arrival"):
        return [source.next_arrival(0.0)[1].op() for _ in range(count)]
    return [source.next_op(i % 8) for i in range(count)]


@pytest.mark.parametrize("name", sorted(worlds.WORKLOADS))
def test_seed_determines_the_inputs(name):
    cls = worlds.WORKLOADS[name]
    assert _ops(cls, 1) == _ops(cls, 1)
    assert _ops(cls, 1) != _ops(cls, 2)


def test_stamps_reject_foreign_values():
    stamps = worlds.StampedValues(64)
    value = stamps.value("k-1")
    assert stamps.verify(b"k-1", value) is None
    assert stamps.verify(b"k-2", value) is not None
    assert stamps.verify(b"k-1", value[:-1] + b"!") is not None
    assert stamps.verify(b"k-1", None) == "missing"


def test_stamps_reject_values_an_acked_put_superseded():
    stamps = worlds.StampedValues(64)
    preload = stamps.value("k-1", preload=True)
    first = stamps.value("k-1")
    overlapping = stamps.value("k-1")
    assert stamps.verify(b"k-1", preload) is None
    stamps.ack(b"k-1", first, stamps.tick())
    assert "stale" in stamps.verify(b"k-1", preload)
    # A PUT issued after ``first`` was acknowledged supersedes it once
    # acknowledged; one that overlapped it does not.
    stamps.ack(b"k-1", overlapping, stamps.tick())
    assert stamps.verify(b"k-1", first) is None
    later = stamps.value("k-1")
    assert stamps.verify(b"k-1", first) is None
    read_floor = stamps.floor[b"k-1"]
    stamps.ack(b"k-1", later, stamps.tick())
    assert "stale" in stamps.verify(b"k-1", first)
    # A read issued before ``later`` was acknowledged may still see
    # ``first``.
    assert stamps.verify(b"k-1", first, read_floor) is None
    assert "stale" in stamps.verify(b"k-1", overlapping)
    assert stamps.verify(b"k-1", later) is None


# ------------------------------------------------------------ host speed

def test_scaling_divides_out_the_host_speed():
    reference = hostspeed.REFERENCE_S
    assert hostspeed.scaled(1.0, reference) == pytest.approx(1.0)
    # A host twice as slow doubles both the interval and the burst.
    assert hostspeed.scaled(2.0, 2 * reference) == pytest.approx(1.0)
    assert hostspeed.burst_s() > 0


def test_profiler_never_sees_the_bursts():
    profiler = cProfile.Profile()
    run.run_rep(worlds.WORKLOADS["homa-novelsm-put"], 1, profiler=profiler,
                recover_budget_s=0.0)
    files = {path for path, _, _ in pstats.Stats(profiler).stats}
    assert not any(path.endswith("hostspeed.py") for path in files)
    assert any(path.endswith(os.path.join("sim", "engine.py"))
               for path in files)


# --------------------------------------------------- checks and controls

def test_clean_repetitions_agree_and_pass():
    cls = worlds.WORKLOADS["homa-novelsm-put"]
    first = run.run_rep(cls, 3)
    second = run.run_rep(cls, 3)
    assert first.violations == [] and second.violations == []
    assert first.sim == second.sim
    assert first.sim["acked_keys"] > 0


@pytest.mark.parametrize("name", sorted(worlds.WORKLOADS))
def test_dropped_acked_key_trips_the_durability_check(name):
    rep = run.run_rep(worlds.WORKLOADS[name], 1, plant="drop-acked-key")
    assert any("acknowledged key" in v for v in rep.violations), \
        rep.violations


def test_reverted_backup_key_trips_the_replication_check():
    rep = run.run_rep(worlds.WORKLOADS["cluster-3host-sync-put"], 1,
                      plant="revert-backup-key")
    assert any("sync-acked key" in v and "stale" in v
               for v in rep.violations), rep.violations


def test_unanswered_closed_loop_request_fails_the_run(monkeypatch):
    cls = worlds.WORKLOADS["homa-novelsm-put"]
    original = worlds.CheckedHomaClient._done

    def lose_one_answer(client, loop_id, started, finished, status=None,
                        rpc_id=None):
        if loop_id == 0 and finished > client.outcomes.measure_end:
            return  # the answer never reaches the client; the loop hangs
        original(client, loop_id, started, finished, status, rpc_id)

    monkeypatch.setattr(worlds.CheckedHomaClient, "_done", lose_one_answer)
    rep = run.run_rep(cls, 1)
    assert rep.sim["unanswered"] == 1 and rep.failed >= 1
    assert any("never answered" in v for v in rep.violations), rep.violations


def test_overload_without_containment_trips_the_soak_checks():
    rep = run.run_rep(worlds.WORKLOADS["openloop-pktstore-overload"], 1,
                      plant="no-containment")
    kinds = {v.split(":", 1)[0] for v in rep.violations}
    assert kinds & {"shed-before-exhaustion", "rx-leak", "tx-leak",
                    "refcount"}, rep.violations


def test_planted_fault_makes_the_command_fail():
    result = _cli("--workload", "tcp-pktstore-ycsbA", "--seed", "1",
                  "--seconds", "1", "--trace", "0",
                  "--plant", "drop-acked-key")
    assert result.returncode == 1
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0


def _digest(stdout):
    return next(line.split(":")[0] for line in stdout.splitlines()
                if line.startswith("sim digest"))


def test_timed_and_traced_runs_simulate_the_same():
    timed = _cli("--workload", "tcp-pktstore-ycsbA", "--seed", "4",
                 "--seconds", "1", "--trace", "0")
    traced = _cli("--workload", "tcp-pktstore-ycsbA", "--seed", "4",
                  "--seconds", "1", "--trace", "1")
    assert timed.returncode == 0, timed.stdout + timed.stderr
    assert traced.returncode == 0, traced.stdout + traced.stderr
    assert _digest(timed.stdout) == _digest(traced.stdout)
    per_layer = json.loads(traced.stdout.strip().splitlines()[-1])["metrics"]
    assert set(per_layer) == {m["name"] for m in _definition()["per_layer"]}


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _cli("--workload", "homa-novelsm-put", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
