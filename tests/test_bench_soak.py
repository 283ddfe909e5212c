"""Saturation-soak driver: oracles, knee, negative control, canned curve.

The committed ``BENCH_soak.json`` is the acceptance artifact: a canned
sweep demonstrating the knee — admitted p99 stays bounded while the
shed count rises past saturation.  These tests validate its schema and
shape, run a short live soak end to end (all oracles clean), and prove
the negative control (``--no-containment``) trips the bounded-tail
oracle so the acceptance can never be vacuous.
"""

import json
import os

import pytest

from repro.bench import soak
from repro.core.overload import QueuePressure


BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_soak.json")


def quick_args(**overrides):
    """Short-window soak parameters for in-test sweeps."""
    args = soak.default_args()
    args.update({"duration_us": 12_000.0, "warmup_us": 3_000.0})
    args.update(overrides)
    return args


class TestCannedSoak:
    """The committed curve is schema-valid and demonstrates the knee."""

    @pytest.fixture(scope="class")
    def doc(self):
        with open(BENCH_PATH, encoding="utf-8") as fh:
            return soak.check_schema(json.load(fh))

    def test_committed_soak_is_clean(self, doc):
        assert doc["ok"] is True
        assert doc["violations"] == []
        assert doc["config"]["containment"] is True

    def test_knee_is_demonstrated(self, doc):
        points = doc["points"]
        assert len(points) >= 3
        # Below the knee: goodput tracks offered load, nothing shed.
        first = points[0]
        assert first["shed"] == 0
        assert first["goodput_krps"] > 0.95 * first["offered_krps"]
        # Past it: shedding engages and rises monotonically with load...
        sheds = [p["shed"] for p in points]
        assert sheds[-1] > 0
        assert sheds == sorted(sheds)
        # ...while the admitted tail stays bounded at EVERY point.
        budget = doc["config"]["p99_budget_us"]
        for point in points:
            assert 0 < point["p99_us"] <= budget, point["rate_krps"]
            assert point["admitted"] >= soak.MIN_TAIL_SAMPLES
        # The knee estimate lands inside the swept range.
        assert points[0]["rate_krps"] <= doc["knee_krps"] \
            <= points[-1]["rate_krps"]

    def test_digest_and_exact_tails_agree(self, doc):
        for point in doc["points"]:
            exact, digest = point["p99_us"], point["digest_p99_us"]
            assert abs(digest - exact) <= soak.DIGEST_TOLERANCE * exact

    def test_no_leaks_or_exhaustion_in_committed_run(self, doc):
        for point in doc["points"]:
            assert point["rx_exhaustions"] == 0

    def test_schema_check_rejects_malformed(self, doc):
        broken = dict(doc)
        broken["points"] = [dict(doc["points"][0])]
        del broken["points"][0]["shed"]
        with pytest.raises(AssertionError):
            soak.check_schema(broken)
        with pytest.raises(AssertionError):
            soak.check_schema({"schema": "wrong"})


class TestLiveSoak:
    def test_short_sweep_runs_clean_past_the_knee(self):
        args = quick_args()
        report = soak.run_soak([30_000.0, 55_000.0], args, containment=True)
        assert report.ok, report.violations
        below, above = report.points
        assert below["shed"] == 0
        assert above["shed"] > 0
        assert above["p99_us"] <= args["p99_budget_us"]
        assert report.knee_krps is not None
        doc = soak.check_schema(report.as_dict())
        assert doc["config"]["containment"] is True
        # The summary never throws and mentions the knee.
        assert "knee" in report.summary()

    def test_negative_control_trips_bounded_tail(self):
        args = quick_args()
        report = soak.run_soak([55_000.0], args, containment=False)
        assert not report.ok
        kinds = {kind for kind, _ in report.violations}
        assert "bounded-tail" in kinds

    def test_sweep_that_never_saturates_is_flagged_vacuous(self):
        args = quick_args()
        report = soak.run_soak([20_000.0], args, containment=True)
        kinds = {kind for kind, _ in report.violations}
        assert "shed-engages" in kinds


class TestCli:
    def test_expect_violations_inverts_exit(self, tmp_path):
        out = tmp_path / "soak.json"
        code = soak.main([
            "--rates", "55", "--duration-us", "12000", "--warmup-us", "3000",
            "--no-containment", "--expect-violations", "--json", str(out),
        ])
        assert code == 0
        doc = soak.check_schema(json.loads(out.read_text()))
        assert doc["ok"] is False
        # A clean run under --expect-violations fails instead.
        code = soak.main([
            "--rates", "30,55", "--duration-us", "12000",
            "--warmup-us", "3000", "--expect-violations",
        ])
        assert code == 1

    def test_clean_run_exits_zero(self, capsys):
        code = soak.main([
            "--rates", "30,55", "--duration-us", "12000",
            "--warmup-us", "3000",
        ])
        assert code == 0
        assert "all oracles clean" in capsys.readouterr().out


class TestQueuePressure:
    def test_hysteresis_transitions(self):
        class FakeCore:
            def __init__(self):
                self.delay = 0.0

            def queue_delay(self, now):
                return self.delay

        class FakeHost:
            def __init__(self):
                self.cpus = type("C", (), {"cores": [FakeCore()]})()
                self.sim = type("S", (), {"now": 0.0})()

        host = FakeHost()
        core = host.cpus.cores[0]
        qp = QueuePressure(host, high_ns=100.0, low_ns=50.0)
        events = []
        qp.add_pressure_listener(lambda s, p: events.append(p))
        qp.update()
        assert not qp.under_pressure
        core.delay = 150.0
        qp.update()
        assert qp.under_pressure and events == [True]
        core.delay = 75.0   # inside the hysteresis band: still pressured
        qp.update()
        assert qp.under_pressure
        core.delay = 40.0
        qp.update()
        assert not qp.under_pressure and events == [True, False]
        assert qp.pressure_events == 1

    def test_rejects_bad_watermarks(self):
        with pytest.raises(ValueError):
            QueuePressure(object(), high_ns=10.0, low_ns=20.0)
