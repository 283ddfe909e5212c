"""The golden-capture entry point of repro.bench.speed.

``python -m repro.bench.speed --golden DIR`` must rewrite the committed
fixtures byte for byte; tests/test_speed_equivalence.py checks each
scenario's document field by field.
"""

import os

from repro.bench.speed import SCENARIOS, main

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


class TestCli:
    def test_golden_capture_writes_fixture(self, tmp_path):
        out_dir = tmp_path / "goldens"
        assert main(["--golden", str(out_dir)]) == 0
        for name in SCENARIOS:
            fixture = f"speed_golden_{name}.json"
            written = (out_dir / fixture).read_bytes()
            with open(os.path.join(FIXTURE_DIR, fixture), "rb") as handle:
                assert written == handle.read(), name
