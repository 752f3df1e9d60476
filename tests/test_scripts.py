"""The experiment scripts run end to end with small arguments, each in its own process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize(
    "script, args, printed",
    [
        ("run_demo.py", ["--out", "demo"], "artifacts in demo/"),
        ("sweep_threshold.py", ["--seeds", "1", "--values", "0.8,0.9"], "tau_sem"),
        ("compare_positive_sets.py", ["--epochs", "1", "--train-views", "2", "--eval-views", "1"], "hybrid"),
    ],
)
def test_script_exits_zero(tmp_path, script, args, printed):
    result = run_script(tmp_path, script, args)
    assert result.returncode == 0, result.stderr
    assert printed in result.stdout


def test_sweep_threshold_checks_every_value_before_building_scenes(tmp_path):
    result = run_script(tmp_path, "sweep_threshold.py", ["--seeds", "1000", "--values", "0.8,1.5"])
    assert result.returncode == 2
    assert "tau_sem must be in (0, 1), got 1.5" in result.stderr


def run_script(tmp_path, script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=os.environ | {"PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )


def test_demo_seed_flag_sets_the_config_hash(tmp_path):
    # the seed is part of the config: a run with another seed must not claim the default run's config
    hashes = set()
    for args in ([], ["--seed", "3"]):
        out = tmp_path / f"demo{len(args)}"
        assert run_script(tmp_path, "run_demo.py", ["--out", str(out), *args]).returncode == 0
        report, manifest = (json.loads((out / name).read_text()) for name in ("report.json", "run.json"))
        assert report["config_hash"] == manifest["config_hash"]
        hashes.add(report["config_hash"])
    assert len(hashes) == 2
