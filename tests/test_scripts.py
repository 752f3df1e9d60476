"""The experiment scripts run end to end with small arguments, each in its own process."""

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
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=os.environ | {"PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert printed in result.stdout
