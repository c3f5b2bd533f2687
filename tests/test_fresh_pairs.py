"""scripts/fresh_pairs.py, which compares one command run in fresh processes
from two source trees, still runs: two pairs of `audit --in` of a tiny file,
this tree against itself."""

import os
import re
import subprocess
import sys
from pathlib import Path

from fluctlab import io as fio
from fluctlab.states import GaussianPacket, GridSpec, UnitSystem, build_state

ROOT = Path(__file__).resolve().parents[1]


def test_fresh_pairs_reports_both_sides(tmp_path):
    path = str(tmp_path / "s.json")
    units = UnitSystem()
    fio.save_state(path, build_state(GaussianPacket(), GridSpec(-12.0, 12.0, 64), units), units)
    env = {key: value for key, value in os.environ.items() if key != "FLUCTLAB_H"}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "fresh_pairs.py"), str(ROOT), str(ROOT),
                           "--runs", "2", "--", "audit", "--in", path],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    side = r"wall_s median \d+\.\d{4}, peak_rss_mb median \d+\.\d{2}, exit codes \[0\]"
    assert re.fullmatch(rf"before: {side}\nafter: {side}\n"
                        r"after lower: wall_s in [0-2] of 2, peak_rss_mb in [0-2] of 2\n", done.stdout), done.stdout
