"""scripts/fresh_pairs.py, which compares one command run in fresh processes
from two source trees, still runs: two pairs of `audit --in` of a tiny file,
this tree against itself.  Its report carries each side's median wall time,
peak RSS and minor page faults."""

import importlib.util
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
    side = r"wall_s median \d+\.\d{4}, peak_rss_mb median \d+\.\d{2}, minor_faults median \d+, exit codes \[0\]"
    assert re.fullmatch(rf"before: {side}\nafter: {side}\n"
                        r"after lower: wall_s in [0-2] of 2, peak_rss_mb in [0-2] of 2, minor_faults in [0-2] of 2\n",
                        done.stdout), done.stdout


def test_report_counts_the_pairs_where_after_is_lower():
    spec = importlib.util.spec_from_file_location("fresh_pairs", ROOT / "scripts" / "fresh_pairs.py")
    fresh_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh_pairs)
    results = [[(1.0, 40.0, 9000, 0), (0.9, 39.0, 100, 0)], [(1.0, 40.0, 9000, 0), (1.1, 41.0, 120, 0)]]
    lines, same_codes = fresh_pairs.report(results)
    assert same_codes
    assert lines[0] == "before: wall_s median 1.0000, peak_rss_mb median 40.00, minor_faults median 9000, exit codes [0]"
    assert lines[1] == "after: wall_s median 1.0000, peak_rss_mb median 40.00, minor_faults median 110, exit codes [0]"
    assert lines[2] == "after lower: wall_s in 1 of 2, peak_rss_mb in 1 of 2, minor_faults in 2 of 2"
