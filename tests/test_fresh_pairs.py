"""scripts/fresh_pairs.py, which compares one command, or a perfbench
workload's commands, run in fresh processes from two source trees, still
runs: two pairs of `audit --in` of a tiny file, this tree against itself.
Its report carries each side's median wall time, peak RSS and minor page
faults, and for a workload their sum and highest as perfbench combines
them; a workload's input files are made first, by the first tree."""

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


def _fresh_pairs():
    spec = importlib.util.spec_from_file_location("fresh_pairs", ROOT / "scripts" / "fresh_pairs.py")
    fresh_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh_pairs)
    return fresh_pairs


def test_report_counts_the_pairs_where_after_is_lower():
    fresh_pairs = _fresh_pairs()
    results = [[(1.0, 40.0, 9000, 0), (0.9, 39.0, 100, 0)], [(1.0, 40.0, 9000, 0), (1.1, 41.0, 120, 0)]]
    lines, same_codes = fresh_pairs.report(results)
    assert same_codes
    assert lines[0] == "before: wall_s median 1.0000, peak_rss_mb median 40.00, minor_faults median 9000, exit codes [0]"
    assert lines[1] == "after: wall_s median 1.0000, peak_rss_mb median 40.00, minor_faults median 110, exit codes [0]"
    assert lines[2] == "after lower: wall_s in 1 of 2, peak_rss_mb in 1 of 2, minor_faults in 2 of 2"


def test_a_workload_sums_the_median_walls_and_takes_the_highest_median_peak():
    """As perfbench's wall_s and peak_rss_mb: the sum of each command's median
    wall time, the highest of their median peaks; a pair counts as lower when
    its summed wall, or its highest peak, is lower on the second tree."""
    fresh_pairs = _fresh_pairs()
    walk = [[(0.2, 38.0, 0, 0), (0.1, 37.0, 0, 0)], [(0.4, 38.2, 0, 0), (0.3, 38.5, 0, 0)],
            [(0.3, 38.1, 0, 0), (0.2, 37.1, 0, 0)]]
    scan = [[(0.5, 34.0, 0, 0), (0.7, 34.5, 0, 0)], [(0.5, 34.0, 0, 0), (0.65, 34.5, 0, 0)],
            [(0.7, 34.0, 0, 0), (0.6, 34.5, 0, 0)]]
    assert fresh_pairs.combined({"walk": walk, "scan": scan}) == [
        "workload before: wall_s 0.8000, peak_rss_mb 38.10",  # medians 0.3 + 0.5; max(38.1, 34.0)
        "workload after: wall_s 0.8500, peak_rss_mb 37.10",  # medians 0.2 + 0.65; max(37.1, 34.5)
        "workload after lower: wall_s in 1 of 3, peak_rss_mb in 2 of 3",  # pair sums 0.7/0.8, 0.9/0.95, 1.0/0.8
    ]


def test_a_workload_with_input_files_makes_them_once_with_the_first_tree(tmp_path):
    """state_files' two ensembles are made before its commands run, by
    perfbench/helper.py prepare with the first tree's fluctlab: made from
    this tree they load, and a first tree without fluctlab cannot make them."""
    fresh_pairs = _fresh_pairs()
    commands = fresh_pairs.workload_commands("state_files", 3, str(tmp_path), ROOT)
    assert list(commands) == ["state_gaussian", "state_eigenstate", "state_coherent", "audit_gaussian",
                              "audit_eigenstate", "audit_coherent", "audit_ensemble_1", "audit_ensemble_121"]
    sizes = {fio.load_ensemble(commands[key][-1])[0].weights.size for key in ("audit_ensemble_1", "audit_ensemble_121")}
    assert sizes == {1, 121}
    empty = tmp_path / "no-tree"
    (empty / "src").mkdir(parents=True)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "fresh_pairs.py"), str(empty), str(ROOT),
                           "--workload", "state_files"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert f"--workload: perfbench/helper.py prepare with {empty / 'src'} exited 1: " in done.stderr
    assert "No module named 'fluctlab'" in done.stderr
