"""The byte-for-byte contract: every golden command (the README's command
block, its scenario tables as JSON, the three perfbench plans at seed 1 and
the flag refusals) gives the
exit code, stdout, stderr and files whose digests tests/golden_digests.json
holds.  scripts/golden_digests.py runs the commands and rewrites that file;
a change to a digest is a change to fluctlab's output."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _golden():
    spec = importlib.util.spec_from_file_location("golden_digests", ROOT / "scripts" / "golden_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_golden_digests():
    golden = _golden()
    recorded = json.loads(golden.DIGESTS.read_text())
    assert golden.numpy_version() == recorded["numpy"], (
        f"the digests were made with numpy {recorded['numpy']}, and this is numpy {golden.numpy_version()}: "
        "rerun scripts/golden_digests.py at the commit that made them, under this numpy, to rebase them"
    )
    digests = golden.digests()
    assert digests.keys() == recorded["digests"].keys()
    changed = sorted(name for name, digest in digests.items() if digest != recorded["digests"][name])
    assert not changed, f"output differs from the golden digests for {changed}"
