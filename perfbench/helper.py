"""Benchmark work that needs numpy or fluctlab itself: generating input
files, reading the program's facts and running the output oracle.

The traced run calls these in-process.  The fresh-process run calls them
through this script so that the parent benchmark process stays small:

    python perfbench/helper.py prepare SPEC.json   # writes inputs, prints facts
    python perfbench/helper.py check SPEC.json     # prints {command id: [problems]}
"""

from __future__ import annotations

import json
import sys


def program_facts() -> dict:
    import numpy
    from fluctlab import _kernels

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "active_backend": _kernels.active_backend(),
        "fluctlab_file": _kernels.__file__,
    }


def prepare_inputs(inputs) -> None:
    """Write each requested thermal ensemble file with fluctlab.io.save_ensemble."""
    from fluctlab import GridSpec, UnitSystem, thermal_ensemble
    from fluctlab.io import save_ensemble

    units = UnitSystem()
    for spec in inputs:
        ensemble = thermal_ensemble(1.0, 1.0, spec["temperature"], spec["n_max"], GridSpec(*spec["grid"]), units)
        save_ensemble(spec["path"], ensemble, units)


def check_outputs(items) -> dict:
    """Oracle problems per command id; items hold id, check, output and stdout."""
    import oracle

    return {item["id"]: oracle.check(item["check"], item["output"], item["stdout"]) for item in items}


def main(argv) -> int:
    action, spec_path = argv
    with open(spec_path) as handle:
        spec = json.load(handle)
    if action == "prepare":
        prepare_inputs(spec)
        result = program_facts()
    elif action == "check":
        result = check_outputs(spec)
    else:
        raise SystemExit(f"unknown action {action!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
