"""The harsh random scan: build random states on random coarse grids and
count, for each recipe kind, how many are refused, how many measure within
1e-6 of their closed-form moments, and how many are admitted but off.

Each draw takes a grid of 2^6-2^11 points over [-L, L], L uniform in
[4, 30], and one recipe kind, uniformly:
  gaussian    sigma log-uniform in [0.01, 3], momentum uniform in [-60, 60],
              center uniform in [-L/2, L/2];
  eigenstate  n uniform in 0..39 (mass = omega = 1);
  coherent    Re alpha and Im alpha each uniform in [-6, 6] (mass = omega = 1).
The units are the default ones (h = 2*pi).  A state is off when its
mean_x, mean_p, var_x or var_p (phase_space_moments) is more than 1e-6 from
the closed form, relative to the closed form's magnitude or to 1, whichever
is larger.  A refusal, at the build or at measuring, is any FluctLabError.

    PYTHONPATH=src python scripts/harsh_scan.py --seed 0 --draws 3000 [--record FILE]

--record FILE writes one line per draw: its index, kind, recipe and grid,
then the SHA-256 of the admitted amplitudes or the refusal's class and
message, so that the records of two source trees can be compared line by
line (diff, or a script of one's own).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys

import numpy as np

from fluctlab import CoherentState, FluctLabError, GaussianPacket, GridSpec, OscillatorEigenstate, UnitSystem
from fluctlab import build_state, phase_space_moments

KINDS = ("gaussian", "eigenstate", "coherent")
TOLERANCE = 1e-6


def draw(rng):
    """(kind, recipe, grid) of one draw from rng."""
    kind = KINDS[rng.integers(len(KINDS))]
    half = rng.uniform(4.0, 30.0)
    grid = GridSpec(-half, half, 2 ** int(rng.integers(6, 12)))
    if kind == "gaussian":
        sigma = math.exp(rng.uniform(math.log(0.01), math.log(3.0)))
        recipe = GaussianPacket(center=rng.uniform(-half / 2, half / 2), momentum=rng.uniform(-60.0, 60.0), sigma=sigma)
    elif kind == "eigenstate":
        recipe = OscillatorEigenstate(int(rng.integers(40)))
    else:
        recipe = CoherentState(complex(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)))
    return kind, recipe, grid


def closed_form(recipe, hbar):
    """(mean_x, mean_p, var_x, var_p) of recipe, exactly."""
    if isinstance(recipe, GaussianPacket):
        return recipe.center, recipe.momentum, recipe.sigma**2, hbar**2 / (4.0 * recipe.sigma**2)
    if isinstance(recipe, OscillatorEigenstate):
        level = recipe.n + 0.5
        return 0.0, 0.0, level * hbar / (recipe.mass * recipe.omega), level * hbar * recipe.mass * recipe.omega
    m_omega, alpha = recipe.mass * recipe.omega, complex(recipe.alpha)
    return (math.sqrt(2.0 * hbar / m_omega) * alpha.real, math.sqrt(2.0 * hbar * m_omega) * alpha.imag,
            hbar / (2.0 * m_omega), hbar * m_omega / 2.0)


def outcome(recipe, grid, units):
    """(verdict, record) of one draw: verdict "refused", "within" or "off";
    record the amplitudes' SHA-256 or the refusal's class and message."""
    try:
        state = build_state(recipe, grid, units)
    except FluctLabError as exc:
        return "refused", f"refused {type(exc).__name__}: {exc}"
    digest = "sha256 " + hashlib.sha256(state.amplitudes.tobytes()).hexdigest()
    try:
        report = phase_space_moments(state, units)
    except FluctLabError as exc:
        return "refused", f"{digest} unmeasurable {type(exc).__name__}: {exc}"
    got = (report.mean_x, report.mean_p, report.var_x, report.var_p)
    off = any(abs(g - w) > TOLERANCE * max(1.0, abs(w)) for g, w in zip(got, closed_form(recipe, units.hbar)))
    return ("off" if off else "within"), digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--draws", type=int, default=3000)
    parser.add_argument("--record", help="write each draw's outcome to this file")
    args = parser.parse_args(argv)
    rng, units = np.random.default_rng(args.seed), UnitSystem()
    counts = {kind: dict.fromkeys(("refused", "within", "off"), 0) for kind in KINDS}
    lines = []
    for index in range(args.draws):
        kind, recipe, grid = draw(rng)
        verdict, record = outcome(recipe, grid, units)
        counts[kind][verdict] += 1
        lines.append(f"{index}\t{kind}\t{recipe!r}\t{grid!r}\t{record}\n")
    if args.record:
        with open(args.record, "w") as handle:
            handle.writelines(lines)
    print(f"seed {args.seed}, {args.draws} draws; off means more than {TOLERANCE:g} from the closed form")
    print(f"{'kind':<12}{'refused':>9}{'within':>9}{'off':>9}")
    for kind, row in [*counts.items(), ("total", {v: sum(c[v] for c in counts.values()) for v in counts[KINDS[0]]})]:
        print(f"{kind:<12}{row['refused']:>9}{row['within']:>9}{row['off']:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
