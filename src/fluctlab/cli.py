"""Command-line front end: build states, audit files, evaluate and sample
densities, and run scenario sweeps.

Exit codes: 0 success, 1 usage error, 2 data error (malformed or
non-normalized files, inadmissible parameter values, below-bound audits in
strict mode), 3 numerical failure (decay guard, truncation, resolution).
errors.NumericalFailure and its subclasses map to 3; every other fluctlab
error, and any OSError or MemoryError, maps to 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sys
from typing import TYPE_CHECKING

from . import io
from .errors import FluctLabError, InvalidRecipe, NumericalFailure, require_finite

if TYPE_CHECKING:  # each handler imports what it calls, so a command loads only the modules it runs
    from .density import FluctuationParams
    from .states import GridSpec
    from .units import UnitSystem

class _Parser(argparse.ArgumentParser):
    """argparse flavor that exits 1 (not 2) on usage errors, accepts
    dash-leading values like --grid -12:12:1024 and takes no abbreviated
    flags (a top-level --h would otherwise mean --help)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt6(value: float) -> str:
    """Human summary format: 6 significant digits, minimal repr."""
    return str(float(f"{float(value):.6g}"))


def _resolve_units(args) -> UnitSystem:
    from .units import UnitSystem

    if getattr(args, "h", None) is not None:
        return UnitSystem(h=args.h)
    env = os.environ.get("FLUCTLAB_H")
    if env:
        try:
            h = float(env)
        except ValueError as exc:
            raise InvalidRecipe(f"FLUCTLAB_H={env!r} is not a number") from exc
        return UnitSystem(h=h)
    return UnitSystem()


def _out_path(text: str) -> str:
    """The type of every --out flag: a path, refused while parsing when empty,
    since the empty string names no file."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file name, got ''")
    return text


def _parse_range(text: str, what: str) -> tuple:
    """MIN:MAX:N as (float, float, int)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidRecipe(f"{what} must be MIN:MAX:N, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InvalidRecipe(f"{what} {text!r}: {exc}") from exc


def _parse_grid_flag(text: str, levels: int) -> GridSpec:
    """The --grid flag MIN:MAX:N, admitted for `levels` states of N points each
    (levels x N values) before anything is allocated."""
    from .states import GridSpec

    grid = GridSpec(*_parse_range(text, "grid"))
    _admit_rows(levels * grid.n, "grid (levels x points)")
    return grid


def _parse_axis_flag(text: str) -> tuple:
    """MIN:MAX:N as (lo, hi, n); the caller builds the axis after admission."""
    lo, hi, n = _parse_range(text, "axis")
    if n < 2 or hi <= lo:
        raise InvalidRecipe(f"axis {text!r} needs MAX > MIN and N >= 2")
    return lo, hi, n


def _admit_rows(rows: int, what: str) -> None:
    """Refuse more than io.MAX_ROWS rows (CSV rows, or levels x grid points)
    before anything is allocated."""
    if rows > io.MAX_ROWS:
        raise InvalidRecipe(
            f"{what} of {rows} rows exceeds the limit of {io.MAX_ROWS} rows (1 GiB of float64 values)"
        )


def _parse_complex_flag(text: str) -> complex:
    try:
        return complex(*map(float, text.split(",")))  # RE or RE,IM: a third part is a TypeError
    except (ValueError, TypeError):
        raise InvalidRecipe(f"complex flag must be RE or RE,IM, got {text!r}") from None


def _params_from_flags(args, units: UnitSystem) -> FluctuationParams:
    from .density import FluctuationParams

    if args.var_x is None or args.var_p is None:
        raise InvalidRecipe("this mode needs --var-x and --var-p")
    return FluctuationParams(
        mean_x=args.mean_x, mean_p=args.mean_p, var_x=args.var_x, var_p=args.var_p, units=units
    )


# --- handlers ----------------------------------------------------------------

def _formatter_first() -> None:
    """Compile the formatter first in a command that makes its rows as it
    writes them (a sample, a walk, a scan), once its sizes are admitted and
    before it imports or makes anything else.  Where bytecode is not cached,
    compiling holds about 1 MB for a moment; at the first block, where io
    imports the formatter, that came on top of the command's own memory and
    set its peak RSS (fresh 250k-draw samples and 50k-step walks peak about
    0.35 MB lower this way; 501x501 scans, whose peaks are 2 MB lower than
    theirs, move by less than 0.1 MB).  A command that computes everything
    before it writes (state, the sweeps) peaked higher this way, by up to
    1.3 MB, so it compiles the formatter at its first block."""
    from . import _floattext  # noqa: F401


def _cmd_state(args) -> int:
    from .states import CoherentState, GaussianPacket, OscillatorEigenstate, build_state, phase_space_moments

    units = _resolve_units(args)
    grid = _parse_grid_flag(args.grid, 1 if args.eigenstate is None else args.eigenstate + 1)
    if args.gaussian:
        recipe = GaussianPacket(center=args.center, momentum=args.momentum, sigma=args.sigma)
    elif args.eigenstate is not None:
        recipe = OscillatorEigenstate(n=args.eigenstate, mass=args.mass, omega=args.omega)
    else:
        recipe = CoherentState(alpha=_parse_complex_flag(args.coherent), mass=args.mass, omega=args.omega)
    state = build_state(recipe, grid, units)
    report = phase_space_moments(state, units)  # before saving, so a state it refuses leaves no file
    io.save_state(args.out, state, units)
    print(f"wrote {args.out} (var_x={_fmt6(report.var_x)}, var_p={_fmt6(report.var_p)})")
    return 0


def _cmd_audit(args) -> int:
    """audit_report of the file's state or ensemble, measured as the load
    decodes it.  Each state or member is admitted into the command's one
    |psi|^2 array and measured by one DFT taken in its own amplitude array
    (states._moments).  Only its moments are kept, so the load holds one
    member at a time and squares each once.  A refusal at admission is the
    load's, raised in its turn.  A measurement's failure is kept and raised
    where audit_report meets it: after the whole file is read and parsed and
    the units are resolved."""
    import numpy as np

    from ._reader import _load
    from .audit import _verdict
    from .states import _admitted, _mixture_report, _mixture_weights, _moments
    from .units import UnitSystem

    prob, failures = np.empty(0), []

    def measured(grid, amp, file_units):
        nonlocal prob
        if prob.size != grid.n:  # made at the first member; again only where json.load reads a repeated grid
            prob = np.empty(grid.n)
        _admitted(grid, amp, prob)
        if not failures:
            try:
                return _moments(grid, UnitSystem(h=args.h) if args.h is not None else file_units, amp, prob, amp, None)
            except Exception as exc:
                failures.append(exc)
        return None

    weights, reports, file_units = _load(args.in_path, keep=measured)
    weights = np.ones(1) if weights is None else _mixture_weights(weights, len(reports))
    units = UnitSystem(h=args.h) if args.h is not None else file_units
    if failures:
        raise failures[0]
    report = _verdict(_mixture_report(weights, reports), weights, units, args.epsilon, args.delta_e)
    if args.strict and report["classification"] == "below_bound":  # no file; the report goes to stdout
        print(json.dumps(report))
        print("error: product below bound in strict mode", file=sys.stderr)
        return 2
    return _emit_rows(args, [json.dumps(report)], f"classification={report['classification']}")


def _cmd_density_eval(args) -> int:
    import numpy as np

    from .density import PhasePoint, density_mesh, reduced_mesh

    units = _resolve_units(args)
    scan = bool(args.scan_x or args.scan_p or args.out)  # --out asks for a scan too
    if scan:
        if not (args.scan_x and args.scan_p and args.out):
            raise InvalidRecipe("scan mode needs --scan-x, --scan-p, and --out")
        x_axis = _parse_axis_flag(args.scan_x)
        p_axis = _parse_axis_flag(args.scan_p)
        _admit_rows(x_axis[2] * p_axis[2], "scan")
        for lo, hi, n in (x_axis, p_axis):  # np.linspace's last point before it is set to MAX
            require_finite("axis end MIN + (N-1)*((MAX-MIN)/(N-1))", lo + (n - 1) * ((hi - lo) / (n - 1)))
        _formatter_first()
        xs = np.linspace(*x_axis)
        ps = np.linspace(*p_axis)
    else:  # a point is the one-cell scan
        if args.x is None or args.p is None:
            raise InvalidRecipe("point mode needs --x and --p")
        pt = PhasePoint(args.x, args.p)
        xs, ps = np.array([pt.x]), np.array([pt.p])
    if args.reduced:  # the whole axes are admitted here; write_scan_csv makes the mesh a block at a time
        mesh = reduced_mesh(args.mean_x, args.mean_p, units, xs, ps)
    else:
        mesh = density_mesh(_params_from_flags(args, units), xs, ps)
    if not scan:
        print(f"f={_fmt6(mesh(slice(None), slice(None))[0, 0])}")
        return 0
    io.write_scan_csv(args.out, xs, ps, mesh)
    print(f"wrote {args.out} ({xs.size * ps.size} rows)")
    return 0


def _cmd_density_sample(args) -> int:
    units = _resolve_units(args)
    _admit_rows(args.count, "sample")
    _formatter_first()
    from .density import sample_blocks

    draws = sample_blocks(_params_from_flags(args, units), args.count, args.seed)
    return _emit_rows(args, io.Table(("x", "p"), (block.T for block in draws), "csv"), f"{args.count} draws")


def _cmd_density_extremize(args) -> int:
    from .density import PhasePoint, extremal_variances

    units = _resolve_units(args)
    var_x, var_p = extremal_variances(args.mean_x, args.mean_p, PhasePoint(args.x, args.p), units)
    print(f"var_x={_fmt6(var_x)} var_p={_fmt6(var_p)}")
    return 0


def _cmd_density_verify(args) -> int:
    from .density import PhasePoint, verify_extremum

    units = _resolve_units(args)
    check = verify_extremum(
        args.mean_x, args.mean_p, PhasePoint(args.x, args.p), units, fd_step=args.fd_step
    )
    print(
        f"s_star={_fmt6(check.s_star)} first_derivative={check.first_derivative!r} "
        f"second_derivative={check.second_derivative!r} is_max={'true' if check.is_max else 'false'}"
    )
    return 0


def _cmd_density_normcheck(args) -> int:
    from .density import normalization_check, reduced_box_integral

    units = _resolve_units(args)
    if args.reduced:
        if args.box_half_width is None:
            raise InvalidRecipe("reduced mode needs --box-half-width")
        value = reduced_box_integral(args.mean_x, args.mean_p, units, args.box_half_width)
    else:
        value = normalization_check(_params_from_flags(args, units), args.half_width)
    print(f"integral={value!r}")
    return 0


def _emit_rows(args, chunks, detail: str) -> int:
    """Write text chunks or an io.Table, as every file is written, to --out
    with detail in the `wrote` line, or to stdout ending in a newline: a CSV
    table (an io.Table with no tail) ends its own last line."""
    if args.out:
        io.atomic_write_text(args.out, chunks)
        print(f"wrote {args.out} ({detail})")
    else:
        io._write(sys.stdout, chunks)
        if not isinstance(chunks, io.Table) or chunks.tail:
            sys.stdout.write("\n")
    return 0


def _cmd_scenario_eigensweep(args) -> int:
    from .scenarios import SweepRow, eigenstate_sweep

    units = _resolve_units(args)
    grid = _parse_grid_flag(args.grid, args.n_max + 1)
    rows = eigenstate_sweep(args.n_max, args.mass, args.omega, grid, units, args.epsilon)
    table = io.Table(SweepRow._fields, [io.record_block(rows)], args.format)
    return _emit_rows(args, table, f"{len(rows)} rows")


def _cmd_scenario_thermalsweep(args) -> int:
    from .scenarios import SweepRow, thermal_sweep

    units = _resolve_units(args)
    try:
        temperatures = [float(t) for t in args.temperatures.split(",") if t.strip()]
    except ValueError as exc:
        raise InvalidRecipe(f"temperatures {args.temperatures!r}: {exc}") from exc
    if not temperatures:
        raise InvalidRecipe("need at least one temperature")
    grid = _parse_grid_flag(args.grid, args.n_max + 1)
    rows = thermal_sweep(temperatures, args.mass, args.omega, args.n_max, grid, units, args.epsilon)
    table = io.Table(SweepRow._fields, [io.record_block(rows)], args.format)
    return _emit_rows(args, table, f"{len(rows)} rows")


def _cmd_scenario_walk(args) -> int:
    units = _resolve_units(args)
    _admit_rows(args.steps + 1, "walk")
    _formatter_first()
    from .scenarios import WalkTrace, walk_blocks

    blocks = walk_blocks(_params_from_flags(args, units), args.steps, args.step_size, args.seed)
    table = io.Table(WalkTrace._fields, blocks, args.format)
    return _emit_rows(args, table, f"{args.steps + 1} rows")


# --- parser ------------------------------------------------------------------

def _parent(flags: dict) -> argparse.ArgumentParser:
    """A flag group, {flag: add_argument keywords}, declared once for every
    subcommand that lists it in parents=[...]."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, keywords in flags.items():
        parent.add_argument(flag, **keywords)
    return parent


def build_parser() -> argparse.ArgumentParser:
    units = _parent({"--h": dict(type=float, help="Planck constant in working units (default: FLUCTLAB_H or 2*pi)")})
    means = _parent(dict.fromkeys(("--mean-x", "--mean-p"), dict(type=float, default=0.0)))
    variances = _parent(dict.fromkeys(("--var-x", "--var-p"), dict(type=float)))
    required_variances = _parent(dict.fromkeys(("--var-x", "--var-p"), dict(type=float, required=True)))
    point = _parent(dict.fromkeys(("--x", "--p"), dict(type=float, required=True)))
    # Every numeric default is the library's, written out so that parsing loads none of the
    # numeric modules; test_parser_defaults_are_the_librarys pins each to its source.
    # CoherentState shares OscillatorEigenstate's mass and omega defaults.
    oscillator = _parent({
        "--mass": dict(type=float, default=1.0),
        "--omega": dict(type=float, default=1.0),
        "--grid": dict(required=True, metavar="MIN:MAX:N"),
    })
    epsilon = _parent({"--epsilon": dict(type=float, default=1e-6)})
    table = _parent({"--out": dict(type=_out_path), "--format": dict(choices=("csv", "json"), default="csv")})

    parser = _Parser(prog="fluctlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    state = sub.add_parser("state", parents=[units, oscillator], help="build a pure state and write it as JSON")
    recipe = state.add_mutually_exclusive_group(required=True)
    recipe.add_argument("--gaussian", action="store_true", help="Gaussian packet recipe")
    recipe.add_argument("--eigenstate", type=int, metavar="N", help="oscillator level N")
    recipe.add_argument("--coherent", metavar="RE[,IM]", help="coherent state amplitude")
    state.add_argument("--center", type=float, default=0.0)
    state.add_argument("--momentum", type=float, default=0.0)
    state.add_argument("--sigma", type=float, default=1.0)
    state.add_argument("--out", type=_out_path, required=True)
    state.set_defaults(handler=_cmd_state)

    audit = sub.add_parser("audit", parents=[units, epsilon], help="audit a state or ensemble file")
    audit.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    audit.add_argument("--delta-e", type=float, help="energy spread used to fill delta_t in the report")
    audit.add_argument("--strict", action="store_true", help="exit 2 on a below-bound product")
    audit.add_argument("--out", type=_out_path)
    audit.set_defaults(handler=_cmd_audit)

    density = sub.add_parser("density", help="fluctuation-density operations")
    dsub = density.add_subparsers(dest="density_command", required=True, parser_class=_Parser)

    d_eval = dsub.add_parser("eval", parents=[units, means, variances],
                             help="evaluate the density at a point or on a mesh")
    d_eval.add_argument("--x", type=float)
    d_eval.add_argument("--p", type=float)
    d_eval.add_argument("--reduced", action="store_true", help="use the reduced closed form")
    d_eval.add_argument("--scan-x", metavar="MIN:MAX:N")
    d_eval.add_argument("--scan-p", metavar="MIN:MAX:N")
    d_eval.add_argument("--out", type=_out_path, help="CSV destination for scan mode")
    d_eval.set_defaults(handler=_cmd_density_eval)

    d_sample = dsub.add_parser("sample", parents=[units, means, required_variances],
                               help="draw seeded samples to CSV")
    d_sample.add_argument("--count", type=int, required=True)
    d_sample.add_argument("--seed", type=int, required=True)
    d_sample.add_argument("--out", type=_out_path, required=True)
    d_sample.set_defaults(handler=_cmd_density_sample)

    d_ext = dsub.add_parser("extremize", parents=[units, means, point], help="extremal variance pair at a phase point")
    d_ext.set_defaults(handler=_cmd_density_extremize)

    d_verify = dsub.add_parser("verify", parents=[units, means, point], help="finite-difference extremum check")
    d_verify.add_argument("--fd-step", type=float, default=1e-4)
    d_verify.set_defaults(handler=_cmd_density_verify)

    d_norm = dsub.add_parser("normcheck", parents=[units, means, variances], help="quadrature of the density")
    d_norm.add_argument("--half-width", type=float, default=10.0,
                        help="integration half-width in spreads per axis")
    d_norm.add_argument("--reduced", action="store_true", help="box-integrate the reduced density")
    d_norm.add_argument("--box-half-width", type=float)
    d_norm.set_defaults(handler=_cmd_density_normcheck)

    scenario = sub.add_parser("scenario", help="sweeps and the relaxation walk")
    ssub = scenario.add_subparsers(dest="scenario_command", required=True, parser_class=_Parser)

    eig = ssub.add_parser("eigensweep", parents=[units, oscillator, epsilon, table], help="oscillator level sweep")
    eig.add_argument("--n-max", type=int, required=True)
    eig.set_defaults(handler=_cmd_scenario_eigensweep)

    thermal = ssub.add_parser("thermalsweep", parents=[units, oscillator, epsilon, table],
                              help="Boltzmann mixture sweep")
    thermal.add_argument("--temperatures", required=True, metavar="T1,T2,...")
    thermal.add_argument("--n-max", type=int, required=True)
    thermal.set_defaults(handler=_cmd_scenario_thermalsweep)

    walk = ssub.add_parser("walk", parents=[units, means, required_variances, table],
                           help="seeded contraction toward the bound")
    walk.add_argument("--steps", type=int, required=True)
    walk.add_argument("--step-size", type=float, required=True)
    walk.add_argument("--seed", type=int, required=True)
    walk.set_defaults(handler=_cmd_scenario_walk)

    return parser


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FluctLabError, OSError, MemoryError) as exc:  # numpy's MemoryError says what it could not allocate;
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)  # only Python's own comes here without text
        return 2


class _Signalled(BaseException):
    """A SIGTERM or SIGHUP that arrived while a command ran (see main)."""


def _raise_signalled(signum, frame):
    raise _Signalled(signum)


def main() -> None:
    """Run the command in sys.argv and exit with its code.

    While it runs, SIGTERM and SIGHUP, unless the caller ignores them, raise
    _Signalled, which no command catches: a temp file is unlinked and a
    forked twin killed and reaped, as for any exception.  Then the default
    action is restored and the signal raised again, so the process still
    ends by it.  A twin that gets the signal itself exits with status 1,
    unless it arrives while the twin is being forked: Python drops the
    signals a forked child has pending.

    Otherwise the process ends without tearing down the interpreter: stdout
    and stderr (each unless it is None) are flushed, then os._exit ends it
    with the code, skipping the final garbage collections and module
    teardown, 19-33 ms of every command.  Every file a command writes is
    closed before run() returns, so nothing else is left to flush.  atexit
    callbacks do not run, those that site hooks (.pth files) register
    included.  Two cases end through sys.exit(code) and the interpreter's
    teardown as before: a flush that raises (OSError, ValueError), which the
    interpreter then reports as it flushes again, exiting 120; and an
    installed profiler or tracer (cProfile, coverage, pdb), whose report is
    printed at that exit.

    A command process loads no OpenSSL.  numpy.random imports the stdlib's
    secrets, whose hmac and hashlib import _hashlib, and that maps
    libcrypto: about 3.4 MB of resident memory in a seeded sample or walk,
    which computes no hash.  So, unless something has already imported it,
    main puts None under sys.modules["_hashlib"] before run(), and hashlib
    and hmac take the fallbacks that CPython keeps for builds without
    OpenSSL: its builtin digests (_sha512, _sha256, ...) and os.urandom.
    Where this Python lacks one of those digests, main leaves _hashlib as it
    is.  import fluctlab, run() and the rest of the library leave
    sys.modules alone.
    """
    _without_openssl()
    caught = [s for s in (signal.SIGTERM, signal.SIGHUP) if signal.getsignal(s) == signal.SIG_DFL]
    for signum in caught:
        signal.signal(signum, _raise_signalled)
    received = None
    try:
        code = run(sys.argv[1:])
    except _Signalled as exc:
        received = exc.args[0]
    finally:
        for signum in caught:
            signal.signal(signum, signal.SIG_DFL)
    if received is not None:
        signal.raise_signal(received)
    if not _watched():
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except (OSError, ValueError):
            pass  # the teardown below flushes again, and reports a failure, as it always has
        else:
            os._exit(code)
    sys.exit(code)


_DIGESTS = ("_md5", "_sha1", "_blake2", "_sha3",
            *(("_sha256", "_sha512") if sys.version_info < (3, 12) else ("_sha2",)))
"""The builtin digest modules that hashlib falls back on, all of them, when _hashlib cannot be imported."""


def _without_openssl() -> None:
    """Keep hashlib, hmac and secrets from loading OpenSSL (see main)."""
    from importlib.util import find_spec  # loaded with site already

    if "_hashlib" not in sys.modules and all(find_spec(name) is not None for name in _DIGESTS):
        sys.modules["_hashlib"] = None


def _watched() -> bool:
    """True when a profiler or tracer is installed.  From Python 3.12 on,
    cProfile (and coverage, on request) use sys.monitoring and set neither hook."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.getprofile() is not None or sys.gettrace() is not None
            or (monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6))))


if __name__ == "__main__":
    main()
