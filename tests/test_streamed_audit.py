"""`audit --in` measures each member of a file as its load admits it and keeps
only its moments: every refusal, report and exit code is still the one that
loading the whole file (io.load_target) and then auditing it (audit_report)
gives, and its memory holds one member at a time."""

import json
import re
import sys

import numpy as np
import pytest

from fluctlab import _reader, _turns, cli
from fluctlab import io as fio
from fluctlab.audit import audit_report
from fluctlab.states import GaussianPacket, GridSpec, UnitSystem, build_state, thermal_ensemble

GRID = GridSpec(-15.0, 15.0, 256)


def _whole_file_audit(args) -> int:
    """The command's audit as it was made before it measured members as they
    load: the whole target loaded, then audit_report.  The caller has the
    walk refuse every file, so the load is one json.load of the whole file,
    then the parse of that document."""
    target, file_units = fio.load_target(args.in_path)
    units = UnitSystem(h=args.h) if args.h is not None else file_units
    report = audit_report(target, units, epsilon=args.epsilon, delta_e=args.delta_e)
    if args.strict and report["classification"] == "below_bound":
        print(json.dumps(report))
        print("error: product below bound in strict mode", file=sys.stderr)
        return 2
    return cli._emit_rows(args, [json.dumps(report)], f"classification={report['classification']}")


def _refused(window, wanted=None):
    raise ValueError("the walk is off: json.load reads the file")


def _ensemble_doc(members=5, temperature=1.5):
    units = UnitSystem()
    ensemble = thermal_ensemble(1.0, 1.0, temperature, 60, GRID, units)
    doc = json.loads(json.dumps(fio.ensemble_document(ensemble, units)))
    doc["weights"] = doc["weights"][:members]
    doc["weights"] = [w / sum(doc["weights"]) for w in doc["weights"]]
    doc["members"] = doc["members"][:members]
    return doc


def _wide_member():
    """A normalized member that fails the decay guard: a packet of sigma 4 on a span of 30."""
    amplitudes = np.exp(-(GRID.points() ** 2) / 64.0)
    amplitudes /= np.sqrt(GRID.dx * (np.sum(amplitudes**2) - 0.5 * (amplitudes[0] ** 2 + amplitudes[-1] ** 2)))
    return {"psi_re": amplitudes.tolist(), "psi_im": [0.0] * GRID.n}


def _corpus():
    """{case: the file's text}: bad ensemble and state files, and good ones."""
    texts = {}
    good = _ensemble_doc()
    texts["good"] = json.dumps(good)
    wrong_norm = _ensemble_doc()
    wrong_norm["members"][2]["psi_re"] = [1.5 * v for v in wrong_norm["members"][2]["psi_re"]]
    texts["wrong-norm-member"] = json.dumps(wrong_norm)
    decay = _ensemble_doc()
    decay["members"][3] = _wide_member()
    texts["decay-guard-member"] = json.dumps(decay)
    short = _ensemble_doc()
    short["members"][1]["psi_re"] = short["members"][1]["psi_re"][:-1]
    texts["short-psi-re"] = json.dumps(short)
    string = _ensemble_doc()
    string["members"][3]["psi_im"][7] = "0.0"
    texts["string-element"] = json.dumps(string)
    heavy = _ensemble_doc()
    heavy["weights"] = [1.1 * w for w in heavy["weights"]]
    texts["weights-sum-1.1"] = json.dumps(heavy)
    extra = _ensemble_doc()
    extra["weights"] = [w * 5 / 6 for w in extra["weights"]] + [1 / 6]
    texts["more-weights-than-members"] = json.dumps(extra)
    texts["syntax-error-after-a-bad-member"] = json.dumps(wrong_norm)[:-1]
    texts["members-before-grid"] = json.dumps({"units": good["units"], "members": wrong_norm["members"],
                                               "weights": good["weights"], "grid": good["grid"]})
    texts["good-members-before-grid"] = json.dumps({"members": good["members"], **good})
    # a repeated key after the members replaces the grid they were admitted on
    texts["grid-repeated-after-members"] = json.dumps(good)[:-1] + ', "grid": {"x_min": -15.0, "x_max": 15.5, "n": 256}}'
    # a grid of another size and members on it, repeated after the first members, which were measured first
    coarse = thermal_ensemble(1.0, 1.0, 1.5, 60, GridSpec(-15.0, 15.0, 128), UnitSystem())
    coarse = json.loads(json.dumps(fio.ensemble_document(coarse, UnitSystem())))
    texts["good-grid-and-members-repeated"] = json.dumps(good)[:-1] + ', "grid": %s, "members": %s}' % (
        json.dumps(coarse["grid"]), json.dumps(coarse["members"][:5]))
    units = UnitSystem()
    state = fio.state_document(build_state(GaussianPacket(), GRID, units), units)
    texts["good-state"] = json.dumps(state)
    state["psi_im"] = [v + 0.01 for v in state["psi_im"]]
    texts["wrong-norm-state"] = json.dumps(state)
    return texts


CORPUS = _corpus()
FLAGS = {"plain": [], "h": ["--h", "1e200"], "bad-h": ["--h", "-1"], "epsilon": ["--epsilon", "0.5"],
         "strict": ["--strict"], "delta-e": ["--delta-e", "1e-320"]}


@pytest.mark.parametrize("twin", [True, False], ids=["twin", "alone"])
@pytest.mark.parametrize("case", CORPUS)
def test_audit_gives_what_a_whole_file_load_then_audit_report_gives(case, twin, tmp_path, monkeypatch, capsys):
    """Each file of the corpus, with each flag set, gives the exit code,
    stdout and stderr of the whole-file load and audit_report, in one
    process and with a forked twin decoding every other value."""
    path = str(tmp_path / "target.json")
    with open(path, "w") as handle:
        handle.write(CORPUS[case])
    if twin:
        monkeypatch.setattr(_turns.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(_reader, "_FORK_BYTES", 0)
    else:
        monkeypatch.setattr(_turns, "second_cpu", lambda: False)
    outcomes = {}
    for name, flags in FLAGS.items():
        argv = ["audit", "--in", path, *flags]
        streamed = cli.run(argv), *capsys.readouterr()
        with monkeypatch.context() as whole:
            whole.setattr(cli, "_cmd_audit", _whole_file_audit)
            whole.setattr(_reader._Window, "document", _refused)
            expected = cli.run(argv), *capsys.readouterr()
        assert streamed == expected, (name, streamed, expected)
        outcomes[name] = streamed
    if case.startswith("good"):
        assert outcomes["plain"][0] == 0
    else:  # a bad file is refused whatever the flags
        assert set(outcomes.values()) == {outcomes["plain"]} and outcomes["plain"][0] in (2, 3)


@pytest.mark.parametrize("case", ["wrong-norm-state", "wrong-norm-member"])
def test_a_loaded_files_norm_refusal_keeps_its_text(case, tmp_path, capsys):
    """A file's norm refusal names neither a level nor a member, as before
    the recipes' refusals began with the level they build."""
    path = str(tmp_path / "target.json")
    with open(path, "w") as handle:
        handle.write(CORPUS[case])
    assert cli.run(["audit", "--in", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(r"error: L2 norm \d\.\d+ differs from 1 by more than 1e-10\n", err), err


def _ensemble_file(tmp_path, members: int, n: int) -> str:
    """An ensemble file of members copies of one n-point packet, each of weight 1/members."""
    units = UnitSystem()
    state = fio.state_document(build_state(GaussianPacket(), GridSpec(-12.0, 12.0, n), units), units)
    member = json.dumps({"psi_re": state["psi_re"], "psi_im": state["psi_im"]})
    path = str(tmp_path / f"ensemble-{members}.json")
    with open(path, "w") as handle:
        handle.write('{"units": %s, "grid": %s, "weights": %s, "members": [%s]}' % (
            json.dumps(state["units"]), json.dumps(state["grid"]), json.dumps([1 / members] * members),
            ", ".join([member] * members)))
    return path


def test_audit_memory_holds_one_member_at_a_time(tmp_path, monkeypatch, capsys, peak_bytes):
    """The audit of 64 members peaks within one member's arrays (its two
    decoded lists and its amplitudes, 32 bytes a point) of the audit of 8
    over the same grid; loading them whole took 56 members' more."""
    n = 4096
    monkeypatch.setattr(_turns, "second_cpu", lambda: False)
    peaks = {}
    for members in (8, 64):
        path = _ensemble_file(tmp_path, members, n)
        peaks[members] = peak_bytes(lambda: cli.run(["audit", "--in", path]))
        assert capsys.readouterr().out.startswith('{"product": ')
    assert peaks[64] - peaks[8] < 32 * n, peaks


def _state_file(tmp_path, n: int) -> str:
    units = UnitSystem()
    path = str(tmp_path / f"state-{n}.json")
    fio.save_state(path, build_state(GaussianPacket(), GridSpec(-20.0, 20.0, n), units), units)
    return path


@pytest.mark.parametrize("n", [2**16, 2**18])
def test_load_target_of_a_state_peaks_at_48_bytes_a_point(n, tmp_path, monkeypatch, capsys, peak_bytes):
    """A state's top-level lists are decoded a window at a time, into float64
    arrays, so a load holds its two lists' values, the state's amplitudes and
    their squares (40 bytes a point), never a list's whole text or its
    Python floats (63.7 bytes a point when each list was decoded whole).

    `audit --in` of the file admits the amplitudes into the command's one
    |psi|^2 array and takes their DFT in their own array, so it peaks while
    it measures at 48 bytes a point: the amplitudes 16, |psi|^2 8, scratch 8,
    and the grid's points and wavenumbers 16 (64 when it squared them again
    into an array of its own and held the spectrum apart).  What the command
    holds that does not grow with the grid, its parser and the load's
    windows, is allowed for by the whole peak of the same audit of a
    1024-point state."""
    path = _state_file(tmp_path, n)
    monkeypatch.setattr(_turns, "second_cpu", lambda: False)
    assert peak_bytes(lambda: fio.load_target(path), warm_up=False) <= 48 * n

    def audit(path):
        return lambda: cli.run(["audit", "--in", path])

    allowance = peak_bytes(audit(_state_file(tmp_path, 1024)))
    peak = peak_bytes(audit(path))
    assert capsys.readouterr().out.count('{"product": ') == 4
    assert peak <= 48 * n + allowance, (peak / n, allowance)


@pytest.mark.parametrize("twin", [True, False], ids=["twin", "alone"])
def test_each_state_and_member_is_measured_by_one_fft(twin, tmp_path, monkeypatch, capsys, request):
    """Counted across both processes, each FFT appending one byte to a file:
    `state` takes one, and `audit --in` one a state or member, whether a
    forked twin writes the document and decodes the files or not."""
    if twin:
        forks = request.getfixturevalue("forks")
    else:
        monkeypatch.setattr(_turns, "second_cpu", lambda: False)
    calls = tmp_path / "ffts"
    calls.write_text("")
    original = np.fft.fft

    def counting(*args, **kwargs):
        with open(calls, "a") as handle:
            handle.write(".")
        return original(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    state = str(tmp_path / "state.json")
    assert cli.run(["state", "--gaussian", "--grid=-20:20:16384", "--out", state]) == 0
    assert len(calls.read_text()) == 1
    assert cli.run(["audit", "--in", state]) == 0
    assert len(calls.read_text()) == 2
    ensemble = str(tmp_path / "ensemble.json")
    with open(ensemble, "w") as handle:
        handle.write(CORPUS["good"])  # 5 members
    assert cli.run(["audit", "--in", ensemble]) == 0
    assert len(calls.read_text()) == 7
    assert capsys.readouterr().out.count('{"product": ') == 2
    if twin:  # the document's blocks, and each file's values
        assert len(forks) == 3
