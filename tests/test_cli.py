from __future__ import annotations

import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import types
import warnings

import pytest

from permstream import Occurrence, gen_monotone_lb, new_detector, parse_pattern, parse_stream_text
from permstream import backhalf, cli, core, tools
from conftest import random_perm
from permstream.streaming import Detector, Detector312, MonotoneDetector
from permstream.cli import build_parser, main
from permstream.tools import _write_replay


def run_cli(*argv: str) -> int:
    return main(list(argv))


def json_out(capsys) -> dict:
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1])


def canonical(report: dict) -> str:
    report = dict(report)
    report.pop("wall_time_s", None)
    return json.dumps(report, sort_keys=True)


# -- detect ------------------------------------------------------------------


def test_detect_inline_values(capsys):
    code = run_cli(
        "detect", "--pattern", "312", "--values", "3,1,2", "--n", "3", "--check", "--json"
    )
    assert code == 0
    rep = json_out(capsys)
    assert rep["schema"] == 1
    assert rep["verdict"] is True
    assert rep["agree"] is True
    assert rep["occurrence"] == {"positions": [1, 2, 3], "values": [3, 1, 2]}
    assert rep["detector"] == "Detector312"


@pytest.mark.parametrize("pattern, values", [("312", "3,1,2,4"), ("213", "1,3,2,4")])
def test_an_instance_is_scanned_once(pattern, values, monkeypatch, capsys):
    # detect --check checks the stream as it reads it, and the instance it
    # hands the oracle checks the values it keeps; the oracle checks nothing
    built = []
    init = core.StreamValidator.__init__

    def counting_init(self, n, mode):
        built.append(n)
        init(self, n, mode)

    monkeypatch.setattr(core.StreamValidator, "__init__", counting_init)
    argv = ("detect", "--pattern", pattern, "--values", values, "--n", "4", "--check")
    assert run_cli(*argv) == 0
    assert "oracle cross-check: agree" in capsys.readouterr().out
    assert built == [4, 4]


def test_detect_reports_avoidance(capsys):
    code = run_cli("detect", "--pattern", "231", "--values", "1,2,3", "--n", "3")
    assert code == 0
    assert "AVOIDED" in capsys.readouterr().out


def test_detect_from_file(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("# demo\nn=5 mode=perm\n5 3 4 1 2\n")
    assert run_cli("detect", "--pattern", "231", "--input", str(path), "--check") == 0
    assert "agree" in capsys.readouterr().out


def test_detect_forced_detector_conflicts_exit_2(capsys):
    # Detector312 demands the permutation promise; forcing it on a
    # sequence-mode stream must be a usage error.
    code = run_cli(
        "detect", "--pattern", "312", "--values", "9,7,8", "--n", "12",
        "--mode", "seq", "--detector", "312",
    )
    assert code == 2
    assert "permutation" in capsys.readouterr().err


def test_detect_forced_detector_wrong_pattern_exit_2():
    assert run_cli(
        "detect", "--pattern", "231", "--values", "3,1,2", "--n", "3",
        "--detector", "312",
    ) == 2


def test_detect_invalid_stream_exit_2(capsys):
    assert run_cli("detect", "--pattern", "12", "--values", "1,1", "--n", "2") == 2
    assert "invalid stream" in capsys.readouterr().err


def test_detect_needs_some_stream():
    assert run_cli("detect", "--pattern", "12") == 2
    assert run_cli("detect", "--pattern", "12", "--values", "1,2") == 2  # no --n


def test_detect_json_is_deterministic(capsys):
    args = ["detect", "--pattern", "132", "--values", "2,5,1,4,3", "--n", "5", "--json"]
    assert run_cli(*args) == 0
    first = json_out(capsys)
    assert run_cli(*args) == 0
    second = json_out(capsys)
    assert canonical(first) == canonical(second)


# -- oracle ------------------------------------------------------------------


def test_oracle_count_and_split(capsys):
    code = run_cli(
        "oracle", "--pattern", "21", "--values", "2,1,3", "--n", "3",
        "--count", "--split", "1", "--json",
    )
    assert code == 0
    rep = json_out(capsys)
    assert rep["count"] == 1
    assert rep["verdict"] is True
    assert rep["protocol_verdict"] is True
    assert rep["agree"] is True


def test_oracle_split_disagreement_exits_1(monkeypatch, capsys):
    split_protocol = tools.split_protocol
    monkeypatch.setattr(tools, "split_protocol", lambda *args: not split_protocol(*args))
    argv = ["oracle", "--pattern", "21", "--values", "2,1,3", "--n", "3", "--split", "1"]
    assert run_cli(*argv, "--json") == 1
    rep = json_out(capsys)
    assert (rep["verdict"], rep["protocol_verdict"], rep["agree"]) == (True, False, False)
    assert run_cli(*argv) == 1
    assert "split protocol at 1: AVOIDED (DISAGREE)" in capsys.readouterr().out


def test_oracle_split_validates(capsys):
    assert run_cli(
        "oracle", "--pattern", "21", "--values", "2,1,3", "--n", "3", "--split", "9"
    ) == 2
    assert run_cli(
        "oracle", "--pattern", "4231", "--values", "4,2,3,1", "--n", "4", "--split", "2"
    ) == 2


# -- gen ---------------------------------------------------------------------


def test_gen_detect_round_trip(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert run_cli(
        "gen", "--construction", "seq312", "--nsets", "6",
        "--s", "1,3,5,6", "--t", "2,3,5", "--out", str(out),
    ) == 0
    inst = parse_stream_text(out.read_text())
    assert inst.elements == (3, 1, 9, 7, 15, 13, 18, 16, 14, 8, 5)
    text = out.read_text()
    assert "# segment alice 1 8" in text
    assert "# segment bob 9 11" in text
    capsys.readouterr()
    with pytest.warns(UserWarning):  # sequence mode falls back to the baseline
        assert run_cli("detect", "--pattern", "312", "--input", str(out), "--check") == 0


def test_gen_json_lists_sets(capsys):
    assert run_cli(
        "gen", "--construction", "front4:4231", "--nsets", "4",
        "--s", "1,3", "--t", "2,3", "--json",
    ) == 0
    rep = json_out(capsys)
    assert rep["stream"][:4] == [4, 2, 6, 8]
    assert rep["intersecting"] is True
    assert rep["s"] == [1, 3] and rep["t"] == [2, 3]
    # an empty set is given as an empty list
    assert run_cli(
        "gen", "--construction", "front4:4231", "--nsets", "4", "--s", "", "--t", "2,3", "--json",
    ) == 0
    rep = json_out(capsys)
    assert (rep["s"], rep["t"], rep["intersecting"]) == ([], [2, 3], False)


def test_gen_random_sets_reproducible(capsys):
    args = ["gen", "--construction", "4312", "--nsets", "8", "--random-sets",
            "--seed", "5", "--json"]
    assert run_cli(*args) == 0
    first = json_out(capsys)
    assert run_cli(*args) == 0
    assert json_out(capsys)["stream"] == first["stream"]


@pytest.mark.parametrize("sets", [["--s", "1,2", "--t", "2"], ["--s", ""], ["--t", "3"]])
def test_gen_random_sets_refuse_given_sets(sets, capsys):
    argv = ["gen", "--construction", "seq312", "--nsets", "3", *sets, "--random-sets"]
    assert run_cli(*argv, "--seed", "1") == 2
    assert capsys.readouterr() == ("", "error: give either --random-sets or --s/--t, not both\n")


def test_gen_monotone_lb_writes_pair(tmp_path):
    prefix = tmp_path / "mlb"
    assert run_cli(
        "gen", "--construction", "monotone-lb", "--k", "6", "--n", "20",
        "--rho", "1,5,7,13", "--sigma", "1,5,9,11", "--out", str(prefix),
    ) == 0
    acc = parse_stream_text(open(f"{prefix}-accept.txt").read())
    rej = parse_stream_text(open(f"{prefix}-reject.txt").read())
    assert acc.elements[:5] == (19, 17, 15, 11, 9)
    assert rej.elements[:5] == (19, 17, 15, 13, 7)


def test_gen_monotone_lb_prefix_only(capsys):
    assert run_cli("gen", "--construction", "monotone-lb", "--k", "5", "--n", "12",
                   "--rho", "1,5,7") == 0
    text = capsys.readouterr().out
    assert text.startswith("# monotone-lb prefix k=5 rho=1,5,7\n")
    assert parse_stream_text(text) == gen_monotone_lb(5, 12, (1, 5, 7))


def test_gen_extend(tmp_path, capsys):
    src = tmp_path / "src.txt"
    src.write_text("n=2 mode=perm\n2 1\n")
    assert run_cli("gen", "--construction", "extend", "--input", str(src), "--json") == 0
    assert json_out(capsys)["stream"] == [4, 2, 1, 3]


def test_gen_usage_errors():
    assert run_cli("gen", "--construction", "bogus", "--nsets", "2") == 2
    assert run_cli("gen", "--construction", "seq312") == 2  # missing --nsets
    assert run_cli("gen", "--construction", "monotone-lb", "--k", "6") == 2
    assert run_cli("gen", "--construction", "extend") == 2  # missing --input
    assert run_cli(
        "gen", "--construction", "monotone-lb", "--k", "4", "--n", "11", "--rho", "1,3"
    ) == 2


# -- fuzz --------------------------------------------------------------------


def test_fuzz_pattern_agrees(capsys):
    code = run_cli("fuzz", "--pattern", "312", "--n", "24", "--trials", "40",
                   "--seed", "3", "--json")
    assert code == 0
    rep = json_out(capsys)
    assert rep["trials"] == 40
    assert rep["disagreement"] is None
    assert rep["replay_file"] is None


def test_fuzz_construction_exhaustive(capsys):
    code = run_cli("fuzz", "--construction", "4312", "--nsets", "3", "--exhaustive")
    assert code == 0
    assert "64 trials" in capsys.readouterr().out


def test_fuzz_parallel_jobs(capsys):
    code = run_cli("fuzz", "--pattern", "213", "--n", "16", "--trials", "64",
                   "--seed", "1", "--jobs", "2", "--json")
    assert code == 0
    assert json_out(capsys)["disagreement"] is None


def test_fuzz_exhaustive_caps_are_enforced(capsys):
    assert run_cli("fuzz", "--pattern", "312", "--n", "9", "--exhaustive") == 2
    assert "n <= 8" in capsys.readouterr().err
    assert run_cli("fuzz", "--construction", "seq312", "--nsets", "7",
                   "--exhaustive") == 2


def test_fuzz_argument_validation():
    assert run_cli("fuzz") == 2  # neither target
    assert run_cli("fuzz", "--pattern", "312", "--construction", "seq312",
                   "--nsets", "3") == 2  # both targets
    assert run_cli("fuzz", "--pattern", "312") == 2  # missing --n
    assert run_cli("fuzz", "--construction", "seq312") == 2  # missing --nsets


@pytest.mark.parametrize("n, exhaustive", [("0", False), ("0", True), ("-3", False), ("-3", True)])
def test_fuzz_rejects_an_empty_universe(n, exhaustive, capsys):
    argv = ["fuzz", "--pattern", "12", "--n", n] + ["--exhaustive"] * exhaustive
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: --n must be at least 1, got {n}\n"


@pytest.mark.parametrize("argv", [
    ["fuzz", "--pattern", "12", "--n", "4"],
    ["fuzz", "--construction", "4312", "--nsets", "2"],
])
def test_negative_trials_are_rejected(argv, capsys):
    assert run_cli(*argv, "--trials", "-1") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --trials must be at least 0, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_fuzz_needs_at_least_one_job(jobs, capsys):
    assert run_cli("fuzz", "--pattern", "12", "--n", "4", "--jobs", jobs) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert captured.out == ""


@pytest.mark.parametrize("construction", ["monotone-lb", "extend", "bogus"])
def test_fuzz_lists_only_the_constructions_it_takes(construction, capsys):
    assert run_cli("fuzz", "--construction", construction, "--nsets", "3") == 2
    assert capsys.readouterr().err == (
        f"error: unknown construction {construction!r} "
        "(expected seq312, front4:<pattern>, 4312, 3142, or 2143)\n"
    )
    assert run_cli("gen", "--construction", "bogus", "--nsets", "3") == 2
    assert capsys.readouterr().err.endswith("2143, monotone-lb, or extend)\n")


def test_fuzz_exhaustive_runs_in_parallel(monkeypatch, capsys):
    import concurrent.futures

    pools = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    # _run_trials imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    argv = ["fuzz", "--pattern", "132", "--n", "6", "--exhaustive", "--json"]
    assert run_cli(*argv, "--jobs", "1") == 0
    serial = json_out(capsys)
    assert run_cli(*argv, "--jobs", "2") == 0
    assert canonical(json_out(capsys)) == canonical(serial)
    assert serial["trials"] == 720 and serial["disagreement"] is None
    assert pools == [2]


def test_no_environment_variable_reaches_the_parser(monkeypatch, capsys):
    # --jobs is the only way to set the worker count
    monkeypatch.setenv("PERMSTREAM_JOBS", "auto")
    assert run_cli("detect", "--pattern", "12", "--values", "2,1", "--n", "2") == 0
    assert "AVOIDED" in capsys.readouterr().out
    assert build_parser().parse_args(["fuzz", "--pattern", "12", "--n", "3"]).jobs == 1


def test_replay_file_round_trips(tmp_path):
    record = {
        "trial": 7,
        "stream": [3, 1, 2],
        "n": 3,
        "mode": "perm",
        "detector": False,
        "oracle": True,
    }

    class Args:
        seed = 9
        replay_dir = str(tmp_path)

    path = _write_replay(Args(), record, parse_pattern("312"))
    text = open(path).read()
    assert parse_stream_text(text).elements == (3, 1, 2)
    assert "seed=9" in text and "trial=7" in text
    assert "permstream detect" in text  # reproduce command present


def blind_detectors(monkeypatch) -> None:
    """A wrong detector: every report from ``Detector.finish`` says AVOIDED."""
    finish = Detector.finish
    monkeypatch.setattr(Detector, "finish", lambda self: finish(self)._replace(verdict=False))


@pytest.mark.parametrize("argv, trials, record", [
    (
        ["--pattern", "312", "--n", "5", "--exhaustive"], 5,
        {"trial": 4, "stream": [1, 2, 5, 3, 4], "n": 5},
    ),
    (
        ["--construction", "4312", "--nsets", "3"], 1,
        {"trial": 0, "stream": [5, 10, 3, 1, 4, 6, 7, 9, 8, 2], "n": 10,
         "s": [1, 3], "t": [1], "intersecting": True},
    ),
])
@pytest.mark.filterwarnings("ignore:pattern 4312 needs linear space")  # detect's baseline
def test_fuzz_reports_and_replays_the_first_disagreement(
    argv, trials, record, tmp_path, monkeypatch, capsys
):
    with monkeypatch.context() as m:
        blind_detectors(m)
        assert run_cli("fuzz", *argv, "--replay-dir", str(tmp_path), "--json") == 1
        rep = json_out(capsys)
        assert rep["trials"] == trials  # it stops at the first disagreement
        assert rep["disagreement"] == {
            **record, "mode": "perm", "detector": False, "oracle": True
        }
        path = str(tmp_path / f"permstream-replay-0-{record['trial']}.txt")
        assert rep["replay_file"] == path
        pattern = argv[1]  # 4312 names both the construction and its pattern
        assert run_cli("detect", "--pattern", pattern, "--input", path, "--check") == 1
        assert "oracle cross-check: DISAGREE" in capsys.readouterr().out
    assert run_cli("detect", "--pattern", pattern, "--input", path, "--check") == 0
    assert "oracle cross-check: agree" in capsys.readouterr().out


def test_fuzz_reports_an_invalid_witness(tmp_path, monkeypatch, capsys):
    # the verdicts agree, but each witness has its values reversed
    finish = Detector.finish

    def reversed_witness(self):
        report = finish(self)
        occ = report.occurrence
        return report if occ is None else report._replace(
            occurrence=Occurrence(positions=occ.positions, values=occ.values[::-1]))

    monkeypatch.setattr(Detector, "finish", reversed_witness)
    argv = ["fuzz", "--pattern", "312", "--n", "5", "--exhaustive", "--replay-dir", str(tmp_path)]
    assert run_cli(*argv, "--json") == 1
    rep = json_out(capsys)
    assert rep["trials"] == 5  # 1 2 5 3 4 is the first to contain 312
    witness = rep["disagreement"].pop("invalid_occurrence")
    assert rep["disagreement"] == {
        "trial": 4, "stream": [1, 2, 5, 3, 4], "n": 5, "mode": "perm",
        "detector": True, "oracle": True,
    }
    # 5 and 3 read, and a 4 still to come: its values reversed
    assert witness == {"positions": [3, 4, "future"], "values": [4, 3, 5]}
    text = open(rep["replay_file"]).read()
    assert parse_stream_text(text).elements == (1, 2, 5, 3, 4)
    assert f"invalid detector witness {witness}" in text


def test_detect_check_replays_an_invalid_witness(tmp_path, monkeypatch, capsys):
    # the replay file fuzz writes for a witness that does not hold makes
    # detect --check disagree too, with the same broken detector
    finish = Detector.finish

    def reversed_witness(self):
        report = finish(self)
        occ = report.occurrence
        return report if occ is None else report._replace(
            occurrence=Occurrence(positions=occ.positions, values=occ.values[::-1]))

    with monkeypatch.context() as m:
        m.setattr(Detector, "finish", reversed_witness)
        argv = ["fuzz", "--pattern", "312", "--n", "5", "--exhaustive"]
        assert run_cli(*argv, "--replay-dir", str(tmp_path), "--json") == 1
        path = json_out(capsys)["replay_file"]
        detect = ["detect", "--pattern", "312", "--input", path, "--check"]
        assert run_cli(*detect) == 1
        assert "oracle cross-check: DISAGREE" in capsys.readouterr().out
        assert run_cli(*detect, "--json") == 1
        broken = json_out(capsys)
    assert (broken["verdict"], broken["oracle_verdict"], broken["agree"]) == (True, True, False)
    assert run_cli(*detect, "--json") == 0
    fixed = json_out(capsys)
    assert fixed["agree"] is True
    assert sorted(broken) == sorted(fixed)  # the schema-1 keys stay as they are


def test_an_unwritable_file_exits_2(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    blind_detectors(monkeypatch)
    argv = ["fuzz", "--pattern", "312", "--n", "5", "--exhaustive"]
    assert run_cli(*argv, "--replay-dir", str(blocker / "sub")) == 2
    path = blocker / "sub" / "permstream-replay-0-4.txt"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")

    out = tmp_path / "missing" / "inst.txt"
    assert run_cli("gen", "--construction", "4312", "--nsets", "3", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")


MISSING = "/no/such/dir/stream.txt"


class ClosedStdin(list):
    """An argv that ``python -m permstream.cli`` runs with stdin closed, as
    after ``<&-``: the interpreter then sets ``sys.stdin`` to None."""


@pytest.mark.parametrize("check, message", [
    (["detect", "--pattern", "12", "--values", "1,2", "--n", "2", "--input", MISSING],
     "give either --input or --values, not both"),
    (["detect", "--pattern", "12", "--input", MISSING],
     f"cannot read {MISSING}: [Errno 2] No such file or directory: '{MISSING}'"),
    (ClosedStdin(["detect", "--pattern", "12", "--input", "-"]),
     "cannot read -: [Errno 9] Bad file descriptor"),
    (ClosedStdin(["oracle", "--pattern", "12", "--input", "-"]),
     "cannot read -: [Errno 9] Bad file descriptor"),
    (["detect", "--pattern", "12", "--values", "1,x", "--n", "2"],
     "bad --values: invalid literal for int() with base 10: 'x'"),
    # an empty argument is given, so it is read as given
    (["detect", "--pattern", "12", "--input", ""],
     "cannot read : [Errno 2] No such file or directory: ''"),
    (["oracle", "--pattern", "12", "--input", ""],
     "cannot read : [Errno 2] No such file or directory: ''"),
    (["gen", "--construction", "extend", "--input", ""],
     "cannot read : [Errno 2] No such file or directory: ''"),
    (["detect", "--pattern", "12", "--values", "", "--n", "2"],
     "bad --values: invalid literal for int() with base 10: ''"),
    (["oracle", "--pattern", "12", "--values", "", "--n", "2"],
     "bad --values: invalid literal for int() with base 10: ''"),
    (["detect", "--pattern", "12", "--values", "", "--input", ""],
     "give either --input or --values, not both"),
    (["fuzz", "--pattern", "12", "--exhaustive"], "--pattern fuzzing needs --n"),
    # a value is ASCII digits with an optional leading "-": int() alone takes more
    (["detect", "--pattern", "21", "--values", "1,2_0", "--n", "20", "--mode", "seq"],
     "bad --values: invalid literal for int() with base 10: '2_0'"),
    (["detect", "--pattern", "21", "--values", "+1,2", "--n", "20", "--mode", "seq"],
     "bad --values: invalid literal for int() with base 10: '+1'"),
    (["detect", "--pattern", "21", "--values", "1,\uff13", "--n", "20", "--mode", "seq"],
     "bad --values: invalid literal for int() with base 10: '\uff13'"),
    (["detect", "--pattern", "21", "--values", "1,-4", "--n", "20", "--mode", "seq"],
     "invalid stream: value -4 out of range [1, 20] at position 2"),
    # the int options take the same grammar, in argparse's words for a bad int
    (["detect", "--pattern", "21", "--values", "1,2", "--n", "x", "--mode", "seq"],
     "argument --n: invalid int value: 'x'"),
    (["detect", "--pattern", "21", "--values", "1,2", "--n", "2_0", "--mode", "seq"],
     "argument --n: invalid int value: '2_0'"),
    (["detect", "--pattern", "21", "--values", "1,2", "--n", "+5", "--mode", "seq"],
     "argument --n: invalid int value: '+5'"),
    (["detect", "--pattern", "21", "--values", "1,2", "--n", "\uff12", "--mode", "seq"],
     "argument --n: invalid int value: '\uff12'"),
    (["fuzz", "--pattern", "21", "--n", "3", "--trials", "1_0"],
     "argument --trials: invalid int value: '1_0'"),
    (["detect", "--pattern", "3a1", "--values", "1,2", "--n", "2"],
     "cannot parse pattern '3a1': use digits ('312') or commas ('3,1,2')"),
    (["detect", "--pattern", "1,x", "--values", "1,2", "--n", "2"],
     "cannot parse pattern '1,x': use digits ('312') or commas ('3,1,2')"),
    (["detect", "--pattern", ",1", "--values", "1,2", "--n", "2"],
     "cannot parse pattern ',1': use digits ('312') or commas ('3,1,2')"),
    (["detect", "--pattern", "²", "--values", "1,2", "--n", "2"],
     "cannot parse pattern '²': use digits ('312') or commas ('3,1,2')"),
    (["oracle", "--pattern", "21", "--values", "2,1", "--n", "3", "--mode", "seq",
      "--split", "1"],
     "--split needs a permutation stream (mode=perm)"),
    (["gen", "--construction", "seq312", "--nsets", "3", "--s", "1,x"],
     "bad --s: invalid literal for int() with base 10: 'x'"),
    (["gen", "--construction", "seq312", "--nsets", "0"], "n_sets must be at least 1, got 0"),
    (["gen", "--construction", "monotone-lb", "--k", "4", "--n", "6", "--rho", "1,7"],
     "rho exceeds the universe: 7 > 5"),
    (["gen", "--construction", "monotone-lb", "--k", "5", "--n", "8", "--rho", "1,3,5",
      "--sigma", "1,3,9"],
     "sigma exceeds the universe: 9 > 7"),
    # the codes reach the library in the order given
    (["gen", "--construction", "monotone-lb", "--k", "5", "--n", "12", "--rho", "1,7,5"],
     "rho must be strictly increasing"),
    (["gen", "--construction", "monotone-lb", "--k", "5", "--n", "12", "--rho", "1,5,5"],
     "rho must be strictly increasing"),
    # a callable is a library call, which raises ValueError
    (lambda: new_detector(parse_pattern("312"), 0), "universe size must be at least 1, got n=0"),
    (lambda: MonotoneDetector(0, 5), "pattern length must be at least 1, got 0"),
    (lambda: Detector312(5, k=0), "window width must be at least 1, got k=0"),
    (lambda: parse_stream_text("n=20 mode=seq\n1 \uff13\n"),
     "non-integer stream value: invalid literal for int() with base 10: '\uff13'"),
    (lambda: parse_stream_text("n=20 mode=seq\n+1\n"),
     "non-integer stream value: invalid literal for int() with base 10: '+1'"),
    (lambda: parse_stream_text("n=20 mode=seq\n1 2_0\n"),
     "non-integer stream value: invalid literal for int() with base 10: '2_0'"),
    (lambda: parse_stream_text("n=1_0 mode=seq\n1\n"),
     "malformed universe size in header 'n=1_0 mode=seq'"),
    # no blanks around the digits, and the comma-separated lists of gen and
    # bench take the same grammar as --values
    (["detect", "--pattern", "21", "--values", "1, 2", "--n", "2"],
     "bad --values: invalid literal for int() with base 10: ' 2'"),
    (["detect", "--pattern", "21", "--values", "1,2", "--n", " 2"],
     "argument --n: invalid int value: ' 2'"),
    (["gen", "--construction", "4312", "--nsets", "3", "--s", "1", "--t", "+2,3"],
     "bad --t: invalid literal for int() with base 10: '+2'"),
    (["gen", "--construction", "4312", "--nsets", "3", "--s", "1", "--t", "2,\uff13"],
     "bad --t: invalid literal for int() with base 10: '\uff13'"),
    (["gen", "--construction", "monotone-lb", "--k", "5", "--n", "12", "--rho", "1,5, 7"],
     "bad --rho: invalid literal for int() with base 10: ' 7'"),
    (["gen", "--construction", "monotone-lb", "--k", "5", "--n", "12", "--rho", "1,5,7",
      "--sigma", "1,3_0"],
     "bad --sigma: invalid literal for int() with base 10: '3_0'"),
    (["bench", "--pattern", "312", "--sizes", "64, 256"],
     "bad --sizes: invalid literal for int() with base 10: ' 256'"),
    # and so does each value of a pattern, in every subcommand that reads one
    (["detect", "--pattern", "\uff1312", "--values", "3,1,2", "--n", "3"],
     "cannot parse pattern '\uff1312': use digits ('312') or commas ('3,1,2')"),
    (["detect", "--pattern", "+3,1,2", "--values", "3,1,2", "--n", "3"],
     "cannot parse pattern '+3,1,2': use digits ('312') or commas ('3,1,2')"),
    (["detect", "--pattern", "3, 1, 2", "--values", "3,1,2", "--n", "3"],
     "cannot parse pattern '3, 1, 2': use digits ('312') or commas ('3,1,2')"),
    (["detect", "--pattern", "1_0,9,8,7,6,5,4,3,2,1", "--values", "3,1,2", "--n", "3"],
     "cannot parse pattern '1_0,9,8,7,6,5,4,3,2,1': use digits ('312') or commas ('3,1,2')"),
    (["oracle", "--pattern", "+2,1", "--values", "2,1", "--n", "2"],
     "cannot parse pattern '+2,1': use digits ('312') or commas ('3,1,2')"),
    (["fuzz", "--pattern", "2, 1", "--n", "3", "--exhaustive"],
     "cannot parse pattern '2, 1': use digits ('312') or commas ('3,1,2')"),
    (["bench", "--pattern", "\uff12\uff11", "--sizes", "64"],
     "cannot parse pattern '\uff12\uff11': use digits ('312') or commas ('3,1,2')"),
    (["gen", "--construction", "front4:+4,2,3,1", "--nsets", "3"],
     "cannot parse pattern '+4,2,3,1': use digits ('312') or commas ('3,1,2')"),
])
def test_each_input_check_gives_its_message(check, message, capsys):
    if callable(check):
        with pytest.raises(ValueError) as exc:
            check()
        assert str(exc.value) == message
    elif isinstance(check, ClosedStdin):
        proc = subprocess.run([*ENTRIES["module"], *check], capture_output=True, text=True,
                              preexec_fn=lambda: os.close(0), timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    elif message.startswith("argument "):  # argparse's check: the usage, then its error line
        with pytest.raises(SystemExit) as exc:
            run_cli(*check)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: permstream ")
        assert err.endswith(f"\npermstream {check[0]}: error: {message}\n")
    else:
        assert run_cli(*check) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


# -- detect on a large perm file: the back half in a helper process -------------

#: a permutation this long, written 20 values a line, is past cli.SPLIT_MIN_BYTES
SPLIT_N = 200_000


def _midpoint_inside_a_value(text: str) -> bytes:
    """``text`` behind a comment sized so that its byte midpoint splits a value."""
    for pad in range(12):
        data = ("#" + "x" * pad + "\n" + text).encode()
        if data[len(data) // 2 - 1 : len(data) // 2 + 1].isdigit():
            return data
    raise AssertionError("no padding puts the midpoint inside a value")


#: name: (pattern, what the helper does), where ``["start"]`` is a helper
#: started once the detector has accepted and killed before the junction, a
#: second entry says whether its half was taken there, and ``[]`` is a file
#: read in one process
SPLIT_CASES = {
    "valid": ("312", ["start", True]),
    "valid-231": ("231", ["start", True]),
    "valid-123": ("123", ["start", True]),
    "adversary": ("312", []),  # no accept: no helper
    "accepted-in-the-front": ("312", ["start", True]),  # many chunks in
    "accepted-in-the-back": ("312", []),
    "duplicate-in-the-back": ("312", ["start", False]),
    "front-value-in-the-back": ("312", ["start", False]),
    "out-of-range-in-the-back": ("312", ["start", False]),
    "missing-in-the-back": ("312", ["start", False]),
    "extra-value": ("312", ["start", False]),
    "non-integer-in-the-back": ("312", ["start", False]),
    "non-integer-in-the-front": ("312", ["start"]),
    "bad-utf8-in-the-back": ("312", ["start", False]),
    "bad-utf8-in-the-front": ("312", ["start"]),
    # the helper reads no value, then a bad token: its empty half must not be taken
    "every-value-in-the-front": ("312", ["start", False]),
    "accepted-past-the-middle": ("312", []),  # the reader has taken bytes past mid
    "comments-on-both-sides": ("312", ["start", True]),
    "crlf": ("312", ["start", True]),
    "one-line": ("312", []),
    "long-line-at-the-middle": ("312", []),  # no line start within 64 KiB past the midpoint
    "comments-before-the-header": ("312", []),
    "seq": ("312", []),
}


def _split_inputs() -> dict[str, bytes]:
    """The file of each of :data:`SPLIT_CASES`."""
    perm = list(random_perm(SPLIT_N, random.Random(23)))
    back = SPLIT_N * 3 // 4  # a position in the back half

    def text(values, eol="\n", header=f"n={SPLIT_N} mode=perm") -> str:
        return header + eol + eol.join(
            " ".join(map(str, values[i : i + 20])) for i in range(0, len(values), 20)) + eol

    def changed(at: int, value) -> list:
        values = perm[:]
        values[at] = value
        return values

    valid = text(perm)
    word = valid.index(" ", len(valid) * 3 // 4)  # a blank in the back half
    front = valid.index(" ", len(valid) // 4)
    late = list(range(1, SPLIT_N - 2)) + [SPLIT_N, SPLIT_N - 2, SPLIT_N - 1]
    at = SPLIT_N // 4
    early = list(range(1, SPLIT_N + 1))
    early[at : at + 3] = [at + 3, at + 1, at + 2]  # the first 312, after increasing values
    lines = valid.splitlines(keepends=True)
    third = len(lines) // 3
    texts = {
        "valid": valid,
        "valid-231": valid,
        "valid-123": valid,
        "adversary": text(Detector312(SPLIT_N).adversary()),
        "accepted-in-the-front": text(early),
        "accepted-in-the-back": text(late),
        "duplicate-in-the-back": text(changed(back + 10, perm[back])),
        "front-value-in-the-back": text(changed(back, perm[5])),
        "out-of-range-in-the-back": text(changed(back, SPLIT_N + 1)),
        "missing-in-the-back": text(perm[:back] + perm[back + 1 :]),
        "extra-value": text(perm + [perm[-7]]),
        "non-integer-in-the-back": valid[:word] + " x" + valid[word:],
        "non-integer-in-the-front": valid[:front] + " x" + valid[front:],
        "comments-on-both-sides":
            "".join(line + ("# c\n" if i % 50 == 0 else "") for i, line in enumerate(lines)),
        "crlf": text(perm, eol="\r\n"),
        "one-line": f"n={SPLIT_N} mode=perm\n{' '.join(map(str, perm))}\n",
        "long-line-at-the-middle": "".join(lines[:third])
            + " ".join(line.rstrip("\n") for line in lines[third : 2 * third])
            + "\n" + "".join(lines[2 * third :]),
        "comments-before-the-header": "# 123456789\n" * 140_000 + valid,
        "seq": text(perm[:-9], header=f"n={SPLIT_N} mode=seq"),
    }
    data = {name: _midpoint_inside_a_value(t) for name, t in texts.items()}
    for name, where in (("bad-utf8-in-the-back", 3 / 4), ("bad-utf8-in-the-front", 1 / 4)):
        at = data["valid"].index(b" ", int(len(data["valid"]) * where))
        data[name] = data["valid"][:at] + b" \xff" + data["valid"][at:]
    # all n values, then comments past the byte midpoint, then a bad token
    comments = "# c\n" * (len(valid) // 4 + 1)
    data["every-value-in-the-front"] = (valid + comments + "x\n").encode()
    # the first 312 is the last three values before mid
    rising = _midpoint_inside_a_value(text(range(1, SPLIT_N + 1)))
    mid = rising.index(b"\n", len(rising) // 2) + 1
    k = len(rising[:mid].split()) - 3  # the words before mid but the comment and header
    past = list(range(1, SPLIT_N + 1))
    past[k - 3 : k] = [k, k - 2, k - 1]
    data["accepted-past-the-middle"] = _midpoint_inside_a_value(text(past))
    assert len(data["accepted-past-the-middle"]) == len(rising)
    return data


@pytest.fixture(scope="module")
def split_files(tmp_path_factory) -> dict:
    folder = tmp_path_factory.mktemp("split")
    inputs = _split_inputs()
    assert sorted(inputs) == sorted(SPLIT_CASES)
    paths = {}
    for name, data in inputs.items():
        assert len(data) >= cli.SPLIT_MIN_BYTES, name
        paths[name] = folder / f"{name}.txt"
        paths[name].write_bytes(data)
    return paths


@pytest.mark.parametrize("name, check", [
    *((name, False) for name in sorted(SPLIT_CASES)),
    ("valid", True),  # --check keeps every value: one process
    ("seq", True),
])
@pytest.mark.filterwarnings("ignore:no sublinear sequence-mode detector")
def test_split_detect_matches_one_process(split_files, monkeypatch, capsys, name, check):
    # the same bytes through stdin are read by one process, as before the split
    pattern, helper = SPLIT_CASES[name]
    events, mids, reads = [], [], []
    start, take = backhalf.BackHalf.__init__, backhalf.BackHalf.take

    class CountedReads(cli._CountedReads):
        def __init__(self, raw):
            super().__init__(raw)
            reads.append(self)

    def spy_start(self, fd, mid, header):
        events.append("start")
        mids.append(mid)
        start(self, fd, mid, header)

    def spy_take(self, validator):
        taken = take(self, validator)
        events.append(taken)
        return taken

    monkeypatch.setattr(backhalf.BackHalf, "__init__", spy_start)
    monkeypatch.setattr(backhalf.BackHalf, "take", spy_take)
    monkeypatch.setattr(cli, "_CountedReads", CountedReads)
    argv = ["detect", "--pattern", pattern, *(["--check"] if check else [])]
    code = run_cli(*argv, "--input", str(split_files[name]))
    split = (code, *capsys.readouterr())
    if events[-1:] == [True]:  # the parent read no byte of the helper's half
        assert reads[0].count == mids[0]
    data = split_files[name].read_bytes()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code = run_cli(*argv, "--input", "-")
    assert split == (code, *capsys.readouterr())
    assert events == (helper if backhalf.may_fork_helper() and not check else [])


@pytest.mark.parametrize("name", ["non-integer-in-the-front", "non-integer-in-the-back", "valid"])
def test_the_helper_is_always_reaped(split_files, tmp_path, name):
    # stdout and stderr go to files, so a helper left running cannot hold a pipe
    # open: the group must be empty as soon as detect has exited
    argv = [sys.executable, "-m", "permstream.cli", "detect", "--pattern", "312", "--input"]
    with open(tmp_path / "out", "w+b") as out, open(tmp_path / "err", "w+b") as err:
        proc = subprocess.Popen([*argv, str(split_files[name])], stdout=out, stderr=err,
                                start_new_session=True)
        assert proc.wait(timeout=120) == (0 if name == "valid" else 2)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        out.seek(0)
        err.seek(0)
        split = (proc.returncode, out.read(), err.read())
    with open(split_files[name], "rb") as stdin:
        ref = subprocess.run([*argv, "-"], stdin=stdin, capture_output=True, timeout=120)
    assert split == (ref.returncode, ref.stdout, ref.stderr)


@pytest.mark.parametrize("name", ["valid", "non-integer-in-the-back"])
def test_a_helper_the_kernel_reaps_changes_nothing(split_files, name):
    # with SIGCHLD ignored, as a launcher may leave it, the kernel reaps the
    # helper itself and waitpid finds no child
    argv = [sys.executable, "-m", "permstream.cli", "detect", "--pattern", "312", "--input"]
    split = subprocess.run(
        [*argv, str(split_files[name])], capture_output=True, timeout=120,
        preexec_fn=lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN))
    with open(split_files[name], "rb") as stdin:
        ref = subprocess.run([*argv, "-"], stdin=stdin, capture_output=True, timeout=120)
    assert (split.returncode, split.stdout, split.stderr) == (ref.returncode, ref.stdout, ref.stderr)
    assert split.returncode == (0 if name == "valid" else 2)


def test_a_size_past_the_bytes_read_is_read_by_one_process(split_files, monkeypatch, capsys):
    # as when the file was truncated after its size was taken: the read at
    # the byte midpoint finds no newline, so no helper is forked
    def fstat(fd):
        st = os.fstat(fd)
        return os.stat_result((*st[:6], 2 * st.st_size, *st[7:]))

    starts = []
    monkeypatch.setattr(backhalf, "os", types.SimpleNamespace(**{**vars(os), "fstat": fstat}))
    monkeypatch.setattr(backhalf, "BackHalf", lambda *args: starts.append(args))
    data = split_files["valid"].read_bytes()
    code = run_cli("detect", "--pattern", "312", "--input", str(split_files["valid"]))
    split = (code, *capsys.readouterr())
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert split == (run_cli("detect", "--pattern", "312", "--input", "-"), *capsys.readouterr())
    assert split[0] == 0 and starts == []


# -- bench ---------------------------------------------------------------------


def test_bench_reports_bounds(capsys):
    code = run_cli("bench", "--pattern", "312", "--sizes", "64,256", "--json")
    assert code == 0
    rep = json_out(capsys)
    assert sorted(rep) == ["command", "pattern", "rows", "schema", "wall_time_s"]
    assert [row["n"] for row in rep["rows"]] == [64, 256]
    for row in rep["rows"]:
        assert row["bound"] == "sqrt(n*log2(n))"
        assert row["adversarial_peak_cells"] is not None
        assert row["adversarial_ratio"] < 4


def test_bench_monotone_bound_is_k(capsys):
    assert run_cli("bench", "--pattern", "123", "--sizes", "100", "--json") == 0
    row = json_out(capsys)["rows"][0]
    assert row["bound"] == "k" and row["bound_value"] == 3.0


@pytest.mark.parametrize("pattern, row", [
    ("231", "      64                8.0        50     6.25"),
    ("4231", "      64               64.0         -        -"),  # the baseline has no adversary
], ids=["adversary", "no-adversary"])
def test_bench_table_shows_the_adversary_or_a_dash(pattern, row, capsys):
    assert run_cli("bench", "--pattern", pattern, "--sizes", "64") == 0
    assert capsys.readouterr().out.splitlines() == [
        f"bench pattern {pattern}",
        "       n              bound  adv peak    ratio",
        row,
    ]


def test_bench_usage_errors():
    assert run_cli("bench", "--pattern", "312", "--sizes", "2") == 2  # pattern > n
    assert run_cli("bench", "--pattern", "312", "--sizes", "abc") == 2
    assert run_cli("bench", "--pattern", "312", "--sizes", "0") == 2


# -- --json stability -------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["detect", "--pattern", "231", "--values", "2,5,1,4,3", "--n", "5", "--check"],
    ["oracle", "--pattern", "312", "--values", "3,1,2,4", "--n", "4", "--count", "--split", "2"],
    ["gen", "--construction", "4312", "--nsets", "8", "--random-sets", "--seed", "5"],
    ["fuzz", "--pattern", "213", "--n", "16", "--trials", "64", "--seed", "1", "--jobs", "1"],
    ["bench", "--pattern", "231", "--sizes", "4096,16384"],
], ids=lambda argv: argv[0])
def test_json_differs_between_runs_only_in_the_wall_time(argv, capsys):
    outs = []
    for _ in range(2):
        assert run_cli(*argv, "--json") == 0
        out = capsys.readouterr().out
        assert out.count('"wall_time_s": ') == 1
        outs.append(re.sub(r'"wall_time_s": [-+.0-9e]+', "", out))
    assert outs[0] == outs[1]


# -- entry point ------------------------------------------------------------------


def console_script() -> list[str]:
    """The command an installed ``permstream`` script runs: the function that
    ``[project.scripts]`` names, called the way pip's wrapper calls it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        module, func = re.search(r'^permstream = "([\w.]+):(\w+)"$', fh.read(), re.M).groups()
    return [sys.executable, "-c", f"import sys\nfrom {module} import {func}\nsys.exit({func}())"]


ENTRIES = {"module": [sys.executable, "-m", "permstream.cli"], "script": console_script()}


def test_console_script_runs():
    proc = subprocess.run(
        [*ENTRIES["script"], "detect", "--pattern", "21", "--values", "2,1", "--n", "2", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True


@pytest.mark.parametrize("argv, code", [
    pytest.param(["detect", "--pattern", "21", "--values", "2,1", "--n", "2", "--json"], 0,
                 id="detect"),
    pytest.param(["detect", "--pattern", "312", "--values", "3,1,2", "--n", "3", "--mode", "seq"],
                 0, id="detect-warning"),
    pytest.param(["detect", "--pattern", "312", "--input", "file:valid", "--json"], 0,
                 id="split"),
    pytest.param(["detect", "--pattern", "312", "--input", "file:duplicate-in-the-back"], 2,
                 id="split-duplicate"),
    pytest.param(["detect", "--pattern", "312", "--input", "file:bad-utf8-in-the-back"], 2,
                 id="split-bad-utf8"),
    pytest.param(["detect", "--pattern", "312"], 2, id="no-stream"),
    pytest.param(["detect", "--pattern", "312", "--n", "x"], 2, id="argparse-error"),
    pytest.param(["fuzz", "--pattern", "21", "--n", "4", "--exhaustive", "--jobs", "2", "--json"],
                 0, id="fuzz-jobs-2"),
    pytest.param(["gen", "--construction", "bogus", "--nsets", "2"], 2, id="gen-error"),
])
def test_both_entries_give_the_same_output(split_files, argv, code):
    argv = [str(split_files[a[5:]]) if a.startswith("file:") else a for a in argv]
    runs = []
    for entry in sorted(ENTRIES):
        proc = subprocess.run([*ENTRIES[entry], *argv], capture_output=True, timeout=120)
        runs.append((proc.returncode,
                     re.sub(rb'"wall_time_s": [0-9.e-]+', b"", proc.stdout), proc.stderr))
    assert runs[0][0] == code
    assert runs[0] == runs[1]


#: the one line a dispatch warning prints, whatever the code around it
SEQ_WARNING = ("permstream:0: UserWarning: no sublinear sequence-mode detector for 312; "
               "falling back to the full-storage baseline\n")


@pytest.mark.parametrize("flags, stderr", [
    pytest.param([], SEQ_WARNING, id="shown"),
    # the category, the message and the module still select it
    pytest.param(["-W", "ignore"], "", id="ignore"),
    pytest.param(["-W", "ignore::UserWarning"], "", id="ignore-category"),
    pytest.param(["-W", "ignore:no sublinear"], "", id="ignore-message"),
    pytest.param(["-W", "ignore:::permstream"], "", id="ignore-module"),
    pytest.param(["-W", "ignore::DeprecationWarning"], SEQ_WARNING, id="ignore-other"),
])
def test_detect_warning_is_one_line_at_a_fixed_place(flags, stderr):
    argv = ["detect", "--pattern", "312", "--values", "3,1,2", "--n", "3", "--mode", "seq"]
    proc = subprocess.run([sys.executable, *flags, "-m", "permstream.cli", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, stderr)
    assert proc.stdout.startswith("pattern 312 in stream of 3 values (n=3, mode=seq): CONTAINED\n")


def test_a_long_pattern_is_named_by_its_first_values_and_its_length():
    # a pattern spelled in more than 60 characters: the whole spelling of
    # 2 1 3 ... 1500 would make each message about 7 KB
    pattern = ",".join(map(str, [2, 1, *range(3, 1501)]))
    named = "2,1,3,4,5,6,7,8,9,10,\u2026 (1500 values)"
    argv = ["detect", "--pattern", pattern, "--values", "2,1", "--n", "1500", "--mode", "seq"]
    runs = [subprocess.run([sys.executable, "-m", "permstream.cli", *argv, *flags],
                           capture_output=True) for flags in ([], ["--detector", "monotone"])]
    assert [(proc.returncode, proc.stderr.decode()) for proc in runs] == [
        (0, f"permstream:0: UserWarning: pattern {named} needs linear space (no sublinear "
            "one-pass detector exists for it); using the full-storage baseline\n"),
        (2, f"error: --detector monotone cannot serve the pattern {named}\n"),
    ]
    for proc in runs:
        assert proc.stderr.count(b"\n") == 1 and len(proc.stderr) < 200


def test_gen_extend_warning_is_one_line_at_a_fixed_place(tmp_path):
    src = tmp_path / "seq.txt"
    src.write_text("n=5 mode=seq\n3 1 5\n")
    argv = ["gen", "--construction", "extend", "--input", str(src)]
    proc = subprocess.run([sys.executable, "-m", "permstream.cli", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, (
        "permstream:0: UserWarning: extending a sequence-mode stream: the transform is "
        "defined, but the containment equivalence is stated for permutations\n"
    ))
    assert parse_stream_text(proc.stdout).elements == (6, 2, 10, 1, 3, 5, 7, 9)


def test_detect_check_on_a_pattern_of_1200_values(capsys):
    # the oracle's search runs one slot deeper per pattern value, with no recursion
    pattern, values = (",".join(map(str, range(1, end))) for end in (1201, 1501))
    assert run_cli("detect", "--pattern", pattern, "--values", values, "--n", "1500", "--check") == 0
    assert capsys.readouterr().out.endswith("oracle cross-check: agree\n")


@pytest.mark.parametrize("command", ["detect", "gen"])
def test_a_warning_made_an_error_exits_2_with_its_message(tmp_path, capsys, command):
    # as under -W error: the warning ends the command on one line, not a traceback
    src = tmp_path / "seq.txt"
    src.write_text("n=5 mode=seq\n3 1 5\n")
    argv, message = {
        "detect": (["detect", "--pattern", "312", "--input", str(src)], SEQ_WARNING),
        "gen": (["gen", "--construction", "extend", "--input", str(src)], (
            "permstream:0: UserWarning: extending a sequence-mode stream: the transform is "
            "defined, but the containment equivalence is stated for permutations\n")),
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == 2
    assert capsys.readouterr() == ("", "error: " + message.split(": ", 2)[2])


def test_module_entry_runs_the_lab_subcommands():
    # Under -m, cli runs as __main__ and tools imports it by name: a second
    # copy of cli would raise a UsageError that main does not catch.
    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "permstream.cli", *argv], capture_output=True, text=True
        )

    proc = run("gen", "--construction", "bogus", "--nsets", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: unknown construction 'bogus' (expected seq312, front4:<pattern>, "
        "4312, 3142, 2143, monotone-lb, or extend)\n"
    )
    proc = run("fuzz", "--pattern", "21", "--n", "4", "--exhaustive", "--jobs", "2")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "fuzz pattern 21: 24 trials, no disagreements\n"


def test_missing_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "permstream.cli"], capture_output=True, text=True
    )
    assert proc.returncode == 2


def test_parser_builds_help_for_all_subcommands():
    parser = build_parser()
    for sub in ("detect", "oracle", "gen", "fuzz", "bench"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([sub, "--help"])
        assert exc.value.code == 0
