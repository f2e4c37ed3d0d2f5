from __future__ import annotations

import json
import subprocess
import sys

import pytest

from permstream import parse_pattern, read_stream_file
from permstream import cli
from permstream.cli import _write_replay, build_parser, main


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
    inst = read_stream_file(str(out))
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


def test_gen_random_sets_reproducible(capsys):
    args = ["gen", "--construction", "4312", "--nsets", "8", "--random-sets",
            "--seed", "5", "--json"]
    assert run_cli(*args) == 0
    first = json_out(capsys)
    assert run_cli(*args) == 0
    assert json_out(capsys)["stream"] == first["stream"]


def test_gen_monotone_lb_writes_pair(tmp_path):
    prefix = tmp_path / "mlb"
    assert run_cli(
        "gen", "--construction", "monotone-lb", "--k", "6", "--n", "20",
        "--rho", "1,5,7,13", "--sigma", "1,5,9,11", "--out", str(prefix),
    ) == 0
    acc = read_stream_file(f"{prefix}-accept.txt")
    rej = read_stream_file(f"{prefix}-reject.txt")
    assert acc.elements[:5] == (19, 17, 15, 11, 9)
    assert rej.elements[:5] == (19, 17, 15, 13, 7)


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
    ["bench", "--pattern", "12", "--sizes", "4"],
    ["fuzz", "--pattern", "12", "--n", "4"],
    ["fuzz", "--construction", "4312", "--nsets", "2"],
])
def test_negative_trials_are_rejected(argv, capsys):
    assert run_cli(*argv, "--trials", "-1") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --trials must be at least 0, got -1\n"
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
    pools = []

    class Pool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    argv = ["fuzz", "--pattern", "132", "--n", "6", "--exhaustive", "--json"]
    assert run_cli(*argv, "--jobs", "1") == 0
    serial = json_out(capsys)
    assert run_cli(*argv, "--jobs", "2") == 0
    assert canonical(json_out(capsys)) == canonical(serial)
    assert serial["trials"] == 720 and serial["disagreement"] is None
    assert pools == [2]


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
    inst = read_stream_file(path)
    assert inst.elements == (3, 1, 2)
    text = open(path).read()
    assert "seed=9" in text and "trial=7" in text
    assert "permstream detect" in text  # reproduce command present


# -- bench ---------------------------------------------------------------------


def test_bench_reports_bounds(capsys):
    code = run_cli("bench", "--pattern", "312", "--sizes", "64,256",
                   "--trials", "4", "--seed", "2", "--json")
    assert code == 0
    rep = json_out(capsys)
    assert [row["n"] for row in rep["rows"]] == [64, 256]
    for row in rep["rows"]:
        assert row["bound"] == "sqrt(n*log2(n))"
        assert row["adversarial_peak_cells"] is not None
        assert row["adversarial_ratio"] < 4
        assert row["random_peak_cells"] >= 2


def test_bench_monotone_bound_is_k(capsys):
    assert run_cli("bench", "--pattern", "123", "--sizes", "100", "--trials", "3",
                   "--json") == 0
    row = json_out(capsys)["rows"][0]
    assert row["bound"] == "k" and row["bound_value"] == 3.0


def test_bench_usage_errors():
    assert run_cli("bench", "--pattern", "312", "--sizes", "2") == 2  # pattern > n
    assert run_cli("bench", "--pattern", "312", "--sizes", "abc") == 2
    assert run_cli("bench", "--pattern", "312", "--sizes", "0") == 2


# -- entry point ------------------------------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "permstream.cli", "detect", "--pattern", "21",
         "--values", "2,1", "--n", "2", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True


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
