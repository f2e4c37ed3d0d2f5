"""The permstream benchmark: one command, three workloads, every verdict checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload full-pass --seed 1 --seconds 30 --trace 0

Workloads (``perfbench/layers.json`` says what each loads and bypasses):

* ``full-pass``     -- streams at n = 2*10^4 that ``permstream detect`` reads to
  the end: each dispatched sublinear path gets its worst-case adversary and a
  late near miss.  The push loops do most of the work.
* ``early-accept``  -- uniform random permutations at n = 10^6 that every
  detector accepts within about a thousand values, so reading, parsing and
  validating the file dominate.
* ``check``         -- many small detector-vs-oracle checks in one process:
  hardgen disjointness instances (half of them disjoint) and 3-pattern
  avoiders and near misses at n = 64.

With ``--trace 0`` the run measures the end-to-end metrics with no tracing:
``detect_s``, ``values_per_s``, ``checks_per_s``, ``peak_rss_mb`` and
``setup_s``, plus ``error_rate`` with its counts.  Every timed interval is
scaled to a nominal host speed by reference tasks timed around it (see
``calib.py``); the uncalibrated times and the median factor are printed too.
With ``--trace 1`` it makes the same untraced run and then one traced run in
a child process, and reports the per-layer metrics instead.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` of the checkout and run as
``python3 -m permstream.cli``; the benchmark refuses to run without it.
Inputs (the last few seeds per workload), fingerprints and spans go to
``.perfbench_cache/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")
sys.path.insert(0, HERE)

import gen  # noqa: E402
from calib import Calibration, Helper  # noqa: E402

WORKLOADS = ("full-pass", "early-accept", "check")
#: the whole run, set-up included, must end well inside 180 s
RUN_BUDGET_S = 165.0
#: set-up samples per run, spread evenly over the measured time; the check
#: workload takes them in equal groups before each of its child processes
SETUP_SAMPLES = 8
CHECK_CHILDREN = 4
#: reference runs timed between two child processes: interpreter tasks
#: (about 4 ms each) and bulk tasks (about 9 ms each)
CALIBRATION_REPS = 8
CALIBRATION_BULK_REPS = 4

SETUP_CODE = """\
import json, sys
from permstream import StreamMode, new_detector, parse_pattern
for pattern, n, mode in json.loads(sys.argv[1]):
    new_detector(parse_pattern(pattern), n, StreamMode(mode))
"""

END_TO_END_UNITS = {
    "detect_s": "s",
    "values_per_s": "values/s",
    "checks_per_s": "checks/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SUBLINEAR = ("monotone", "window312", "strips231")
PER_LAYER_UNITS = {
    "core.read_s": "s",
    "core.bytes_read": "bytes",
    "core.parse_s": "s",
    "core.values_parsed": "count",
    "core.validate_s": "s",
    "core.heap_peak_mb": "MB",
    "read.useful_ratio": "ratio",
    "dispatch.new_detector_s": "s",
    "dispatch.calls": "count",
    **{
        f"{layer}.{name}": unit
        for layer in SUBLINEAR
        for name, unit in (
            ("push_us", "us"), ("push_us_p50", "us"), ("push_us_p999", "us"),
            ("pushes", "count"), ("finish_s", "s"), ("peak_cells", "count"),
            ("peak_bits", "bits"), ("heap_peak_kb", "KB"),
        )
    },
    "adapter.push_overhead_us": "us",
    "baseline.finish_s": "s",
    "baseline.calls": "count",
    "oracle.contains_s": "s",
    "oracle.calls": "count",
    "hardgen.gen_s": "s",
    "mem.heap_bytes_per_metered_bit": "ratio",
    "cli.residual_s": "s",
    "trace.overhead_pct": "%",
}


class Run:
    """Child processes, failure accounting and set-up samples of one benchmark run."""

    def __init__(self, detectors: list) -> None:
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.setup_argv = [sys.executable, "-W", "ignore", "-c", SETUP_CODE, json.dumps(detectors)]
        self.setup_walls: list[float] = []
        self.raw_setup_walls: list[float] = []
        self.helper = Helper(CALIBRATION_REPS, CALIBRATION_BULK_REPS)
        self.calibration = Calibration(self.helper.slowness)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def spawn(self, argv: list[str]) -> tuple[float, float, int, str, float]:
        """Run one child; return (wall s from spawn to exit, calibration factor,
        exit code, output, peak RSS MB).

        The peak RSS comes from ``os.wait4``.  Linux folds the spawning
        process's RSS into the child's at exec, so this process keeps large
        data (generation, witness checks) out of itself while it measures.
        The child is killed if it outlives the run's time budget.  The
        reference tasks are timed as soon as it has ended.
        """
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        factor = self.calibration.factor()
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = out.decode("utf-8", errors="replace")
        if proc.returncode != 0 or "Traceback" in text:
            self.fail(f"{' '.join(argv[1:])[:200]}: exit {proc.returncode}: {text.strip()[-300:]}")
        return wall, factor, proc.returncode, text, usage.ru_maxrss / 1024

    def setup_sample(self) -> None:
        """One set-up sample: spawn, import permstream, build the detectors, exit."""
        wall, factor = self.spawn(self.setup_argv)[:2]
        self.raw_setup_walls.append(wall)
        self.setup_walls.append(wall * factor)

    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline - 10


def last_json(text: str) -> dict | None:
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# stream workloads: `permstream detect` once per stream, one at a time
# ---------------------------------------------------------------------------


def occurrence_failure(stream: dict, occurrence: dict | None, path: str) -> str | None:
    """Check a reported witness, including a future value, with ``occurrence_is_valid``."""
    if occurrence is None:
        return None
    # imported late: main() checks first that the program's source is there
    from permstream import Occurrence, StreamInstance, StreamMode, occurrence_is_valid, parse_pattern

    values = gen.read_values(path)
    positions = tuple(None if p == "future" else p for p in occurrence["positions"])
    try:
        occ = Occurrence(positions=positions, values=tuple(occurrence["values"]))
    except ValueError as exc:
        return f"malformed occurrence {occurrence}: {exc}"
    inst = StreamInstance(n=len(values), mode=StreamMode.PERMUTATION, elements=tuple(values))
    if not occurrence_is_valid(inst, parse_pattern(stream["pattern"]), occ):
        return f"invalid occurrence {occurrence}"
    return None


CLI_FINGERPRINT = ("detector", "verdict", "accepted_after", "occurrence",
                   "peak_cells", "peak_bits", "structure_peaks")


def detect_once(run: Run, directory: str, stream: dict) -> tuple[float, float, float, dict]:
    """One ``permstream detect``: (wall s, calibration factor, peak RSS MB, fingerprint)."""
    argv = [sys.executable, "-m", "permstream.cli", "detect", "--pattern", stream["pattern"],
            "--input", os.path.join(directory, stream["file"]), "--json"]
    wall, factor, code, text, rss = run.spawn(argv)
    report = last_json(text) if code == 0 else None
    if code == 0 and report is None:
        run.fail(f"{stream['name']}: unparsable --json output")
    if report is None:
        return wall, factor, rss, {}
    if report.get("verdict") != stream["expected"]:
        run.fail(f"{stream['name']}: verdict {report.get('verdict')}, expected {stream['expected']}")
    return wall, factor, rss, {key: report.get(key) for key in CLI_FINGERPRINT}


def run_streams(run: Run, directory: str, manifest: dict, seconds: float) -> tuple[dict, dict, dict]:
    """Passes over every stream until ``seconds`` is spent; set-up samples in between.

    ``detect_s`` sums each stream's median calibrated wall time over the
    passes, so a slow spell of the machine during one pass moves it little.
    """
    streams = manifest["streams"]
    walls: dict[str, list[float]] = {s["name"]: [] for s in streams}
    raw_walls: dict[str, list[float]] = {s["name"]: [] for s in streams}
    peak_rss = 0.0
    prints: dict | None = None
    passes = 0
    start = time.perf_counter()
    next_setup = start
    while True:
        pass_start = time.perf_counter()
        this: dict = {}
        for stream in streams:
            if time.perf_counter() >= next_setup:
                run.setup_sample()
                next_setup += seconds / SETUP_SAMPLES
            wall, factor, rss, this[stream["name"]] = detect_once(run, directory, stream)
            walls[stream["name"]].append(wall * factor)
            raw_walls[stream["name"]].append(wall)
            peak_rss = max(peak_rss, rss)
        passes += 1
        if prints is None:
            prints = this
        elif this != prints:
            run.fail("fingerprints changed between passes of one run")
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds or run.out_of_time():
            break
    for stream in streams:
        found = prints[stream["name"]]
        failure = found and occurrence_failure(stream, found["occurrence"],
                                               os.path.join(directory, stream["file"]))
        if failure:
            run.fail(f"{stream['name']}: {failure}")
    values = sum(s["values"] for s in streams)
    detect_s = sum(statistics.median(w) for w in walls.values())
    metrics = {
        "detect_s": detect_s,
        "values_per_s": values / detect_s,
        "checks_per_s": len(streams) / detect_s,
        "peak_rss_mb": peak_rss,
    }
    pass_sums = [round(sum(w[i] for w in walls.values()), 3) for i in range(passes)]
    info = {"passes": passes, "items": len(streams), "values": values, "pass_detect_s": pass_sums,
            "raw_detect_s": sum(statistics.median(w) for w in raw_walls.values())}
    return metrics, info, prints


# ---------------------------------------------------------------------------
# the check workload: child processes running checks pass after pass
# ---------------------------------------------------------------------------


def run_checks(run: Run, directory: str, seconds: float) -> tuple[dict, dict, dict]:
    """CHECK_CHILDREN children in turn, each checking for its share of the time left."""
    passes: list[dict] = []
    factors: list[float] = []
    peak_rss = 0.0
    prints = None
    end = time.perf_counter() + seconds
    for left in range(CHECK_CHILDREN, 0, -1):
        if run.out_of_time():
            break
        for _ in range(SETUP_SAMPLES // CHECK_CHILDREN):
            run.setup_sample()
        share = max(0.0, end - time.perf_counter()) / left
        argv = [sys.executable, os.path.join(HERE, "probe.py"), "check", directory, f"{share:.3f}"]
        _, _, code, text, rss = run.spawn(argv)
        out = last_json(text) if code == 0 else None
        if out is None:
            run.fail("check child produced no result")
            continue
        peak_rss = max(peak_rss, rss)
        passes += out["passes"]
        factors.append(out["factor"])
        run.attempted += sum(p["checks"] for p in out["passes"]) - 1  # the child counted as one
        for failure in out["failures"]:
            run.fail(failure)
        if prints is None:
            prints = out["fingerprints"]
        elif out["fingerprints"] != prints:
            run.fail("fingerprints changed between passes of one run")
    if not passes:
        return {}, {}, {}
    metrics = {
        "detect_s": statistics.median(p["detect_s"] for p in passes),
        "values_per_s": statistics.median(p["values"] / p["detect_s"] for p in passes),
        "checks_per_s": statistics.median(p["checks"] / p["wall_s"] for p in passes),
        "peak_rss_mb": peak_rss,
    }
    info = {"passes": len(passes), "items": passes[0]["checks"], "values": passes[0]["values"],
            "raw_detect_s": statistics.median(p["raw_detect_s"] for p in passes),
            "factor": statistics.median(factors)}
    return metrics, info, prints


# ---------------------------------------------------------------------------
# exact-count fingerprints, compared with every earlier run of the same inputs
# ---------------------------------------------------------------------------


def compare_fingerprints(run: Run, workload: str, seed: int, prints: dict) -> str:
    """Merge this run's counts into the stored ones; any changed count is a failure.

    They are kept apart from the inputs, which the cache may evict.
    """
    os.makedirs(os.path.join(CACHE, "fingerprints"), exist_ok=True)
    path = os.path.join(CACHE, "fingerprints", f"{workload}-s{seed}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        stored = {}
    differ = []
    for name, counts in prints.items():
        old = stored.setdefault(name, {})
        for key, value in counts.items():
            if key in old and old[key] != value:
                differ.append(f"{name}.{key}: {old[key]} -> {value}")
            old[key] = value
    for line in differ:
        run.fail(f"fingerprint differs from an earlier run: {line}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
    digest = hashlib.sha256(json.dumps(stored, sort_keys=True).encode()).hexdigest()[:16]
    return f"{digest} ({len(stored)} items, {len(differ)} changed)"


# ---------------------------------------------------------------------------
# the traced run and the per-layer metrics
# ---------------------------------------------------------------------------


def _percentile(hist: dict[int, int], q: float) -> float:
    """The q-quantile of a push-duration histogram, in us (bucket floor)."""
    total = sum(hist.values())
    rank = q * total
    seen = 0
    for key in sorted(hist):
        seen += hist[key]
        if seen >= rank:
            return key / 1000
    return 0.0


def _twin(name: str) -> str:
    """The native stream a mirrored stream complements: 132-x -> 312-x."""
    native = {m: p for p, m in gen.MIRROR.items()}
    pattern, _, rest = name.partition("-")
    return f"{native[pattern]}-{rest}"


def layer_metrics(spans: list[dict], heap: dict, detect_s: float, overhead: float) -> dict:
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        dur[span["name"]] = dur.get(span["name"], 0.0) + (span["end_ns"] - span["start_ns"]) / 1e9
        calls[span["name"]] = calls.get(span["name"], 0) + 1
    loops = [s for s in spans if s["name"].endswith(".push_loop")]
    finishes = {s["trace"]: s for s in spans if s["name"].endswith(".finish")}
    parsed = sum(s.get("values_parsed", 0) for s in spans)
    offered = sum(s.get("values_offered", 0) for s in spans)
    pushes = sum(s["pushes"] for s in loops)
    m = {
        "core.read_s": dur.get("core.read", 0.0),
        "core.bytes_read": sum(s.get("bytes_read", 0) for s in spans),
        "core.parse_s": dur.get("core.parse", 0.0),
        "core.values_parsed": parsed,
        "core.validate_s": dur.get("core.validate", 0.0),
        "core.heap_peak_mb": max((h["core_heap_peak"] for h in heap.values()), default=0) / 2**20,
        "read.useful_ratio": pushes / (parsed or offered),
        "dispatch.new_detector_s": dur.get("dispatch.new_detector", 0.0),
        "dispatch.calls": calls.get("dispatch.new_detector", 0),
    }
    heap_bytes = metered_bytes = 0.0
    for layer in SUBLINEAR:
        mine = [s for s in loops if s["name"] == f"{layer}.push_loop"]
        hist: dict[int, int] = {}
        for s in mine:
            for key, count in s["hist"].items():
                hist[int(key)] = hist.get(int(key), 0) + count
        n_push = sum(s["pushes"] for s in mine)
        loop_s = sum((s["end_ns"] - s["start_ns"]) / 1e9 for s in mine)
        bits = [finishes[s["trace"]]["peak_bits"] for s in mine]
        heaps = [heap[s["trace"]]["push_heap_peak"] for s in mine if s["trace"] in heap]
        heap_bytes += sum(heaps)
        metered_bytes += sum(bits) / 8 if heaps else 0
        m.update({
            f"{layer}.push_us": loop_s / n_push * 1e6 if n_push else 0.0,
            f"{layer}.push_us_p50": _percentile(hist, 0.5),
            f"{layer}.push_us_p999": _percentile(hist, 0.999),
            f"{layer}.pushes": n_push,
            f"{layer}.finish_s": dur.get(f"{layer}.finish", 0.0),
            f"{layer}.peak_cells": max((finishes[s["trace"]]["peak_cells"] for s in mine), default=0),
            f"{layer}.peak_bits": max(bits, default=0),
            f"{layer}.heap_peak_kb": max(heaps, default=0) / 1024,
        })
    per_push = {s["trace"]: (s["end_ns"] - s["start_ns"]) / 1e3 / s["pushes"] for s in loops if s["pushes"]}
    gaps = [per_push[s["trace"]] - per_push[_twin(s["trace"])] for s in loops
            if s["name"].startswith("adapter:") and s["pushes"] and _twin(s["trace"]) in per_push]
    layer_sum = sum(v for k, v in dur.items()
                    if k.startswith(("core.", "dispatch.")) or k.endswith((".push_loop", ".finish")))
    m.update({
        "adapter.push_overhead_us": statistics.mean(gaps) if gaps else 0.0,
        "baseline.finish_s": dur.get("baseline.finish", 0.0),
        "baseline.calls": calls.get("baseline.finish", 0),
        "oracle.contains_s": dur.get("oracle.contains", 0.0),
        "oracle.calls": calls.get("oracle.contains", 0),
        "hardgen.gen_s": dur.get("hardgen.gen", 0.0),
        "mem.heap_bytes_per_metered_bit": heap_bytes / metered_bytes if metered_bytes else 0.0,
        "cli.residual_s": detect_s - layer_sum,
        "trace.overhead_pct": overhead,
    })
    return m


def run_traced(run: Run, workload: str, directory: str, detect_s: float):
    spans_path = os.path.join(directory, "spans.json")
    command = "check" if workload == "check" else "layers"
    argv = [sys.executable, os.path.join(HERE, "probe.py"), command, directory]
    if workload == "check":
        argv.append("0")
    _, _, code, text, _ = run.spawn(argv + ["--trace", spans_path])
    out = last_json(text) if code == 0 else None
    if out is None:
        run.fail("traced child produced no result")
        return {name: 0.0 for name in PER_LAYER_UNITS}, {}
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    streams = out.get("streams", {})
    prints = {name: {"pushes": r["pushes"]} for name, r in streams.items()}
    heap = {name: r for name, r in streams.items() if "push_heap_peak" in r}
    overhead = (out["traced_s"] / out["plain_s"] - 1) * 100
    return layer_metrics(spans, heap, detect_s, overhead), prints


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "permstream", "cli.py")):
        print(f"error: the program's source is missing ({SRC}/permstream)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # Generation runs in its own process: see Run.spawn on peak RSS.
    gen_start = time.perf_counter()
    made = subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), args.workload,
                           str(args.seed), CACHE], capture_output=True, text=True)
    if made.returncode != 0:
        print(f"error: input generation failed:\n{made.stderr}", file=sys.stderr)
        return 2
    gen_s = time.perf_counter() - gen_start
    directory = made.stdout.strip().splitlines()[-1]
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)

    run = Run(manifest["detectors"])
    try:
        return measure(args, run, directory, manifest, gen_s)
    finally:
        run.helper.close()


def measure(args: argparse.Namespace, run: Run, directory: str, manifest: dict, gen_s: float) -> int:
    """The measured part of a run, its checks and its report."""
    run.spawn(run.setup_argv)  # warm-up: compiles bytecode on a fresh checkout
    if args.workload == "check":
        metrics, info, prints = run_checks(run, directory, args.seconds)
    else:
        metrics, info, prints = run_streams(run, directory, manifest, args.seconds)
    if not metrics:
        print("error: no check completed:\n" + "\n".join(run.failures[:5]), file=sys.stderr)
        return 1
    metrics["setup_s"] = statistics.median(run.setup_walls)
    if args.trace:
        layers, trace_prints = run_traced(run, args.workload, directory, info["raw_detect_s"])
        for name, counts in trace_prints.items():
            prints.setdefault(name, {}).update(counts)
    fingerprint = compare_fingerprints(run, args.workload, args.seed, prints)

    print(f"workload {args.workload}  seed {args.seed}  inputs {info.get('items')} items, "
          f"{info.get('values')} values  passes {info.get('passes')}  "
          f"set-up samples {len(run.setup_walls)}  generation {gen_s:.2f} s (not measured)")
    if "pass_detect_s" in info:
        print(f"  detect_s of each pass: {info['pass_detect_s']}")
    print(f"  host speed factor {info.get('factor', run.calibration.median()):.4g} (median)  "
          f"uncalibrated: detect_s {info['raw_detect_s']:.6g} s, "
          f"setup_s {statistics.median(run.raw_setup_walls):.6g} s")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<16} {metrics[name]:>16.6g} {unit}")
    failed = len(run.failures)
    print(f"  {'error_rate':<16} {failed / run.attempted:>16.6g} ratio  ({failed} failed of {run.attempted} attempted)")
    print(f"  fingerprint      {fingerprint}")
    for failure in run.failures[:20]:
        print(f"  FAILED: {failure}")
    if args.trace:
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:<32} {layers[name]:>16.6g} {unit}")
        chosen = {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        chosen = {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}
    result_line = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
