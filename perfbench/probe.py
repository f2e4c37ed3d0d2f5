"""In-process runs of the program's layers, started as a child of ``run.py``.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/probe.py check  CACHE_DIR SECONDS [--trace SPANS.json]
    python3 perfbench/probe.py layers CACHE_DIR --trace SPANS.json

``check`` runs detector-vs-oracle checks over the cached items of the check
workload, pass after pass, for SECONDS, with every check's times scaled by
the reference task of ``calib.py`` timed around it.  ``layers`` runs each
cached stream of a stream workload through the layers ``permstream detect``
uses: read, ``parse_stream_text``, ``stream_violation``, ``new_detector``,
the push loop and ``finish``.  With ``--trace`` a child also makes one traced pass: it
records a span around every call into a layer (name, start, end, parent, and
one trace id per stream or check), folds the pushes of a stream into one loop
span with a duration histogram, and writes the spans to SPANS.json at the
end.  ``layers`` also makes a ``tracemalloc`` pass for heap peaks, kept apart
from every timed pass.

The last line of stdout is one JSON object with the child's results.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
import warnings
from array import array

from permstream import (
    StreamInstance,
    StreamMode,
    contains_bruteforce,
    gen_3142_2143,
    gen_4312,
    gen_pi4_front,
    gen_seq312,
    new_detector,
    occurrence_is_valid,
    parse_pattern,
    parse_stream_text,
    run_detector,
    stream_violation,
)
from permstream.streaming import ComplementAdapter

from calib import Calibration, slowness

LAYER_OF = {
    "MonotoneDetector": "monotone",
    "Detector312": "window312",
    "Detector231": "strips231",
    "BaselineDetector": "baseline",
}

NATIVE = ("123", "312", "231")

clock = time.perf_counter_ns


def layer_of(det) -> str:
    """The layer a detector's pushes belong to; adapters name their inner layer."""
    if isinstance(det, ComplementAdapter):
        return "adapter:" + layer_of(det.inner)
    return LAYER_OF[type(det).__name__]


def fingerprint(det, report) -> dict:
    """The exact counts a repeat run of the same code must reproduce."""
    return {
        "pushes": det.pushes,
        "verdict": report.verdict,
        "peak_cells": report.peak_cells,
        "peak_bits": report.peak_bits,
        "structure_peaks": report.structure_peaks,
    }


class Tracer:
    """Spans kept in memory and written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def record(self, name: str, trace_id: str, parent: int | None, start: int, end: int, **attrs) -> int:
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "trace": trace_id, "parent": parent,
                           "start_ns": start, "end_ns": end, **attrs})
        return span_id

    def call(self, name: str, trace_id: str, parent: int | None, fn, *args, **attrs):
        start = clock()
        result = fn(*args)
        self.record(name, trace_id, parent, start, clock(), **attrs)
        return result

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def histogram(durations: array) -> dict[int, int]:
    """Push durations (ns) in log-linear buckets with 5 significant bits."""
    hist: dict[int, int] = {}
    for d in durations:
        shift = max(0, d.bit_length() - 5)
        key = (d >> shift) << shift
        hist[key] = hist.get(key, 0) + 1
    return hist


def traced_push_loop(tracer: Tracer, trace_id: str, parent: int, det, values) -> tuple[int | None, int]:
    """The detect push loop with one clock read per push, as one span."""
    push = det.push
    durations = array("q")
    add = durations.append
    accepted_at = None
    start = prev = clock()
    for idx, value in enumerate(values, start=1):
        accepted = push(value)
        now = clock()
        add(now - prev)
        prev = now
        if accepted:
            accepted_at = idx
            break
    span = tracer.record(layer_of(det) + ".push_loop", trace_id, parent, start, prev,
                         pushes=len(durations), hist=histogram(durations))
    return accepted_at, span


def traced_finish(tracer: Tracer, trace_id: str, parent: int, det):
    report = tracer.call(layer_of(det) + ".finish", trace_id, parent, det.finish)
    tracer.spans[-1].update(peak_cells=report.peak_cells, peak_bits=report.peak_bits)
    return report


def plain_push_loop(det, values) -> int | None:
    for idx, value in enumerate(values, start=1):
        if det.push(value):
            return idx
    return None


# ---------------------------------------------------------------------------
# stream workloads: the layers behind `permstream detect`
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _plain_stream(path: str, pattern) -> None:
    inst = parse_stream_text(_read(path))
    if stream_violation(inst) is not None:
        raise ValueError(f"invalid stream {path}")
    det = new_detector(pattern, inst.n, inst.mode)
    plain_push_loop(det, inst.elements)
    det.finish()


def _traced_stream(tracer: Tracer, name: str, path: str, pattern) -> dict:
    start = clock()
    root = tracer.record("stream", name, None, start, start)
    text = tracer.call("core.read", name, root, _read, path, bytes_read=os.path.getsize(path))
    inst = tracer.call("core.parse", name, root, parse_stream_text, text)
    tracer.spans[-1]["values_parsed"] = len(inst.elements)
    if tracer.call("core.validate", name, root, stream_violation, inst) is not None:
        raise ValueError(f"invalid stream {path}")
    det = tracer.call("dispatch.new_detector", name, root, new_detector, pattern, inst.n, inst.mode)
    accepted_at, _ = traced_push_loop(tracer, name, root, det, inst.elements)
    report = traced_finish(tracer, name, root, det)
    tracer.spans[root]["end_ns"] = clock()
    return {**fingerprint(det, report), "accepted_after": accepted_at}


def _heap_stream(path: str, pattern) -> dict:
    """tracemalloc peaks (bytes) of read+parse+validate and of the push loop."""
    tracemalloc.start()
    try:
        inst = parse_stream_text(_read(path))
        stream_violation(inst)
        core_peak = tracemalloc.get_traced_memory()[1]
        det = new_detector(pattern, inst.n, inst.mode)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        plain_push_loop(det, inst.elements)
        det.finish()
        loop_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"core_heap_peak": core_peak, "push_heap_peak": loop_peak}


def cmd_layers(cache_dir: str, spans_path: str) -> dict:
    with open(os.path.join(cache_dir, "manifest.json"), encoding="utf-8") as fh:
        streams = json.load(fh)["streams"]
    jobs = [(s["name"], os.path.join(cache_dir, s["file"]), parse_pattern(s["pattern"])) for s in streams]

    # Each stream runs untraced and then traced, so both see the same caches.
    tracer = Tracer()
    plain_ns = traced_ns = 0
    results = {}
    for name, path, pattern in jobs:
        start = clock()
        _plain_stream(path, pattern)
        middle = clock()
        results[name] = _traced_stream(tracer, name, path, pattern)
        plain_ns += middle - start
        traced_ns += clock() - middle
    tracer.dump(spans_path)

    # Heap peaks of native streams only: tracemalloc is slow, and the detector
    # inside a mirrored stream's adapter sees exactly its native twin's values.
    for name, path, pattern in jobs:
        if str(pattern) in NATIVE:
            results[name].update(_heap_stream(path, pattern))
    return {"plain_s": plain_ns / 1e9, "traced_s": traced_ns / 1e9, "streams": results}


# ---------------------------------------------------------------------------
# the check workload: detector vs oracle vs known answer
# ---------------------------------------------------------------------------


def _build(item: dict) -> tuple[StreamInstance, object]:
    if item["kind"] == "perm":
        inst = StreamInstance(n=item["n"], mode=StreamMode.PERMUTATION, elements=tuple(item["values"]))
        return inst, parse_pattern(item["pattern"])
    construction, nsets, s, t = item["construction"], item["nsets"], item["s"], item["t"]
    if construction == "seq312":
        disj = gen_seq312(nsets, s, t)
    elif construction.startswith("front4:"):
        disj = gen_pi4_front(parse_pattern(construction[7:]), nsets, s, t)
    elif construction == "4312":
        disj = gen_4312(nsets, s, t)
    else:
        disj = gen_3142_2143(parse_pattern(construction), nsets, s, t)
    return disj.stream, disj.pattern


def _verdict_failure(item: dict, inst, pattern, report, oracle_occ) -> str | None:
    expected = item["expected"]
    if report.verdict != expected:
        return f"detector verdict {report.verdict}, expected {expected}"
    if (oracle_occ is not None) != expected:
        return f"oracle verdict {oracle_occ is not None}, expected {expected}"
    if report.occurrence is not None and not occurrence_is_valid(inst, pattern, report.occurrence):
        return f"invalid occurrence {report.occurrence}"
    return None


def _check_plain(item: dict) -> tuple[int, int, dict, str | None]:
    """One check: build, detect, oracle, compare.  Returns detect ns, values, fingerprint, failure."""
    inst, pattern = _build(item)
    start = clock()
    det = new_detector(pattern, inst.n, inst.mode)
    report = run_detector(inst, pattern, detector=det)
    detect_ns = clock() - start
    occ = contains_bruteforce(inst, pattern)
    return detect_ns, len(inst.elements), fingerprint(det, report), _verdict_failure(item, inst, pattern, report, occ)


def _check_traced(tracer: Tracer, name: str, item: dict) -> None:
    start = clock()
    root = tracer.record("check", name, None, start, start)
    if item["kind"] == "hardgen":
        inst, pattern = tracer.call("hardgen.gen", name, root, _build, item)
    else:
        inst, pattern = _build(item)
    if tracer.call("core.validate", name, root, stream_violation, inst) is not None:
        raise ValueError(f"invalid instance {name}")
    det = tracer.call("dispatch.new_detector", name, root, new_detector, pattern, inst.n, inst.mode)
    traced_push_loop(tracer, name, root, det, inst.elements)
    traced_finish(tracer, name, root, det)
    tracer.call("oracle.contains", name, root, contains_bruteforce, inst, pattern)
    tracer.spans[root].update(end_ns=clock(), values_offered=len(inst.elements))


def cmd_check(cache_dir: str, seconds: float, spans_path: str | None) -> dict:
    with open(os.path.join(cache_dir, "items.json"), encoding="utf-8") as fh:
        items = json.load(fh)
    passes = []
    fingerprints = None
    failures: list[str] = []
    begin = clock()
    calibration = Calibration(lambda: slowness(1, 0))
    while not passes or (clock() - begin) / 1e9 + passes[-1]["span_s"] <= seconds:
        pass_start = clock()
        wall = detect = raw_wall = raw_detect = 0.0
        values = 0
        prints = {}
        for item in items:
            start = clock()
            ns, n_values, print_, failure = _check_plain(item)
            item_s = (clock() - start) / 1e9
            factor = calibration.factor()
            raw_wall += item_s
            raw_detect += ns / 1e9
            wall += item_s * factor
            detect += ns / 1e9 * factor
            values += n_values
            prints[item["name"]] = print_
            if failure:
                failures.append(f"{item['name']}: {failure}")
        passes.append({"wall_s": wall, "detect_s": detect, "raw_wall_s": raw_wall,
                       "raw_detect_s": raw_detect, "span_s": (clock() - pass_start) / 1e9,
                       "values": values, "checks": len(items)})
        if fingerprints is None:
            fingerprints = prints
        elif prints != fingerprints:
            failures.append("fingerprint changed between passes of one run")
    out = {"passes": passes, "failures": failures, "fingerprints": fingerprints,
           "factor": calibration.median()}
    if spans_path:
        # Each check runs untraced and then traced, so both see the same caches.
        tracer = Tracer()
        plain_ns = traced_ns = 0
        for item in items:
            start = clock()
            _check_plain(item)
            middle = clock()
            _check_traced(tracer, item["name"], item)
            plain_ns += middle - start
            traced_ns += clock() - middle
        out.update(plain_s=plain_ns / 1e9, traced_s=traced_ns / 1e9)
        tracer.dump(spans_path)
    return out


def main(argv: list[str]) -> int:
    warnings.simplefilter("ignore")  # the baseline's linear-space warning
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    if argv[0] == "check":
        out = cmd_check(argv[1], float(argv[2]), spans_path)
    elif argv[0] == "layers" and spans_path:
        out = cmd_layers(argv[1], spans_path)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
