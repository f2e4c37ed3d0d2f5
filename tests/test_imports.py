"""What ``permstream detect`` imports, and the lazy re-exports that keep it small.

The lab subcommands' module ``permstream.tools``, with the oracle and the
generators it imports, the invariant replay and the process pool are loaded
only by the subcommands that use them; a detector module and the complement
adapter are loaded only by a run that builds them; the package namespaces
resolve their re-exports on first use (PEP 562).  Only the process entry,
``cli.run``, freezes the garbage collector; the library and ``main`` leave
it as they found it.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest

import permstream
import permstream.streaming

#: modules that ``detect`` without ``--check`` never uses
NOT_ON_DETECT_PATH = (
    "permstream.tools",
    "permstream.hardgen",
    "permstream.oracle",
    "permstream.streaming.invariants",
    "concurrent.futures",
    "multiprocessing",
    "dataclasses",
)

PROBE = """\
import json, sys
watched = json.loads(sys.argv[1])
import permstream.cli
loaded = {"import": [m for m in watched if m in sys.modules]}
code = permstream.cli.main(sys.argv[2:])
loaded["detect"] = [m for m in watched if m in sys.modules]
print(json.dumps(loaded))
sys.exit(code)
"""


def loaded_modules(*argv: str, watched: tuple[str, ...] = NOT_ON_DETECT_PATH) -> dict:
    """Which of ``watched`` are loaded after the import, and after main(argv)."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(watched), *argv],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("pattern, values", [
    ("312", "3,1,2,4"),  # Detector312
    ("213", "2,1,3,4"),  # the complement adapter around Detector231
    ("4321", "1,2,3,4"),  # the complement adapter around MonotoneDetector
    ("2413", "2,4,1,3"),  # the baseline, with its dispatch warning
])
def test_detect_loads_no_unused_module(pattern, values):
    argv = ("detect", "--pattern", pattern, "--values", values, "--n", "4", "--json")
    assert loaded_modules(*argv) == {"import": [], "detect": []}


DETECTOR_MODULES = tuple(
    f"permstream.streaming.{name}"
    for name in ("adapter", "baseline", "monotone", "strips231", "window312")
)


@pytest.mark.parametrize("pattern, values, loaded", [
    ("312", "3,1,2,4", ["window312"]),
    ("213", "2,1,3,4", ["adapter", "strips231"]),
    ("4321", "1,2,3,4", ["adapter", "monotone"]),
    ("2413", "2,4,1,3", ["baseline"]),
    ("12345", "1,2,3,4", ["baseline"]),  # the trivial rejector
])
def test_detect_loads_only_its_detector(pattern, values, loaded):
    argv = ("detect", "--pattern", pattern, "--values", values, "--n", "4", "--json")
    want = [f"permstream.streaming.{name}" for name in loaded]
    assert loaded_modules(*argv, watched=DETECTOR_MODULES) == {"import": [], "detect": want}


GC_PROBE = """\
import gc, json, sys
def state():
    return [gc.get_freeze_count(), gc.isenabled()]
seen = {"start": state()}
import permstream
seen["import"] = state()
import permstream.cli
for argv in json.loads(sys.argv[1]):
    permstream.cli.main(argv)
    seen[argv[0]] = state()
print(json.dumps(seen))
"""


def test_the_library_and_main_leave_the_gc_alone():
    # only the process entry, cli.run, freezes: a host calling main keeps its collector
    runs = [["detect", "--pattern", "312", "--values", "3,1,2,4", "--n", "4", "--json"],
            ["gen", "--construction", "4312", "--nsets", "3", "--json"]]
    proc = subprocess.run([sys.executable, "-c", GC_PROBE, json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(seen) == ["start", "import", "detect", "gen"]
    assert all(state == seen["start"] for state in seen.values()), seen


def test_the_process_entry_freezes_after_main():
    probe = ("import gc, sys\nfrom permstream.cli import run\n"
             "sys.argv[1:] = ['detect', '--pattern', '21', '--values', '2,1', '--n', '2']\n"
             "code = run()\nprint(code, gc.get_freeze_count() > 0, gc.isenabled())")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True True"


def test_detect_check_loads_the_oracle_only():
    argv = ("detect", "--pattern", "312", "--values", "3,1,2", "--n", "3", "--check")
    loaded = loaded_modules(*argv)
    assert loaded == {"import": [], "detect": ["permstream.oracle"]}


#: the public surface: a name added or removed here is a deliberate change
PUBLIC = {
    "permstream": [
        "BaselineDetector", "ComplementAdapter", "Detector", "Detector231", "Detector312",
        "DetectorReport", "DisjInstance", "InvariantViolation", "MonotoneDetector",
        "Occurrence", "Pattern", "Segment", "SplitInput", "StreamInstance", "StreamMode",
        "TrivialRejectDetector", "bits_per_cell", "complement", "contains_bruteforce",
        "count_occurrences", "default_window", "extend_stream", "format_stream_text",
        "gen_3142_2143", "gen_4312", "gen_monotone_lb", "gen_pi4_front", "gen_seq312",
        "is_order_isomorphic", "new_detector", "occurrence_is_valid", "parse_pattern",
        "parse_stream_text", "random_subsets", "replay_312_with_invariants", "run_detector",
        "split_protocol", "stream_violation",
    ],
    "permstream.streaming": [
        "BaselineDetector", "ComplementAdapter", "Detector", "Detector231", "Detector312",
        "DetectorReport", "FAMILIES", "InvariantViolation", "MonotoneDetector",
        "TrivialRejectDetector", "bits_per_cell", "default_window", "new_detector",
        "replay_312_with_invariants", "run_detector", "scan_231",
    ],
}


@pytest.mark.parametrize("package", [permstream, permstream.streaming])
def test_public_surface_is_pinned(package):
    assert package.__all__ == PUBLIC[package.__name__]


@pytest.mark.parametrize("package", [permstream, permstream.streaming])
def test_every_exported_name_is_its_defining_object(package):
    assert package.__all__ == sorted(set(package.__all__))
    assert set(package.__all__) <= set(dir(package))
    for name in package.__all__:
        value = getattr(package, name)
        # FAMILIES is a dict, which does not record its module
        home = "permstream.streaming.dispatch" if name == "FAMILIES" else value.__module__
        assert home.startswith("permstream."), name
        assert getattr(importlib.import_module(home), name) is value, name


@pytest.mark.parametrize("package", [permstream, permstream.streaming])
def test_unknown_names_raise_attribute_error(package):
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from permstream import *", namespace)
    exec("from permstream.streaming import *", namespace)
    for name in permstream.__all__:
        assert namespace[name] is getattr(permstream, name)
    for name in permstream.streaming.__all__:
        assert namespace[name] is getattr(permstream.streaming, name)

