"""Re-runnable mutants: each one must make the tests it names fail.

Run from anywhere, with the interpreter that runs the test suite:

    python tests/mutants/run.py

Each entry of ``MUTANTS`` names a file under ``src/``, a piece of its source
that must occur there exactly once, the text that replaces it, and the tests
that must catch the change.  The runner copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory and first runs every named
test on the unchanged copy, which must pass.  Then it applies one mutant at
a time and runs that mutant's tests with pytest: the mutant is killed when
pytest reports a failing test (exit code 1).  The exit code is 0 when every
mutant is killed and 1 when one survives, when its source text is not found
exactly once, or when the unchanged copy fails.

Only the standard library is used here, besides the suite's own pytest.  The
file name keeps the test suite from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "adapter-report-unmapped",
        "permstream/streaming/adapter.py",
        "        return report._replace(occurrence=self._map_occurrence(report.occurrence))\n",
        "        return report\n",
        ("tests/test_dispatch.py::test_adapter_recomplements_occurrences",),
    ),
    Mutant(
        "intersecting-as-union",
        "permstream/hardgen.py",
        "        return bool(self.s & self.t)\n",
        "        return bool(self.s | self.t)\n",
        ("tests/test_hardgen.py::test_streams_validate_and_segments_partition",),
    ),
    Mutant(
        "replay-write-unmapped",
        "permstream/tools.py",
        "    _write(path, format_stream_text(inst, comments=comments), make_dir=True)\n",
        "    os.makedirs(args.replay_dir or \".\", exist_ok=True)\n"
        "    with open(path, \"w\", encoding=\"utf-8\") as fh:\n"
        "        fh.write(format_stream_text(inst, comments=comments))\n",
        ("tests/test_cli.py::test_an_unwritable_file_exits_2",),
    ),
    Mutant(
        "fuzz-runs-past-the-first-disagreement",
        "permstream/tools.py",
        "            disagreement = result\n            break\n",
        "            disagreement = result\n",
        ("tests/test_cli.py::test_fuzz_reports_and_replays_the_first_disagreement",),
    ),
    Mutant(
        "split-alice-fills-the-wrong-end",
        "permstream/oracle.py",
        "        split.prefix, set(split.suffix), first=False\n",
        "        split.prefix, set(split.suffix), first=True\n",
        ("tests/test_oracle.py::test_split_alice_completable_case",),
    ),
    Mutant(
        "dispatch-without-the-adapter",
        "permstream/streaming/dispatch.py",
        "        return ComplementAdapter(detector)\n",
        "        return detector\n",
        ("tests/test_dispatch.py::test_monotone_patterns_route_to_patience_array",),
    ),
    Mutant(
        "bits-per-cell-by-float-log2",
        "permstream/streaming/base.py",
        "    return max(1, (n - 1).bit_length())\n",
        "    return max(1, __import__(\"math\").ceil(__import__(\"math\").log2(n)))\n",
        ("tests/test_stream_input.py::test_bits_per_cell_is_exact_past_float_precision",),
    ),
    Mutant(
        "window312-starts-above-the-floor",
        "permstream/streaming/window312.py",
        "        self._h = 0  #",
        "        self._h = 2  #",
        ("tests/test_detector312.py::test_matches_oracle_on_all_small_permutations",),
    ),
)


def run_tests(copy: str, tests: tuple[str, ...]) -> int:
    """pytest's exit code for ``tests`` on the copy (no bytecode, so no stale caches)."""
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="permstream-mutants-") as copy:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)

        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code = run_tests(copy, tests)
        if code != 0:
            print(f"the unchanged copy fails its tests (pytest exit code {code})")
            return 1
        failed = 0
        for mutant in MUTANTS:
            path = os.path.join(copy, "src", mutant.path)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            if source.count(mutant.old) != 1:
                print(f"STALE     {mutant.name}: its source text is not in {mutant.path} once")
                failed += 1
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source.replace(mutant.old, mutant.new))
            try:
                code = run_tests(copy, mutant.tests)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(source)
            if code == 1:
                print(f"killed    {mutant.name}")
            else:
                print(f"SURVIVED  {mutant.name} (pytest exit code {code})")
                failed += 1
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
