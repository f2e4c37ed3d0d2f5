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
        # a decreasing pattern longer than 2 goes to the baseline, with a warning
        "dispatch-key-without-the-decreasing-row",
        "permstream/streaming/dispatch.py",
        "    if values == tuple(range(len(values), 0, -1)):\n"
        "        return \"decreasing\"\n",
        "",
        ("tests/test_dispatch.py::test_monotone_patterns_route_to_patience_array",),
    ),
    Mutant(
        # the patience array serves 12...k through the adapter, and k...21 natively
        "dispatch-key-ranges-swapped",
        "permstream/streaming/dispatch.py",
        "    if values == tuple(range(1, len(values) + 1)):\n"
        "        return \"increasing\"\n"
        "    if values == tuple(range(len(values), 0, -1)):\n",
        "    if values == tuple(range(len(values), 0, -1)):\n"
        "        return \"increasing\"\n"
        "    if values == tuple(range(1, len(values) + 1)):\n",
        ("tests/test_dispatch.py::test_monotone_patterns_route_to_patience_array",),
    ),
    Mutant(
        # "+3,1,2", "3, 1, 2", "1_0,..." and non-ASCII digits are read as values
        "parse-pattern-by-int",
        "permstream/core.py",
        "        values = tuple(map(parse_int, text.split(\",\") if \",\" in text else text))\n",
        "        values = tuple(map(int, text.split(\",\") if \",\" in text else text))\n",
        ("tests/test_cli.py::test_each_input_check_gives_its_message",),
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
    Mutant(
        # only the increasing stream reaches its window peak at a new maximum
        "window312-window-growth-unmetered",
        "permstream/streaming/window312.py",
        "                h, h_pos = v, pos\n"
        "                if len(window) > peak_window:\n"
        "                    peak_window = len(window)\n",
        "                h, h_pos = v, pos\n",
        ("tests/test_detector312.py::test_peaks_are_the_largest_sizes_after_each_push",),
    ),
    Mutant(
        # only a stream whose pair count falls without an accept tells them apart
        "window312-pairs-peak-is-the-current-count",
        "permstream/streaming/window312.py",
        "        self.structure_peaks = {\"A\": peak_window, \"D\": peak_pairs}\n",
        "        self.structure_peaks = {\"A\": peak_window, \"D\": len(pairs)}\n",
        ("tests/test_detector312.py::test_peaks_are_the_largest_sizes_after_each_push",),
    ),
    Mutant(
        "monotone-accept-one-push-short",
        "permstream/streaming/monotone.py",
        "                    self.pushes = pushes\n",
        "                    self.pushes = pushes - 1\n",
        ("tests/test_push_path.py::test_batches_match_guarded_pushes[123]",),
    ),
    Mutant(
        "strips231-ascent-threshold-never-rises",
        "permstream/streaming/strips231.py",
        "            self._high_starter = starter\n",
        "            pass\n",
        ("tests/test_detector231.py::test_high_starter_accepts_across_strips",),
    ),
    Mutant(
        "strips231-fold-never-lowers-low-after",
        "permstream/streaming/strips231.py",
        "        self._low_after = [low if low < first else first for low in self._low_after]\n",
        "",
        ("tests/test_detector231.py::test_matches_oracle_on_all_small_permutations",),
    ),
    Mutant(
        # the verdicts stay right (a lower value later in the strip makes a
        # decreasing pair that part (3) covers), and strips of 2 cannot tell:
        # only the column of a longer strip shows it
        "strips231-low-after-starts-at-the-first-later-value",
        "permstream/streaming/strips231.py",
        "        self._low_after.append(min(after, default=high))\n",
        "        self._low_after.append(after[0] if after else high)\n",
        ("tests/test_detector231.py::test_records_match_whole_stream_counts_at_n400[decreasing]",),
    ),
    Mutant(
        "strips231-end-check-without-part-4",
        "permstream/streaming/strips231.py",
        "        ) or any(\n"
        "            seen < high - low\n"
        "            for seen, high, low in zip(self._seen_below, self._high, self._low_after)\n"
        "        )\n",
        "        )\n",
        ("tests/test_detector231.py::test_matches_oracle_on_all_small_permutations",),
    ),
    Mutant(
        # only the late near miss at n = 400 needs part (3) to see its 231
        "strips231-end-check-without-part-3",
        "permstream/streaming/strips231.py",
        "        return any(\n"
        "            seen < hi - lo - 1 for seen, lo, hi in zip(self._seen, self._gap_lo, self._gap_hi)\n"
        "        ) or any(\n",
        "        return any(\n",
        ("tests/test_detector231.py::test_records_match_whole_stream_counts_at_n400[late_miss]",),
    ),
    Mutant(
        "strips231-fold-skips-the-gap-count",
        "permstream/streaming/strips231.py",
        "            else seen + bisect_left(ordered, hi) - bisect_right(ordered, lo)\n",
        "            else seen\n",
        ("tests/test_detector231.py::test_matches_oracle_on_all_small_permutations",),
    ),
    Mutant(
        # a gap that holds the whole strip counts none of it
        "strips231-fold-skips-a-strip-inside-the-gap",
        "permstream/streaming/strips231.py",
        "            else seen + size\n"
        "            if lo < first and hi > last\n",
        "            else seen\n"
        "            if lo < first and hi > last\n",
        ("tests/test_detector231.py::test_matches_oracle_on_all_small_permutations",),
    ),
    Mutant(
        # a maximum above the whole strip counts none of it
        "strips231-fold-skips-a-strip-below-the-maximum",
        "permstream/streaming/strips231.py",
        "            else seen + size\n"
        "            if high > last\n",
        "            else seen\n"
        "            if high > last\n",
        ("tests/test_detector231.py::test_matches_oracle_on_all_small_permutations",),
    ),
    Mutant(
        # the verdicts stay right (the pair (0, 0) counts nothing and never
        # fires): only the columns and the metered cells show the extra entry
        "strips231-gap-entry-for-a-strip-without-one",
        "permstream/streaming/strips231.py",
        "    if not hi:\n"
        "        return None\n",
        "",
        ("tests/test_detector231.py::test_records_match_whole_stream_counts_on_small_permutations",),
    ),
    Mutant(
        # the oracle tests pass with it: only the metered cells drop
        "strips231-arrivals-not-metered",
        "permstream/streaming/strips231.py",
        "                    record_cells += len(waiting) - kept\n",
        "",
        ("tests/test_detector231.py::test_records_match_whole_stream_counts_at_n400[avoider]",),
    ),
    Mutant(
        # a strip that fills up in one batch goes on to its closing value
        # unmetered, so its peak is lost
        "strips231-no-peak-before-the-closing-value",
        "permstream/streaming/strips231.py",
        "            if buf:\n",
        "            if not accepted and len(buf) - held == want:\n"
        "                continue\n"
        "            if buf:\n",
        ("tests/test_detector231.py::test_records_match_whole_stream_counts_at_n400[increasing]",),
    ),
    Mutant(
        # the buffer is metered with the closing value still in it
        "strips231-buffer-peak-is-the-strip-size",
        "permstream/streaming/strips231.py",
        "            pos += len(buf) - held\n",
        "            pos += len(buf) - held\n"
        "            peak_buffer = max(peak_buffer, len(buf))\n",
        ("tests/test_detector231.py::test_records_match_whole_stream_counts_at_n400[avoider]",),
    ),
    Mutant(
        # a push meters at its own batch end, so only a batch that reads the
        # values before the accept can tell
        "strips231-no-peak-on-an-accept-inside-a-strip",
        "permstream/streaming/strips231.py",
        "            if buf:\n",
        "            if buf and not accepted:\n",
        ("tests/test_detector231.py::test_records_match_whole_stream_counts_at_n400[late_accept]",),
    ),
    Mutant(
        "strips231-end-check-telemetry-unwritten",
        "permstream/streaming/strips231.py",
        "            self.peak_cells = max(self.peak_cells, 1 + self._record_cells)\n"
        "            self.structure_peaks = {**self.structure_peaks, \"strips\": len(self._high)}\n",
        "",
        ("tests/test_detector231.py::test_records_match_whole_stream_counts_on_small_permutations",),
    ),
    Mutant(
        # the verdicts stay right (the counters still see each 231 at finish):
        # only the accept position moves
        "strips231-stack-pass-never-records-the-popped-value",
        "permstream/streaming/strips231.py",
        "            popped = top\n"
        "            while stack[-1] < v:\n"
        "                popped = pop()\n",
        "            while stack[-1] < v:\n"
        "                pop()\n",
        ("tests/test_detector231.py::test_matches_oracle_on_every_avoider_and_a_swap_of_each[9]",),
    ),
    Mutant(
        # a value pops only the top of the stack and misses a higher 2 under
        # it, as in 3 1 4 2: a strip of 3 values cannot tell, so the scan's
        # own test must
        "strips231-stack-pass-pops-one-value",
        "permstream/streaming/strips231.py",
        "            while stack[-1] < v:\n"
        "                popped = pop()\n",
        "",
        ("tests/test_detector231.py::test_scan_231_finds_a_231_or_the_highest_starter",),
    ),
    Mutant(
        # the scan keeps the lowest starter of an avoiding strip, not the highest
        "strips231-scan-returns-the-first-value-it-pops",
        "permstream/streaming/strips231.py",
        "    popped = 0\n"
        "    # the stack's top is kept in a local; under it, math.inf ends the stack\n"
        "    top, stack = math.inf, []\n"
        "    push, pop = stack.append, stack.pop\n"
        "    for v in seq:\n"
        "        if v < popped:\n"
        "            return -1\n"
        "        if v > top:\n"
        "            popped = top\n"
        "            while stack[-1] < v:\n"
        "                popped = pop()\n"
        "        else:\n"
        "            push(top)\n"
        "        top = v\n"
        "    return popped\n",
        "    popped = first = 0\n"
        "    # the stack's top is kept in a local; under it, math.inf ends the stack\n"
        "    top, stack = math.inf, []\n"
        "    push, pop = stack.append, stack.pop\n"
        "    for v in seq:\n"
        "        if v < popped:\n"
        "            return -1\n"
        "        if v > top:\n"
        "            popped = top\n"
        "            first = first or popped\n"
        "            while stack[-1] < v:\n"
        "                popped = pop()\n"
        "        else:\n"
        "            push(top)\n"
        "        top = v\n"
        "    return first\n",
        ("tests/test_detector231.py::test_scan_231_finds_a_231_or_the_highest_starter",),
    ),
    Mutant(
        "baseline-structure-peaks-unwritten",
        "permstream/streaming/baseline.py",
        "        self.structure_peaks = {\"buffer\": len(self._buffer)}\n",
        "",
        ("tests/test_baseline.py::test_extended_streams_match_the_oracle",),
    ),
    Mutant(
        "baseline-dominance-side-inverted",
        "permstream/streaming/baseline.py",
        "    return any(b < at for b in bounded), any(b > at for b in bounded)\n",
        "    return any(b > at for b in bounded), any(b < at for b in bounded)\n",
        ("tests/test_baseline.py::test_every_skipped_candidate_is_dominated_by_a_failed_one",
         "tests/test_baseline.py::test_pruned_prefix_slots_match_the_oracle[15234]"),
    ),
    Mutant(
        # the skipped candidate may complete through a later value in between
        "baseline-dominance-ignores-values-between",
        "permstream/streaming/baseline.py",
        "            if w >= 0 and (not below or later.find(1, w + 1, v) < 0):\n",
        "            if w >= 0:\n",
        ("tests/test_baseline.py::test_pruned_prefix_slots_match_the_oracle[25314]",),
    ),
    Mutant(
        # the verdicts stay right: only the sweep's work grows
        "baseline-dead-sweep-exit-before-the-del",
        "permstream/streaming/baseline.py",
        "        if lz < vy < hz:\n"
        "            after[vy] = 0\n"
        "            left -= 1\n"
        "            if not left:  # no z is left for this y or any later one\n"
        "                return None\n",
        "        if not left:  # no z is left for this y or any later one\n"
        "            return None\n"
        "        if lz < vy < hz:\n"
        "            after[vy] = 0\n"
        "            left -= 1\n",
        ("tests/test_baseline.py::test_pruning_work_is_pinned_on_a_front4_instance",),
    ),
    Mutant(
        # the least value is below the lower bound 0, so no slot without a
        # prefix bound below it can take it
        "baseline-ranks-start-at-0",
        "permstream/streaming/baseline.py",
        "        rank = {v: r for r, v in enumerate(sorted(values), 1)}\n",
        "        rank = {v: r for r, v in enumerate(sorted(values))}\n",
        ("tests/test_baseline.py::test_sparse_sequence_values_far_above_the_stream_length",),
    ),
    Mutant(
        # byte 0 of the map after y, which stands for no value, is read as a z
        "baseline-find-from-the-interval-bound",
        "permstream/streaming/baseline.py",
        "            z = after.find(1, zl + 1, zh)\n",
        "            z = after.find(1, zl, zh)\n",
        ("tests/test_baseline.py::test_the_sweep_returns_the_first_completing_y",),
    ),
    Mutant(
        # the value at the sweep's start, a candidate x, is also taken as a z
        "baseline-after-map-keeps-the-start",
        "permstream/streaming/baseline.py",
        "    for v in values[: p + 1]:\n",
        "    for v in values[:p]:\n",
        ("tests/test_baseline.py::test_the_sweep_returns_the_first_completing_y",),
    ),
    Mutant(
        # a malformed stream is built: parse_stream_text returns it
        "stream-instance-never-raises",
        "permstream/core.py",
        "        reason = stream_violation(self)\n"
        "        if reason is not None:\n"
        "            raise ValueError(f\"invalid stream: {reason}\")\n",
        "        stream_violation(self)\n",
        ("tests/test_stream_input.py::test_tokenizer_matches_the_reference_parser_at_every_chunk_size",),
    ),
    Mutant(
        # True and False pass the guard as 1 and 0: (True,) is a permutation of [1..1]
        "stream-violation-without-the-type-scan",
        "permstream/core.py",
        "    for pos, value in enumerate(elements):\n"
        "        if not isinstance(value, int) or isinstance(value, bool):\n"
        "            check.feed(elements[:pos])\n"
        "            check.error = check.error or f\"non-integer value {value!r} at position {pos + 1}\"\n"
        "            break\n"
        "    else:\n"
        "        check.feed(elements)\n",
        "    check.feed(elements)\n",
        ("tests/test_stream_input.py::test_a_bool_is_not_a_stream_value",),
    ),
    Mutant(
        # floats get through: "1.5" is read as a value
        "canonical-chunk-admits-a-dot",
        "permstream/core.py",
        '    return text.isascii() and not text.encode().translate(None, b"0123456789 \\n-")\n',
        '    return text.isascii() and not text.encode().translate(None, b"0123456789 \\n.-")\n',
        ("tests/test_stream_input.py::test_canonical_chunks_match_the_reference_at_every_chunk_size",),
    ),
    Mutant(
        # "1,2" is read as two values
        "canonical-chunk-admits-a-comma",
        "permstream/core.py",
        '    return text.isascii() and not text.encode().translate(None, b"0123456789 \\n-")\n',
        '    return text.isascii() and not text.encode().translate(None, b"0123456789 \\n,-")\n',
        ("tests/test_stream_input.py::test_canonical_chunks_match_the_reference_at_every_chunk_size",),
    ),
    Mutant(
        # "007" and "  " are refused where int() reads them
        "json-parse-error-is-the-stream-error",
        "permstream/core.py",
        "            except ValueError:\n"
        "                pass  # the words are read one by one below, with int()'s error\n",
        "            except ValueError as exc:\n"
        "                raise ValueError(f\"non-integer stream value: {exc}\") from None\n",
        ("tests/test_stream_input.py::test_canonical_chunks_match_the_reference_at_every_chunk_size",),
    ),
    Mutant(
        # every chunk goes word by word: the values stay right, the fast path is dead
        "json-parse-never-taken",
        "permstream/core.py",
        "        if _canonical(text):\n",
        "        if _canonical(text) and False:\n",
        ("tests/test_stream_input.py::"
         "test_every_chunk_after_the_header_of_a_formatted_stream_takes_the_json_parse",),
    ),
    Mutant(
        # every slot is scanned in full: the output stays right, the work is O(m^k)
        "oracle-lists-never-built",
        "permstream/oracle.py",
        "        if scanned > m and not least:\n",
        "        if scanned < 0 and not least:\n",
        ("tests/test_oracle.py::test_a_one_sided_last_slot_is_skipped_when_no_later_value_fits",),
    ),
    Mutant(
        # a slot is skipped when some later value lies outside its interval
        "oracle-skip-reads-the-wrong-extremes",
        "permstream/oracle.py",
        "                if least and (least[idx + 1] >= next_hi or greatest[idx + 1] <= next_lo):\n",
        "                if least and (greatest[idx + 1] >= next_hi or least[idx + 1] <= next_lo):\n",
        ("tests/test_oracle.py::test_oracle_output_matches_enumeration_on_hard_instances",),
    ),
    Mutant(
        # a slot is skipped when its only later values are hi - 1 and up
        "oracle-skip-off-by-one-at-the-upper-bound",
        "permstream/oracle.py",
        "                if least and (least[idx + 1] >= next_hi or greatest[idx + 1] <= next_lo):\n",
        "                if least and (least[idx + 1] >= next_hi - 1 or greatest[idx + 1] <= next_lo):\n",
        ("tests/test_oracle.py::"
         "test_oracle_output_matches_enumeration_on_monotone_streams_and_one_swaps",),
    ),
    Mutant(
        # a scan is charged when the slot is entered, so one left through a yield counts
        "oracle-scan-charged-on-entry",
        "permstream/oracle.py",
        "        for idx in range(start, stop):\n",
        "        scanned += stop - start\n"
        "        if scanned > m and not least:\n"
        "            least = list(accumulate(reversed(values), min))[::-1]\n"
        "            greatest = list(accumulate(reversed(values), max))[::-1]\n"
        "        for idx in range(start, stop):\n",
        ("tests/test_oracle.py::test_an_early_occurrence_never_builds_the_lists",),
    ),
    Mutant(
        # a front value repeated in the back half is taken for a permutation
        "split-maps-never-compared",
        "permstream/backhalf.py",
        "        if not self._map[self.n + 1] or not check.holds_all_but(self._map):\n",
        "        if not self._map[self.n + 1]:\n",
        ("tests/test_cli.py::test_split_detect_matches_one_process[front-value-in-the-back-False]",),
    ),
    Mutant(
        # a valid file is short of the back half's values
        "split-helper-count-dropped",
        "permstream/backhalf.py",
        "        check.count = self.n\n",
        "",
        ("tests/test_cli.py::test_split_detect_matches_one_process[valid-False]",),
    ),
    Mutant(
        # a helper that met a bad token is taken at its empty map
        "split-helper-error-trusted",
        "permstream/backhalf.py",
        "        if not self._map[self.n + 1] or not check.holds_all_but(self._map):\n",
        "        if not check.holds_all_but(self._map):\n",
        ("tests/test_cli.py::test_split_detect_matches_one_process[every-value-in-the-front-False]",),
    ),
    Mutant(
        # the value at the midpoint is read as two values, one in each half
        "split-mid-at-the-byte-midpoint",
        "permstream/backhalf.py",
        "            mid = data.find(b\"\\n\", size // 2) + 1\n",
        "            mid = size // 2\n",
        ("tests/test_cli.py::test_split_detect_matches_one_process[valid-False]",),
    ),
    Mutant(
        # the parent has read past mid: the helper's half is counted twice
        "split-cut-behind-the-reader",
        "permstream/backhalf.py",
        "    if mid is None or reads.count > mid:\n",
        "    if mid is None:\n",
        ("tests/test_cli.py::test_split_detect_matches_one_process[accepted-past-the-middle-False]",),
    ),
    Mutant(
        # after a refused helper the parent still reads as ending at mid
        "split-cut-left-set",
        "permstream/backhalf.py",
        "    reads.stop = None\n",
        "",
        ("tests/test_cli.py::test_split_detect_matches_one_process[duplicate-in-the-back-False]",),
    ),
    Mutant(
        "adapter-telemetry-uncopied",
        "permstream/streaming/adapter.py",
        "        self.peak_cells, self.structure_peaks = inner.peak_cells, inner.structure_peaks\n",
        "",
        ("tests/test_dispatch.py::test_adapter_telemetry_follows_the_inner_detector_mid_run[132]",),
    ),
    Mutant(
        # main freezes the collector, so a host that calls main gets it frozen
        "gc-freeze-in-main",
        "permstream/cli.py",
        "    args._t0 = time.monotonic()\n",
        "    args._t0 = time.monotonic()\n    gc.freeze()\n",
        ("tests/test_imports.py::test_the_library_and_main_leave_the_gc_alone",),
    ),
    Mutant(
        "gc-freeze-dropped",
        "permstream/cli.py",
        "    code = main()\n    gc.freeze()\n",
        "    code = main()\n",
        ("tests/test_imports.py::test_the_process_entry_freezes_after_main",),
    ),
    Mutant(
        # the warning names the file and line of cli.py that re-emits it
        "dispatch-warning-at-its-source",
        "permstream/cli.py",
        '"permstream", 0)\n',
        "w.filename, w.lineno)\n",
        ("tests/test_cli.py::test_detect_warning_is_one_line_at_a_fixed_place[shown]",),
    ),
    Mutant(
        # the offset of the bad byte inside the last read, not in the input
        "utf8-offset-within-a-read",
        "permstream/cli.py",
        "        return self.count - len(exc.object) + exc.start\n",
        "        return exc.start\n",
        ("tests/test_stream_input.py::test_malformed_stream_exits_2_with_the_reference_message"
         "[utf8-bad-past-the-first-read-stdin]",),
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
