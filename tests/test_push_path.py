"""One push path: each detector's ``_feed`` is the only loop that steps it.

Batches of any size through ``_feed`` must give what the guarded ``push``
gives one value at a time, and must not step, complement or even read a
value past the accepting one.  The batches include sizes that end one value
before, at and one value after a 231 strip boundary, where the strip loop
hands over to the strip summary.  ``detect`` feeds whole chunks, so its
``accepted_after`` must still name the accepting value when the accept
falls in a later chunk.
"""

from __future__ import annotations

import ast
import json
import math
import random
import warnings
from itertools import islice, permutations
from pathlib import Path

import pytest

import permstream
from permstream import ComplementAdapter, TrivialRejectDetector, core, new_detector, parse_pattern
from permstream.cli import main
from conftest import random_perm

PATTERNS = ["123", "321", "312", "132", "231", "213", "4231"]
BATCHES = [1, 3, 7, None]  # None: the whole stream in one batch
SRC = Path(permstream.__file__).parent


def build(pattern: str, n: int):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return new_detector(parse_pattern(pattern), n)


def by_push(pattern: str, stream) -> tuple:
    """The reference: guarded pushes, one value at a time, up to the accept."""
    det = build(pattern, len(stream))
    accepted_at = None
    for idx, value in enumerate(stream, start=1):
        if det.push(value):
            accepted_at = idx
            break
    return det.pushes, accepted_at, det.finish()


def by_feed(pattern: str, stream, batch: int | None) -> tuple:
    """``_feed`` in batches, counting every value read."""
    det = build(pattern, len(stream))
    read = [0]

    def reading(values):
        for value in values:
            read[0] += 1
            yield value

    size = batch or max(1, len(stream))
    accepted_at = None
    for start in range(0, len(stream), size):
        if det._feed(reading(stream[start : start + size])):
            accepted_at = det.pushes
            break
    assert read[0] == det.pushes  # nothing past the accept
    if isinstance(det, ComplementAdapter):
        assert det.inner.pushes == det.pushes
    return det.pushes, accepted_at, det.finish()


def batches(pattern: str, n: int) -> list[int | None]:
    """BATCHES, and for the 231 family the sizes around its strip size."""
    if pattern not in ("231", "213"):
        return BATCHES
    s = max(1, math.isqrt(n))
    return [*BATCHES, *(size for size in (s - 1, s, s + 1) if size > 0)]


def streams():
    for n in range(1, 7):
        yield from permutations(range(1, n + 1))
    rng = random.Random(7)
    for n in (20, 60, 200):
        for _ in range(8):
            yield random_perm(n, rng)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_batches_match_guarded_pushes(pattern):
    inputs = list(streams())
    for n in (5, 40, 300):
        adversary = build(pattern, n).adversary()
        if adversary is not None:
            inputs.append(tuple(adversary))
    accepted = rejected = 0
    for stream in inputs:
        want = by_push(pattern, stream)
        for batch in batches(pattern, len(stream)):
            assert by_feed(pattern, stream, batch) == want, (stream, batch)
        accepted += want[2].verdict
        rejected += not want[2].verdict
    assert accepted and rejected


def test_trivial_rejector_batches_match_guarded_pushes():
    for n in range(1, 4):
        assert isinstance(build("4231", n), TrivialRejectDetector)
        for stream in permutations(range(1, n + 1)):
            want = by_push("4231", stream)
            assert want[1] is None and want[0] == n
            for batch in BATCHES:
                assert by_feed("4231", stream, batch) == want


def test_feed_is_the_only_stepping_loop():
    uses: dict[str, list[tuple[str, ...]]] = {"_step": [], "_feed": []}
    named, defined = [], []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "_push_validated" in source:
            named.append(path.name)

        def visit(node, scope):
            if isinstance(node, ast.Attribute) and node.attr in uses:
                uses[node.attr].append((path.relative_to(SRC).as_posix(), *scope))
            if isinstance(node, ast.FunctionDef) and node.name == "_step":
                defined.append(path.name)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                scope = (*scope, node.name)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(source), ())
    # no per-value hook beside the loops: each detector steps inside its _feed
    assert named == defined == uses["_step"] == []
    # whole batches only: no loop relays a value to another detector's _feed
    assert sorted(uses["_feed"]) == [
        ("cli.py", "cmd_detect"),
        ("streaming/adapter.py", "ComplementAdapter", "_feed"),
        ("streaming/base.py", "Detector", "push"),
        ("streaming/dispatch.py", "run_detector"),
    ]


def streams_accepting_late(pattern: str, n: int):
    """The adversary with two late values swapped, where that makes it accept."""
    adversary = build(pattern, n).adversary()
    rng = random.Random(11)
    while True:
        i, j = sorted(rng.sample(range(10, n), 2))
        stream = list(adversary)
        stream[i], stream[j] = stream[j], stream[i]
        accepted_at = by_push(pattern, stream)[1]
        if accepted_at is not None:
            yield stream, accepted_at


@pytest.mark.parametrize("pattern", ["321", "132", "213"])
def test_detect_accepted_after_across_chunks(tmp_path, monkeypatch, capsys, pattern):
    monkeypatch.setattr(core, "READ_CHARS", 8)  # two or three values a chunk
    path = tmp_path / "s.txt"
    for stream, accepted_at in islice(streams_accepting_late(pattern, 40), 4):
        path.write_text("n=40 mode=perm\n" + " ".join(map(str, stream)) + "\n")
        assert main(["detect", "--pattern", pattern, "--input", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accepted_after"] == accepted_at > 10, stream
