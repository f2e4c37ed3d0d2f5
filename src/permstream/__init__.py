"""permstream: streaming permutation-pattern detection with exhaustive oracles.

The package answers "does this stream of distinct values contain a given
pattern?" three ways, each serving as a check on the others:

* :mod:`permstream.streaming` -- one-pass detectors that accept the moment
  the pattern is provably present, using far less memory than the stream
  (a patience array for monotone patterns, a value window plus disjoint
  decreasing pairs for 312/132, strip summaries for 231/213, and a
  full-storage baseline for everything else);
* :mod:`permstream.oracle` -- brute-force containment, exact occurrence
  counting, and a one-bit two-party protocol for short patterns;
* :mod:`permstream.hardgen` -- generators of adversarial instances that
  encode set-disjointness, plus the padding transform used to extend
  hardness from a pattern to its one-value extensions.

:mod:`permstream.cli` wires these into the ``permstream`` command.
"""

from .core import (
    Occurrence,
    Pattern,
    PatternKind,
    StreamInstance,
    StreamMode,
    classify_pattern,
    complement,
    format_stream_text,
    is_order_isomorphic,
    parse_pattern,
    parse_stream_text,
    rank_normalize,
    read_stream_file,
    reverse,
    stream_violation,
    validate_stream,
    write_stream_file,
)
from .hardgen import (
    DisjInstance,
    Segment,
    extend_stream,
    extend_stream_iter,
    gen_3142_2143,
    gen_4312,
    gen_monotone_lb,
    gen_pi4_front,
    gen_seq312,
    random_subsets,
)
from .oracle import (
    SplitInput,
    contains_bruteforce,
    count_occurrences,
    occurrence_is_valid,
    split_protocol,
    subsequence_pattern,
)
from .streaming import (
    BaselineDetector,
    ComplementAdapter,
    Detector,
    Detector231,
    Detector312,
    DetectorReport,
    InvariantViolation,
    MonotoneDetector,
    TrivialRejectDetector,
    bits_per_cell,
    default_window,
    new_detector,
    replay_312_with_invariants,
    run_detector,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineDetector",
    "ComplementAdapter",
    "Detector",
    "Detector231",
    "Detector312",
    "DetectorReport",
    "DisjInstance",
    "InvariantViolation",
    "MonotoneDetector",
    "Occurrence",
    "Pattern",
    "PatternKind",
    "Segment",
    "SplitInput",
    "StreamInstance",
    "StreamMode",
    "TrivialRejectDetector",
    "bits_per_cell",
    "classify_pattern",
    "complement",
    "default_window",
    "contains_bruteforce",
    "count_occurrences",
    "extend_stream",
    "extend_stream_iter",
    "format_stream_text",
    "gen_3142_2143",
    "gen_4312",
    "gen_monotone_lb",
    "gen_pi4_front",
    "gen_seq312",
    "is_order_isomorphic",
    "new_detector",
    "occurrence_is_valid",
    "parse_pattern",
    "parse_stream_text",
    "random_subsets",
    "rank_normalize",
    "read_stream_file",
    "replay_312_with_invariants",
    "reverse",
    "run_detector",
    "split_protocol",
    "stream_violation",
    "subsequence_pattern",
    "validate_stream",
    "write_stream_file",
]
