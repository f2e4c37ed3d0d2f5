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

The names below are re-exported lazily (PEP 562): each loads its module on
first use, so ``import permstream`` alone loads none of them, and a run of
``permstream detect`` loads neither the oracle nor the generators.
"""

from importlib import import_module

__version__ = "0.1.0"


def _lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """PEP 562 hooks that load each name of ``exports`` from its submodule.

    ``exports`` maps a submodule of the package whose ``namespace`` is given
    to the names it defines.  Returns ``(__getattr__, __dir__, __all__)``;
    a name, once loaded, is kept in ``namespace`` so later lookups skip the
    hook.
    """
    package = namespace["__name__"]
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{package}.{module}"), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *module_of})

    return __getattr__, __dir__, sorted(module_of)


__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    "core": (
        "Occurrence",
        "Pattern",
        "PatternKind",
        "StreamInstance",
        "StreamMode",
        "classify_pattern",
        "complement",
        "format_stream_text",
        "is_order_isomorphic",
        "parse_pattern",
        "parse_stream_text",
        "stream_violation",
    ),
    "hardgen": (
        "DisjInstance",
        "Segment",
        "extend_stream",
        "gen_3142_2143",
        "gen_4312",
        "gen_monotone_lb",
        "gen_pi4_front",
        "gen_seq312",
        "random_subsets",
    ),
    "oracle": (
        "SplitInput",
        "contains_bruteforce",
        "count_occurrences",
        "occurrence_is_valid",
        "split_protocol",
    ),
    "streaming": (
        "BaselineDetector",
        "ComplementAdapter",
        "Detector",
        "Detector231",
        "Detector312",
        "DetectorReport",
        "InvariantViolation",
        "MonotoneDetector",
        "TrivialRejectDetector",
        "bits_per_cell",
        "default_window",
        "new_detector",
        "replay_312_with_invariants",
        "run_detector",
    ),
})
