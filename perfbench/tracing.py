"""Span recorder that wraps hnnembed's layer entry points from outside.

The package itself carries no tracing.  For a traced pass the benchmark
swaps each layer function listed in ``TARGETS`` for a wrapper that opens a
span (name, start, end, parent span, op id, one measured quantity) and
closes it when the call returns.  A function bound by ``from .x import f``
lives in every importing module's namespace, so :meth:`Tracer.install`
replaces the object under every name that holds it in every loaded
``hnnembed`` module; methods are replaced on their class.
:meth:`Tracer.uninstall` puts the originals back, so untraced passes run
the unmodified code.

Spans are kept in flat arrays and turned into per-layer metrics and an
``.npz`` dump when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _text_letters(args, kwargs, result):
    relators = args[0]
    include_inverses = args[1] if len(args) > 1 else kwargs.get("include_inverses", True)
    orients = 2 if include_inverses else 1
    # doubled word plus one sentinel per section, as match_table lays it out
    return orients * sum(2 * len(r) + 1 for r in relators)


def _edges_in(args, kwargs, result):
    return len(args[0].edges)


def _steps(args, kwargs, result):
    return len(result.steps)


def _parse_bytes(args, kwargs, result):
    return len(args[0].encode())


def _cli_span(args, kwargs):
    return f"cli.{args[0][0]}"  # cli.embed, cli.certify


# (module, attribute, span name or a function of the call's arguments,
#  measured quantity or None).  "Class.method" attributes wrap methods.
TARGETS = [
    ("hnnembed.words", "Word.__post_init__", "words.Word", None),
    ("hnnembed.words", "free_reduce", "words.free_reduce", None),
    ("hnnembed.words", "cyclic_reduce", "words.cyclic_reduce", None),
    ("hnnembed.suffixes", "match_table", "suffixes.match_table", _text_letters),
    ("hnnembed.suffixes", "suffix_array", "suffixes.suffix_array", None),
    ("hnnembed.suffixes", "lcp_array", "suffixes.lcp_array", None),
    ("hnnembed.presentation", "piece_stats", "presentation.piece_stats", None),
    ("hnnembed.presentation", "check_cprime", "presentation.check_cprime", None),
    ("hnnembed.presentation", "cp_from_stats", "presentation.cp_from_stats", None),
    ("hnnembed.subquotient", "quotient", "subquotient.quotient", None),
    ("hnnembed.subquotient", "check_no_extra_powers", "subquotient.check_no_extra_powers", None),
    ("hnnembed.subquotient", "check_no_duplicates", "subquotient.check_no_duplicates", None),
    (
        "hnnembed.subquotient",
        "liftability_counterexample_search",
        "subquotient.liftability_counterexample_search",
        None,
    ),
    ("hnnembed.stallings", "fold", "stallings.fold", _edges_in),
    ("hnnembed.stallings", "trim_to_core", "stallings.trim_to_core", None),
    ("hnnembed.stallings", "is_monomorphism", "stallings.is_monomorphism", None),
    ("hnnembed.stallings", "canonical_form", "stallings.canonical_form", None),
    ("hnnembed.hnn", "validate", "hnn.validate", None),
    ("hnnembed.hnn", "generate_relator_family", "hnn.generate_relator_family", None),
    ("hnnembed.hnn", "build_complex_pair", "hnn.build_complex_pair", None),
    ("hnnembed.hnn", "construct_embedding", "hnn.construct", None),
    ("hnnembed.hnn", "construct_irreducible_embedding", "hnn.construct", None),
    ("hnnembed.dehn", "DehnSolver.__init__", "dehn.init", None),
    ("hnnembed.dehn", "DehnSolver.solve", "dehn.solve", _steps),
    ("hnnembed.dehn", "DehnSolver.piece_count", "dehn.piece_count", None),
    ("hnnembed.dehn", "verify_steps", "dehn.verify_steps", None),
    ("hnnembed.parsing", "parse_source", "parsing.parse", _parse_bytes),
    ("hnnembed.parsing", "hnn_source", "parsing.emit", None),
    ("hnnembed.parsing", "presentation_source", "parsing.emit", None),
    ("hnnembed.cli", "main", _cli_span, None),
]


class Tracer:
    """Records nested spans; one instance per run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("q")
        self._stack: list[int] = []
        self.current_op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, span, measure):
        tracer = self
        fixed = None if callable(span) else self._name_id(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name.append(fixed if fixed is not None else tracer._name_id(span(args, kwargs)))
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.value.append(0)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            if measure is not None:
                tracer.value[idx] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target, under every name that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "hnnembed" or n.startswith("hnnembed.")]
        for module_name, attr, span, measure in TARGETS:
            home = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(orig, span, measure))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, span, measure)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapped)

    def _patch(self, owner, key, orig, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
        }

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# (span name, kinds reported).  "calls" counts calls over the count pass and
# per op; "busy" and "self" are seconds per traced op.
LAYER_METRICS = [
    ("words.Word", ("calls", "busy")),
    ("words.free_reduce", ("calls", "busy")),
    ("words.cyclic_reduce", ("busy",)),
    ("suffixes.match_table", ("calls", "busy", "self")),
    ("suffixes.suffix_array", ("busy",)),
    ("suffixes.lcp_array", ("busy",)),
    ("presentation.piece_stats", ("calls", "busy")),
    ("presentation.check_cprime", ("calls",)),
    ("presentation.cp_from_stats", ("busy",)),
    ("subquotient.quotient", ("calls", "busy")),
    ("subquotient.check_no_extra_powers", ("busy",)),
    ("subquotient.check_no_duplicates", ("busy",)),
    ("subquotient.liftability_counterexample_search", ("busy",)),
    ("stallings.fold", ("calls", "busy")),
    ("stallings.trim_to_core", ("busy",)),
    ("stallings.is_monomorphism", ("calls",)),
    ("stallings.canonical_form", ("busy",)),
    ("hnn.validate", ("calls",)),
    ("hnn.generate_relator_family", ("calls",)),
    ("hnn.build_complex_pair", ("calls",)),
    ("hnn.construct", ("busy",)),
    ("dehn.solve", ("calls", "busy")),
    ("dehn.piece_count", ("busy",)),
    ("dehn.verify_steps", ("busy",)),
    ("parsing.parse", ("calls", "busy")),
    ("parsing.emit", ("busy",)),
    ("cli.embed", ("busy",)),
    ("cli.certify", ("busy",)),
]

# measured quantities, summed over the count pass: metric name -> span name
LAYER_VALUES = {
    "suffixes.text_letters": "suffixes.match_table",
    "stallings.fold.edges_in": "stallings.fold",
    "dehn.steps": "dehn.solve",
    "parsing.parse.bytes": "parsing.parse",
}

# layers whose total self time is reported
SELF_LAYERS = ("hnn", "cli")


def per_layer_metric_names() -> list[str]:
    """Name of every per-layer metric, in report order; BENCHMARK.json holds
    their units."""
    out = []
    for span, kinds in LAYER_METRICS:
        if "calls" in kinds:
            out += [f"{span}.calls", f"{span}.calls_per_op"]
        if "busy" in kinds:
            out.append(f"{span}.busy_s")
        if "self" in kinds:
            out.append(f"{span}.self_s")
    for metric in LAYER_VALUES:
        out += [metric, f"{metric}_per_op"]
    out += [f"{layer}.self_s" for layer in SELF_LAYERS]
    out += [
        "hnn.first_try_ratio",
        "dehn.solve_s_per_step",
        "dehn.init.busy_s",
        "trace.overhead_share",
    ]
    return out


def layer_metrics(
    tracer: Tracer, count_ops: range, traced_ops: int, overhead_share: float
) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    Counts cover the ops in ``count_ops`` (one whole pass, so they repeat
    exactly for a seed); busy and self times are seconds per op over all
    ``traced_ops`` traced ops.  Spans outside any op (op id -1, such as
    building a solver between passes) only feed ``dehn.init.busy_s``.
    """
    a = tracer.arrays()
    names = tracer.names
    dur = a["end"] - a["start"]
    child = np.zeros(dur.size)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_t = dur - child
    in_op = a["op"] >= 0
    in_count = (a["op"] >= count_ops.start) & (a["op"] < count_ops.stop)
    n_count = len(count_ops)
    per_op = max(traced_ops, 1)

    def sel(span: str) -> np.ndarray:
        i = tracer._ids.get(span)
        if i is None:
            return np.zeros(dur.size, dtype=bool)
        return a["name"] == i

    out: dict[str, float] = {}
    for span, kinds in LAYER_METRICS:
        mask = sel(span)
        if "calls" in kinds:
            calls = int(np.count_nonzero(mask & in_count))
            out[f"{span}.calls"] = calls
            out[f"{span}.calls_per_op"] = calls / n_count
        if "busy" in kinds:
            out[f"{span}.busy_s"] = float(dur[mask & in_op].sum()) / per_op
        if "self" in kinds:
            out[f"{span}.self_s"] = float(self_t[mask & in_op].sum()) / per_op
    for metric, span in LAYER_VALUES.items():
        total = int(a["value"][sel(span) & in_count].sum())
        out[metric] = total
        out[f"{metric}_per_op"] = total / n_count
    for layer in SELF_LAYERS:
        ids = [i for i, n in enumerate(names) if n.split(".")[0] == layer]
        mask = np.isin(a["name"], ids) & in_op
        out[f"{layer}.self_s"] = float(self_t[mask].sum()) / per_op
    attempts = out["hnn.build_complex_pair.calls"]
    completions = int(np.count_nonzero(sel("hnn.construct") & in_count))
    out["hnn.first_try_ratio"] = completions / attempts if attempts else 0.0
    solve = sel("dehn.solve") & in_op
    steps = int(a["value"][solve].sum())
    out["dehn.solve_s_per_step"] = float(dur[solve].sum()) / steps if steps else 0.0
    init = sel("dehn.init")
    out["dehn.init.busy_s"] = float(dur[init].mean()) if init.any() else 0.0
    out["trace.overhead_share"] = overhead_share
    return out
