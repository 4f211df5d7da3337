"""Checks on the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

Each workload is run once untraced and twice traced on one seed, one pass
per side, which takes about seven minutes in all.
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._import_package()

import tracing  # noqa: E402

# counts that depend only on the seeded inputs, with the workloads on
# which each must be nonzero
DETERMINISTIC = {
    "dehn.steps": {"area"},
    "suffixes.text_letters": {"complete", "small-checks"},
    "hnn.build_complex_pair.calls": {"complete"},
    "hnn.validate.calls": {"complete"},
    "subquotient.quotient.calls": {"complete", "small-checks"},
    "stallings.fold.edges_in": {"complete", "small-checks"},
}

SEED = 7


@pytest.fixture(scope="module", params=["complete", "area", "small-checks"])
def runs(request):
    workload = request.param
    plain = run.run(workload, SEED, seconds=0, trace=False)
    traced = [run.run(workload, SEED, seconds=0, trace=True) for _ in range(2)]
    return workload, plain, traced


def test_counts_repeat_exactly(runs):
    workload, _, (one, two) = runs
    for name, nonzero_on in DETERMINISTIC.items():
        a = one["result"]["metrics"][name]
        assert a == two["result"]["metrics"][name], name
        assert (a > 0) == (workload in nonzero_on), (name, a)


def test_tracing_changes_no_output(runs):
    _, plain, traced = runs
    for out in [plain, *traced]:
        assert out["result"]["correct"] and out["result"]["failed"] == 0
    digests = {out["record"]["digest"] for out in [plain, *traced]}
    assert len(digests) == 1


def test_every_metric_reported_with_overhead(runs):
    _, plain, traced = runs
    names = set(tracing.per_layer_metric_names())
    for out in traced:
        metrics = out["result"]["metrics"]
        assert set(metrics) == names
        assert math.isfinite(metrics["trace.overhead_share"])
    assert set(plain["result"]["metrics"]) == {
        "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb", "ok_share", "setup_s"
    }


def test_benchmark_json_lists_every_metric():
    import json

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb", "ok_share", "setup_s"
    }


def test_install_wraps_every_binding_and_uninstall_restores():
    import hnnembed
    from hnnembed import cli, hnn, presentation, words

    orig = presentation.piece_stats
    post_init = words.Word.__dict__["__post_init__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = presentation.piece_stats
        assert wrapped is not orig
        assert hnn.piece_stats is wrapped and cli.piece_stats is wrapped
        assert hnnembed.piece_stats is wrapped
        assert words.Word.__dict__["__post_init__"] is not post_init
        words.Word.of(1, -2)
    finally:
        tracer.uninstall()
    assert presentation.piece_stats is orig and hnn.piece_stats is orig
    assert cli.piece_stats is orig and hnnembed.piece_stats is orig
    assert words.Word.__dict__["__post_init__"] is post_init
    assert [tracer.names[i] for i in tracer.name] == ["words.Word"]
