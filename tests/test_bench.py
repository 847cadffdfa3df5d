"""Smoke test for the benchmark's per-layer tracer (bench/tracing.py).

The tracer swaps names inside the package's modules for timing wrappers,
so it breaks silently when one of those names moves or its result changes
shape.  A bundled discourse through the traced CLI path must reach every
layer, and uninstalling must put every original back.  Two more inputs
reach the counters that read the engine's candidates: one with zero-topic
variants, and a wide pool whose in-Cf readings prune the out-of-Cf ones.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

from centering import cli, corpus, engine, model

BENCH = Path(__file__).resolve().parents[1] / "bench"
PATCHED = (cli, corpus, engine, model.Hypothesis)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def _namespaces():
    return [dict(vars(owner)) for owner in PATCHED]


def traced_metrics(tracing, path):
    """The per-layer metrics of path through the traced CLI, every name put back."""

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run_cli(["resolve", str(path), "--format", "json"])
        return code, out.getvalue()

    before = _namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = _namespaces()
        code, out = tracer.discourse(run)
    finally:
        tracer.uninstall()
    after = _namespaces()

    assert code == cli.EXIT_OK and out
    swapped = {
        name
        for old, new in zip(before, installed)
        for name in old
        if new[name] is not old[name]
    }
    assert {"parse_discourse", "resolve", "step", "__post_init__"} <= swapped
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[name] is old[name] for name in old)

    metrics = tracer.metrics(1)
    assert metrics
    assert metrics["cli.render.bytes"][0] == len(out.encode("utf-8"))
    return metrics


def test_tracer_covers_the_cli_path_and_restores_every_name(tracing, tmp_path):
    path = tmp_path / "shift_ex.json"
    path.write_text(corpus.corpus_text("shift_ex.json"), encoding="utf-8")
    metrics = traced_metrics(tracing, path)
    for name in ("corpus.parse.calls", "model.validate.calls", "engine.step.calls",
                 "engine.generate.calls", "model.hypothesis.constructs"):
        assert metrics[name][0] >= 1, name


def test_tracer_counts_zero_topic_variants(tracing, tmp_path):
    path = tmp_path / "zta_ex_ga.json"
    path.write_text(corpus.corpus_text("zta_ex_ga.json"), encoding="utf-8")
    assert traced_metrics(tracing, path)["engine.zta.variants"][0] >= 1


def test_tracer_counts_out_of_cf_prunes_on_a_wide_pool(tracing, workloads, tmp_path):
    # Ten hearer-old entities, in-Cf readings: the out-of-Cf ones are pruned.
    pool = workloads.wide_pool(random.Random(5), 10, False)
    path = tmp_path / "wide_pool.json"
    path.write_text(corpus.serialize_discourse(pool), encoding="utf-8")
    assert traced_metrics(tracing, path)["engine.prune.out_of_cf"][0] >= 1
