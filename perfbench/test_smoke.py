"""Smoke test: every workload at a tenth of its size, traced, all checks on.

Run with ``python3 -m pytest perfbench/test_smoke.py``.  It takes a few
seconds and keeps the benchmark from rotting as the library changes.
"""

import math

import pytest

import run

run._import_paths()

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_checks_pass(tmp_path, name):
    raw = {}
    for part, scale in (("plain", 0.1), ("full", 0.1), ("quarter", 0.05)):
        tracer = spans.Tracer(enabled=part != "plain")
        expect = gen.build(name, 7, scale, tmp_path / part)
        wl = workloads.WORKLOADS[name](tmp_path / part, expect, tracer)
        raw[part] = run.run_rounds(wl, tracer, seconds=0, min_rounds=1)
        assert raw[part]["problems"] == []
        assert tracer.failed == 0 and tracer.attempted > 0
    raw["peak_rss_mb"] = 1.0

    metrics, _ = run._end_to_end(name, raw)
    assert all(m["value"] > 0 for m in metrics.values())
    layers, _ = run._per_layer(raw)
    assert all(math.isfinite(m["value"]) for m in layers.values())
    used = {"publish": "exchange.plan_session", "harvest": "store.merge",
            "lookup": "store.query"}[name]
    assert layers[f"{used}.self_s"]["value"] > 0


def test_inputs_repeat_for_a_seed(tmp_path):
    first = gen.build("publish", 3, 0.05, tmp_path / "a")
    second = gen.build("publish", 3, 0.05, tmp_path / "b")
    assert first == second
    for name in ("site.rdf", "registry.tsv", "export.sgml"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_self_time_subtracts_children():
    tracer = spans.Tracer(enabled=True)
    with tracer.span("outer"):
        tracer.call("inner", sum, range(1000))
    times = tracer.self_times()
    outer = tracer.spans[0][2] - tracer.spans[0][1]
    inner = tracer.spans[1][2] - tracer.spans[1][1]
    assert times["outer"] == pytest.approx((outer - inner) / 1e9)
    assert times["inner"] == pytest.approx(inner / 1e9)
