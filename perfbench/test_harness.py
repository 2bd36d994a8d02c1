"""Self-test of the benchmark harness on tiny shapes.

    python3 -m pytest -q perfbench/test_harness.py

Both workloads run shrunk to a few documents and topics.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import re
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench = _load("run")
traced = _load("traced")

TINY_SPEC = dict(k_true=3, vocab_size=40, num_docs=12, topic_sharpness=0.2, r=5.0, p=0.8)
TINY = {
    "desk": dataclasses.replace(bench.WORKLOADS["desk"], K=6, iters=3, burnin=1, init_iters=1, spec=TINY_SPEC),
    "paper": dataclasses.replace(bench.WORKLOADS["paper"], K=8, iters=3, burnin=1, init_iters=1, spec=TINY_SPEC),
}


@pytest.fixture(autouse=True)
def _work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)


def _measure(name: str, trace: bool, capsys):
    result = bench.measure(TINY[name], 3, 0.0, trace, time.monotonic() + bench.RUN_DEADLINE_S)
    return result, capsys.readouterr().out


def _assert_printed(out: str, metrics: dict) -> None:
    for name, (unit, better) in metrics.items():
        pattern = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+{better} is better$"
        assert re.search(pattern, out, re.MULTILINE), f"{name} not printed with unit {unit}"


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    result, out = _measure(name, trace, capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric][0]
        assert isinstance(entry["value"], (int, float))
    _assert_printed(out, expected)
    _assert_printed(out, bench.REPORTED)
    json.dumps(result)


@pytest.mark.parametrize("name", ["desk", "paper"])
def test_crt_and_topic_spans_nest_inside_sweeps(name, tmp_path, capsys):
    result, _ = _measure(name, True, capsys)
    assert result["correct"]
    spans = [json.loads(line) for line in (tmp_path / f"{name}-3" / "spans.jsonl").read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    assert len({s["run"] for s in spans}) == 1
    inside_sweeps = 0
    for span in spans:
        if span["name"] not in ("models.topics", "distributions.crt"):
            continue
        parent = by_id[span["parent"]]
        assert parent["name"] in ("models.sweep", "models.initialize")
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        inside_sweeps += parent["name"] == "models.sweep"
    sweeps = [s for s in spans if s["name"] == "models.sweep"]
    assert len(sweeps) == TINY[name].iters
    assert inside_sweeps >= 2 * len(sweeps)  # at least one topic and one CRT span per sweep


def test_a_renamed_layer_fails_loudly(monkeypatch):
    module = types.ModuleType("renamed_layer")
    monkeypatch.setitem(sys.modules, "renamed_layer", module)
    with pytest.raises(AttributeError, match="no longer exists"):
        traced.Tracer("run").wrap("renamed_layer", "gibbs_sweep", "models.sweep", None)


def test_a_missing_span_fails_the_run():
    spans = [{"id": 0, "name": "cli.main", "parent": None, "run": "r", "work": None, "start": 0.0, "end": 1.0}]
    with pytest.raises(bench.CheckFailed, match="no longer calls"):
        bench.span_metrics(spans, TINY["desk"], {})
