"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.  The
workload tests run each workload briefly in traced mode.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.bootstrap()
import gxnor  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),      # overlaps a: the two cover [1, 5]
        ("a.leaf", 1.5, 2.5, 1),
        ("late", 9.0, 12.0, 0),  # runs past its parent: only [9, 10] counts
        ("other", 20.0, 21.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 1.0, 3.0, 1.0])


def test_summary_sums_calls_total_and_self_time_per_name():
    tracer = tracing.Tracer()
    tracer.spans = [("f", 0.0, 4.0, -1), ("g", 1.0, 2.0, 0), ("f", 5.0, 6.0, -1)]
    summary = tracer.summary()
    assert summary["f"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert summary["g"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_every_lookup_site_is_wrapped_and_restored():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracing.FUNCTIONS}
    aliases = [(module, key) for module in tracing._traced_modules()
               for key, value in vars(module).items()
               if any(value is fn for fn in originals.values())]
    assert (gxnor.network, "packed_dense_forward") in aliases
    assert (gxnor.cli, "fit") in aliases
    with tracing.Tracer().installed():
        for module, key in aliases:
            assert hasattr(getattr(module, key), "__wrapped__"), f"{module.__name__}.{key}"
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[m], a) is fn
    for module, key in aliases:
        assert not hasattr(getattr(module, key), "__wrapped__")


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in tracing.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_is_correct_and_its_named_spans_fire(name):
    result, details = run.run(name, seed=3, seconds=0.2, trace=True)
    assert result["correct"] and result["failed"] == 0, details["errors"]
    assert result["attempted"] >= 1
    expected = [metric for metric, *_, fires_on in tracing.PER_LAYER if name in fires_on]
    assert expected
    silent = [metric for metric in expected if not result["metrics"][metric]["value"] > 0]
    assert not silent, f"spans that never fired on {name}: {silent}"
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert details["environment"]["seed"] == 3


def test_shares_match_the_workload_design():
    # DST dominates an MLP step; the Conv2d layers dominate a conv step.
    _, mlp = run.run("mlp-train", seed=1, seconds=0.5, trace=True)
    top = max(mlp["self_time"].items(), key=lambda kv: kv[1]["self_s"])[0]
    assert top == "dst.DstOptimizer.step"
    _, conv = run.run("conv-train", seed=1, seconds=0.2, trace=True)
    top = max(conv["self_time"].items(), key=lambda kv: kv[1]["self_s"])[0]
    assert top.startswith("layers.Conv2d.")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "mlp-train", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_an_inherited_method_is_wrapped_and_then_removed():
    class Base:
        def step(self):
            return "base"

    class Child(Base):
        pass

    tracer = tracing.Tracer()
    tracer._patch(Child, "step", tracer._wrap("child.step", Child.step))
    assert Child().step() == "base" and tracer.spans[0][0] == "child.step"
    tracer.uninstall()
    assert "step" not in vars(Child) and Child.step is Base.step
