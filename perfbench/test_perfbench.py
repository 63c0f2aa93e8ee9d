"""Tests of the benchmark itself: span arithmetic, checks and unwrapping.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, leftover_wrappers  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def fake_modules(clock):
    """Module ``a`` defines ``inner`` and ``outer``; ``b`` imports ``inner``."""
    a = types.ModuleType("fake.a")
    a.tick = clock.tick
    exec("def inner():\n"
         "    tick(2.0)\n"
         "def outer():\n"
         "    tick(1.0)\n"
         "    inner()\n"
         "    tick(1.0)\n", a.__dict__)
    b = types.ModuleType("fake.b")
    b.tick = clock.tick
    b.inner = a.inner
    exec("def caller():\n"
         "    tick(3.0)\n"
         "    inner()\n", b.__dict__)
    return {"a": a, "b": b}


def test_self_time_subtracts_children_across_namespaces():
    clock = FakeClock()
    modules = fake_modules(clock)
    originals = {"a": dict(vars(modules["a"])), "b": dict(vars(modules["b"]))}
    tracer = Tracer(clock=clock)
    tracer.install(modules)
    modules["a"].outer()
    modules["b"].caller()
    tracer.uninstall()
    snap = tracer.snapshot()
    assert snap["calls"] == {"a.outer": 1, "a.inner": 2, "b.caller": 1}
    assert snap["self_s"] == {"a.outer": 2.0, "a.inner": 4.0, "b.caller": 3.0}
    for short, module in modules.items():
        assert dict(vars(module)) == originals[short]
    assert leftover_wrappers(modules) == []


@pytest.fixture(scope="module")
def lib():
    return worker.Library()


def test_library_wrappers_are_gone_after_traced_run(lib):
    original = lib.snf.smith_normal_form
    tracer = Tracer()
    tracer.install(lib.modules)
    try:
        # bound in snf and imported by zz2: both names reach the wrapper
        assert lib.zz2.smith_normal_form is lib.snf.smith_normal_form
        assert lib.zz2.smith_normal_form is not original
        assert lib.zz2.cohomology.__name__ == "cohomology"
        assert "homcomplexes.CyclePipeline.mu_colours" in leftover_wrappers(
            lib.modules)
        lib.zz2.bredon_torus(2, 4, 1)
        stream = lib.graphs.enumerate_homs(
            lib.graphs.power(lib.graphs.cycle_graph(3), 1),
            lib.graphs.complete_graph(4))
        assert len(list(stream)) == 24 and stream.truncated is False
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert snap["calls"]["snf.smith_normal_form"] == 2
    assert snap["counts"]["graphs.homs_emitted"] == 24
    assert snap["counts"]["zz2.orbit_cells"] > 0
    assert leftover_wrappers(lib.modules) == []
    assert lib.snf.smith_normal_form is original
    assert lib.zz2.smith_normal_form is original


def test_traced_worker_unwraps(lib, tmp_path, monkeypatch):
    monkeypatch.setenv("EQUIHOM_CACHE", str(tmp_path / "cache"))
    assert worker.main(["--workload", "minion", "--seed", "1", "--trace", "1",
                        "--setup-only", "--spawned-at", "0",
                        "--tmp", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["failed"] == 0 and result["notes"] == []
    assert result["trace"]["calls"]["homcomplexes.search_t_colouring"] == 1
    assert leftover_wrappers(lib.modules) == []


def test_wrong_answer_counts_as_failed_operation(lib, tmp_path, monkeypatch):
    tally = worker.Tally()
    worker.run_bredon(lib, [(2, 4, 1)], 0, tmp_path, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    monkeypatch.setattr(lib.cli, "bredon_torus",
                        lambda *args, **kwargs: lib.zz2.CohomologyGroup(0, ()))
    worker.run_bredon(lib, [(2, 4, 1)], 0, tmp_path, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "expected (0, [2])" in tally.notes[0]


def test_raising_operation_counts_as_failed(lib, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise lib.errors.InternalError("injected")

    monkeypatch.setattr(lib.degrees, "phi", broken)
    tally = worker.Tally()
    one_map = worker.k4_colourings(2)[:1]
    worker.run_minion(lib, {"binary": one_map, "ternary": []}, None, tally)
    # the count check, phi(f) and its five minors
    assert (tally.attempted, tally.failed) == (7, 7)


def test_survey_checks():
    row = {"n": 1, "chains_sampled": 4000, "alternation_violations": 0,
           "weight_histogram": {"1": 24}}
    good = {"per_n": [dict(row, n=n) for n in (1, 2, 3)]}
    assert worker.survey_problem(good) is None
    bad = json.loads(json.dumps(good))
    bad["per_n"][2]["alternation_violations"] = 1
    assert "violations" in worker.survey_problem(bad)
    bad = json.loads(json.dumps(good))
    bad["per_n"][1]["weight_histogram"] = {"1": 5, "2": 1}
    assert "odd" in worker.survey_problem(bad)


def test_inputs_and_minors(lib):
    binary = worker.k4_colourings(2)
    assert len(binary) == worker.BINARY_COUNT
    inputs = worker.minion_inputs(5)
    assert inputs["ternary"] == worker.minion_inputs(5)["ternary"]
    assert len(set(inputs["ternary"])) == worker.TERNARY_SAMPLE
    dom = lib.graphs.power(lib.graphs.cycle_graph(3), 3)
    k4 = lib.graphs.complete_graph(4)
    for values in inputs["ternary"]:
        lib.graphs.GraphHom(dom, k4, values)  # raises unless a homomorphism
    assert worker.block_sums((1, 0, 0), 2, (1, 1, 2)) == (1, 0)
    assert worker.block_sums((1, 1, 1), 2, (1, 1, 2)) == (0, 1)
    assert len(worker.minor_specs(3)) == 9


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bredon",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
