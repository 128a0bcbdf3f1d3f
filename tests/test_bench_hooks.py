"""Every package name the benchmark tracer wraps must still exist.

`perfbench/trace.py` installs its timing wrappers by name at run time,
so deleting or renaming a traced function would silently drop a layer
from the benchmark. The tracer module is only loaded and read here, and
run once as the benchmark runs it, on a small session.
"""
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACE = ROOT / "perfbench" / "trace.py"


def load_trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_are_defined_on_their_classes():
    trace = load_trace()
    assert trace.METHODS
    for module_name, cls_name, attr in trace.METHODS:
        module = importlib.import_module(f"patchcert.{module_name}")
        cls = getattr(module, cls_name)
        assert attr in cls.__dict__, (module_name, cls_name, attr)


def test_traced_functions_and_generators_exist():
    trace = load_trace()
    assert trace.FUNCTIONS and trace.GENERATORS
    for module_name, fn_name in trace.FUNCTIONS + trace.GENERATORS:
        module = importlib.import_module(f"patchcert.{module_name}")
        assert callable(getattr(module, fn_name, None)), (module_name, fn_name)


def test_traced_generators_are_generator_functions():
    """The tracer times each `next` on a generator's result, so a traced
    generator rewritten to return a list would break the traced pass."""
    trace = load_trace()
    for module_name, fn_name in trace.GENERATORS:
        module = importlib.import_module(f"patchcert.{module_name}")
        assert inspect.isgeneratorfunction(getattr(module, fn_name)), (module_name, fn_name)


def test_a_traced_session_runs_and_counts_each_image_built(tmp_path):
    """The traced path the benchmark times, end to end: every command
    returns 0 through the wrappers, and `Image.__post_init__` is timed
    once per sample that `gen-data`, `evaluate` and `verify` build.
    The defender layer stays on that path too: `evaluate` certifies each
    sample twice (its consistency and the defender) and warns once,
    `verify` certifies once, and the scan's warnings reach
    `Defender.warn_clauses` under `run_soundness`. So does the metrics
    layer: `evaluate` and `report` each compute one report, `verify` none."""
    inputs = ["--dataset", "data.jsonl", "--masks", "masks.json",
              "--classifier", "hash", "--num-labels", "2", "--tau", "0.8"]
    commands = [
        ["maskgen", "--plane", "4", "4", "--patch-size", "2",
         "--masks-per-axis", "2", "--out", "masks.json"],
        ["gen-data", "--count", "6", "--plane", "4", "4", "--alphabet", "2",
         "--num-labels", "2", "--out", "data.jsonl"],
        ["evaluate", *inputs, "--out-dir", "eval"],
        ["verify", *inputs, "--checks", "def1,thm1", "--out", "verify.json"],
        ["report", "--records", "eval/records_hicert_tau0.8.jsonl",
         "--out", "report.json"],
    ]
    (tmp_path / "commands.json").write_text(json.dumps(commands))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(TRACE), "trace", "commands.json", "trace.json"],
        cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120,
    )
    runs = json.loads((tmp_path / "trace.json").read_text())["commands"]
    assert [(run["command"], run["rc"]) for run in runs] == [
        ("maskgen", 0), ("gen-data", 0), ("evaluate", 0), ("verify", 0),
        ("report", 0)]
    built = {
        run["command"]: sum(calls for name, _, calls, _, _ in run["spans"]
                            if name == "tensor.Image.__post_init__")
        for run in runs
    }
    assert {name: built[name] for name in ("gen-data", "evaluate", "verify")} == {
        "gen-data": 6, "evaluate": 6, "verify": 6}
    spans = {run["command"]: run["spans"] for run in runs}

    def calls(command, span, parent=None):
        return sum(n for name, at, n, _, _ in spans[command]
                   if name == span and parent in (None, at))

    assert {method: calls("evaluate", f"defenders.Defender.{method}")
            for method in ("certify", "verdict", "warn", "warn_clauses")} == {
        "certify": 12, "verdict": 6, "warn": 6, "warn_clauses": 6}
    assert calls("verify", "defenders.Defender.certify") == 6
    assert calls("verify", "defenders.Defender.warn_clauses",
                 parent="oracle.run_soundness") > 0
    assert {command: calls(command, "metrics.compute_metrics")
            for command in ("evaluate", "report", "verify")} == {
        "evaluate": 1, "report": 1, "verify": 0}
