"""Snapshot of the public API: the names `patchcert` exports and each
module's `__all__`. Adding or removing a public name means editing this
snapshot on purpose. Also the import layout that keeps the package's
modules a DAG."""
import ast
import graphlib
import importlib
import pathlib
import types

import pytest

import patchcert

PACKAGE_NAMES = {
    "AttackConfig", "BudgetExceededError", "CONFIDENCE_EPSILON", "CoverageReport",
    "DEFAULT_BUDGET", "DEFENDER_KINDS", "DatasetRecord", "Defender", "DefenderSpec",
    "DimensionMismatchError", "DuplicateKeyError", "EvalRecord", "FileFormatError",
    "HashClassifier", "Image", "InvalidInputError", "InvariantViolationError",
    "LinearClassifier", "MalformedLineError", "Mask", "MaskSet", "MetricValue",
    "MetricsReport", "MutantProfile", "PatchCertError", "PatchSpec", "Prediction",
    "ProfileFixture", "Rect", "SchemaViolationError", "SoundnessReport",
    "SoundnessRun", "TableClassifier", "TableLookupError",
    "UnsupportedOperationError", "ValueOutOfRangeError", "Verdict", "apply_mask",
    "apply_patch", "assign_case", "case_histogram", "check_profile_fixture",
    "classify_mutants", "compute_metrics", "count_variants", "enumerate_variants",
    "gen_multi_cover", "gen_rect_cover", "gen_square_cover", "gen_synthetic_dataset",
    "iter_placements", "load_dataset", "load_maskset", "load_predictions",
    "load_profile_fixture", "load_records", "make_defender", "mask_covers",
    "run_soundness", "save_dataset", "save_maskset", "save_predictions",
    "save_records", "save_report", "verify_cover",
}

MODULE_ALL = {
    "classifiers": {
        "CONFIDENCE_EPSILON", "Prediction", "HashClassifier", "LinearClassifier",
        "TableClassifier", "VariantKey", "classify_mutants",
    },
    "cover": {
        "MaskSet", "CoverageReport", "gen_square_cover", "gen_rect_cover",
        "gen_multi_cover", "verify_cover",
    },
    "dataset_io": {
        "FORMAT_VERSION", "DatasetRecord", "ProfileFixture", "gen_synthetic_dataset",
        "save_dataset", "load_dataset", "save_maskset", "load_maskset",
        "save_predictions", "load_predictions", "save_records", "load_records",
        "save_report", "load_profile_fixture", "dumps_canonical",
    },
    "defenders": {
        "Prediction", "MutantProfile", "Verdict", "DefenderSpec", "Defender", "DEFENDER_KINDS",
        "CLAUSE_NAMES", "make_defender", "assign_case",
    },
    "metrics": {
        "EvalRecord", "MetricValue", "MetricsReport", "compute_metrics",
        "case_histogram", "METRIC_NAMES",
    },
    "oracle": {
        "DEFAULT_BUDGET", "AttackConfig", "SoundnessReport", "SoundnessRun",
        "enumerate_variants", "count_variants", "check_profile_fixture",
        "run_soundness",
    },
    "tensor": {
        "Rect", "Image", "Mask", "PatchSpec", "Placement", "apply_mask",
        "apply_patch", "mask_covers", "iter_placements",
    },
}

MODULES = sorted(
    path.stem
    for path in pathlib.Path(patchcert.__file__).parent.glob("*.py")
    if path.stem not in ("__init__", "__main__")
)


def test_package_exports_the_pinned_names():
    public = {
        name for name, value in vars(patchcert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PACKAGE_NAMES


@pytest.mark.parametrize("module", MODULES)
def test_module_all_is_pinned_and_defined(module):
    mod = importlib.import_module(f"patchcert.{module}")
    names = getattr(mod, "__all__", None)
    if names is None:
        assert module not in MODULE_ALL
        return
    assert len(names) == len(set(names))
    assert set(names) == MODULE_ALL[module]
    assert [name for name in names if not hasattr(mod, name)] == []


# Public names that no package module reads, each with the reason it stays.
UNUSED_IN_PACKAGE = {
    "apply_mask": "the reference masking that tests/naive.py re-derives results with",
    "enumerate_variants": "the reference enumeration that tests/naive.py walks",
    "mask_covers": "the reference the scan's cell-bitset cover test is checked against",
    "save_predictions": "perfbench/trace.py wraps it; it goes once the trace no longer does",
}


def test_every_public_name_is_read_by_the_package():
    """No public name exists only for tests: each is read, as a name or an
    attribute, by some module other than `__init__`. Strings, such as
    docstrings and `__all__` entries, do not count."""
    read = set()
    for path in pathlib.Path(patchcert.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    public = PACKAGE_NAMES.union(*MODULE_ALL.values())
    assert public - read == set(UNUSED_IN_PACKAGE)


def test_package_imports_are_top_level_and_acyclic():
    """Package modules import each other only at module top level, never
    under `TYPE_CHECKING`, and those imports form a DAG. The one
    function-level import, `concurrent.futures` in `run_soundness`, is
    absolute."""
    graph = {}
    for path in pathlib.Path(patchcert.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        deps = graph.setdefault(path.stem, set())
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "name", None)
            assert name != "TYPE_CHECKING", f"{path.name}:{node.lineno}"
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node in tree.body, f"{path.name}:{node.lineno}"
                deps.update([node.module] if node.module else (a.name for a in node.names))
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
