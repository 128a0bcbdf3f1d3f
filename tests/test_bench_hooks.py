"""Every package name the benchmark tracer wraps must still exist.

`perfbench/trace.py` installs its timing wrappers by name at run time,
so deleting or renaming a traced function would silently drop a layer
from the benchmark. The tracer module is only loaded and read here.
"""
import importlib
import importlib.util
import inspect
import pathlib

TRACE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


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
