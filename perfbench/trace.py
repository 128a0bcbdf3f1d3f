"""Run a workload's CLI commands in one process, traced or counted.

    python3 perfbench/trace.py trace|count COMMANDS_JSON OUT_JSON

COMMANDS_JSON holds a list of argument lists for `patchcert.cli.main`.
They run in order, in the current directory, so the reports they write
are byte-comparable with those of the untraced CLI runs.

`trace` wraps each layer's public entry points with timing spans.
Spans are aggregated in memory per (name, parent name) edge, with call
count, total time and the time covered by child spans, and written once
at the end. A span's self time is its total minus its child time.

`count` only counts classifier calls, split by caller, so the benchmark
can check that tracing did not push the oracle off its packed-bytes
path: both modes must see the same split.

Nothing here edits the package; every wrapper is installed at run time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

ROOT = "<root>"

# Class-level methods: (module, class, attribute).
METHODS = [
    ("classifiers", "HashClassifier", "classify"),
    ("classifiers", "HashClassifier", "_predict_packed"),
    ("classifiers", "LinearClassifier", "classify"),
    ("tensor", "Image", "__post_init__"),
    ("tensor", "Mask", "to_matrix"),
    ("defenders", "Defender", "certify"),
    ("defenders", "Defender", "warn"),
    ("defenders", "Defender", "warn_clauses"),
    ("defenders", "Defender", "verdict"),
]

# Module-level functions, replaced in every package module that holds them.
FUNCTIONS = [
    ("tensor", "apply_mask"),
    ("tensor", "apply_patch"),
    ("tensor", "mask_covers"),
    ("cover", "verify_cover"),
    ("classifiers", "classify_mutants"),
    ("oracle", "run_soundness"),
    ("metrics", "compute_metrics"),
    ("dataset_io", "load_dataset"),
    ("dataset_io", "load_maskset"),
    ("dataset_io", "load_predictions"),
    ("dataset_io", "load_profile_fixture"),
    ("dataset_io", "save_dataset"),
    ("dataset_io", "save_maskset"),
    ("dataset_io", "save_predictions"),
    ("dataset_io", "save_report"),
]

# Generators: each `next` is one span.
GENERATORS = [("tensor", "iter_placements")]

CLASSIFIER_ENTRIES = METHODS[:3]


class Tracer:
    """Span aggregation keyed by (name, parent name)."""

    def __init__(self):
        self.stack = [[ROOT, 0.0]]
        self.edges: dict[tuple[str, str], list] = {}
        self.counters: dict[str, int] = {}

    def _close(self, name: str, frame: list, parent: list, elapsed: float):
        parent[1] += elapsed
        edge = self.edges.get((name, parent[0]))
        if edge is None:
            self.edges[(name, parent[0])] = [1, elapsed, frame[1]]
        else:
            edge[0] += 1
            edge[1] += elapsed
            edge[2] += frame[1]

    def wrap(self, name: str, fn, after=None):
        stack = self.stack
        clock = time.perf_counter
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                close(name, frame, parent, elapsed)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, item_counter: str):
        stack = self.stack
        clock = time.perf_counter
        close = self._close
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                parent = stack[-1]
                stack.append(frame)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    close(name, frame, parent, elapsed)
                counters[item_counter] = counters.get(item_counter, 0) + 1
                yield item

        return traced

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def reset(self) -> None:
        self.edges.clear()
        self.counters.clear()

    def snapshot(self) -> tuple[list, dict]:
        spans = [
            [name, parent, calls, total, child]
            for (name, parent), (calls, total, child) in sorted(self.edges.items())
        ]
        return spans, dict(self.counters)


class CallCounter:
    """Call counts keyed by (name, parent name), with no clock reads."""

    def __init__(self):
        self.stack = [ROOT]
        self.edges: dict[tuple[str, str], int] = {}

    def wrap(self, name: str, fn):
        stack = self.stack
        edges = self.edges

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (name, stack[-1])
            edges[key] = edges.get(key, 0) + 1
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return counted

    def reset(self) -> None:
        self.edges.clear()

    def snapshot(self) -> tuple[list, dict]:
        spans = [
            [name, parent, calls, 0.0, 0.0]
            for (name, parent), calls in sorted(self.edges.items())
        ]
        return spans, {}


def _package_modules():
    return [
        m for name, m in sys.modules.items()
        if m is not None and (name == "patchcert" or name.startswith("patchcert."))
    ]


def _replace_everywhere(original, replacement) -> None:
    """Rebind `original` to `replacement` in every package module."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def install(recorder, mode: str) -> None:
    methods = CLASSIFIER_ENTRIES if mode == "count" else METHODS
    for module_name, cls_name, attr in methods:
        cls = getattr(importlib.import_module(f"patchcert.{module_name}"), cls_name)
        # Keeping the attribute on the class keeps hasattr() checks true,
        # so the oracle still takes its packed-bytes path.
        fn = cls.__dict__[attr]
        setattr(cls, attr, recorder.wrap(f"{module_name}.{cls_name}.{attr}", fn))
    if mode == "count":
        return

    for module_name, fn_name in FUNCTIONS:
        module = importlib.import_module(f"patchcert.{module_name}")
        fn = getattr(module, fn_name)
        after = None
        if fn_name.startswith("load_"):
            after = lambda args, result: recorder.count(
                "dataset_io.bytes_read", _file_size(args[0]))
        elif fn_name.startswith("save_"):
            after = lambda args, result: recorder.count(
                "dataset_io.bytes_written", _file_size(args[1]))
        elif fn_name == "verify_cover":
            after = lambda args, result: recorder.count(
                "cover.placements_checked", result.placements_checked)
        _replace_everywhere(fn, recorder.wrap(f"{module_name}.{fn_name}", fn, after))

    for module_name, fn_name in GENERATORS:
        module = importlib.import_module(f"patchcert.{module_name}")
        fn = getattr(module, fn_name)
        _replace_everywhere(
            fn,
            recorder.wrap_generator(
                f"{module_name}.{fn_name}", fn, "tensor.placements_listed"
            ),
        )


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in ("trace", "count"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, commands_path, out_path = argv
    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)

    start = time.perf_counter()
    from patchcert import cli

    import_s = time.perf_counter() - start
    recorder = Tracer() if mode == "trace" else CallCounter()
    install(recorder, mode)
    entry = recorder.wrap("cli.main", cli.main) if mode == "trace" else cli.main

    results = []
    for command in commands:
        recorder.reset()
        t0 = time.perf_counter()
        rc = entry(command)
        wall = time.perf_counter() - t0
        spans, counters = recorder.snapshot()
        results.append(
            {"command": command[0], "rc": rc, "wall_s": wall,
             "spans": spans, "counters": counters}
        )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"mode": mode, "import_s": import_s, "commands": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
