"""patchcert benchmark: drive the real CLI on four workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; the package is imported
from `src/`. Inputs are generated from `--seed` before any timing
starts and written under `perfbench/out/work/<workload>/`, which is
also the working directory of every CLI run, so reports (which embed
the `--dataset`/`--masks` strings) never depend on where the checkout
lives.

`--trace 0` repeats the workload's command sequence, each command a
fresh `python -m patchcert` process, for `--seconds`, and reports the
end-to-end metrics as medians over those repetitions. `--trace 1`
repeats the sequence on 1 and on 2 workers for `--seconds`, then runs
it once more at 1 worker through `perfbench/trace.py`, which times the
calls into each layer, and once with a classifier-call counter only;
it reports the per-layer metrics. `--workload all` runs both passes of
every workload.

Every run checks the outputs (closed-form variant counts, zero
violations for the own-family defender, case histograms, cover
verification, byte-identical reports across repetitions and worker
counts, the recorded verdicts at the default seed) and the negative
control fixture, which must fail. The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`. A
per-run result file with provenance goes to `perfbench/out/results/`.

See perfbench/NOTES.md for why each workload exists and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
NEGATIVE_FIXTURE = "tests/data/negative_control.json"
NEGATIVE_OVERRIDE = "certify=hicert:0.8,warn=doma"

CLASSIFIER_SEED = 7
MIN_ITERATIONS = 3
SETUP_PROBES_PER_ROUND = 2
COMMAND_TIMEOUT_S = 150

with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)
DEFAULT_SEED = EXPECTED["seed"]


@dataclass(frozen=True)
class Workload:
    name: str
    plane: int
    channels: int
    alphabet: int
    num_labels: int
    patch_size: int
    masks_per_axis: int
    expected_masks: int
    classifier: str
    eval_taus: tuple[str, ...]
    verify_tau: str
    workers: int
    # `evaluate` runs on `pool` samples drawn by gen-data; `verify` runs on
    # `samples` of them, so evaluate does enough work to outweigh the
    # interpreter's start-up.
    pool: int
    samples: int
    patches: int = 1
    trials: int = 0  # 0 means exhaustive verification
    attack_seed: int = 0
    # How many verify samples the verify defender certifies. A certified
    # sample costs several times an uncertified one, so a fixed mix keeps
    # the work per run the same across seeds. None takes the first samples.
    certified: int | None = None
    # A compound cover needs minutes to verify, so it is built unverified
    # with the inputs instead of inside the timed sequence.
    timed_maskgen: bool = True

    @property
    def placements(self) -> int:
        return (self.plane - self.patch_size + 1) ** 2

    @property
    def variants(self) -> int:
        """Closed-form count of in-scope variants per verify run."""
        if self.trials:
            return self.samples * self.trials
        npix = self.patch_size ** 2 * self.channels
        return self.samples * self.placements * self.alphabet ** npix

    def evaluations(self) -> int:
        return self.pool * len(self.eval_taus)

    def maskgen_says(self) -> str:
        if not self.timed_maskgen:
            return f"masks: {self.expected_masks} (coverage not verified)"
        return (f"masks: {self.expected_masks}, cover: ok "
                f"({self.placements} placements)")

    def gen_data(self, seed: int) -> list[str]:
        return ["gen-data", "--count", str(self.pool),
                "--plane", str(self.plane), str(self.plane),
                "--channels", str(self.channels),
                "--alphabet", str(self.alphabet),
                "--num-labels", str(self.num_labels),
                "--seed", str(seed), "--out", "pool.jsonl"]

    def maskgen(self) -> list[str]:
        argv = ["maskgen", "--plane", str(self.plane), str(self.plane),
                "--patch-size", str(self.patch_size),
                "--masks-per-axis", str(self.masks_per_axis),
                "--out", "masks.json"]
        if self.patches > 1:
            argv += ["--patches", str(self.patches)]
        if not self.timed_maskgen:
            argv.append("--skip-verify")
        return argv

    def _inputs(self, dataset: str) -> list[str]:
        return ["--dataset", dataset, "--masks", "masks.json",
                "--classifier", self.classifier,
                "--num-labels", str(self.num_labels),
                "--seed", str(CLASSIFIER_SEED), "--defender", "hicert"]

    def evaluate(self, workers: int) -> list[str]:
        argv = ["evaluate"] + self._inputs("pool.jsonl")
        for tau in self.eval_taus:
            argv += ["--tau", tau]
        return argv + ["--out-dir", "eval", "--workers", str(workers)]

    def verify(self, workers: int) -> list[str]:
        argv = ["verify"] + self._inputs("data.jsonl") + [
            "--tau", self.verify_tau, "--checks", "def1,thm1",
            "--out", "verify.json", "--workers", str(workers)]
        if self.trials:
            argv += ["--mode", "random", "--trials", str(self.trials),
                     "--attack-seed", str(self.attack_seed)]
        return argv

    def sequence(self, workers: int) -> list[list[str]]:
        seq = [self.maskgen()] if self.timed_maskgen else []
        return seq + [self.evaluate(workers), self.verify(workers)]

    def outputs(self) -> list[str]:
        """Files the timed sequence writes, relative to the run directory."""
        files = ["verify.json"]
        for tau in self.eval_taus:
            files += [f"eval/report_hicert_tau{tau}.json",
                      f"eval/records_hicert_tau{tau}.jsonl"]
        if self.timed_maskgen:
            files.append("masks.json")
        return files


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-hash", plane=8, channels=1, alphabet=4, num_labels=5,
                 patch_size=2, masks_per_axis=3, expected_masks=9,
                 classifier="hash", eval_taus=("0", "0.8"), verify_tau="0.8",
                 workers=2, pool=2048, samples=16, certified=4),
        Workload("grid-linear", plane=8, channels=1, alphabet=4, num_labels=5,
                 patch_size=2, masks_per_axis=3, expected_masks=9,
                 classifier="linear", eval_taus=("0", "0.8"),
                 verify_tau="0.8", workers=1, pool=768, samples=4, certified=0),
        Workload("random-multi", plane=32, channels=3, alphabet=256,
                 num_labels=2, patch_size=4, patches=2, masks_per_axis=3,
                 expected_masks=36, classifier="hash", eval_taus=("0.95",),
                 verify_tau="0.95", workers=1, pool=96, samples=2, certified=1,
                 trials=250, attack_seed=3, timed_maskgen=False),
        Workload("plane224", plane=224, channels=3, alphabet=256,
                 num_labels=10, patch_size=32, masks_per_axis=6,
                 expected_masks=36, classifier="hash",
                 eval_taus=("0.5", "0.8"), verify_tau="0.8", workers=1,
                 pool=1, samples=1, trials=2, attack_seed=3),
    )
}


# ---------- child processes ----------


@dataclass
class Completed:
    argv: list[str]
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    output: str


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PATCHCERT_WORKERS", None)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv: list[str], cwd: str, log_path: str) -> Completed:
    """Run one child to completion.

    Its rusage, read with wait4, covers the child and every process it
    waited for, such as a worker pool: the command's process tree.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        output = fh.read()
    return Completed(argv, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, output)


def cli(command: list[str], run_dir: str) -> Completed:
    return spawn([sys.executable, "-m", "patchcert"] + command, run_dir,
                 os.path.join(run_dir, f"{command[0]}.log"))


class Checks:
    """Counts attempted operations and records every failed one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, done: Completed, expect_rc: int = 0, problems=()) -> Completed:
        self.attempted += 1
        problems = list(problems)
        if done.rc != expect_rc:
            problems.insert(0, f"exit code {done.rc}, expected {expect_rc}: "
                               f"{done.output.strip()[-400:]}")
        if problems:
            self.failed += 1
            what = " ".join(os.path.basename(a) for a in done.argv[1:5])
            self.messages += [f"{what}: {p}" for p in problems]
        return done


# ---------- output checks ----------


def _load(run_dir: str, rel: str):
    with open(os.path.join(run_dir, rel), encoding="utf-8") as fh:
        return json.load(fh)


def _digests(run_dir: str, files: list[str]) -> dict[str, str]:
    out = {}
    for rel in files:
        try:
            with open(os.path.join(run_dir, rel), "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
        except FileNotFoundError:
            out[rel] = "missing"
    return out


def verdicts(w: Workload, run_dir: str) -> dict:
    """The verdict fields a later change must leave untouched."""
    def1 = _load(run_dir, "verify.json")["reports"]["def1"]
    r_cert, cases = {}, {}
    for tau in w.eval_taus:
        report = _load(run_dir, f"eval/report_hicert_tau{tau}.json")
        r_cert[tau] = report["metrics"]["r_cert"]["numerator"]
        cases[tau] = report["cases"]
    return {"certified": def1["certified_count"],
            "clause_stats": def1["thm2_clause_stats"],
            "r_cert": r_cert, "cases": cases}


def output_problems(w: Workload, run_dir: str, steps: dict[str, Completed],
                    seed: int) -> dict[str, list[str]]:
    """Rules that hold for any seed, plus the recorded verdicts at the
    default seed; problems are keyed by the command that made the file."""
    found: dict[str, list[str]] = {name: [] for name in steps}
    if "maskgen" in steps and w.maskgen_says() not in steps["maskgen"].output:
        found["maskgen"].append(f"expected {w.maskgen_says()!r}")

    for tau in w.eval_taus:
        try:
            cases = _load(run_dir, f"eval/report_hicert_tau{tau}.json")["cases"]
        except (OSError, ValueError, KeyError) as e:
            found["evaluate"].append(f"tau {tau}: unreadable report: {e!r}")
            continue
        if sum(cases.values()) != w.pool:
            found["evaluate"].append(
                f"tau {tau}: case histogram sums to {sum(cases.values())}, "
                f"expected {w.pool}")

    try:
        reports = _load(run_dir, "verify.json")["reports"]
        def1, thm1 = reports["def1"], reports["thm1"]
    except (OSError, ValueError, KeyError) as e:
        found["verify"].append(f"unreadable report: {e!r}")
        return found
    for label, rep in (("def1", def1), ("thm1", thm1)):
        if rep["variants_evaluated"] != w.variants:
            found["verify"].append(
                f"{label} evaluated {rep['variants_evaluated']} variants, "
                f"closed form gives {w.variants}")
        if rep["samples_checked"] != w.samples:
            found["verify"].append(
                f"{label} checked {rep['samples_checked']} samples")
    if w.certified is not None and def1["certified_count"] != w.certified:
        found["verify"].append(f"{def1['certified_count']} samples certified, "
                               f"{w.certified} selected as certified")
    if def1["violations"]:
        found["verify"].append(f"{len(def1['violations'])} def1 violation(s)")
    if thm1["thm1_violations"]:
        found["verify"].append(
            f"{len(thm1['thm1_violations'])} thm1 counterexample(s)")

    if seed == DEFAULT_SEED and not any(found.values()):
        got, want = verdicts(w, run_dir), EXPECTED["workloads"][w.name]
        if got != want:
            found["verify"].append(f"verdicts {got} differ from recorded {want}")
    return found


def run_sequence(w: Workload, run_dir: str, workers: int, checks: Checks,
                 seed: int, reference: dict | None) -> tuple[dict, dict]:
    """Run the command sequence once and check it.

    The first run of a pass is checked rule by rule; later runs must
    write byte-identical files. Returns (timings, output digests).
    """
    steps = {command[0]: cli(command, run_dir) for command in w.sequence(workers)}
    digests = _digests(run_dir, w.outputs())
    if reference is None:
        problems = output_problems(w, run_dir, steps, seed)
    else:
        problems = {name: [] for name in steps}
        changed = sorted(rel for rel in digests if digests[rel] != reference[rel])
        if changed:
            problems["verify"].append(f"outputs differ from the first run: {changed}")
    for name, done in steps.items():
        checks.run(done, problems=problems[name])
    timing = {
        "workers": workers,
        "wall_s": sum(done.wall_s for done in steps.values()),
        "evaluate_s": steps["evaluate"].wall_s,
        "verify_s": steps["verify"].wall_s,
        "verify_cpu_s": steps["verify"].cpu_s,
        "peak_rss_mib": max(done.maxrss_mib for done in steps.values()),
    }
    return timing, digests


def negative_control(run_dir: str, checks: Checks) -> None:
    """A mixed defender misses the fixture's harmful variant: exit 1."""
    argv = [sys.executable, "-m", "patchcert", "verify", "--fixture",
            NEGATIVE_FIXTURE, "--defender-override", NEGATIVE_OVERRIDE]
    done = spawn(argv, ROOT, os.path.join(run_dir, "negative-control.log"))
    violations = [ln for ln in done.output.splitlines()
                  if ln.startswith("  violation:")]
    problems = []
    if "1 violation(s)" not in done.output or len(violations) != 1:
        problems.append(f"expected exactly one violation: {done.output.strip()!r}")
    checks.run(done, expect_rc=1, problems=problems)


# ---------- inputs ----------


def _expect_output(checks: Checks, done: Completed, want: str) -> None:
    checks.run(done, problems=[] if want in done.output else [f"expected {want!r}"])


def _select(w: Workload, run_dir: str) -> list[str]:
    """Pool lines of the verify samples, in pool order: the first
    `certified` certified ones and the first uncertified ones, or simply
    the first ones. Raises if the pool is short."""
    with open(os.path.join(run_dir, "pool.jsonl"), encoding="utf-8") as fh:
        lines = fh.readlines()
    if w.certified is None:
        return lines[:w.samples]
    records = os.path.join(run_dir, "eval", f"records_hicert_tau{w.verify_tau}.jsonl")
    with open(records, encoding="utf-8") as fh:
        certified = {r["sample_id"]: r["certified"] for r in map(json.loads, fh)}
    want = {True: w.certified, False: w.samples - w.certified}
    chosen = []
    for line in lines:
        kind = certified[json.loads(line)["id"]]
        if want[kind]:
            want[kind] -= 1
            chosen.append(line)
    if any(want.values()):
        raise RuntimeError(f"candidate pool too small for {w.name}: still need "
                           f"{want[True]} certified, {want[False]} uncertified")
    return chosen


def prepare(w: Workload, seed: int, checks: Checks) -> tuple[str, dict]:
    """Generate the workload's inputs in a fresh run directory."""
    run_dir = os.path.join(OUT_DIR, "work", w.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    _expect_output(checks, cli(w.maskgen(), run_dir), w.maskgen_says())
    _expect_output(checks, cli(w.gen_data(seed), run_dir),
                   f"wrote {w.pool} samples to pool.jsonl")
    checks.run(cli(w.evaluate(1), run_dir))
    with open(os.path.join(run_dir, "data.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(_select(w, run_dir))
    inputs = {
        "pool_samples": w.pool,
        "pool_bytes": os.path.getsize(os.path.join(run_dir, "pool.jsonl")),
        "samples": w.samples,
        "trials": w.trials or None,
        "variants": w.variants,
        "masks": w.expected_masks,
        "dataset_bytes": os.path.getsize(os.path.join(run_dir, "data.jsonl")),
        "masks_bytes": os.path.getsize(os.path.join(run_dir, "masks.json")),
    }
    return run_dir, inputs


# ---------- end-to-end pass ----------


def setup_time(w: Workload, run_dir: str, checks: Checks) -> float:
    argv = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
            "data.jsonl", "masks.json", w.classifier, str(w.num_labels),
            str(CLASSIFIER_SEED)]
    done = spawn(argv, run_dir, os.path.join(run_dir, "setup.log"))
    want = f"{w.samples} {w.expected_masks}"
    ok = done.output.strip() == want
    checks.run(done, problems=[] if ok else [f"expected {want!r}"])
    return done.wall_s


def repeat(w: Workload, run_dir: str, worker_counts: tuple[int, ...],
           seconds: float, checks: Checks, seed: int,
           min_rounds: int, before_round=None) -> tuple[list[dict], dict]:
    """Repeat the sequence for each worker count until `seconds` pass."""
    runs: list[dict] = []
    reference = None
    start = time.perf_counter()
    while len(runs) < min_rounds * len(worker_counts) or \
            time.perf_counter() - start < seconds:
        if before_round is not None:
            before_round()
        for workers in worker_counts:
            timing, digests = run_sequence(w, run_dir, workers, checks, seed,
                                           reference)
            reference = reference or digests
            runs.append(timing)
    return runs, reference


def _median(runs: list[dict], fn) -> float:
    return statistics.median(fn(r) for r in runs)


def end_to_end(w: Workload, seed: int, seconds: float, run_dir: str,
               checks: Checks) -> tuple[dict, dict]:
    # The host's speed drifts in phases of seconds (see NOTES.md), so the
    # set-up probes run between repetitions rather than in one burst.
    setup: list[float] = []

    def probe_setup():
        setup.extend(setup_time(w, run_dir, checks)
                     for _ in range(SETUP_PROBES_PER_ROUND))

    runs, _ = repeat(w, run_dir, (w.workers,), seconds, checks, seed,
                     MIN_ITERATIONS, probe_setup)
    metrics = {
        "variants_per_s": _median(runs, lambda r: w.variants / r["verify_s"]),
        "evaluations_per_s":
            _median(runs, lambda r: w.evaluations() / r["evaluate_s"]),
        "wall_s": _median(runs, lambda r: r["wall_s"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": _median(runs, lambda r: r["peak_rss_mib"]),
    }
    return metrics, {"setup_s": setup, "runs": runs}


# ---------- traced pass ----------

HASH_CLASSIFY = "classifiers.HashClassifier.classify"
HASH_PACKED = "classifiers.HashClassifier._predict_packed"
LINEAR_CLASSIFY = "classifiers.LinearClassifier.classify"
WARN_CLAUSES = "defenders.Defender.warn_clauses"
DEFENDER_SPANS = ("defenders.Defender.certify", "defenders.Defender.warn",
                  WARN_CLAUSES, "defenders.Defender.verdict")


class Spans:
    """Per-name totals over the (name, parent) edges of some commands."""

    def __init__(self, commands: list[dict]):
        self.edges = [edge for c in commands for edge in c["spans"]]
        self.rows: dict[str, list] = {}
        for name, _parent, calls, total, child in self.edges:
            row = self.rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += child
        self.counters: dict[str, int] = {}
        for c in commands:
            for key, value in c["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value

    def calls(self, name: str) -> int:
        return self.rows.get(name, [0])[0]

    def total(self, name: str) -> float:
        return self.rows.get(name, [0, 0.0])[1]

    def self_time(self, name: str) -> float:
        row = self.rows.get(name, [0, 0.0, 0.0])
        return row[1] - row[2]

    def classifier_calls(self) -> int:
        return self.calls(HASH_PACKED) + self.calls(LINEAR_CLASSIFY)

    def classifier_split(self) -> list[int]:
        """[packed calls made directly, hash classify calls, linear calls]."""
        direct = sum(calls for name, parent, calls, _, _ in self.edges
                     if name == HASH_PACKED and parent != HASH_CLASSIFY)
        return [direct, self.calls(HASH_CLASSIFY), self.calls(LINEAR_CLASSIFY)]


def in_process(w: Workload, run_dir: str, mode: str, checks: Checks,
               reference: dict) -> tuple[dict, Completed]:
    """Run the 1-worker sequence through perfbench/trace.py."""
    with open(os.path.join(run_dir, "commands.json"), "w", encoding="utf-8") as fh:
        json.dump(w.sequence(1), fh)
    argv = [sys.executable, os.path.join(BENCH_DIR, "trace.py"), mode,
            "commands.json", f"{mode}.json"]
    done = spawn(argv, run_dir, os.path.join(run_dir, f"{mode}.log"))
    problems = []
    doc = {"import_s": 0.0, "commands": []}
    if done.rc == 0:
        doc = _load(run_dir, f"{mode}.json")
        bad = [(c["command"], c["rc"]) for c in doc["commands"] if c["rc"] != 0]
        if bad:
            problems.append(f"commands failed: {bad}")
        digests = _digests(run_dir, w.outputs())
        changed = sorted(rel for rel in digests if digests[rel] != reference[rel])
        if changed:
            problems.append(f"outputs differ from the untraced runs: {changed}")
    checks.run(done, problems=problems)
    return doc, done


def layers(w: Workload, seed: int, seconds: float, run_dir: str,
           checks: Checks) -> tuple[dict, dict]:
    runs, reference = repeat(w, run_dir, (1, 2), seconds, checks, seed, 2)
    traced, traced_done = in_process(w, run_dir, "trace", checks, reference)
    counted, _ = in_process(w, run_dir, "count", checks, reference)

    # Trace fidelity: the wrappers must not change which classifier entry
    # points the oracle uses, or how often it calls them.
    split_traced = [Spans([c]).classifier_split() for c in traced["commands"]]
    split_counted = [Spans([c]).classifier_split() for c in counted["commands"]]
    problems = []
    if split_traced != split_counted:
        problems.append(f"classifier calls traced {split_traced} "
                        f"!= counted {split_counted}")
    if w.classifier == "hash" and split_counted and split_counted[-1][0] == 0:
        problems.append("verify never used the packed-bytes path")
    checks.run(traced_done, problems=problems)

    spans = Spans(traced["commands"])
    verify = Spans([c for c in traced["commands"] if c["command"] == "verify"])
    calls = spans.classifier_calls()
    classifier_self = sum(spans.self_time(n)
                          for n in (HASH_CLASSIFY, HASH_PACKED, LINEAR_CLASSIFY))
    scan_self = spans.self_time("oracle.run_soundness")
    direct_warns = sum(calls for name, parent, calls, _, _ in spans.edges
                       if name == "defenders.Defender.warn"
                       and parent != WARN_CLAUSES)
    verify_time = spans.total("cover.verify_cover")
    own = [r for r in runs if r["workers"] == w.workers]
    one = [r for r in runs if r["workers"] == 1]
    two = [r for r in runs if r["workers"] == 2]

    metrics = {
        "classifiers.calls": calls,
        "classifiers.calls_per_variant": verify.classifier_calls() / w.variants,
        "classifiers.self_s": classifier_self,
        "classifiers.us_per_call": classifier_self / calls * 1e6 if calls else 0.0,
        "tensor.images_built": spans.calls("tensor.Image.__post_init__"),
        "tensor.image_validate_s": spans.self_time("tensor.Image.__post_init__"),
        "tensor.placements_listed": spans.counters.get("tensor.placements_listed", 0),
        "tensor.iter_placements_s": spans.total("tensor.iter_placements"),
        "cover.verify_cover_s": verify_time,
        "cover.placements_per_s": (
            spans.counters.get("cover.placements_checked", 0) / verify_time
            if verify_time else 0.0),
        "defenders.certify.calls": spans.calls("defenders.Defender.certify"),
        "defenders.warn.calls": spans.calls(WARN_CLAUSES) + direct_warns,
        "defenders.self_s": sum(spans.self_time(n) for n in DEFENDER_SPANS),
        "oracle.scan_s": spans.total("oracle.run_soundness"),
        "oracle.self_s": scan_self,
        "oracle.self_us_per_variant": scan_self / w.variants * 1e6,
        "oracle.certified_samples":
            _load(run_dir, "verify.json")["reports"]["def1"]["certified_count"],
        "dataset_io.load_s": sum(spans.total(n) for n in spans.rows
                                 if n.startswith("dataset_io.load_")),
        "dataset_io.bytes_read": spans.counters.get("dataset_io.bytes_read", 0),
        "dataset_io.save_s": sum(spans.total(n) for n in spans.rows
                                 if n.startswith("dataset_io.save_")),
        "dataset_io.bytes_written": spans.counters.get("dataset_io.bytes_written", 0),
        "metrics.compute_s": spans.total("metrics.compute_metrics"),
        "cli.import_s": traced["import_s"],
        "cli.self_s": spans.self_time("cli.main"),
        "pool.cpu_s": _median(own, lambda r: r["verify_cpu_s"]),
        "pool.cpu_util": _median(
            own, lambda r: r["verify_cpu_s"] / (r["verify_s"] * w.workers)),
        "pool.speedup": _median(one, lambda r: r["verify_s"])
                        / _median(two, lambda r: r["verify_s"]),
        "trace.overhead_ratio": traced_done.wall_s / _median(one, lambda r: r["wall_s"]),
    }
    for fn in ("apply_mask", "apply_patch", "mask_covers"):
        metrics[f"tensor.{fn}.calls"] = spans.calls(f"tensor.{fn}")
        metrics[f"tensor.{fn}_s"] = spans.self_time(f"tensor.{fn}")
    metrics["tensor.to_matrix.calls"] = spans.calls("tensor.Mask.to_matrix")
    metrics["tensor.to_matrix_s"] = spans.self_time("tensor.Mask.to_matrix")
    raw = {"runs": runs, "traced_wall_s": traced_done.wall_s,
           "classifier_split": split_traced, "trace": traced}
    return metrics, raw


# ---------- entry point ----------


def _git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def declared(trace: int) -> list[tuple[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return [(m["name"], m["unit"])
            for m in doc["per_layer" if trace else "end_to_end"]]


def run_workload(w: Workload, seed: int, seconds: float, trace: int) -> dict:
    checks = Checks()
    run_dir, inputs = prepare(w, seed, checks)
    measure = layers if trace else end_to_end
    values, raw = measure(w, seed, seconds, run_dir, checks)
    negative_control(run_dir, checks)

    missing = {name for name, _ in declared(trace)} ^ set(values)
    if missing:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: {missing}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared(trace)}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": {
            "git_revision": _git_revision(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "workers": w.workers,
        },
        "inputs": inputs,
        "error_rate": checks.failed / checks.attempted,
        "check_failures": checks.messages,
        "result": result,
        "raw": raw,
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(OUT_DIR, "results", f"{w.name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for message in checks.messages:
        print(f"CHECK FAILED [{w.name}] {message}", file=sys.stderr)
    return result


def _print_metrics(workload: str, trace: int, result: dict) -> None:
    print(f"# {workload} trace={trace}: {result['attempted']} operations, "
          f"{result['failed']} failed, error_rate "
          f"{result['failed'] / result['attempted']:.4f}")
    for name, m in result["metrics"].items():
        print(f"{workload:13s} {name:34s} {m['value']:>16.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="default: both passes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "patchcert", "__init__.py")) or \
            not os.path.isfile(os.path.join(ROOT, NEGATIVE_FIXTURE)):
        print(f"error: no patchcert sources under {ROOT}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = (0, 1) if args.trace is None else (args.trace,)
    results = {}
    for name in names:
        for trace in passes:
            results[(name, trace)] = run_workload(
                WORKLOADS[name], args.seed, args.seconds, trace)
            _print_metrics(name, trace, results[(name, trace)])
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": m
                        for (name, _), r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
