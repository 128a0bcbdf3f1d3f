"""Command line entry points, exit codes, and file outputs."""
import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from patchcert import cli, tensor
from patchcert.classifiers import HashClassifier, Prediction, classify_mutants
from patchcert.cli import EXIT_FINDINGS, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from patchcert.cover import MaskSet, gen_square_cover
from patchcert.dataset_io import load_dataset, load_maskset, load_predictions, \
    save_predictions

import naive

DATA_DIR = pathlib.Path(__file__).parent / "data"
FIXTURE = str(DATA_DIR / "negative_control.json")


def test_import_leaves_the_process_pool_unloaded():
    """A CLI start-up loads no pool machinery; only a multi-worker scan
    imports it."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys, patchcert.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_the_module_entry_point_runs_main(tmp_path, capsys):
    """`python -m patchcert`, the way every benchmark command starts,
    writes the bytes and stdout of in-process `main` and exits with its
    codes."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def module(*argv):
        done = subprocess.run([sys.executable, "-m", "patchcert", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True)
        return done.returncode, done.stdout

    maskgen = ("maskgen", "--plane", "8", "8", "--patch-size", "2",
               "--masks-per-axis", "3", "--out")
    code, stdout, _ = run(capsys, *maskgen, str(tmp_path / "main.json"))
    assert module(*maskgen, str(tmp_path / "module.json")) == (code, stdout)
    assert code == EXIT_OK
    assert (tmp_path / "module.json").read_bytes() == (tmp_path / "main.json").read_bytes()
    assert module()[0] == EXIT_USAGE
    assert module("verify", "--dataset", str(tmp_path / "missing.jsonl"),
                  "--masks", str(tmp_path / "main.json"),
                  "--defender", "doma")[0] == EXIT_IO


def test_package_imports_only_the_standard_library():
    """Every absolute import in `src/patchcert` names a standard-library
    module: the package has no runtime dependency."""
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "patchcert"
    sources = sorted(package.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subcommands(parser=None):
    """Each subcommand's parser, by name."""
    parser = parser or cli.build_parser()
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def flags_a_fixture_does_not_read():
    """(flag, value) for each verify option outside `_FIXTURE_READS`: at
    its parser default, where the command line can spell that default."""
    for action in subcommands()["verify"]._actions:
        if isinstance(action, argparse._HelpAction) or action.dest in cli._FIXTURE_READS:
            continue
        if action.nargs == 0:
            value = ()
        else:
            value = ("1",) if action.default is None else (str(action.default),)
        yield pytest.param(action.option_strings[0], value, id=action.dest)


def first_label_at_least(data_path, n):
    """Id of the first dataset sample whose label is n or more."""
    for line in pathlib.Path(data_path).read_text().splitlines():
        row = json.loads(line)
        if row["label"] >= n:
            return row["id"]
    raise AssertionError(f"no label >= {n} in {data_path}")


def with_last_sample_on_6x6(data_path):
    """A copy of the dataset whose last sample is cropped to a 6x6 plane,
    and that sample's id."""
    lines = pathlib.Path(data_path).read_text().splitlines()
    row = json.loads(lines[-1])
    _, w, c = row["shape"]
    row["shape"] = [6, 6, c]
    row["pixels"] = [
        v for y in range(6) for v in row["pixels"][y * w * c : (y * w + 6) * c]
    ]
    out = pathlib.Path(data_path).with_name("mixed_planes.jsonl")
    out.write_text("\n".join(lines[:-1] + [json.dumps(row)]) + "\n")
    return out, row["id"]


@pytest.fixture
def workspace(tmp_path, capsys):
    """A small dataset plus verified mask set, generated through the CLI."""
    masks = tmp_path / "masks.json"
    data = tmp_path / "data.jsonl"
    code, _, _ = run(
        capsys, "maskgen", "--plane", "8", "8", "--patch-size", "2",
        "--masks-per-axis", "3", "--out", str(masks),
    )
    assert code == EXIT_OK
    code, _, _ = run(
        capsys, "gen-data", "--count", "6", "--plane", "8", "8",
        "--alphabet", "4", "--num-labels", "5", "--seed", "7",
        "--out", str(data),
    )
    assert code == EXIT_OK
    return tmp_path


class TestMaskgen:
    def test_square_cover_reports_verification(self, tmp_path, capsys):
        out = tmp_path / "masks.json"
        code, stdout, _ = run(
            capsys, "maskgen", "--plane", "8", "8", "--patch-size", "2",
            "--masks-per-axis", "3", "--out", str(out),
        )
        assert code == EXIT_OK
        assert "masks: 9, cover: ok (49 placements)" in stdout
        assert len(load_maskset(str(out))) == 9

    def test_a_cover_that_fails_is_reported_and_still_written(
        self, tmp_path, capsys, monkeypatch
    ):
        """Without mask 0 the 8x8 cover misses the corner patch: maskgen
        names it, exits 1 and still writes the set it checked."""

        def without_mask_0(*args):
            ms = gen_square_cover(*args)
            return MaskSet(ms.masks[1:], ms.spec, ms.masks_per_axis)

        monkeypatch.setattr(cli, "gen_square_cover", without_mask_0)
        out = tmp_path / "masks.json"
        code, stdout, _ = run(
            capsys, "maskgen", "--plane", "8", "8", "--patch-size", "2",
            "--masks-per-axis", "3", "--out", str(out),
        )
        assert (code, stdout) == (
            EXIT_FINDINGS, "masks: 8, cover: FAILED at placement [[0, 0, 2, 2]]\n"
        )
        assert len(load_maskset(str(out))) == 8

    def test_large_plane_yields_36_masks(self, tmp_path, capsys):
        out = tmp_path / "masks.json"
        code, stdout, _ = run(
            capsys, "maskgen", "--plane", "224", "224", "--patch-size", "32",
            "--masks-per-axis", "6", "--out", str(out),
        )
        assert code == EXIT_OK
        assert "masks: 36, cover: ok" in stdout

    def test_rect_budget_cover(self, tmp_path, capsys):
        out = tmp_path / "masks.json"
        code, stdout, _ = run(
            capsys, "maskgen", "--plane", "12", "12", "--patch-area", "4",
            "--masks-per-axis", "3", "--out", str(out),
        )
        assert code == EXIT_OK
        assert "cover: ok" in stdout
        assert load_maskset(str(out)).spec.kind == "rectangle"

    def test_multi_patch_cover(self, tmp_path, capsys):
        out = tmp_path / "masks.json"
        code, _, _ = run(
            capsys, "maskgen", "--plane", "8", "8", "--patch-size", "2",
            "--patches", "2", "--masks-per-axis", "2", "--out", str(out),
        )
        assert code == EXIT_OK
        ms = load_maskset(str(out))
        assert ms.compound
        assert ms.spec.count == 2

    def test_paper_scale_compound_cover_is_verified(self, tmp_path, capsys):
        """The random-multi benchmark's cover, checked in full."""
        code, stdout, _ = run(
            capsys, "maskgen", "--plane", "32", "32", "--patch-size", "4",
            "--patches", "2", "--masks-per-axis", "3",
            "--out", str(tmp_path / "masks.json"),
        )
        assert code == EXIT_OK
        assert stdout == "masks: 36, cover: ok (335400 placements)\n"

    def test_zero_patch_size_is_a_usage_error(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "maskgen", "--plane", "8", "8", "--patch-size", "0",
            "--masks-per-axis", "3", "--out", str(tmp_path / "m.json"),
        )
        assert code == EXIT_USAGE

    def test_area_with_multiple_patches_is_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "maskgen", "--plane", "8", "8", "--patch-area", "4",
            "--patches", "2", "--masks-per-axis", "2",
            "--out", str(tmp_path / "m.json"),
        )
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_patches_without_patch_size_is_refused_at_count_1(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, stdout, err = run(
            capsys, "maskgen", "--plane", "8", "8", "--patch-area", "4",
            "--patches", "1", "--masks-per-axis", "2", "--out", str(out),
        )
        assert (code, stdout, err) == (EXIT_USAGE, "", "error: --patches needs --patch-size\n")
        assert not out.exists()

    def test_skip_verify_writes_without_checking(self, tmp_path, capsys):
        out = tmp_path / "masks.json"
        code, stdout, _ = run(
            capsys, "maskgen", "--plane", "8", "8", "--patch-size", "2",
            "--masks-per-axis", "3", "--out", str(out), "--skip-verify",
        )
        assert code == EXIT_OK
        assert "coverage not verified" in stdout


class TestGenData:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            code, _, _ = run(
                capsys, "gen-data", "--count", "5", "--plane", "6", "6",
                "--alphabet", "4", "--num-labels", "3", "--seed", "42",
                "--out", str(out),
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_alphabet_above_2_pow_32_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        for label_mode in ("classifier", "uniform"):
            code, stdout, err = run(
                capsys, "gen-data", "--count", "3", "--plane", "2", "2",
                "--alphabet", str(2**40), "--label-mode", label_mode,
                "--out", str(out),
            )
            assert code == EXIT_USAGE
            assert stdout == ""
            assert err == f"error: alphabet_size must lie in [2, 2**32], got {2**40}\n"
            assert not out.exists()


class TestEvaluate:
    def evaluate(self, capsys, workspace, defender, *extra):
        out_dir = workspace / f"out_{defender}_{len(extra)}"
        code, stdout, err = run(
            capsys, "evaluate",
            "--dataset", str(workspace / "data.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--classifier", "hash", "--num-labels", "5", "--seed", "7",
            "--defender", defender, *extra,
            "--out-dir", str(out_dir),
        )
        return code, out_dir, stdout, err

    def test_doma_equals_hicert_at_zero(self, capsys, workspace):
        code, doma_dir, _, _ = self.evaluate(capsys, workspace, "doma")
        assert code == EXIT_OK
        code, hc_dir, _, _ = self.evaluate(
            capsys, workspace, "hicert", "--tau", "0"
        )
        assert code == EXIT_OK
        doma_records = (doma_dir / "records_doma.jsonl").read_bytes()
        hc_records = (hc_dir / "records_hicert_tau0.jsonl").read_bytes()
        assert doma_records == hc_records
        doma_report = json.loads((doma_dir / "report_doma.json").read_text())
        hc_report = json.loads((hc_dir / "report_hicert_tau0.json").read_text())
        del doma_report["config"]["defender"]
        del hc_report["config"]["defender"]
        assert doma_report == hc_report

    def test_tau_sweep_writes_one_report_per_tau(self, capsys, workspace):
        code, sweep_dir, _, _ = self.evaluate(
            capsys, workspace, "hicert", "--tau", "0", "--tau", "0.8"
        )
        assert code == EXIT_OK
        written = set()
        for tau in ("0", "0.8"):
            code, single_dir, _, _ = self.evaluate(
                capsys, workspace, "hicert", "--tau", tau
            )
            assert code == EXIT_OK
            for name in (f"records_hicert_tau{tau}.jsonl",
                         f"report_hicert_tau{tau}.json"):
                sweep = (sweep_dir / name).read_bytes()
                assert sweep == (single_dir / name).read_bytes()
                written.add(sweep)
        assert {p.read_bytes() for p in sweep_dir.iterdir()} == written
        # The two taus disagree on this dataset, so mixing them up shows.
        assert len(written) == 4

    def test_timing_goes_to_stderr(self, capsys, workspace):
        outs = []
        for timing in ((), ("--timing",)):
            code, stdout, err = run(
                capsys, "evaluate",
                "--dataset", str(workspace / "data.jsonl"),
                "--masks", str(workspace / "masks.json"),
                "--num-labels", "5", "--seed", "7",
                "--defender", "hicert", "--tau", "0", "--tau", "0.8",
                "--out-dir", str(workspace / "out"), *timing,
            )
            assert code == EXIT_OK
            outs.append(stdout)
        assert outs[0] == outs[1]
        # One line per sample, covering its profile and every tau's verdict.
        lines = err.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"s{i:05d}" for i in range(6)
        ]
        assert all(line.endswith(" ms") for line in lines)

    def test_flip_defender_reports_certification_only(self, capsys, workspace):
        code, out_dir, _, _ = self.evaluate(
            capsys, workspace, "hicert_flip", "--tau", "0.5"
        )
        assert code == EXIT_OK
        report = json.loads(
            (out_dir / "report_hicert_flip_tau0.5.json").read_text()
        )
        assert report["cases"] is None
        assert report["metrics"]["r_fa"]["undefined_reason"] is not None
        assert report["metrics"]["r_cert"]["denominator"] == 6
        line = (out_dir / "records_hicert_flip_tau0.5.jsonl").read_text().splitlines()[0]
        record = json.loads(line)
        assert record["warned"] is None
        assert record["case"] is None

    def test_tau_defender_without_tau_is_a_usage_error(self, capsys, workspace):
        code, out_dir, _, err = self.evaluate(capsys, workspace, "hicert")
        assert code == EXIT_USAGE
        assert "needs --tau" in err
        assert not out_dir.exists()

    def test_tau_for_a_defender_without_tau_is_a_usage_error(self, capsys, workspace):
        code, out_dir, stdout, err = self.evaluate(
            capsys, workspace, "doma", "--tau", "0.3", "--tau", "0.9"
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "--defender doma takes no --tau" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("taus", [
        ("0.1234567", "0.1234568"),
        ("0.8", "0.8"),
        ("0.0", "-0.0"),
    ])
    def test_taus_with_one_name_are_a_usage_error(self, capsys, workspace, taus):
        """Two taus that print alike would write one report over the other."""
        code, out_dir, stdout, err = self.evaluate(
            capsys, workspace, "hicert", "--tau", taus[0], "--tau", taus[1]
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert f"--tau {taus[0]} and --tau {taus[1]} both name hicert(tau=" in err
        assert not out_dir.exists()

    def test_negative_zero_tau_is_tau_zero(self, capsys, workspace):
        """-0 decides like 0, so it writes the same files under the same names."""
        outputs = []
        for tau in ("0", "-0"):
            code, out_dir, stdout, _ = self.evaluate(
                capsys, workspace, "hicert", "--tau", tau
            )
            assert code == EXIT_OK
            files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
            outputs.append((stdout, files))
            out_dir.rename(workspace / f"tau{tau}")
        assert outputs[0] == outputs[1]

    def test_label_outside_num_labels_is_a_usage_error(self, capsys, workspace):
        data = workspace / "data.jsonl"
        code, _, err = run(
            capsys, "evaluate", "--dataset", str(data),
            "--masks", str(workspace / "masks.json"),
            "--classifier", "linear", "--num-labels", "2", "--seed", "7",
            "--defender", "doma", "--out-dir", str(workspace / "out"),
        )
        assert code == EXIT_USAGE
        sample_id = first_label_at_least(data, 2)
        assert f"{data}: sample {sample_id!r} has label" in err
        assert not (workspace / "out" / "report_doma.json").exists()

    def test_sample_on_another_plane_is_a_usage_error(self, capsys, workspace):
        """Refused before any sample is profiled, naming the dataset, the
        sample and both planes, and leaving no output directory."""
        data, sample_id = with_last_sample_on_6x6(workspace / "data.jsonl")
        masks = workspace / "masks.json"
        out_dir = workspace / "out"
        code, stdout, err = run(
            capsys, "evaluate", "--dataset", str(data), "--masks", str(masks),
            "--num-labels", "5", "--seed", "7",
            "--defender", "doma", "--out-dir", str(out_dir),
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err == (f"error: {data}: sample {sample_id!r} has plane 6x6, "
                       f"mask set {masks} has plane 8x8\n")
        assert not out_dir.exists()

    def test_dataset_alphabet_above_2_pow_32_is_a_file_error(
        self, capsys, workspace
    ):
        """A pixel of such an alphabet would not fit `Image.packed`; the
        loader names the file and line instead of crashing."""
        data = workspace / "data.jsonl"
        first, second = data.read_text().splitlines()[:2]
        row = json.loads(second)
        row["alphabet"] = 2**40
        row["pixels"][0] = 2**40 - 1
        wide = workspace / "wide.jsonl"
        wide.write_text(first + "\n" + json.dumps(row) + "\n")
        code, stdout, err = run(
            capsys, "evaluate", "--dataset", str(wide),
            "--masks", str(workspace / "masks.json"),
            "--num-labels", "5", "--seed", "7",
            "--defender", "doma", "--out-dir", str(workspace / "out"),
        )
        assert code == EXIT_IO
        assert stdout == ""
        assert err == (f"error: {wide}:2: alphabet_size must lie in [2, 2**32], "
                       f"got {2**40}\n")
        assert not (workspace / "out").exists()

    def test_table_classifier_needs_predictions(self, capsys, workspace):
        code, _, err = run(
            capsys, "evaluate",
            "--dataset", str(workspace / "data.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--classifier", "table", "--defender", "doma",
            "--out-dir", str(workspace / "out"),
        )
        assert code == EXIT_USAGE
        assert "--predictions" in err

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "7"), ("--num-labels", "5"), ("--seed", "0"), ("--num-labels", "10"),
    ])
    def test_table_classifier_refuses_the_flags_it_does_not_read(
        self, capsys, workspace, flag, value
    ):
        """A table run reads neither the seed nor the label count: giving
        one, at any value, exits 2 before any input is read or --out-dir
        is made."""
        out_dir = workspace / "out"
        code, stdout, err = run(
            capsys, "evaluate",
            "--dataset", str(workspace / "missing.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--classifier", "table", "--predictions", str(workspace / "p.jsonl"),
            flag, value, "--defender", "doma", "--out-dir", str(out_dir),
        )
        assert (code, stdout) == (EXIT_USAGE, "")
        assert err == f"error: --classifier table does not read {flag}\n"
        assert not out_dir.exists()

    def test_predictions_without_table_classifier_is_a_usage_error(
        self, capsys, workspace
    ):
        code, out_dir, stdout, err = self.evaluate(
            capsys, workspace, "doma", "--predictions", "nonexistent.jsonl"
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "--predictions is read only with --classifier table" in err
        assert not out_dir.exists()

    def evaluate_table(self, capsys, workspace, rows):
        """Evaluate hicert at tau 0.8 from a table holding `rows`."""
        preds = workspace / "preds.jsonl"
        save_predictions(rows, str(preds))
        out_dir = workspace / "out_table"
        code, stdout, err = run(
            capsys, "evaluate",
            "--dataset", str(workspace / "data.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--classifier", "table", "--predictions", str(preds),
            "--defender", "hicert", "--tau", "0.8",
            "--out-dir", str(out_dir),
        )
        return code, out_dir, preds, err

    def hash_rows(self, workspace):
        """The hash classifier's profiles as prediction table rows."""
        clf = HashClassifier(seed=7, num_labels=5)
        mask_set = load_maskset(str(workspace / "masks.json"))
        rows = []
        for record in load_dataset(str(workspace / "data.jsonl")):
            profile = classify_mutants(clf, record.image, mask_set)
            rows.append((record.id, "base", profile.base))
            rows += [(record.id, i, p) for i, p in enumerate(profile.mutants)]
        return rows

    def test_table_of_hash_profiles_matches_the_hash_run(self, capsys, workspace):
        code, hash_dir, _, _ = self.evaluate(
            capsys, workspace, "hicert", "--tau", "0.8"
        )
        assert code == EXIT_OK
        code, table_dir, _, _ = self.evaluate_table(
            capsys, workspace, self.hash_rows(workspace)
        )
        assert code == EXIT_OK
        name = "records_hicert_tau0.8.jsonl"
        assert (table_dir / name).read_bytes() == (hash_dir / name).read_bytes()

    def test_consistent_is_the_reference_doma_rule(self, capsys, workspace):
        """Each record's `consistent` is plain one-mask agreement with the
        true label on the sample's profile, from the hash classifier and
        from a table whose samples are right or wrong, consistent or not."""
        records = load_dataset(str(workspace / "data.jsonl"))
        rows = []
        for i, record in enumerate(records):
            label, other = record.true_label, (record.true_label + 1) % 5
            mutants = [label] * 9
            if i % 2:
                mutants[i] = other
            base = other if i % 3 == 2 else label  # misclassified
            rows.append((record.id, "base", Prediction(base, 0.9)))
            rows += [(record.id, k, Prediction(m, 0.6)) for k, m in enumerate(mutants)]
        code, hash_dir, _, _ = self.evaluate(capsys, workspace, "doma")
        assert code == EXIT_OK
        code, table_dir, preds, _ = self.evaluate_table(capsys, workspace, rows)
        assert code == EXIT_OK
        mask_set = load_maskset(str(workspace / "masks.json"))
        kinds = set()
        for classifier, path in (
            (HashClassifier(seed=7, num_labels=5), hash_dir / "records_doma.jsonl"),
            (load_predictions(str(preds)), table_dir / "records_hicert_tau0.8.jsonl"),
        ):
            lines = path.read_text().splitlines()
            assert len(lines) == len(records)
            for record, line in zip(records, lines):
                profile = classify_mutants(
                    classifier, record.image, mask_set, sample_id=record.id
                )
                want = naive.doma_certify(profile, record.true_label, 0.0)
                assert json.loads(line)["consistent"] == want
                kinds.add((want, profile.base.label == record.true_label))
        assert len(kinds) == 4

    def test_table_for_another_mask_count_leaves_no_directory(
        self, capsys, workspace
    ):
        """A complete table with one mutant column too few fails while
        profiling, before the output directory is made."""
        rows = [row for row in self.hash_rows(workspace) if row[1] != 8]
        code, out_dir, _, err = self.evaluate_table(capsys, workspace, rows)
        assert code == EXIT_USAGE
        assert err == "error: table holds 8 mutant columns, mask set has 9\n"
        assert not out_dir.exists()

    def test_incomplete_table_is_a_file_error(self, capsys, workspace):
        code, out_dir, preds, err = self.evaluate_table(
            capsys, workspace, self.hash_rows(workspace)[:-1]
        )
        assert code == EXIT_IO
        assert err == f"error: {preds}: no row for sample 's00005', variant 8\n"
        assert not out_dir.exists()

    def test_table_missing_a_dataset_sample_is_a_file_error(self, capsys, workspace):
        """The table is complete in itself but lacks the last dataset
        sample; the run names the table and that sample, and writes
        nothing."""
        rows = self.hash_rows(workspace)
        last = rows[-1][0]
        code, out_dir, preds, err = self.evaluate_table(
            capsys, workspace, [row for row in rows if row[0] != last]
        )
        assert code == EXIT_IO
        assert err == f"error: {preds}: no row for sample {last!r}, variant 'base'\n"
        assert not out_dir.exists()


class TestVerify:
    def test_fixture_negative_control(self, capsys):
        code, stdout, _ = run(
            capsys, "verify", "--fixture", FIXTURE,
            "--defender-override", "certify=hicert:0.8,warn=doma",
        )
        assert code == EXIT_FINDINGS
        assert "1 violation(s)" in stdout

    def test_fixture_sound_defender(self, capsys):
        code, stdout, _ = run(
            capsys, "verify", "--fixture", FIXTURE,
            "--defender", "hicert", "--tau", "0.8",
        )
        assert code == EXIT_OK
        assert "0 violation(s)" in stdout

    def test_fixture_negative_label_is_a_file_error(self, capsys, tmp_path):
        doc = json.loads(pathlib.Path(FIXTURE).read_text())
        doc["rows"][3]["label"] = -1
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "verify", "--fixture", str(path),
            "--defender", "hicert", "--tau", "0.8",
        )
        assert code == EXIT_IO
        assert f"{path}: row 3: label must be non-negative" in err

    def test_dataset_scan_with_thm1(self, capsys, workspace, tmp_path):
        out = tmp_path / "soundness.json"
        code, stdout, _ = run(
            capsys, "verify",
            "--dataset", str(workspace / "data.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--classifier", "hash", "--num-labels", "5", "--seed", "7",
            "--defender", "hicert", "--tau", "0.8",
            "--checks", "def1,thm1", "--out", str(out),
        )
        assert code == EXIT_OK
        assert "def1 [hicert(tau=0.8)]" in stdout
        assert "0 violation(s)" in stdout
        assert "thm1:" in stdout
        doc = json.loads(out.read_text())
        assert doc["reports"]["def1"]["violations"] == []
        assert doc["reports"]["thm1"]["thm1_violations"] == []

    def test_random_mode_writes_a_report(self, capsys, workspace, tmp_path):
        out = tmp_path / "soundness.json"
        code, _, _ = run(
            capsys, "verify",
            "--dataset", str(workspace / "data.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--num-labels", "5", "--seed", "7",
            "--defender", "hicert", "--tau", "0.8",
            "--mode", "random", "--trials", "50", "--attack-seed", "3",
            "--out", str(out),
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["mode"] == "random"
        assert doc["config"]["attack"]["trials"] == 50

    def test_random_mode_without_a_legal_placement_is_a_usage_error(
        self, capsys, tmp_path
    ):
        """Two 2x2 patches never fit disjointly on 3x3: random mode has
        nothing to draw from, while zero trials and exhaustive mode scan
        the empty attack, however many contents one placement would have."""
        masks = tmp_path / "m.json"
        assert run(
            capsys, "maskgen", "--plane", "3", "3", "--patch-size", "2",
            "--patches", "2", "--masks-per-axis", "2", "--out", str(masks),
        )[0] == EXIT_OK
        for alphabet in ("4", "256"):
            data = tmp_path / f"d{alphabet}.jsonl"
            out = tmp_path / f"o{alphabet}.json"
            assert run(
                capsys, "gen-data", "--count", "3", "--plane", "3", "3",
                "--alphabet", alphabet, "--num-labels", "5", "--seed", "1",
                "--out", str(data),
            )[0] == EXIT_OK
            verify = (
                "verify", "--dataset", str(data), "--masks", str(masks),
                "--num-labels", "5", "--seed", "7", "--defender", "hicert",
                "--tau", "0.8", "--checks", "def1,thm1", "--out", str(out),
            )
            for workers in ("1", "2"):
                code, stdout, err = run(
                    capsys, *verify, "--mode", "random", "--trials", "5",
                    "--workers", workers,
                )
                assert code == EXIT_USAGE
                assert stdout == ""
                assert ("patch spec {'kind': 'multi', 'size': 2, 'count': 2} "
                        "has no legal placement on plane 3x3") in err
                assert not out.exists()
            for mode in (("--mode", "random", "--trials", "0"), ()):
                code, stdout, _ = run(capsys, *verify, *mode)
                assert code == EXIT_OK
                assert "0 variants, 0 violation(s)" in stdout

    def test_budget_refusal_names_the_exact_count(self, capsys, workspace):
        code, _, err = run(
            capsys, "verify",
            "--dataset", str(workspace / "data.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--num-labels", "5", "--seed", "7",
            "--defender", "hicert", "--tau", "0.8",
            "--patch-size", "8",
        )
        assert code == EXIT_USAGE
        assert str(4**64) in err

    def test_predictions_without_table_classifier_is_a_usage_error(
        self, capsys, workspace
    ):
        out = workspace / "o.json"
        code, stdout, err = run(
            capsys, "verify",
            "--dataset", str(workspace / "data.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--classifier", "linear", "--predictions", "nonexistent.jsonl",
            "--num-labels", "5", "--seed", "7",
            "--defender", "hicert", "--tau", "0.8", "--out", str(out),
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "--predictions is read only with --classifier table" in err
        assert not out.exists()

    def test_label_outside_num_labels_is_a_usage_error(self, capsys, workspace):
        data = workspace / "data.jsonl"
        code, _, err = run(
            capsys, "verify", "--dataset", str(data),
            "--masks", str(workspace / "masks.json"),
            "--num-labels", "2", "--seed", "7",
            "--defender", "hicert", "--tau", "0.8",
        )
        assert code == EXIT_USAGE
        assert f"{data}: sample {first_label_at_least(data, 2)!r} has label" in err

    @pytest.mark.parametrize("mode", [
        (), ("--mode", "random", "--trials", "5", "--attack-seed", "3"),
    ], ids=["exhaustive", "random"])
    def test_sample_on_another_plane_is_a_usage_error(
        self, capsys, workspace, tmp_path, mode
    ):
        """Refused before the first sample is scanned, naming the dataset,
        the sample and both planes."""
        data, sample_id = with_last_sample_on_6x6(workspace / "data.jsonl")
        masks, out = workspace / "masks.json", tmp_path / "soundness.json"
        code, stdout, err = run(
            capsys, "verify", "--dataset", str(data), "--masks", str(masks),
            "--num-labels", "5", "--seed", "7",
            "--defender", "hicert", "--tau", "0.8", *mode, "--out", str(out),
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err == (f"error: {data}: sample {sample_id!r} has plane 6x6, "
                       f"mask set {masks} has plane 8x8\n")
        assert not out.exists()

    def test_mask_set_on_another_plane_is_refused_before_its_masks(
        self, capsys, workspace, monkeypatch
    ):
        """The mask file's plane is compared with the dataset's before any
        mask is built, so a huge plane costs nothing to refuse."""
        masks = workspace / "huge.json"
        doc = json.loads((workspace / "masks.json").read_text())
        doc["plane"] = [1000000, 8]
        doc["masks"] = [{"rects": [[0, 0, 1000000, 8]]}]
        masks.write_text(json.dumps(doc))
        built = []
        monkeypatch.setattr(tensor.Mask, "__post_init__", lambda mask: built.append(mask))
        data = workspace / "data.jsonl"
        first = json.loads(data.read_text().splitlines()[0])["id"]
        code, stdout, err = run(
            capsys, "verify", "--dataset", str(data), "--masks", str(masks),
            "--num-labels", "5", "--seed", "7", "--defender", "hicert", "--tau", "0.8",
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err == (f"error: {data}: sample {first!r} has plane 8x8, "
                       f"mask set {masks} has plane 1000000x8\n")
        assert built == []

    def verify_patch_flags(self, capsys, workspace, *flags):
        return run(
            capsys, "verify",
            "--dataset", str(workspace / "data.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--num-labels", "5", "--seed", "7",
            "--defender", "hicert", "--tau", "0.8", *flags,
        )

    def test_patch_size_and_area_are_mutually_exclusive(self, capsys, workspace):
        code, stdout, err = self.verify_patch_flags(
            capsys, workspace, "--patch-size", "2", "--patch-area", "3"
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "not allowed with argument" in err

    def test_multiple_patches_need_patch_size(self, capsys, workspace):
        for flags in (("--patch-area", "2", "--patches", "2"), ("--patches", "2")):
            code, stdout, err = self.verify_patch_flags(capsys, workspace, *flags)
            assert code == EXIT_USAGE, flags
            assert stdout == ""
            assert "--patches needs --patch-size" in err

    @pytest.mark.parametrize("override, message", [
        pytest.param("certify=hicert:abc,warn=doma", "'abc'", id="not-a-number"),
        pytest.param("certify=doma:0.5,warn=doma",
                     "'certify=doma:0.5': doma takes no :tau", id="tau-for-doma"),
        pytest.param("certify=hicert,warn=hicert",
                     "'certify=hicert': hicert needs :tau", id="no-tau-for-hicert"),
        pytest.param("certify=doma,certify=hicert:0.8,warn=doma",
                     "override gives certify= twice", id="repeated-role"),
    ])
    def test_override_with_bad_tau_is_a_usage_error(self, capsys, override, message):
        code, stdout, err = run(
            capsys, "verify", "--fixture", FIXTURE, "--defender-override", override,
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert message in err

    def test_fixture_refuses_the_flags_it_does_not_read(self, capsys):
        code, stdout, err = run(
            capsys, "verify", "--fixture", FIXTURE,
            "--defender", "hicert", "--tau", "0.8", "--patch-size", "2",
            "--mode", "random", "--checks", "thm1", "--trials", "5",
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "does not read --patch-size, --mode, --trials, --checks" in err

    @pytest.mark.parametrize("flag, value", flags_a_fixture_does_not_read())
    def test_fixture_refuses_each_unread_flag_at_its_default(
        self, capsys, tmp_path, flag, value
    ):
        """A flag is refused when the command line names it, whatever its
        value; a lone --patches is refused for its own reason first."""
        out = tmp_path / "soundness.json"
        code, stdout, err = run(
            capsys, "verify", "--fixture", FIXTURE,
            "--defender-override", "certify=hicert:0.8,warn=doma",
            "--out", str(out), flag, *value,
        )
        message = ("--patches needs --patch-size" if flag == "--patches"
                   else f"--fixture does not read {flag}")
        assert (code, stdout, err) == (EXIT_USAGE, "", f"error: {message}\n")
        assert not out.exists()

    def test_tau_for_a_defender_without_tau_is_a_usage_error(self, capsys):
        code, stdout, err = run(
            capsys, "verify", "--fixture", FIXTURE, "--defender", "doma",
            "--tau", "0.5",
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "--defender doma takes no --tau" in err

    def test_override_refuses_defender_and_tau(self, capsys):
        code, stdout, err = run(
            capsys, "verify", "--fixture", FIXTURE,
            "--defender-override", "certify=hicert:0.8,warn=doma",
            "--tau", "0.1", "--defender", "doma",
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "--defender-override replaces --defender, --tau" in err

    def test_fixture_missing_row_is_a_file_error(self, capsys, tmp_path):
        doc = json.loads(pathlib.Path(FIXTURE).read_text())
        doc["variants"] = ["ghost"]
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "verify", "--fixture", str(path),
            "--defender", "hicert", "--tau", "0.8",
        )
        assert code == EXIT_IO
        assert f"{path}: no row for sample 'ghost', variant 'base'" in err

    def test_fixture_negative_true_label_is_a_file_error(self, capsys, tmp_path):
        doc = json.loads(pathlib.Path(FIXTURE).read_text())
        doc["true_label"] = -1
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(doc))
        code, stdout, err = run(
            capsys, "verify", "--fixture", str(path),
            "--defender", "hicert", "--tau", "0.8",
        )
        assert (code, stdout, err) == (
            EXIT_IO, "", f"error: {path}: true_label must be non-negative\n"
        )

    @pytest.mark.parametrize("kind, edit, where", [
        pytest.param("masks", lambda doc: [], ": document must be an object",
                     id="masks-not-an-object"),
        pytest.param("masks", lambda doc: {**doc, "format_version": 2},
                     ": unsupported format_version 2", id="masks-format-version"),
        pytest.param("masks", lambda doc: {**doc, "masks": [{"rects": [[7, 7, 3, 3]]}]},
                     ": bad mask set: mask rect Rect(top=7, left=7, height=3, width=3) "
                     "exceeds plane 8x8", id="mask-off-the-plane"),
        pytest.param("masks", lambda doc: {**doc, "masks": [
            {"rect": doc["masks"][0]["rects"]}, *doc["masks"][1:]]},
                     ": mask 0: missing field 'rects'", id="mask-without-rects"),
        pytest.param("masks", lambda doc: {**doc, "masks": [
            doc["masks"][0], doc["masks"][1]["rects"], *doc["masks"][2:]]},
                     ": mask 1: must be an object", id="mask-a-list"),
        pytest.param("masks", lambda doc: {**doc, "spec": {
            k: v for k, v in doc["spec"].items() if k != "kind"}},
                     ": spec: missing field 'kind'", id="spec-without-kind"),
        pytest.param("masks", lambda doc: {**doc, "masks": [{"rects": "x"}]},
                     ": mask 0: field 'rects' has the wrong type",
                     id="mask-rects-a-string"),
        pytest.param("data", lambda row: {**row, "label": -1},
                     ":1: label must be non-negative", id="data-negative-label"),
        pytest.param("data", lambda row: {**row, "shape": [8, 8]},
                     ":1: shape must be [h, w, c]", id="data-two-axis-shape"),
        pytest.param("fixture", lambda doc: {**doc, "rows": [
            *doc["rows"][:2], list(doc["rows"][2].values()), *doc["rows"][3:]]},
                     ": row 2: row must be an object", id="fixture-row-a-list"),
        pytest.param("fixture", lambda doc: {**doc, "rows": [
            *doc["rows"][:2], {k: v for k, v in doc["rows"][2].items() if k != "variant"},
            *doc["rows"][3:]]},
                     ": row 2: missing field 'variant'", id="fixture-row-no-variant"),
        pytest.param("fixture", lambda doc: {**doc, "variants": [1]},
                     ": variants must be sample id strings", id="fixture-int-variant"),
    ])
    def test_loader_refusal_names_the_file(self, capsys, workspace, kind, edit, where):
        """A bad mask set, dataset line or fixture exits 3, naming the
        file (and the line, where it has one)."""
        source = {"masks": workspace / "masks.json", "data": workspace / "data.jsonl",
                  "fixture": pathlib.Path(FIXTURE)}[kind]
        if kind == "data":  # edit the first line
            first, *rest = source.read_text().splitlines()
            text = "\n".join([json.dumps(edit(json.loads(first))), *rest]) + "\n"
        else:
            text = json.dumps(edit(json.loads(source.read_text())))
        bad = workspace / f"bad-{source.name}"
        bad.write_text(text)
        inputs = {"masks": ("--dataset", workspace / "data.jsonl", "--masks", bad),
                  "data": ("--dataset", bad, "--masks", workspace / "masks.json"),
                  "fixture": ("--fixture", bad)}[kind]
        seed = () if kind == "fixture" else ("--num-labels", "5", "--seed", "7")
        code, stdout, err = run(capsys, "verify", *map(str, inputs), *seed,
                                "--defender", "hicert", "--tau", "0.8")
        assert (code, stdout, err) == (EXIT_IO, "", f"error: {bad}{where}\n")

    @pytest.mark.parametrize("flags, message", [
        pytest.param(("--fixture", FIXTURE, "--defender-override", "hicert"),
                     "bad override chunk 'hicert'; expected role=kind[:tau]",
                     id="override-without-role"),
        pytest.param(("--fixture", FIXTURE, "--defender-override", "check=doma"),
                     "override role must be certify or warn, got 'check'",
                     id="override-unknown-role"),
        pytest.param(("--fixture", FIXTURE, "--defender-override", "certify=hicert:0.8"),
                     "override needs both certify= and warn=", id="override-one-role"),
        pytest.param(("--fixture", FIXTURE, "--tau", "0.8", "--tau", "0.9"),
                     "verify takes a single --tau", id="two-taus"),
        pytest.param(("--masks", "{masks}", "--tau", "0.8"),
                     "verify needs --dataset and --masks (or --fixture)",
                     id="no-dataset"),
        pytest.param(("--dataset", "{data}", "--masks", "{masks}", "--num-labels", "5",
                      "--tau", "0.8", "--checks", ","),
                     "no checks requested", id="empty-checks"),
        # Usage errors come before any input file is read.
        pytest.param(("--dataset", "{missing}", "--masks", "{masks}", "--tau", "0.8",
                      "--checks", "bogus"),
                     "unknown check 'bogus'; expected def1, thm1",
                     id="unknown-check-before-inputs"),
        pytest.param(("--dataset", "{missing}", "--masks", "{masks}", "--tau", "0.8",
                      "--trials", "5"),
                     "--mode exhaustive does not read --trials",
                     id="exhaustive-trials-before-inputs"),
        pytest.param(("--dataset", "{missing}", "--masks", "{masks}", "--classifier", "table",
                      "--predictions", "{preds}", "--tau", "0.8"),
                     "table classifiers cannot label tampered pixels; "
                     "use a profile fixture instead",
                     id="table-classifier-before-inputs"),
        pytest.param(("--dataset", "{missing}", "--masks", "{masks}", "--tau", "0.8",
                      "--trials", "1000"),
                     "--mode exhaustive does not read --trials",
                     id="exhaustive-default-trials-before-inputs"),
        pytest.param(("--dataset", "{missing}", "--masks", "{masks}", "--tau", "0.8",
                      "--attack-seed", "0"),
                     "--mode exhaustive does not read --attack-seed",
                     id="exhaustive-default-attack-seed-before-inputs"),
        pytest.param(("--dataset", "{missing}", "--masks", "{masks}", "--tau", "0.8",
                      "--patches", "1", "--checks", "thm1"),
                     "--patches needs --patch-size", id="lone-patches-1-before-inputs"),
        pytest.param(("--dataset", "{missing}", "--masks", "{masks}", "--tau", "0.8",
                      "--patch-area", "2", "--patches", "1"),
                     "--patches needs --patch-size", id="area-patches-1-before-inputs"),
        pytest.param(("--dataset", "{missing}", "--masks", "{masks}", "--tau", "0.8",
                      "--predictions", ""),
                     "--predictions is read only with --classifier table",
                     id="empty-predictions-without-table-before-inputs"),
    ])
    def test_refused_verify_writes_nothing(self, capsys, workspace, flags, message):
        out = workspace / "soundness.json"
        paths = {"data": workspace / "data.jsonl", "masks": workspace / "masks.json",
                 "missing": workspace / "missing.jsonl", "preds": workspace / "p.jsonl"}
        argv = [flag.format(**paths) for flag in flags]
        code, stdout, err = run(capsys, "verify", *argv, "--out", str(out))
        assert (code, stdout, err) == (EXIT_USAGE, "", f"error: {message}\n")
        assert not out.exists()

    def test_negative_attack_seed_is_refused_by_the_parser(self, capsys, workspace):
        out = workspace / "soundness.json"
        code, stdout, err = run(capsys, "verify", "--attack-seed", "-1", "--out", str(out))
        assert (code, stdout) == (EXIT_USAGE, "")
        assert err.startswith("usage: patchcert verify")
        assert err.splitlines()[-1] == ("patchcert verify: error: argument "
                                        "--attack-seed: attack seed must be non-negative")
        assert not out.exists()

    def test_fixture_report_is_saved_byte_for_byte(self, capsys, tmp_path):
        """`verify --fixture --out` writes the fixture path and the report,
        the same bytes on every run."""
        saved = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "verify", "--fixture", FIXTURE,
                "--defender-override", "certify=hicert:0.8,warn=doma", "--out", str(out),
            )
            assert code == EXIT_FINDINGS
            saved.append(out.read_bytes())
        assert saved[0] == saved[1]
        doc = json.loads(saved[0])
        assert set(doc) == {"fixture", "report"}
        assert doc["fixture"] == FIXTURE
        report = doc["report"]
        assert (report["defender"], report["mode"]) == ("certify=hicert(tau=0.8), warn=doma", "fixture")
        assert (report["samples_checked"], report["certified_count"],
                report["variants_evaluated"]) == (1, 1, 1)
        assert report["violations"] == [{
            "sample_id": "x", "variant_id": "x-patched", "variant_label": 1,
            "reason": "harmful variant drew no warning",
        }]
        assert report["thm2_clause_stats"] == {"label_difference": 0, "low_confidence": 0}

    def test_exhaustive_refuses_trials_and_attack_seed(self, capsys, workspace):
        code, stdout, err = self.verify_patch_flags(
            capsys, workspace, "--trials", "5", "--attack-seed", "9"
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "--mode exhaustive does not read --trials, --attack-seed" in err

    def test_unknown_check_is_a_usage_error(self, capsys, workspace):
        code, _, err = run(
            capsys, "verify",
            "--dataset", str(workspace / "data.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--defender", "hicert", "--tau", "0.8",
            "--checks", "def3",
        )
        assert code == EXIT_USAGE
        assert "unknown check" in err

    def test_missing_dataset_is_an_io_error(self, capsys, workspace):
        code, _, _ = run(
            capsys, "verify",
            "--dataset", str(workspace / "missing.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--defender", "hicert", "--tau", "0.8",
        )
        assert code == EXIT_IO

    def test_timing_goes_to_stderr(self, capsys, workspace):
        outs = []
        for timing in ((), ("--timing",)):
            code, stdout, err = run(
                capsys, "verify",
                "--dataset", str(workspace / "data.jsonl"),
                "--masks", str(workspace / "masks.json"),
                "--num-labels", "5", "--seed", "7",
                "--defender", "hicert", "--tau", "0.8", *timing,
            )
            assert code == EXIT_OK
            outs.append(stdout)
        assert outs[0] == outs[1]
        assert err.startswith("elapsed: ")

    def test_workers_do_not_change_the_report(self, capsys, workspace, tmp_path):
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}.json"
            code, stdout, _ = run(
                capsys, "verify",
                "--dataset", str(workspace / "data.jsonl"),
                "--masks", str(workspace / "masks.json"),
                "--num-labels", "5", "--seed", "7",
                "--defender", "hicert", "--tau", "0.8",
                "--checks", "def1,thm1", "--out", str(out),
                "--workers", workers,
            )
            assert code == EXIT_OK
            outs.append((stdout, out.read_bytes()))
        assert outs[0] == outs[1]


class TestReport:
    def test_recomputes_the_same_metrics(self, capsys, workspace, tmp_path):
        out_dir = workspace / "out"
        code, _, _ = run(
            capsys, "evaluate",
            "--dataset", str(workspace / "data.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--num-labels", "5", "--seed", "7",
            "--defender", "hicert", "--tau", "0.8",
            "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        recomputed = tmp_path / "again.json"
        code, _, _ = run(
            capsys, "report",
            "--records", str(out_dir / "records_hicert_tau0.8.jsonl"),
            "--out", str(recomputed),
        )
        assert code == EXIT_OK
        original = json.loads(
            (out_dir / "report_hicert_tau0.8.json").read_text()
        )
        again = json.loads(recomputed.read_text())
        assert again["metrics"] == original["metrics"]
        assert again["cases"] == original["cases"]
        assert again["total"] == original["total"]

    def report(self, capsys, workspace, tmp_path, edit):
        """Run report on evaluate's records after `edit(rows)` changes them."""
        out_dir = workspace / "out"
        run(
            capsys, "evaluate",
            "--dataset", str(workspace / "data.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--num-labels", "5", "--seed", "7",
            "--defender", "hicert", "--tau", "0.8",
            "--out-dir", str(out_dir),
        )
        path = out_dir / "records_hicert_tau0.8.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        edit(rows)
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, _, err = run(
            capsys, "report", "--records", str(path),
            "--out", str(tmp_path / "again.json"),
        )
        return code, err, path

    def test_out_of_range_confidence_is_a_file_error(
        self, capsys, workspace, tmp_path
    ):
        def edit(rows):
            rows[1]["base_confidence"] = 1.5

        code, err, path = self.report(capsys, workspace, tmp_path, edit)
        assert code == EXIT_IO
        assert f"{path}:2: base_confidence must lie strictly inside (0, 1)" in err

    def test_string_flag_is_not_counted_as_certified(
        self, capsys, workspace, tmp_path
    ):
        def edit(rows):
            del rows[1:]
            rows[0].update(certified="no", case=None)

        code, err, path = self.report(capsys, workspace, tmp_path, edit)
        assert code == EXIT_IO
        assert f"{path}:1: field 'certified' has the wrong type" in err
        assert not (tmp_path / "again.json").exists()

    def test_mixed_warning_rules_name_the_file(self, capsys, workspace, tmp_path):
        def edit(rows):
            rows[2].update(warned=None, case=None)

        code, err, path = self.report(capsys, workspace, tmp_path, edit)
        assert code == EXIT_IO
        assert f"{path}:3: records mix warned and warning-free defenders" in err


class TestUsage:
    def test_no_command_is_a_usage_error(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == EXIT_OK

    def test_every_flag_is_spelled_as_its_dest(self):
        """`main` reads the dests a command line names off its "--"
        tokens. That needs one spelling per flag: "--" plus its dest with
        dashes, and no prefix of it parsed as the flag."""
        parser = cli.build_parser()
        assert not parser.allow_abbrev
        for name, sub in subcommands(parser).items():
            assert not sub.allow_abbrev, name
            for action in sub._actions:
                if not isinstance(action, argparse._HelpAction):
                    spelling = "--" + action.dest.replace("_", "-")
                    assert action.option_strings == [spelling], (name, action.dest)

    @pytest.mark.parametrize("flag, argv", [
        pytest.param("--masks", ("maskgen", "--plane", "4", "4", "--patch-size", "1",
                                 "--masks", "2", "--out", "m.json"), id="maskgen"),
        pytest.param("--coun", ("gen-data", "--coun", "2", "--plane", "4", "4",
                                "--out", "d.jsonl"), id="gen-data"),
        pytest.param("--out", ("evaluate", "--dataset", "d.jsonl", "--masks", "m.json",
                               "--defender", "doma", "--out", "r"), id="evaluate"),
        pytest.param("--attack", ("verify", "--dataset", "d.jsonl", "--masks", "m.json",
                                  "--tau", "0.8", "--mode", "random", "--attack", "0"),
                     id="verify"),
        pytest.param("--rec", ("report", "--rec", "r.jsonl", "--out", "report.json"),
                     id="report"),
    ])
    def test_an_abbreviated_flag_is_a_usage_error(
        self, capsys, tmp_path, monkeypatch, flag, argv
    ):
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert flag in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,out_flag", [
        ("evaluate", "--out-dir"), ("verify", "--out"),
    ])
    def test_linear_seed_outside_64_bits_is_a_usage_error(
        self, capsys, workspace, command, out_flag
    ):
        out_dir = workspace / "out"
        out = out_dir if command == "evaluate" else out_dir / "soundness.json"
        code, stdout, err = run(
            capsys, command,
            "--dataset", str(workspace / "data.jsonl"),
            "--masks", str(workspace / "masks.json"),
            "--classifier", "linear", "--num-labels", "5", "--seed", str(2**64),
            "--defender", "doma", out_flag, str(out),
        )
        assert (code, stdout, err) == (
            EXIT_USAGE, "", "error: seed must fit in 64 bits\n"
        )
        assert not out_dir.exists()
