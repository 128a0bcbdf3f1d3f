"""Golden outputs: a 20-sample README walkthrough, run in process.

Every command's exit code and stdout, and every file the walkthrough
writes, are pinned by their sha256. Reports embed the `--dataset` and
`--masks` strings, so the commands run in a scratch directory and name
their files by relative paths. Linear `evaluate` is left out: its
records hold softmax confidences whose last digits depend on the
Python version's float summation.
"""
import hashlib
import pathlib
import shutil

from patchcert.cli import main

FIXTURE = pathlib.Path(__file__).parent / "data" / "negative_control.json"

DATA = "--dataset data.jsonl --masks masks.json --num-labels 5 --seed 7"

# (command line, exit code, sha256 of stdout), in run order.
COMMANDS = [
    ("maskgen --plane 8 8 --patch-size 2 --masks-per-axis 3 --out masks.json", 0,
     "0f9831f1e97660f341f5ab844d0cec6a5175917ab029856d9e421e38f30caa06"),
    ("gen-data --count 20 --plane 8 8 --alphabet 4 --num-labels 5 --seed 1234 "
     "--out data.jsonl", 0,
     "863ad6758d1eee0e9135eb58f9b20ef55cea12a5b4d8b236db3276bdbb549409"),
    (f"evaluate {DATA} --classifier hash --defender hicert --tau 0 --tau 0.8 "
     "--out-dir results", 0,
     "f5f9bfa39fc4599d3ebb1c9e81cdf3cf56522397e04d50584a33789e3b7a2726"),
    ("report --records results/records_hicert_tau0.8.jsonl --out report.json", 0,
     "59fce9fd6813a526ab04c429b2a4f973cb7f9b29f99de364f6e74756b5bef9e1"),
    (f"verify {DATA} --classifier hash --defender hicert --tau 0.8 "
     "--checks def1,thm1 --out hash.json", 0,
     "dae3f0a917cbf0523404e43f194a3e98afcd9a239b8458b7a3e71264c5ea9021"),
    (f"verify {DATA} --classifier linear --defender hicert --tau 0.8 "
     "--checks def1,thm1 --out linear.json", 0,
     "19dfeeb3fbe76fc7453a1fa6d22663c7426985d4fe40e37908e0c4107664f869"),
    ("verify --fixture negative_control.json --defender hicert --tau 0.8", 0,
     "ae8ca1c85ad82f3714a1cd848e2698bb9c8cddb8c6f038a011b8994994d7031b"),
    ("verify --fixture negative_control.json "
     "--defender-override certify=hicert:0.8,warn=doma", 1,
     "295787ae2d699401e6247415891c123712de65a784b40da8bd920bddb4c256c0"),
]

# Every file the commands write, by path relative to the directory they run in.
FILES = {
    "data.jsonl": "3b8cad650443056d2762d476cd4e282c9a293ef3d28d65216cb527d941fd5155",
    "hash.json": "124ee84f80721a51c1635084714bacc66172b9ef9f19643925c039fc6bd0d878",
    "linear.json": "36cab55934cb1481f72ba829c528ed7a9c846daf7d70322f8556fbea5091332f",
    "masks.json": "6d4d7c1ba2dc5965e636e4ee2ed67204be143d7f5f8bbab18be4b61f3de7686d",
    "report.json": "56a90e7e53ffe1ed6b2f6900ad2195356b72dd92455b1947519b111fca99d131",
    "results/records_hicert_tau0.8.jsonl":
        "057111aece0571c19b3d7403d4a797518331db8033c662bdd757744145a3f9df",
    "results/records_hicert_tau0.jsonl":
        "40e4b30f9d3bd54f3a33220b83456d882ec634312433d6981a19acb3ddf65e71",
    "results/report_hicert_tau0.8.json":
        "3836041587e82b0e3c292e13ece67bf0a21872e396d7d08cee287fe4e7ee73cb",
    "results/report_hicert_tau0.json":
        "497bcda54f72d280226c7de751855d6035373c05ca23420b928724f269519d7f",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_the_walkthrough_writes_the_pinned_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copy(FIXTURE, tmp_path)
    got = []
    for line, _, _ in COMMANDS:
        code = main(line.split())
        got.append((line, code, sha256(capsys.readouterr().out.encode())))
    assert got == COMMANDS
    written = {
        path.relative_to(tmp_path).as_posix(): sha256(path.read_bytes())
        for path in tmp_path.rglob("*")
        if path.is_file() and path.name != FIXTURE.name
    }
    assert written == FILES
