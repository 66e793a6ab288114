import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lesionwise
from lesionwise import (
    LogitVolume,
    Shape,
    Spacing,
    build_phantom,
    figure1_scenario,
    figure2_scenario,
    random_instances_spec,
    read_volume,
    write_volume,
)
from lesionwise import cli
from lesionwise.cli import EXIT_IO, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, build_parser, main
from oracles import chain_pair, mk_mask


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


def _write_manifest(path, rows):
    path.write_text("gt,pred\n" + "\n".join(f"{g},{p}" for g, p in rows) + "\n")


@pytest.fixture
def figure1_files(tmp_path):
    sc = figure1_scenario()
    write_volume(sc.gt, tmp_path / "gt.raw")
    write_volume(sc.pred_partial, tmp_path / "pred_partial.raw")
    write_volume(sc.pred_perfect, tmp_path / "pred_perfect.raw")
    return tmp_path


def test_eval_identical_pair(tmp_path):
    rng = np.random.default_rng(0)
    mask = mk_mask(rng.random((8, 8, 4)) < 0.1)
    write_volume(mask, tmp_path / "m.raw")
    manifest = tmp_path / "cases.csv"
    _write_manifest(manifest, [("m.raw", "m.raw")])

    out = tmp_path / "out"
    code = run_cli(["eval", "--manifest", str(manifest), "--out", str(out)])
    assert code == EXIT_OK

    report = json.loads((out / "report.json").read_text())
    metrics = report["cases"][0]["metrics"]
    assert metrics["dice"] == 1.0
    assert metrics["f1"] == 1.0
    assert report["summary"] == {"n_cases": 1, "n_ok": 1, "n_failed": 0}
    assert (out / "cases.csv").exists()


def test_eval_figure1_pair(figure1_files):
    manifest = figure1_files / "cases.csv"
    _write_manifest(manifest, [("gt.raw", "pred_partial.raw")])
    out = figure1_files / "out"
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK

    report = json.loads((out / "report.json").read_text())
    m = report["cases"][0]["metrics"]
    assert m["cc_dice"] == pytest.approx(3 / 16)
    assert m["recall"] == pytest.approx(3 / 16)
    assert (m["n_gt"], m["tp"], m["fp"]) == (16, 3, 0)
    qr = report["quartile_recall"]
    assert qr["recall"] == [0.0, None, None, 1.0]
    assert qr["total"] == [13, 0, 0, 3]
    assert report["config"]["tie_policy"] == "lowest-component-id"


def test_eval_long_overlap_chain_is_fully_matched(tmp_path):
    """1200 GT and 1200 predicted lesions whose matching needs one 1200-long path."""
    gt, pred = chain_pair(1200)
    write_volume(mk_mask(gt), tmp_path / "gt.raw")
    write_volume(mk_mask(pred), tmp_path / "pred.raw")
    manifest = tmp_path / "cases.csv"
    _write_manifest(manifest, [("gt.raw", "pred.raw")])
    out = tmp_path / "out"
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK

    m = json.loads((out / "report.json").read_text())["cases"][0]["metrics"]
    assert (m["n_gt"], m["n_pred"], m["tp"], m["fp"], m["fn"]) == (1200, 1200, 1200, 0, 0)


def test_eval_empty_manifest_is_usage_error(tmp_path):
    manifest = tmp_path / "cases.csv"
    manifest.write_text("gt,pred\n")
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) \
        == EXIT_USAGE


def test_eval_missing_manifest_is_io_error(tmp_path):
    assert run_cli(["eval", "--manifest", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "o")]) == EXIT_IO


def test_eval_bad_manifest_header_is_io_error(tmp_path):
    manifest = tmp_path / "cases.csv"
    manifest.write_text("a,b\nx,y\n")
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) \
        == EXIT_IO


def test_eval_manifest_header_with_spaces_reads_its_cases(tmp_path):
    mask = mk_mask(np.ones((3, 3, 3), dtype=bool))
    write_volume(mask, tmp_path / "m.raw")
    manifest = tmp_path / "cases.csv"
    manifest.write_text(" gt , pred ,note\n m.raw , m.raw ,x\n\n")
    out = tmp_path / "out"
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["summary"] == {"n_cases": 1, "n_ok": 1, "n_failed": 0}
    assert report["cases"][0]["metrics"]["dice"] == 1.0


def test_eval_manifest_with_a_bom_reads_as_without(tmp_path):
    # spreadsheet tools often save CSV with a UTF-8 byte order mark
    sc = figure1_scenario()
    write_volume(sc.gt, tmp_path / "gt.raw")
    write_volume(sc.pred_partial, tmp_path / "pred.raw")
    text = "gt,pred\ngt.raw,pred.raw\ngt.raw,gt.raw\n"
    reports = []
    for name, blob in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / f"{name}.csv").write_bytes(blob)
        out = tmp_path / name
        assert run_cli(["eval", "--manifest", str(tmp_path / f"{name}.csv"),
                        "--out", str(out)]) == EXIT_OK
        reports.append(json.loads((out / "report.json").read_text()))
    plain, bom = reports
    assert len(plain["cases"]) == 2
    for key in ("cases", "aggregate", "quartile_recall"):
        assert bom[key] == plain[key]


def test_eval_partial_failure(tmp_path):
    mask = mk_mask(np.ones((4, 4, 4), dtype=bool))
    write_volume(mask, tmp_path / "m.raw")
    other = mk_mask(np.ones((5, 5, 5), dtype=bool))
    write_volume(other, tmp_path / "wrong_shape.raw")

    manifest = tmp_path / "cases.csv"
    _write_manifest(manifest, [
        ("m.raw", "m.raw"),
        ("m.raw", "missing.raw"),
        ("m.raw", "wrong_shape.raw"),
    ])
    out = tmp_path / "out"
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(out)]) \
        == EXIT_PARTIAL

    report = json.loads((out / "report.json").read_text())
    statuses = [c["status"] for c in report["cases"]]
    assert statuses == ["ok", "error", "error"]
    assert report["summary"]["n_failed"] == 2
    assert "shape" in report["cases"][2]["error"].lower()


def test_eval_reports_are_thread_count_invariant(tmp_path, monkeypatch, figure1_files):
    manifest = figure1_files / "cases.csv"
    _write_manifest(manifest, [
        ("gt.raw", "pred_partial.raw"),
        ("gt.raw", "pred_perfect.raw"),
        ("gt.raw", "gt.raw"),
    ])
    outputs = []
    out = tmp_path / "out"  # same directory so the config echo matches too
    for threads in ("1", "3"):
        monkeypatch.setenv("LESIONWISE_THREADS", threads)
        assert run_cli(["eval", "--manifest", str(manifest), "--out", str(out)]) \
            == EXIT_OK
        outputs.append(
            ((out / "report.json").read_bytes(), (out / "cases.csv").read_bytes())
        )
    assert outputs[0] == outputs[1]


def _write_pinned_cases(d):
    """The volumes and the ``cases.csv`` manifest whose reports are pinned."""
    f1, f2 = figure1_scenario(), figure2_scenario()
    write_volume(f1.gt, d / "gt1.raw")
    write_volume(f1.pred_partial, d / "partial1.raw")
    write_volume(f2.gt, d / "gt2.raw")
    write_volume(f2.logits, d / "logits2.raw")
    _write_manifest(d / "cases.csv", [
        ("gt1.raw", "partial1.raw"),
        ("gt2.raw", "logits2.raw"),
        ("gt2.raw", "gt2.raw"),
        ("gt1.raw", "missing.raw"),
    ])


# sha256 of (report.json, cases.csv) for the manifest of _write_pinned_cases,
# per --distance
REPORT_DIGESTS = {
    "voxel": ("9e0c009be1ad164c94eca00da1487ccd00c7c21a3ab6226a7024253d1b49ab15",
              "ddd1044f469d2a71e73c7a539508610724ec36b764fc406fa245b3d4f05a26da"),
    "physical": ("11b00797f0cd3edbcd459247f79f674f6746915f57dd2951e53f9a13c6603dea",
                 "ddd1044f469d2a71e73c7a539508610724ec36b764fc406fa245b3d4f05a26da"),
}


@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("distance", ["voxel", "physical"])
def test_eval_report_bytes_are_pinned(tmp_path, monkeypatch, distance, threads):
    _write_pinned_cases(tmp_path)
    monkeypatch.chdir(tmp_path)  # relative paths, so the echoed config is stable
    monkeypatch.setenv("LESIONWISE_THREADS", threads)
    assert run_cli(["eval", "--manifest", "cases.csv", "--out", "out",
                    "--distance", distance]) == EXIT_PARTIAL
    digests = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                    for name in ("report.json", "cases.csv"))
    assert digests == REPORT_DIGESTS[distance]


# A fresh interpreter that has not imported scipy.ndimage, running the CLI,
# then running `after` before it exits with the CLI's code.
_COLD_CLI = ("import sys\n"
             "from lesionwise import cli\n"
             "assert 'scipy.ndimage' not in sys.modules\n"
             "code = cli.main(sys.argv[1:])\n"
             "{after}"
             "sys.exit(code)\n")


def _run_cold(cwd, argv, threads="1", after=""):
    src = str(Path(lesionwise.__file__).parents[1])
    env = dict(os.environ, LESIONWISE_THREADS=threads, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", _COLD_CLI.format(after=after), *argv], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("distance", ["voxel", "physical"])
def test_cold_eval_does_not_import_scipy_ndimage(tmp_path, distance):
    # Labeling, matching and the Voronoi lookup need no scipy.ndimage (about
    # 0.4 s to import in a fresh interpreter); only the dense partition does.
    _write_pinned_cases(tmp_path)
    proc = _run_cold(tmp_path, ["eval", "--manifest", "cases.csv", "--out", "out",
                                "--distance", distance], "2",
                     after="assert 'scipy.ndimage' not in sys.modules, 'eval imported it'\n")
    assert proc.returncode == EXIT_PARTIAL, proc.stderr


def test_cold_eval_on_two_workers_writes_the_pinned_bytes(tmp_path):
    # Both workers reach their first Voronoi lookup at once, so they import
    # scipy.spatial (in voronoi._nearest_at) concurrently; the reports must
    # equal a 1-worker run's and the pinned ones.
    _write_pinned_cases(tmp_path)
    reports = {}
    for threads in ("2", "1"):
        proc = _run_cold(tmp_path, ["eval", "--manifest", "cases.csv", "--out", "out",
                                    "--distance", "physical"], threads)
        assert proc.returncode == EXIT_PARTIAL, proc.stderr
        reports[threads] = tuple(
            hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in ("report.json", "cases.csv"))
    assert reports["2"] == reports["1"] == REPORT_DIGESTS["physical"]


# sha256 of the `voronoi --out` file of test_cold_voronoi_writes_the_pinned_bytes
VORONOI_DIGESTS = {
    "voxel": "5637b2490f9af390fc9f124c325318ce9727869f19c21050d497324360fa23f1",
    "physical": "fa976168679e10d1ca7de81b0bc659636229c98ad1e94214a89fa374a9a4e5f5",
}


@pytest.mark.parametrize("distance", ["voxel", "physical"])
def test_cold_voronoi_writes_the_pinned_bytes(tmp_path, distance):
    spec = random_instances_spec(Shape(24, 20, 16), Spacing(0.8, 1.0, 2.0), 6, seed=7)
    write_volume(build_phantom(spec)[0], tmp_path / "gt.nii.gz")
    proc = _run_cold(tmp_path, ["voronoi", "--gt", "gt.nii.gz", "--out", "r.raw",
                                "--distance", distance])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert hashlib.sha256((tmp_path / "r.raw").read_bytes()).hexdigest() \
        == VORONOI_DIGESTS[distance]


def test_loss_command_reproduces_figure1_value(figure1_files, capsys):
    code = run_cli([
        "loss",
        "--gt", str(figure1_files / "gt.raw"),
        "--logits", str(figure1_files / "pred_partial.raw"),
        "--loss", "cc-dicece",
        "--w-global", "0", "--w-ce", "0",
    ])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["loss"] == pytest.approx(0.8125, abs=1e-9)
    assert payload["config"]["loss"] == "cc-dicece"


def test_loss_command_config_has_its_record_keys(figure1_files, capsys):
    grad_out = str(figure1_files / "g.raw")
    assert run_cli(["loss", "--gt", str(figure1_files / "gt.raw"),
                    "--logits", str(figure1_files / "pred_partial.raw"),
                    "--grad-out", grad_out, "--normalized"]) == EXIT_OK
    config = json.loads(capsys.readouterr().out)["config"]
    assert list(config) == ["command", "gt", "logits", "loss", "w_global", "w_instance",
                            "w_dice", "w_ce", "distance", "grad_out", "normalized",
                            "tie_policy"]
    assert (config["command"], config["grad_out"], config["normalized"]) \
        == ("loss", grad_out, True)


def test_loss_normalized_without_grad_out_is_usage_error(tmp_path, capsys):
    # the inputs do not exist: the option check comes before any read (which would exit 2)
    assert run_cli(["loss", "--gt", str(tmp_path / "gt.raw"),
                    "--logits", str(tmp_path / "logits.raw"), "--normalized"]) == EXIT_USAGE
    assert "--grad-out" in _one_line_error(capsys, "loss")
    assert capsys.readouterr().out == ""


def _probing_build_parser():
    """The real parser with one more option, ``--probe``, on ``eval`` and ``loss``."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("eval", "loss"):
        sub.choices[name].add_argument("--probe", default="probe")
    return parser


def test_config_does_not_follow_the_parser(tmp_path, monkeypatch, capsys):
    _write_pinned_cases(tmp_path)
    monkeypatch.chdir(tmp_path)
    eval_argv = ["eval", "--manifest", "cases.csv", "--out", "out"]
    loss_argv = ["loss", "--gt", "gt2.raw", "--logits", "logits2.raw"]
    outputs = []
    for build in (build_parser, _probing_build_parser):
        monkeypatch.setattr(cli, "build_parser", build)
        cli._parser.cache_clear()
        try:
            assert run_cli(eval_argv) == EXIT_PARTIAL
            report = (tmp_path / "out" / "report.json").read_bytes()
            shutil.rmtree(tmp_path / "out")
            assert run_cli(loss_argv) == EXIT_OK
            outputs.append((report, capsys.readouterr().out))
        finally:
            cli._parser.cache_clear()
    assert outputs[0] == outputs[1]


def test_loss_command_gradient_export(figure1_files, tmp_path):
    sc = figure2_scenario()
    write_volume(sc.gt, tmp_path / "gt2.raw")
    write_volume(sc.logits, tmp_path / "logits2.raw")
    grad_path = tmp_path / "grad.raw"
    code = run_cli([
        "loss",
        "--gt", str(tmp_path / "gt2.raw"),
        "--logits", str(tmp_path / "logits2.raw"),
        "--loss", "cc-dicece",
        "--grad-out", str(grad_path),
        "--normalized",
    ])
    assert code == EXIT_OK
    vol = read_volume(grad_path)
    assert np.max(np.abs(vol.voxels)) <= 1.0
    assert np.any(vol.voxels != 0.0)


# sha256 of the --grad-out file of `loss` on the figure-2 phantom, per --loss
GRAD_DIGESTS = {
    "dicece": "6f92aab94468415138a6702f4907a5f5c316fe58c1e33179b02a3b36537d5daa",
    "cc-dicece": "32be2d76a2d964a809cdef27488668ef2ebdd43ef281d0504a5f7e156cb1d24e",
    "blob-dicece": "9a9de70049cef98814fb3b2465a36318617cad681d3376c46151c663e8e44da0",
}


@pytest.mark.parametrize("kind", sorted(GRAD_DIGESTS))
def test_loss_gradient_bytes_are_pinned(tmp_path, capsys, kind):
    sc = figure2_scenario()
    write_volume(sc.gt, tmp_path / "gt2.raw")
    write_volume(sc.logits, tmp_path / "logits2.raw")  # read back as float32
    assert run_cli(["loss", "--gt", str(tmp_path / "gt2.raw"),
                    "--logits", str(tmp_path / "logits2.raw"),
                    "--loss", kind, "--grad-out", str(tmp_path / "g.raw")]) == EXIT_OK
    assert hashlib.sha256((tmp_path / "g.raw").read_bytes()).hexdigest() == GRAD_DIGESTS[kind]


def test_loss_command_rejects_mask_logits(figure1_files, tmp_path):
    code = run_cli([
        "loss",
        "--gt", str(figure1_files / "gt.raw"),
        "--logits", str(figure1_files / "gt.raw"),  # u8 mask, not logits
    ])
    assert code == EXIT_IO


@pytest.mark.parametrize("weights", [
    ["--w-global", "-1"],
    ["--w-global", "0", "--w-instance", "0", "--w-dice", "0", "--w-ce", "0"],
    ["--w-global", "nan"],
], ids=["negative", "all-zero", "nan"])
def test_loss_command_bad_weights_is_usage_error(figure1_files, capsys, weights):
    code = run_cli([
        "loss",
        "--gt", str(figure1_files / "gt.raw"),
        "--logits", str(figure1_files / "pred_partial.raw"),
    ] + weights)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("lesionwise loss: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def _one_line_error(capsys, command):
    err = capsys.readouterr().err
    assert err.startswith(f"lesionwise {command}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("bad_side", ["gt", "logits"])
def test_loss_command_non_finite_input_names_the_file(tmp_path, capsys, bad_side):
    rng = np.random.default_rng(1)
    gt = rng.normal(size=(4, 4, 4))
    logits = rng.normal(size=(4, 4, 4))
    (gt if bad_side == "gt" else logits)[1, 2, 3] = np.nan
    write_volume(LogitVolume(np.zeros((4, 4, 4)), Spacing(1, 1, 1)), tmp_path / "gt.raw")
    write_volume(LogitVolume(np.zeros((4, 4, 4)), Spacing(1, 1, 1)), tmp_path / "logits.raw")
    for name, arr in (("gt.raw", gt), ("logits.raw", logits)):
        (tmp_path / name).write_bytes(arr.astype("<f4").tobytes(order="F"))
    code = run_cli(["loss", "--gt", str(tmp_path / "gt.raw"),
                    "--logits", str(tmp_path / "logits.raw")])
    assert code == EXIT_IO
    err = _one_line_error(capsys, "loss")
    assert str(tmp_path / f"{bad_side}.raw") in err
    assert "NaN or Inf" in err


def test_loss_command_spacing_mismatch_is_io_error(tmp_path, capsys):
    write_volume(mk_mask(np.ones((3, 3, 3)), Spacing(1, 1, 1)), tmp_path / "gt.raw")
    write_volume(LogitVolume(np.zeros((3, 3, 3)), Spacing(1, 1, 2)), tmp_path / "logits.raw")
    code = run_cli(["loss", "--gt", str(tmp_path / "gt.raw"),
                    "--logits", str(tmp_path / "logits.raw")])
    assert code == EXIT_IO
    assert "spacings differ" in _one_line_error(capsys, "loss")


def test_eval_spacing_mismatch_is_a_case_error(tmp_path):
    arr = np.zeros((4, 4, 4), dtype=bool)
    arr[1:3, 1:3, 1:3] = True
    write_volume(mk_mask(arr, Spacing(1, 1, 1)), tmp_path / "gt.raw")
    write_volume(mk_mask(arr, Spacing(1, 1, 1.5)), tmp_path / "pred.raw")
    manifest = tmp_path / "cases.csv"
    _write_manifest(manifest, [("gt.raw", "gt.raw"), ("gt.raw", "pred.raw")])
    out = tmp_path / "out"
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(out)]) \
        == EXIT_PARTIAL
    cases = json.loads((out / "report.json").read_text())["cases"]
    assert [c["status"] for c in cases] == ["ok", "error"]
    assert "spacings differ" in cases[1]["error"]


def test_stats_command(tmp_path, capsys):
    sizes = (0, 1, 2)
    for i, n in enumerate(sizes):
        arr = np.zeros((8, 8, 8), dtype=bool)
        for k in range(n):
            arr[4 * k, 0, 0] = True
        write_volume(mk_mask(arr), tmp_path / f"scan{i}.raw")
    out = tmp_path / "statsout"
    code = run_cli(["stats", "--masks", str(tmp_path), "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "CC P50 [P25, P75]" in text
    assert "1 [0.5, 1.5]" in text
    header, row = (out / "stats.csv").read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["cc_p50"] == "1.0"
    assert values["n_scans"] == "3"
    assert values["n_components"] == "3"


def test_a_non_finite_float_mask_is_an_input_error(tmp_path, capsys):
    (tmp_path / "masks").mkdir()
    bad = tmp_path / "masks" / "nan.raw"
    write_volume(LogitVolume(np.zeros((2, 2, 2)), Spacing(1, 1, 1)), bad)
    bad.write_bytes(np.array([0, 0, np.nan, 0, 0, 0, 0, 0], dtype="<f4").tobytes())
    assert run_cli(["stats", "--masks", str(tmp_path / "masks")]) == EXIT_IO
    err = _one_line_error(capsys, "stats")
    assert str(bad) in err and "NaN or Inf" in err

    write_volume(mk_mask(np.ones((2, 2, 2))), tmp_path / "ok.raw")
    manifest = tmp_path / "cases.csv"
    _write_manifest(manifest, [("masks/nan.raw", "ok.raw"), ("ok.raw", "ok.raw")])
    out = tmp_path / "out"
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(out)]) == EXIT_PARTIAL
    cases = json.loads((out / "report.json").read_text())["cases"]
    assert [c["status"] for c in cases] == ["error", "ok"]
    assert cases[0]["error"].startswith("VolumeFormatError: ")
    assert "nan.raw" in cases[0]["error"] and "NaN or Inf" in cases[0]["error"]


def test_stats_on_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli(["stats", "--masks", str(empty)]) == EXIT_USAGE


def test_phantom_command_roundtrip(tmp_path):
    out = tmp_path / "ph"
    assert run_cli(["phantom", "--name", "figure1", "--out", str(out)]) == EXIT_OK
    names = sorted(p.name for p in out.iterdir() if not p.name.endswith(".json"))
    assert names == ["gt.raw", "pred_partial.raw", "pred_perfect.raw"]
    gt = read_volume(out / "gt.raw")
    assert gt.foreground_count == 113

    out2 = tmp_path / "ph2"
    assert run_cli(["phantom", "--name", "figure2", "--out", str(out2),
                    "--volume-format", "nifti"]) == EXIT_OK
    assert sorted(p.name for p in out2.iterdir()) == ["gt.nii", "logits.nii"]
    assert read_volume(out2 / "gt.nii").foreground_count == 52


def test_voronoi_command(tmp_path):
    arr = np.zeros((5, 5, 5), dtype=bool)
    arr[2, 2, 2] = True
    write_volume(mk_mask(arr), tmp_path / "m.raw")
    out = tmp_path / "regions.raw"
    assert run_cli(["voronoi", "--gt", str(tmp_path / "m.raw"),
                    "--out", str(out)]) == EXIT_OK
    vol = read_volume(out)
    assert np.all(vol.voxels == 1.0)


def test_voronoi_command_empty_mask_fails(tmp_path):
    write_volume(mk_mask(np.zeros((4, 4, 4))), tmp_path / "m.raw")
    assert run_cli(["voronoi", "--gt", str(tmp_path / "m.raw"),
                    "--out", str(tmp_path / "r.raw")]) == EXIT_IO


def test_eval_json_only_format(tmp_path):
    mask = mk_mask(np.ones((3, 3, 3), dtype=bool))
    write_volume(mask, tmp_path / "m.raw")
    manifest = tmp_path / "cases.csv"
    _write_manifest(manifest, [("m.raw", "m.raw")])
    out = tmp_path / "out"
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(out),
                    "--format", "json"]) == EXIT_OK
    assert (out / "report.json").exists()
    assert not (out / "cases.csv").exists()


def test_eval_unknown_format_is_usage_error(tmp_path):
    manifest = tmp_path / "cases.csv"
    _write_manifest(manifest, [("a", "b")])
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                    "--format", "xml"]) == EXIT_USAGE


def test_bad_threshold_is_usage_error(tmp_path):
    manifest = tmp_path / "cases.csv"
    _write_manifest(manifest, [("a", "b")])
    code = run_cli(["eval", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                    "--threshold", "1.5"])
    assert code == EXIT_USAGE


def test_eval_empty_gt_option_is_refused(tmp_path, capsys):
    manifest = tmp_path / "cases.csv"
    _write_manifest(manifest, [("a", "b")])
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                    "--empty-gt", "zero"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: lesionwise ")
    assert "unrecognized arguments: --empty-gt zero" in err
    assert not (tmp_path / "o").exists()


def test_unknown_subcommand_is_usage_error():
    assert run_cli(["frobnicate"]) == EXIT_USAGE


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_bad_thread_count_is_usage_error(tmp_path, monkeypatch, capsys, figure1_files, threads):
    manifest = tmp_path / "cases.csv"
    _write_manifest(manifest, [("a", "b")])
    monkeypatch.setenv("LESIONWISE_THREADS", threads)
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) \
        == EXIT_USAGE
    assert "LESIONWISE_THREADS" in _one_line_error(capsys, "eval")
    assert not (tmp_path / "o").exists()
    assert run_cli(["loss", "--gt", str(figure1_files / "gt.raw"),
                    "--logits", str(figure1_files / "pred_partial.raw"),
                    "--grad-out", str(tmp_path / "g.raw")]) == EXIT_USAGE
    assert "LESIONWISE_THREADS" in _one_line_error(capsys, "loss")
    assert not (tmp_path / "g.raw").exists()


def test_parser_is_built_once_per_process(monkeypatch):
    calls = []

    def counting_build_parser():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        assert run_cli(["frobnicate"]) == EXIT_USAGE
        assert run_cli(["frobnicate"]) == EXIT_USAGE
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def _bad_inputs(d: Path) -> None:
    """A good mask and logits plus one file for each way an input can be malformed."""
    sc = figure2_scenario()
    write_volume(sc.gt, d / "gt.raw")
    write_volume(sc.logits, d / "logits.raw")
    (d / "afile").write_text("not a directory")
    header = {"shape": [2, 2, 2], "spacing": [1, 1, 1], "dtype": "u8", "order": "x-fastest"}
    sidecars = {
        "int5": b"5",
        "dtype_list": json.dumps(dict(header, dtype=["u8"])).encode(),
        "not_utf8": b'{"shape": [2, 2, 2], "\xff": 1}',
        "spacing_strings": json.dumps(dict(header, spacing=["1.5", True, " 2 "])).encode(),
        "spacing_inf": json.dumps(dict(header, spacing=[1, 1e400, 1])).encode(),
        "nested": b"[" * 100_000,
    }
    for name, text in sidecars.items():
        (d / f"{name}.raw").write_bytes(bytes(8))
        (d / f"{name}.raw.json").write_bytes(text)
    write_volume(sc.gt, d / "gt.nii.gz")
    blob = (d / "gt.nii.gz").read_bytes()
    (d / "truncated.nii.gz").write_bytes(blob[: len(blob) // 2])
    crc = bytearray(blob)
    crc[-6] ^= 0xFF  # inside the gzip trailer's CRC
    (d / "bad_crc.nii.gz").write_bytes(bytes(crc))
    (d / "not_utf8.csv").write_bytes(b"gt,pred\n\xffgt.raw,gt.raw\n")
    (d / "huge_field.csv").write_text("gt,pred\n" + "g" * 200_000 + ",gt.raw\n")
    (d / "half_row.csv").write_text("gt,pred\ngt.raw,gt.raw\ngt.raw,\n,gt.raw\ngt.raw\n")
    _write_manifest(d / "ok.csv", [("gt.raw", "gt.raw")])
    (d / "masks").mkdir()
    write_volume(sc.gt, d / "masks" / "a.raw")
    (d / "masks" / "b.nii.gz").write_bytes(blob[: len(blob) // 2])
    write_volume(sc.gt, d / "gt.nii")
    bitpix = bytearray((d / "gt.nii").read_bytes())
    bitpix[72:74] = (16).to_bytes(2, "little")  # uint8 data declared 16 bits wide
    (d / "bad_bitpix.nii").write_bytes(bytes(bitpix))
    # Lattices with no usable physical size; each spacing alone is valid.
    two = np.zeros((8, 8, 2), dtype=np.uint8)  # two 1-voxel lesions
    two[1, 1, 0] = two[6, 6, 1] = 1
    far = dict(header, shape=[8, 8, 2], spacing=[1e160, 1e-160, 1.0])  # diagonal overflows
    (d / "far.raw").write_bytes(two.tobytes(order="F"))
    (d / "far.raw.json").write_text(json.dumps(far))
    two[3, 4, 0] = 1  # a false positive, looked up by nearest lesion
    (d / "far_pred.raw").write_bytes(two.tobytes(order="F"))
    (d / "far_pred.raw.json").write_text(json.dumps(far))
    (d / "far_logits.raw").write_bytes(np.where(two, 3.0, -3.0).astype("<f4").tobytes(order="F"))
    (d / "far_logits.raw.json").write_text(json.dumps(dict(far, dtype="f32")))
    (d / "huge.raw").write_bytes(bytes([1]) * 512)  # all foreground, volume overflows
    (d / "huge.raw.json").write_text(json.dumps(dict(header, shape=[8, 8, 8], spacing=[1e102] * 3)))
    (d / "far_masks").mkdir()
    (d / "far_masks" / "s.raw").write_bytes(bytes([1, 0, 0, 1]))  # volume 4e200 mm^3
    (d / "far_masks" / "s.raw.json").write_text(
        json.dumps(dict(header, shape=[4, 1, 1], spacing=[1e67, 1e67, 1e66])))


# argv with {d} for the directory of _bad_inputs, the expected exit code and
# a file name the message must hold (None: nothing to name)
PROBES = [
    pytest.param(["voronoi", "--gt", "{d}/gt.raw", "--out", "{d}/no/v.raw"],
                 EXIT_IO, "v.raw", id="voronoi-out-missing-dir"),
    pytest.param(["voronoi", "--gt", "{d}/int5.raw", "--out", "{d}/v.raw"],
                 EXIT_IO, "int5.raw", id="voronoi-sidecar-int"),
    pytest.param(["voronoi", "--gt", "{d}/dtype_list.raw", "--out", "{d}/v.raw"],
                 EXIT_IO, "dtype_list.raw", id="voronoi-sidecar-dtype-list"),
    pytest.param(["voronoi", "--gt", "{d}/not_utf8.raw", "--out", "{d}/v.raw"],
                 EXIT_IO, "not_utf8.raw", id="voronoi-sidecar-not-utf8"),
    pytest.param(["voronoi", "--gt", "{d}/truncated.nii.gz", "--out", "{d}/v.raw"],
                 EXIT_IO, "truncated.nii.gz", id="voronoi-truncated-gz"),
    pytest.param(["voronoi", "--gt", "{d}/bad_crc.nii.gz", "--out", "{d}/v.raw"],
                 EXIT_IO, "bad_crc.nii.gz", id="voronoi-bad-crc-gz"),
    pytest.param(["voronoi", "--gt", "{d}/nope.nii", "--out", "{d}/v.raw"],
                 EXIT_IO, "nope.nii", id="voronoi-missing-input"),
    pytest.param(["voronoi", "--gt", "{d}/bad_bitpix.nii", "--out", "{d}/v.raw"],
                 EXIT_IO, "bad_bitpix.nii", id="voronoi-nifti-bitpix"),
    pytest.param(["loss", "--gt", "{d}/gt.raw", "--logits", "{d}/logits.raw",
                  "--grad-out", "{d}/no/g.raw"],
                 EXIT_IO, "g.raw", id="loss-grad-out-missing-dir"),
    pytest.param(["loss", "--gt", "{d}/truncated.nii.gz", "--logits", "{d}/logits.raw"],
                 EXIT_IO, "truncated.nii.gz", id="loss-truncated-gz"),
    pytest.param(["phantom", "--name", "figure1", "--out", "{d}/afile/x"],
                 EXIT_IO, "afile", id="phantom-out-under-file"),
    pytest.param(["eval", "--manifest", "{d}/ok.csv", "--out", "{d}/afile"],
                 EXIT_IO, "afile", id="eval-out-is-file"),
    pytest.param(["voronoi", "--gt", "{d}/spacing_strings.raw", "--out", "{d}/v.raw"],
                 EXIT_IO, "spacing_strings.raw.json", id="voronoi-sidecar-spacing-strings"),
    pytest.param(["voronoi", "--gt", "{d}/spacing_inf.raw", "--out", "{d}/v.raw"],
                 EXIT_IO, "spacing_inf.raw.json", id="voronoi-sidecar-spacing-inf"),
    pytest.param(["voronoi", "--gt", "{d}/nested.raw", "--out", "{d}/v.raw"],
                 EXIT_IO, "nested.raw.json", id="voronoi-sidecar-nested"),
    pytest.param(["eval", "--manifest", "{d}/not_utf8.csv", "--out", "{d}/o"],
                 EXIT_IO, "not_utf8.csv", id="eval-manifest-not-utf8"),
    pytest.param(["eval", "--manifest", "{d}/huge_field.csv", "--out", "{d}/o"],
                 EXIT_IO, "huge_field.csv", id="eval-manifest-huge-field"),
    pytest.param(["eval", "--manifest", "{d}/half_row.csv", "--out", "{d}/o"],
                 EXIT_IO, "half_row.csv", id="eval-manifest-half-row"),
    pytest.param(["eval", "--manifest", "{d}/ok.csv", "--out", "{d}/o", "--threshold", "0"],
                 EXIT_USAGE, None, id="eval-bad-threshold"),
    pytest.param(["stats", "--masks", "{d}/afile"],
                 EXIT_IO, "afile", id="stats-on-a-file"),
    pytest.param(["stats", "--masks", "{d}/masks"],
                 EXIT_IO, "b.nii.gz", id="stats-truncated-gz"),
    pytest.param(["voronoi", "--gt", "{d}/far.raw", "--out", "{d}/v.raw",
                  "--distance", "physical"],
                 EXIT_IO, "far.raw", id="voronoi-physical-diagonal-overflows"),
    pytest.param(["loss", "--gt", "{d}/far.raw", "--logits", "{d}/far_logits.raw",
                  "--distance", "physical"],
                 EXIT_IO, "far.raw", id="loss-physical-diagonal-overflows"),
    pytest.param(["stats", "--masks", "{d}/far_masks"],
                 EXIT_IO, "s.raw", id="stats-volume-beyond-bound"),
    pytest.param(["loss", "--gt", "{d}/gt.raw", "--logits", "{d}/logits.raw",
                  "--w-dice", "1e308", "--w-ce", "1e308"],
                 EXIT_USAGE, None, id="loss-weights-overflow"),
    pytest.param(["loss", "--gt", "{d}/gt.raw", "--logits", "{d}/logits.raw",
                  "--w-global", "1e300", "--grad-out", "{d}/g.raw"],
                 EXIT_USAGE, "g.raw", id="loss-grad-out-beyond-float32"),
]


@pytest.mark.parametrize("argv, expected, named", PROBES)
def test_bad_input_or_output_is_one_line_error(tmp_path, capsys, argv, expected, named):
    _bad_inputs(tmp_path)
    code = run_cli([a.format(d=tmp_path) for a in argv])
    assert code == expected
    err = _one_line_error(capsys, argv[0])
    if named is not None:
        assert named in err


def test_eval_truncated_case_is_recorded(tmp_path):
    _bad_inputs(tmp_path)
    manifest = tmp_path / "cases.csv"
    _write_manifest(manifest, [("gt.raw", "gt.raw"), ("gt.raw", "truncated.nii.gz")])
    out = tmp_path / "out"
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(out)]) == EXIT_PARTIAL
    cases = json.loads((out / "report.json").read_text())["cases"]
    assert [c["status"] for c in cases] == ["ok", "error"]
    assert cases[1]["error"].startswith("VolumeFormatError: ")
    assert "truncated.nii.gz" in cases[1]["error"]


def test_eval_nested_sidecar_is_recorded(tmp_path):
    _bad_inputs(tmp_path)
    manifest = tmp_path / "cases.csv"
    _write_manifest(manifest, [("gt.raw", "nested.raw"), ("gt.raw", "gt.raw")])
    out = tmp_path / "out"
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(out)]) == EXIT_PARTIAL
    report = json.loads((out / "report.json").read_text())
    assert [c["status"] for c in report["cases"]] == ["error", "ok"]
    assert report["cases"][0]["error"].startswith("VolumeFormatError: malformed sidecar ")
    assert report["summary"] == {"n_cases": 2, "n_ok": 1, "n_failed": 1}


def test_module_entry_point_exits_2_with_one_line(tmp_path):
    # Only a real process tells an uncaught exception (status 1) from EXIT_USAGE.
    _bad_inputs(tmp_path)
    src = str(Path(lesionwise.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "lesionwise", "voronoi",
         "--gt", str(tmp_path / "truncated.nii.gz"), "--out", str(tmp_path / "v.raw")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_IO
    assert proc.stderr.startswith("lesionwise voronoi: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_eval_and_a_loss_share_one_pool_of_the_set_size(tmp_path):
    # eval's cases and the loss slabs run on one process-wide pool, so the
    # process never holds more threads than LESIONWISE_THREADS workers.
    # The lattice is more than one loss slab, so the loss uses the pool.
    gt = np.zeros((48, 48, 40), dtype=bool)
    gt[5:10, 5:10, 5:10] = gt[30:36, 30:36, 20:26] = True
    logits = np.where(gt, 3.0, -3.0).astype(np.float32)
    logits[40:44, 8:12, 30:34] = 2.0  # a false positive
    write_volume(mk_mask(gt), tmp_path / "gt.raw")
    write_volume(LogitVolume(logits, Spacing(1.0, 1.0, 1.0)), tmp_path / "logits.raw")
    _write_manifest(tmp_path / "cases.csv", [("gt.raw", "logits.raw"), ("gt.raw", "gt.raw")])
    script = ("import sys, threading\n"
              "from lesionwise import cli, combined_loss, read_mask, read_volume\n"
              "code = cli.main(sys.argv[3:])\n"
              "combined_loss('cc-dicece', read_volume(sys.argv[2]), read_mask(sys.argv[1]))\n"
              "others = [t.name for t in threading.enumerate()\n"
              "          if t is not threading.main_thread()]\n"
              "print(code, len(others), all(n.startswith('lesionwise') for n in others))\n")
    src = str(Path(lesionwise.__file__).parents[1])
    counts = {}
    for threads in ("1", "2"):
        env = dict(os.environ, LESIONWISE_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "gt.raw"), str(tmp_path / "logits.raw"),
             "eval", "--manifest", str(tmp_path / "cases.csv"), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        code, n, named = proc.stdout.split()
        assert (code, named) == ("0", "True"), proc.stderr
        counts[threads] = int(n)
    assert counts["1"] == 0
    assert 1 <= counts["2"] <= 2


def test_failed_eval_cases_keep_no_volumes(tmp_path, monkeypatch):
    # Each case reads its GT, then fails on a missing prediction; what a
    # failed case keeps for the report must not hold the GT it read.
    write_volume(mk_mask(np.ones((64, 64, 64), dtype=bool)), tmp_path / "gt.raw")
    monkeypatch.setenv("LESIONWISE_THREADS", "1")
    peaks = []
    for n in (1, 8):
        _write_manifest(tmp_path / "cases.csv", [("gt.raw", f"missing{i}.raw") for i in range(n)])
        tracemalloc.start()
        try:
            assert run_cli(["eval", "--manifest", str(tmp_path / "cases.csv"),
                            "--out", str(tmp_path / "out")]) == EXIT_PARTIAL
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 64**3, peaks


def test_eval_spacing_whose_voxel_volume_overflows_is_a_case_error(tmp_path, capsys):
    write_volume(mk_mask(np.ones((2, 2, 2))), tmp_path / "ok.raw")
    (tmp_path / "far.raw").write_bytes(bytes([1]) * 8)
    (tmp_path / "far.raw.json").write_text(json.dumps({
        "shape": [2, 2, 2], "spacing": [1e200, 1e200, 1.0], "dtype": "u8", "order": "x-fastest"
    }))
    manifest = tmp_path / "cases.csv"
    _write_manifest(manifest, [("far.raw", "far.raw"), ("ok.raw", "ok.raw")])
    out = tmp_path / "out"
    assert run_cli(["eval", "--manifest", str(manifest), "--out", str(out)]) == EXIT_PARTIAL
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert [c["status"] for c in report["cases"]] == ["error", "ok"]
    assert report["cases"][0]["error"].startswith("VolumeFormatError: ")
    assert "far.raw: voxel volume inf" in report["cases"][0]["error"]
    assert report["quartile_recall"]["boundaries_mm3"] == [8.0, 8.0, 8.0]


@pytest.mark.parametrize("gt, pred, distance", [
    ("far.raw", "far_pred.raw", "physical"),
    ("huge.raw", "huge.raw", "voxel"),
], ids=["physical-diagonal-overflows", "volume-overflows"])
def test_eval_lattice_without_usable_physical_size_is_a_case_error(
        tmp_path, capsys, gt, pred, distance):
    _bad_inputs(tmp_path)
    _write_manifest(tmp_path / "cases.csv", [(gt, pred), ("gt.raw", "gt.raw")])

    def run_eval(manifest, out):
        return run_cli(["eval", "--manifest", str(tmp_path / manifest),
                        "--out", str(tmp_path / out), "--distance", distance])

    assert run_eval("cases.csv", "out") == EXIT_PARTIAL
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [c["status"] for c in report["cases"]] == ["error", "ok"]
    assert report["cases"][0]["error"].startswith(f"VolumeFormatError: {tmp_path / gt}: ")
    assert "no usable physical size" in report["cases"][0]["error"]
    # the refused case leaves no trace in the pooled quartiles
    assert run_eval("ok.csv", "ok") == EXIT_OK
    alone = json.loads((tmp_path / "ok" / "report.json").read_text())
    assert report["quartile_recall"] == alone["quartile_recall"]
