"""Command-line driver: evaluate, compute losses, export maps and stats.

Exit codes: 0 success; 1 usage error (a bad option value or
``LESIONWISE_THREADS``, an empty manifest or mask directory); 2 an input
that cannot be read or parsed, volumes whose grids differ, or an output path
that cannot be written; 3 some ``eval`` cases failed, each recorded in the
report. Subcommands raise; ``main`` is the one error boundary and prints one
line ``lesionwise <command>: <message>``.
Reports are fully deterministic: identical inputs and configuration produce
byte-identical files regardless of the worker-pool size
(``LESIONWISE_THREADS``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io as _io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .components import label_components
from .dataset_stats import corpus_stats
from .io import (VolumeFormatError, _is_nifti_path, _sidecar_path, read_mask, read_volume,
                 write_volume)
from .losses import LossKind, LossWeights, combined_loss, normalize_gradient
from .metrics import METRIC_FIELDS, aggregate, case_metrics, quartile_recall
from .phantoms import figure1_scenario, figure2_scenario
from .volumes import BinaryMask, LogitVolume, ShapeMismatchError, binarize
from .volumes import sigmoid  # noqa: F401  # lwbench/tracer.py wraps this attribute
from .voronoi import VALID_METRICS, EmptyGroundTruthError, voronoi_partition

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PARTIAL = 3

TIE_POLICY = "lowest-component-id"

# ``phantom --name`` choices; each writes its scenario's volume fields by name.
SCENARIOS = {"figure1": figure1_scenario, "figure2": figure2_scenario}

# A case's report fields: ``METRIC_FIELDS`` (floats, null when undefined) and
# these counts, in this order in ``report.json`` and ``cases.csv``.
COUNT_FIELDS = ("n_gt", "n_pred", "tp", "fp", "fn")

# Exit 2 in ``main`` and a recorded case error in ``eval``; any other
# ValueError is a usage error, and any other exception a bug with a traceback.
INPUT_ERRORS = (OSError, UnicodeError, csv.Error,
                VolumeFormatError, ShapeMismatchError, EmptyGroundTruthError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _worker_count() -> int:
    raw = os.environ.get("LESIONWISE_THREADS", "4")
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise ValueError(f"LESIONWISE_THREADS must be an integer >= 1, got {raw!r}")
    return int(raw)


def _num(x):
    """JSON-safe number: None / NaN become null."""
    if x is None:
        return None
    x = float(x)
    return None if np.isnan(x) else x


def _read_manifest(path: Path) -> list[tuple[str, str]]:
    try:  # not UTF-8, or a field over csv's size limit; a leading BOM is dropped
        records = list(csv.reader(_io.StringIO(path.read_text(encoding="utf-8-sig"))))
    except (UnicodeError, csv.Error) as exc:
        raise VolumeFormatError(f"manifest {path}: {exc}") from exc
    header = records[0] if records else None
    if [f.strip() for f in header or []][:2] != ["gt", "pred"]:
        raise VolumeFormatError(
            f"manifest {path} must start with header 'gt,pred', got {header}"
        )
    rows = []
    for row, rec in enumerate(records[1:], start=2):  # gt and pred lead, as the header says
        gt, pred = (f.strip() for f in (rec + ["", ""])[:2])
        if gt and pred:
            rows.append((gt, pred))
        elif any(f.strip() for f in rec):
            raise VolumeFormatError(f"manifest {path} row {row} needs both a gt and a pred path")
    return rows


def cmd_eval(args) -> int:
    workers = _worker_count()
    if not 0.0 < args.threshold < 1.0:
        raise ValueError(f"--threshold must be in (0, 1), got {args.threshold}")
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    unknown = [f for f in formats if f not in ("json", "csv")]
    if unknown or not formats:
        raise ValueError(f"unsupported report format {unknown}")

    manifest = Path(args.manifest)
    rows = _read_manifest(manifest)
    if not rows:
        raise ValueError("manifest lists no cases")

    base = manifest.parent
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def run_case(row):
        gt_rel, pred_rel = row
        gt = read_mask(base / gt_rel)
        pred = read_volume(base / pred_rel)
        if isinstance(pred, LogitVolume):
            pred = binarize(pred, args.threshold)
        return case_metrics(pred, gt, metric=args.distance)

    case_records, ok_metrics = [], []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_case, row) for row in rows]
        for idx, ((gt_rel, pred_rel), fut) in enumerate(zip(rows, futures)):
            rec = {"index": idx, "gt": gt_rel, "pred": pred_rel}
            try:
                cm = fut.result()
            except INPUT_ERRORS as exc:
                rec.update(status="error", error=f"{type(exc).__name__}: {exc}")
            else:
                rec["status"] = "ok"
                rec["metrics"] = {f: _num(getattr(cm, f)) for f in METRIC_FIELDS}
                rec["metrics"].update((f, getattr(cm, f)) for f in COUNT_FIELDS)
                ok_metrics.append(cm)
            case_records.append(rec)

    agg_rec = None
    if ok_metrics:
        agg_rec = {name: {**vars(st), "mean": _num(st.mean), "std": _num(st.std)}
                   for name, st in aggregate(ok_metrics).items()}
    qr_rec = None
    if ok_metrics and any(c.n_gt > 0 for c in ok_metrics):
        qr = quartile_recall(ok_metrics)
        qr_rec = {
            "boundaries_mm3": [_num(b) for b in qr.boundaries],
            "recall": [_num(r) for r in qr.recall_q],
            "detected": list(qr.detected),
            "total": list(qr.total),
        }

    n_failed = len(rows) - len(ok_metrics)
    report = {
        "schema_version": 1,
        "tool": {"name": "lesionwise", "version": __version__},
        "config": _config_echo(args),
        "cases": case_records,
        "aggregate": agg_rec,
        "quartile_recall": qr_rec,
        "summary": {"n_cases": len(rows), "n_ok": len(ok_metrics), "n_failed": n_failed},
    }

    if "json" in formats:
        (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    if "csv" in formats:
        _write_cases_csv(out_dir / "cases.csv", case_records)

    return EXIT_PARTIAL if n_failed else EXIT_OK


def _write_cases_csv(path: Path, case_records) -> None:
    fields = METRIC_FIELDS + COUNT_FIELDS
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "gt", "pred", "status", *fields, "error"])
        for rec in case_records:
            m = rec.get("metrics", {})
            writer.writerow(
                [rec["index"], rec["gt"], rec["pred"], rec["status"]]
                + ["" if m.get(k) is None else repr(m[k]) for k in fields]
                + [rec.get("error", "")]
            )


def _config_echo(args) -> dict:
    """Every option the command parsed, in the parser's order, then the tie policy."""
    cfg = {key: val for key, val in vars(args).items() if key != "func"}
    cfg["tie_policy"] = TIE_POLICY
    return cfg


def cmd_loss(args) -> int:
    weights = LossWeights(args.w_global, args.w_instance, args.w_dice, args.w_ce)
    gt = read_mask(args.gt)
    logits = read_volume(args.logits)
    if not isinstance(logits, LogitVolume):
        raise VolumeFormatError(f"{args.logits}: the logits volume must be float-valued (f32)")

    lv = combined_loss(args.loss, logits, gt, weights, metric=args.distance)
    value = lv.scalar
    if args.grad_out:
        out = normalize_gradient(lv.grad) if args.normalized else lv.grad
        write_volume(LogitVolume(out, gt.spacing), args.grad_out)

    payload = {
        "tool": {"name": "lesionwise", "version": __version__},
        "config": _config_echo(args),
        "loss": _num(value),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_stats(args) -> int:
    directory = Path(args.masks)
    paths = [p for p in sorted(directory.iterdir()) if _is_nifti_path(p)
             or (not p.name.lower().endswith(".json") and _sidecar_path(p).exists())]
    if not paths:
        raise ValueError(f"no volumes found in {directory}")
    stats = corpus_stats(read_mask(p) for p in paths)

    cc_col = f"{stats.cc_p50:g} [{stats.cc_p25:g}, {stats.cc_p75:g}]"
    vol_col = f"{stats.vol_mean_mm3:.1f} ± {stats.vol_std_mm3:.1f}"
    header = ("CC P50 [P25, P75]", "Mean volume ± std [mm³]")
    w0 = max(len(header[0]), len(cc_col))
    w1 = max(len(header[1]), len(vol_col))
    print(f"{header[0]:<{w0}}  {header[1]:<{w1}}")
    print(f"{cc_col:<{w0}}  {vol_col:<{w1}}")
    print(f"(scans: {stats.n_scans}, components: {stats.n_components})")

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / "stats.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f.name for f in dataclasses.fields(stats)])
            writer.writerow([repr(v) for v in dataclasses.astuple(stats)])
    return EXIT_OK


def cmd_phantom(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = ".nii" if args.volume_format == "nifti" else ".raw"
    for field, vol in SCENARIOS[args.name]()._asdict().items():
        if isinstance(vol, (BinaryMask, LogitVolume)):  # not figure 2's bare fp_blob grid
            write_volume(vol, out_dir / f"{field}{ext}")
    return EXIT_OK


def cmd_voronoi(args) -> int:
    gt = read_mask(args.gt)
    part = voronoi_partition(label_components(gt), args.distance)
    # Region IDs exported as f32; exact for any realistic component count.
    write_volume(LogitVolume(part.region_of, gt.spacing), args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="lesionwise", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lesionwise {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate prediction/ground-truth pairs from a manifest")
    p.add_argument("--manifest", required=True, help="CSV with header gt,pred; paths relative to the manifest")
    p.add_argument("--out", required=True, help="output directory for reports")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--distance", choices=VALID_METRICS, default="voxel")
    p.add_argument("--empty-gt", dest="empty_gt", choices=["global-only", "zero"],
                   default="global-only", help="echoed in the report; has no effect")
    p.add_argument("--format", default="json,csv", help="comma list of report formats")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("loss", help="compute a loss (and optionally its gradient map)")
    p.add_argument("--gt", required=True)
    p.add_argument("--logits", required=True)
    p.add_argument("--loss", choices=[k.value for k in LossKind], default="cc-dicece")
    p.add_argument("--w-global", dest="w_global", type=float, default=1.0)
    p.add_argument("--w-instance", dest="w_instance", type=float, default=1.0)
    p.add_argument("--w-dice", dest="w_dice", type=float, default=1.0)
    p.add_argument("--w-ce", dest="w_ce", type=float, default=1.0)
    p.add_argument("--distance", choices=VALID_METRICS, default="voxel")
    p.add_argument("--grad-out", dest="grad_out", default=None,
                   help="write the per-voxel gradient volume here")
    p.add_argument("--normalized", action="store_true",
                   help="export the per-panel normalized gradient instead of the raw one")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("stats", help="corpus component statistics for a directory of masks")
    p.add_argument("--masks", required=True)
    p.add_argument("--out", default=None, help="also write stats.csv to this directory")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("phantom", help="write a built-in phantom scenario to disk")
    p.add_argument("--name", choices=list(SCENARIOS), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--volume-format", dest="volume_format", choices=["raw", "nifti"],
                   default="raw")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("voronoi", help="export the Voronoi region-id volume of a mask")
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--distance", choices=VALID_METRICS, default="voxel")
    p.set_defaults(func=cmd_voronoi)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built on the first ``main`` call so importing stays cheap."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        code, message = EXIT_IO, str(exc)
    except ValueError as exc:
        code, message = EXIT_USAGE, str(exc)
    print(f"lesionwise {args.command}: {' '.join(message.splitlines())}", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
