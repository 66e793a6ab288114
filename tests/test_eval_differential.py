"""``lesionwise eval`` end to end against reports built from oracles alone.

Each example writes one to three drawn cases to disk, runs ``cli.main`` with
one and with two workers, and compares every report field with the value
built from the oracles: flood-fill labeling, the brute-force Voronoi
partition, the recursive Hopcroft–Karp, set Dice and a hand-built quartile
recall.
"""

import gzip
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

import lesionwise
from lesionwise import (
    ComponentLabeling,
    LogitVolume,
    Spacing,
    voronoi_partition_bruteforce,
    write_volume,
)
from lesionwise.cli import EXIT_OK, main
from oracles import _hopcroft_karp, flood_fill_label, mk_mask

# Dyadic edges make physical distances tie exactly; the others are float32
# values, so a NIfTI prediction's pixdim equals the raw GT's spacing.
_EDGES = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.25, 4.0).map(
    lambda s: float(np.float32(s)))
_FORMATS = ["u8.raw", "u8.nii", "f32.nii.gz"]


@st.composite
def _case(draw):
    """(gt, pred, spacing, prediction format, logits or None, gzip cut or None)."""
    shape = tuple(draw(st.integers(1, 8)) for _ in range(3))
    spacing = tuple(draw(_EDGES) for _ in range(3))
    masks = npst.arrays(bool, shape, elements=st.booleans())
    gt, noise = draw(masks), draw(masks)
    mode = draw(st.sampled_from(["independent", "flipped", "shifted"]))
    if mode == "independent":
        pred = noise
    elif mode == "flipped":  # overlaps and splits of the GT components
        pred = gt ^ noise
    else:  # GT moved one voxel: touching, partly overlapping components
        pred = np.roll(gt, 1, axis=draw(st.integers(0, 2))) | noise
    fmt = draw(st.sampled_from(_FORMATS))
    logits = cut = None
    if fmt == "f32.nii.gz":
        # sigmoid(l) >= 0.5 exactly on pred, some voxels at or next to 0
        pos = draw(npst.arrays(np.float32, shape, elements=st.sampled_from([0.0, 1e-6, 3.0, 40.0])))
        neg = draw(npst.arrays(np.float32, shape, elements=st.sampled_from([-1e-6, -3.0, -40.0])))
        logits = np.where(pred, pos, neg)
        cut = draw(st.floats(0.0, 1.0))  # where the file splits into two gzip members
    return gt, pred, spacing, fmt, logits, cut


def _write_case(d: Path, i: int, case) -> tuple[str, str]:
    gt, pred, spacing, fmt, logits, cut = case
    sp = Spacing(*spacing)
    gt_name, pred_name = f"gt{i}.raw", f"pred{i}.{fmt}"
    write_volume(mk_mask(gt, sp), d / gt_name)
    if fmt == "f32.nii.gz":
        write_volume(LogitVolume(logits, sp), d / f"pred{i}.nii")
        payload = (d / f"pred{i}.nii").read_bytes()
        k = min(max(1, int(cut * len(payload))), len(payload) - 1)
        (d / pred_name).write_bytes(gzip.compress(payload[:k], mtime=0)
                                    + gzip.compress(payload[k:], mtime=0))
    else:
        write_volume(mk_mask(pred, sp), d / pred_name)
    return gt_name, pred_name


def _oracle_case(gt, pred, spacing, metric):
    """A case's report metrics, its GT volumes in mm^3 and their detection."""
    n_gt, gl = flood_fill_label(gt)
    n_pred, pl = flood_fill_label(pred)
    voxel_volume = spacing[0] * spacing[1] * spacing[2]
    sizes = [int(np.count_nonzero(gl == k)) for k in range(1, n_gt + 1)]

    denom = int(gt.sum()) + int(pred.sum())
    dice = 2.0 * int(np.count_nonzero(gt & pred)) / denom if denom else 1.0
    cc_dice = None
    if n_gt:
        lab = ComponentLabeling(labels=gl, count=n_gt, volumes_vox=np.array(sizes),
                                volumes_mm3=np.array(sizes) * voxel_volume,
                                spacing=Spacing(*spacing))
        region = voronoi_partition_bruteforce(lab, metric).region_of
        cc_dice = float(np.mean([
            2.0 * int(np.count_nonzero(pred & (gl == k)))
            / (int(np.count_nonzero(pred & (region == k))) + sizes[k - 1])
            for k in range(1, n_gt + 1)
        ]))

    adj = [sorted({int(p) - 1 for p in pl[(gl == g) & (pl > 0)]}) for g in range(1, n_gt + 1)]
    detected = [v != -1 for v in _hopcroft_karp(adj, n_pred)]
    tp = sum(detected)
    fp, fn = n_pred - tp, n_gt - tp
    metrics = {
        "dice": dice,
        "cc_dice": cc_dice,
        "precision": tp / n_pred if n_pred else None,
        "recall": tp / n_gt if n_gt else None,
        "f1": 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else None,
        "n_gt": n_gt, "n_pred": n_pred, "tp": tp, "fp": fp, "fn": fn,
    }
    return metrics, [s * voxel_volume for s in sizes], detected


def _oracle_quartiles(volumes, detected):
    """Linear-interpolation quartiles of the pooled volumes; buckets closed above."""
    if not volumes:
        return None
    ordered = sorted(volumes)

    def cut(q):
        pos = q * (len(ordered) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])

    bounds = [cut(0.25), cut(0.5), cut(0.75)]
    total, hits = [0] * 4, [0] * 4
    for v, d in zip(volumes, detected):
        q = sum(v > b for b in bounds)
        total[q] += 1
        hits[q] += d
    return {
        # interpolated cuts agree to rounding; no volume lies strictly
        # between the two pooled volumes a cut falls between, so the buckets
        # do not depend on that rounding
        "boundaries_mm3": pytest.approx(bounds, rel=1e-12),
        "recall": [h / t if t else None for h, t in zip(hits, total)],
        "detected": hits,
        "total": total,
    }


def _oracle_aggregate(case_metrics):
    out = {}
    for field in ("dice", "cc_dice", "precision", "recall", "f1"):
        vals = [m[field] for m in case_metrics if m[field] is not None]
        out[field] = {
            "mean": float(np.mean(vals)) if vals else None,
            "std": float(np.std(vals)) if vals else None,
            "n": len(vals),
            "n_undefined": len(case_metrics) - len(vals),
        }
    return out


@settings(max_examples=100, deadline=None)
@given(cases=st.lists(_case(), min_size=1, max_size=3),
       metric=st.sampled_from(["voxel", "physical"]))
def test_eval_report_equals_the_oracles(cases, metric):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        rows = [_write_case(d, i, case) for i, case in enumerate(cases)]
        manifest = d / "cases.csv"
        manifest.write_text("gt,pred\n" + "".join(f"{g},{p}\n" for g, p in rows))
        out, outputs = d / "out", []
        for threads in ("1", "2"):
            with mock.patch.dict(os.environ, {"LESIONWISE_THREADS": threads}):
                assert main(["eval", "--manifest", str(manifest), "--out", str(out),
                             "--distance", metric]) == EXIT_OK
            outputs.append([(out / name).read_bytes() for name in ("report.json", "cases.csv")])
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0][0])

    oracles = [_oracle_case(gt, pred, spacing, metric) for gt, pred, spacing, *_ in cases]
    case_metrics = [m for m, _, _ in oracles]
    assert report == {
        "schema_version": 1,
        "tool": {"name": "lesionwise", "version": lesionwise.__version__},
        "config": {"command": "eval", "manifest": str(manifest), "out": str(out),
                   "threshold": 0.5, "distance": metric, "empty_gt": "global-only",
                   "format": "json,csv", "tie_policy": "lowest-component-id"},
        "cases": [{"index": i, "gt": g, "pred": p, "status": "ok", "metrics": m}
                  for i, ((g, p), m) in enumerate(zip(rows, case_metrics))],
        "aggregate": _oracle_aggregate(case_metrics),
        "quartile_recall": _oracle_quartiles([v for _, vols, _ in oracles for v in vols],
                                             [x for _, _, det in oracles for x in det]),
        "summary": {"n_cases": len(cases), "n_ok": len(cases), "n_failed": 0},
    }
