"""Seeded input generators for the three benchmark workloads.

Inputs are built here and written with this module's own raw and NIfTI-1
writers, not with ``lesionwise.phantoms`` or ``lesionwise.io``, so that a
change to the package cannot shift a workload. Every random draw comes from
one ``numpy.random.Generator`` seeded by ``--seed``: the same seed gives the
same files, byte for byte.

Case-level properties that set the cost of a case (lattice size, lesion
count, noise level) take the midpoints of ``n`` equal-probability strata of
their distributions, paired across properties in a fixed pattern: property
``j`` of case ``i`` takes stratum ``(i * M[j]) mod n``. The seed draws
everything inside a case (lesion shapes, positions, perturbations, noise)
but not the mix of cheap and expensive cases or their order, so the pooled
pass overlaps the same kinds of cases for every seed. That keeps the
seed-to-seed spread of the timing quantiles small while every voxel still
depends on the seed.
"""

from __future__ import annotations

import gzip
import json
import os
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

STRUCT6 = ndimage.generate_binary_structure(3, 1)
STRUCT26 = np.ones((3, 3, 3), dtype=bool)

# eval-lesions: isotropic 1 mm lattices, 2..30 GT lesions per case.
LESION_CASES = 34
LESION_EDGE = (64, 88)
LESION_COUNT = (2, 30)
LESION_MAX_EXTENT = 10
LESION_MARGIN = 2  # reserved gap around a lesion's box: dilated neighbours never touch

# eval-speckle: thick-slice lattices, 0..2 GT lesions, f32 logit noise.
SPECKLE_CASES = 34
SPECKLE_INPLANE = (96, 128)
SPECKLE_SLICES = (48, 80)
SPECKLE_SPACING = (0.9, 0.9, 3.0)
SPECKLE_MU = (1.7, 2.7)  # noise mean below 0; P(logit > 0) runs ~4.5% .. ~0.35%
LOGIT_GAP = 0.05  # no logit lies closer to 0 than this, so thresholding is unambiguous

# train-loss: 96^3 subjects, 1..20 GT lesions, a bank of smooth logits each.
TRAIN_SUBJECTS = 4
TRAIN_BANK = 3
TRAIN_EDGE = 96
TRAIN_COUNT = (1, 20)


STRATA_MULTIPLIERS = (1, 13, 7, 25)  # coprime with the case counts below


def stratified(n: int, k: int) -> list[np.ndarray]:
    """k columns of stratum midpoints in (0, 1), paired by STRATA_MULTIPLIERS.

    Column j of case i is the midpoint of stratum (i * M[j]) mod n.
    """
    i = np.arange(n)
    return [((i * m) % n + 0.5) / n for m in STRATA_MULTIPLIERS[:k]]


def heavy_tailed_count(u: float, lo: int, hi: int) -> int:
    """Inverse CDF of P(k) proportional to k**-2 on lo..hi."""
    k = np.arange(lo, hi + 1)
    cdf = np.cumsum(k ** -2.0)
    cdf /= cdf[-1]
    return int(k[np.searchsorted(cdf, u, side="left")])


def ellipsoid(extent) -> np.ndarray:
    """Digital ellipsoid filling a box of the given extents (26-connected)."""
    axes = [(np.arange(e) + 0.5 - e / 2) / (e / 2) for e in extent]
    r2 = axes[0][:, None, None] ** 2 + axes[1][None, :, None] ** 2 + axes[2][None, None, :] ** 2
    return r2 <= 1.0


class _Placer:
    """Rejection sampler of non-overlapping boxes kept a margin apart."""

    def __init__(self, shape):
        self.shape = np.array(shape)
        self.reserved: list[tuple[np.ndarray, np.ndarray]] = []

    def place(self, rng, extent, margin, tries=200):
        ext = np.array(extent)
        hi = self.shape - ext - 1  # one free voxel at the border, room for a dilation
        if (hi < 1).any():
            return None
        for _ in range(tries):
            lo = np.array([rng.integers(1, h + 1) for h in hi])
            r_lo, r_hi = lo - margin, lo + ext + margin
            if all((r_hi <= q_lo).any() or (q_hi <= r_lo).any() for q_lo, q_hi in self.reserved):
                self.reserved.append((r_lo, r_hi))
                return lo
        return None


def _box(lo, extent, pad=0):
    return tuple(slice(int(a) - pad, int(a) + int(e) + pad) for a, e in zip(lo, extent))


# ---------------------------------------------------------------------------
# file writers (the formats documented in lesionwise.io)
# ---------------------------------------------------------------------------

def write_raw_u8(path: Path, mask: np.ndarray, spacing) -> None:
    header = {
        "shape": list(mask.shape),
        "spacing": [float(s) for s in spacing],
        "dtype": "u8",
        "order": "x-fastest",
    }
    path.with_name(path.name + ".json").write_text(json.dumps(header) + "\n")
    path.write_bytes(mask.astype(np.uint8).tobytes(order="F"))


def write_nifti_gz(path: Path, arr: np.ndarray, spacing) -> None:
    """Single-file little-endian NIfTI-1, gzip level 1 (nibabel's default)."""
    if arr.dtype == np.float32:
        datatype, bitpix = 16, 32
    elif arr.dtype == np.uint8:
        datatype, bitpix = 2, 8
    else:
        raise TypeError(f"unsupported dtype {arr.dtype}")
    header = bytearray(352)
    struct.pack_into("<i", header, 0, 348)
    struct.pack_into("<8h", header, 40, 3, *arr.shape, 1, 1, 1, 1)
    struct.pack_into("<2h", header, 70, datatype, bitpix)
    struct.pack_into("<8f", header, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, 352.0)
    struct.pack_into("<2f", header, 112, 1.0, 0.0)
    struct.pack_into("<b", header, 123, 2)
    struct.pack_into("<4s", header, 344, b"n+1\x00")
    payload = bytes(header) + arr.astype(arr.dtype.newbyteorder("<")).tobytes(order="F")
    path.write_bytes(gzip.compress(payload, compresslevel=1, mtime=0))


# ---------------------------------------------------------------------------
# eval corpora
# ---------------------------------------------------------------------------

@dataclass
class EvalCase:
    """One gt/pred pair on disk and the values the report must show for it."""

    gt: str  # file names, relative to the manifest
    pred: str
    shape: tuple[int, int, int]
    n_gt: int
    tp: int
    fn: int
    n_pred: int  # independent 26-connected scipy.ndimage.label count
    dice: float  # direct numpy hard Dice


@dataclass
class EvalCorpus:
    workload: str
    distance: str
    cases: list[EvalCase] = field(default_factory=list)

    def facts(self) -> dict:
        vox = [int(np.prod(c.shape)) for c in self.cases]
        n_gt = [c.n_gt for c in self.cases]
        n_pred = [c.n_pred for c in self.cases]
        return {
            "cases": len(self.cases),
            "lattice_voxels": {"min": min(vox), "median": float(np.median(vox)), "max": max(vox)},
            "gt_components": {"min": min(n_gt), "median": float(np.median(n_gt)),
                              "max": max(n_gt), "total": sum(n_gt)},
            "pred_components": {"min": min(n_pred), "median": float(np.median(n_pred)),
                                "max": max(n_pred), "total": sum(n_pred)},
            "empty_gt_share": sum(1 for n in n_gt if n == 0) / len(n_gt),
            "sites_x_lattice_voxels": sum(n * v for n, v in zip(n_gt, vox)),
        }


def _expected(case_gt, pred, **kw) -> dict:
    _, n_pred = ndimage.label(pred, structure=STRUCT26)
    inter = int(np.count_nonzero(pred & case_gt))
    denom = int(np.count_nonzero(pred)) + int(np.count_nonzero(case_gt))
    dice = 1.0 if denom == 0 else 2.0 * inter / denom
    return dict(n_pred=int(n_pred), dice=dice, **kw)


def _check_gt(gt, n_gt):
    _, n = ndimage.label(gt, structure=STRUCT26)
    if n != n_gt:
        raise RuntimeError(f"generator placed {n_gt} lesions but they form {n} components")


def _lesion_case(rng, edge: int, count: int):
    shape = (edge, edge, edge)
    gt = np.zeros(shape, dtype=bool)
    pred = np.zeros(shape, dtype=bool)
    placer = _Placer(shape)
    n_gt = tp = fn = 0
    for _ in range(count):
        d = np.exp(rng.random() * np.log(LESION_MAX_EXTENT))  # log-uniform 1..10 voxels
        extent = np.clip(np.rint(d * rng.uniform(0.75, 1.25, 3)), 1, LESION_MAX_EXTENT).astype(int)
        lo = placer.place(rng, extent, LESION_MARGIN)
        if lo is None:
            continue
        blob = ellipsoid(extent)
        gt[_box(lo, extent)] |= blob
        n_gt += 1
        vol = int(blob.sum())
        p_drop = 0.5 if vol <= 4 else 0.25 if vol <= 32 else 0.08  # small ones are missed more
        if rng.random() < p_drop:
            fn += 1
            continue
        tp += 1
        padded = np.pad(blob, 1)
        op = rng.integers(3)
        if op == 1:
            eroded = ndimage.binary_erosion(padded, STRUCT6)
            padded = eroded if eroded.any() else padded
        elif op == 2:
            padded = ndimage.binary_dilation(padded, STRUCT6)
        pred[_box(lo, extent, pad=1)] |= padded
    for _ in range(rng.integers(0, 4)):  # separated false-positive blobs
        extent = rng.integers(1, 5, 3)
        lo = placer.place(rng, extent, LESION_MARGIN)
        if lo is not None:
            pred[_box(lo, extent)] |= ellipsoid(extent)
    _check_gt(gt, n_gt)
    return gt, pred, _expected(gt, pred, n_gt=n_gt, tp=tp, fn=fn)


def _speckle_case(rng, shape, n_lesions: int, mu: float):
    gt = np.zeros(shape, dtype=bool)
    logits = rng.standard_normal(shape, dtype=np.float32) - np.float32(mu)
    near = np.abs(logits) < LOGIT_GAP
    logits[near] = np.copysign(np.float32(LOGIT_GAP), logits[near])
    placer = _Placer(shape)
    n_gt = tp = fn = 0
    for _ in range(n_lesions):
        extent = np.array([rng.integers(3, 13), rng.integers(3, 13), rng.integers(1, 5)])
        lo = placer.place(rng, extent, margin=4)
        if lo is None:
            continue
        box = _box(lo, extent, pad=1)
        blob = np.pad(ellipsoid(extent), 1)
        gt[box] |= blob
        n_gt += 1
        # A negative one-voxel shell keeps noise components off the lesion, so
        # a detected lesion is exactly one predicted component.
        shell = ndimage.binary_dilation(blob, STRUCT26) & ~blob
        local = logits[box]
        local[shell] = -np.abs(local[shell])
        if rng.random() < 0.7:
            tp += 1
            local[blob] = np.abs(local[blob]) + np.float32(2.0)
        else:
            fn += 1
            local[blob] = -np.abs(local[blob]) - np.float32(2.0)
    _check_gt(gt, n_gt)
    return gt, logits, _expected(gt, logits > 0, n_gt=n_gt, tp=tp, fn=fn)


def build_eval_corpus(workload: str, seed: int, out: Path) -> EvalCorpus:
    """Write the corpus of ``workload`` under ``out``: volumes and manifests.

    ``out/manifest.csv`` lists every case; ``out/case_<i>.csv`` lists case i
    alone, for the single-case passes.
    """
    rng = np.random.default_rng([seed % 2**64, 0 if workload == "eval-lesions" else 1])
    out.mkdir(parents=True, exist_ok=True)
    if workload == "eval-lesions":
        corpus = EvalCorpus(workload, "voxel")
        n = LESION_CASES
        u_edge, u_count = stratified(n, 2)
        edges = np.rint(LESION_EDGE[0] + u_edge * (LESION_EDGE[1] - LESION_EDGE[0]))
        counts = [heavy_tailed_count(u, *LESION_COUNT) for u in u_count]
    else:
        corpus = EvalCorpus(workload, "physical")
        n = SPECKLE_CASES
        u_plane, u_slices, u_lesions, u_mu = stratified(n, 4)
        inplane = np.rint(SPECKLE_INPLANE[0] + u_plane * (SPECKLE_INPLANE[1] - SPECKLE_INPLANE[0]))
        slices = np.rint(SPECKLE_SLICES[0] + u_slices * (SPECKLE_SLICES[1] - SPECKLE_SLICES[0]))
        lesions = [0 if u < 0.5 else 1 if u < 0.8 else 2 for u in u_lesions]
        mus = SPECKLE_MU[0] + u_mu * (SPECKLE_MU[1] - SPECKLE_MU[0])

    # gzip dominates generation; compress in worker threads (zlib releases the
    # GIL), with at most `workers` cases waiting so memory stays bounded.
    workers = len(os.sched_getaffinity(0))
    pending: deque = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for i in range(n):
            if workload == "eval-lesions":
                gt, pred, exp = _lesion_case(rng, int(edges[i]), counts[i])
                gt_name, pred_name = f"c{i:03d}_gt.raw", f"c{i:03d}_pred.raw"
                write_raw_u8(out / gt_name, gt, (1.0, 1.0, 1.0))
                write_raw_u8(out / pred_name, pred, (1.0, 1.0, 1.0))
            else:
                shape = (int(inplane[i]), int(inplane[i]), int(slices[i]))
                gt, pred, exp = _speckle_case(rng, shape, lesions[i], float(mus[i]))
                gt_name, pred_name = f"c{i:03d}_gt.nii.gz", f"c{i:03d}_logits.nii.gz"
                write_nifti_gz(out / gt_name, gt.astype(np.uint8), SPECKLE_SPACING)
                pending.append(pool.submit(write_nifti_gz, out / pred_name, pred, SPECKLE_SPACING))
                while len(pending) > workers:
                    pending.popleft().result()
            corpus.cases.append(EvalCase(gt_name, pred_name, gt.shape, **exp))
            (out / f"case_{i:03d}.csv").write_text(f"gt,pred\n{gt_name},{pred_name}\n")
        for fut in pending:
            fut.result()
    rows = "".join(f"{c.gt},{c.pred}\n" for c in corpus.cases)
    (out / "manifest.csv").write_text("gt,pred\n" + rows)
    return corpus


# ---------------------------------------------------------------------------
# train-loss pool
# ---------------------------------------------------------------------------

@dataclass
class Subject:
    gt_path: Path
    n_gt: int
    bank: list[np.ndarray]  # f32 logits, as a network would emit them
    direction: np.ndarray  # f64 probe direction for the finite-difference check


def _smooth_logits(rng, gt: np.ndarray) -> np.ndarray:
    """Network-like logits: a blurred, offset copy of the GT plus smooth noise."""
    soft = ndimage.gaussian_filter(gt.astype(np.float32), sigma=rng.uniform(1.0, 2.0))
    noise = ndimage.gaussian_filter(rng.standard_normal(gt.shape, dtype=np.float32), sigma=3.0)
    noise /= noise.std()
    confidence = rng.uniform(6.0, 14.0)
    logits = confidence * (soft - 0.35) + rng.uniform(0.8, 1.6) * noise - rng.uniform(2.0, 4.0)
    return np.clip(logits, -15.0, 15.0).astype(np.float32)


def build_train_pool(seed: int, out: Path) -> list[Subject]:
    rng = np.random.default_rng([seed % 2**64, 2])
    out.mkdir(parents=True, exist_ok=True)
    shape = (TRAIN_EDGE,) * 3
    counts = np.exp(stratified(TRAIN_SUBJECTS, 1)[0] * np.log(TRAIN_COUNT[1]))  # log-uniform 1..20
    subjects = []
    for s, c in enumerate(counts):
        gt = np.zeros(shape, dtype=bool)
        placer = _Placer(shape)
        n_gt = 0
        for _ in range(max(TRAIN_COUNT[0], int(c))):
            extent = rng.integers(2, 13, 3)
            lo = placer.place(rng, extent, LESION_MARGIN)
            if lo is not None:
                gt[_box(lo, extent)] |= ellipsoid(extent)
                n_gt += 1
        _check_gt(gt, n_gt)
        path = out / f"s{s}_gt.raw"
        write_raw_u8(path, gt, (1.0, 1.0, 1.0))
        bank = [_smooth_logits(rng, gt) for _ in range(TRAIN_BANK)]
        subjects.append(Subject(path, n_gt, bank, rng.standard_normal(shape)))
    return subjects


def train_facts(subjects: list[Subject]) -> dict:
    vox = TRAIN_EDGE ** 3
    n_gt = [s.n_gt for s in subjects]
    return {
        "subjects": len(subjects),
        "bank_per_subject": TRAIN_BANK,
        "lattice_voxels": vox,
        "gt_components": n_gt,
        "sites_x_lattice_voxels": sum(n_gt) * vox,
    }
