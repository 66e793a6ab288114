"""Hard (binarized) lesion-wise evaluation.

Undefined values (zero-denominator metrics, e.g. recall with no ground-truth
components) are reported as ``None`` and excluded from aggregation; the
aggregate keeps a count of them.

CC-Dice needs the Voronoi region of a GT component only at the predicted
voxels, so evaluation looks the regions up at those voxels with the kernel of
``voronoi.nearest_component`` and never builds the dense, lattice-wide
partition. The lookup's cost grows with the predicted voxels outside the
ground truth, and its memory with the predicted voxels plus the components'
boundary voxels, and a few transient bool lattices.

Matching reports only its pairs: the unmatched GT and predicted IDs are the
complement of the paired IDs, and the counts follow from the pair count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .components import ComponentLabeling, label_components
from .volumes import BinaryMask, require_same_grid
from .voronoi import _check_metric, _nearest_at
from .voronoi import voronoi_partition  # noqa: F401  # lwbench/tracer.py wraps this attribute


@dataclass(frozen=True)
class MatchResult:
    """One-to-one component matching; a pair shares at least one voxel.

    IDs in no pair are unmatched: ``tp = len(pairs)``, ``fn = n_gt - tp``
    and ``fp = n_pred - tp``.
    """

    pairs: tuple[tuple[int, int], ...]  # (gt_id, pred_id)


@dataclass(frozen=True, eq=False)
class CaseMetrics:
    """Per-case metric record. None marks an undefined value."""

    dice: float
    cc_dice: float | None
    precision: float | None
    recall: float | None
    f1: float | None
    n_gt: int
    n_pred: int
    tp: int
    fp: int
    fn: int
    gt_volumes_mm3: np.ndarray  # per GT component, canonical order
    gt_detected: np.ndarray  # bool, aligned with gt_volumes_mm3


@dataclass(frozen=True)
class QuartileRecall:
    """Detection recall stratified by pooled GT component volume quartiles."""

    boundaries: tuple[float, float, float]  # 25/50/75th percentile cuts, mm^3
    recall_q: tuple[float | None, float | None, float | None, float | None]
    detected: tuple[int, int, int, int]
    total: tuple[int, int, int, int]


@dataclass(frozen=True)
class AggregateStat:
    mean: float
    std: float
    n: int
    n_undefined: int


def hard_dice(pred: BinaryMask, gt: BinaryMask) -> float:
    """Set Dice 2|P∩K| / (|P|+|K|); 1.0 when both masks are empty."""
    require_same_grid(pred, gt)
    inter = int(np.count_nonzero(pred.voxels & gt.voxels))
    denom = pred.foreground_count + gt.foreground_count
    if denom == 0:
        return 1.0
    return 2.0 * inter / denom


def cc_dice(
    pred: BinaryMask,
    gt: BinaryMask,
    metric: str = "voxel",
    lab: ComponentLabeling | None = None,
) -> float | None:
    """Mean over GT components C of Dice(P ∩ R_C, C); None for empty GT.

    ``lab`` may be passed to reuse the GT labeling. The prediction mask is
    scanned once, for the C-order indices of its voxels; the intersections
    and R_C are both read at those indices only.
    """
    _check_metric(metric)
    require_same_grid(pred, gt)
    if lab is None:
        lab = label_components(gt)
    if lab.count == 0:
        return None

    n = lab.count
    flat = np.flatnonzero(pred.voxels)
    inter = np.bincount(lab.labels.ravel()[flat], minlength=n + 1)[1:]
    region = _nearest_at(lab, flat, metric)
    pred_in_region = np.bincount(region, minlength=n + 1)[1:]
    denom = pred_in_region + lab.volumes_vox
    return float(np.mean(2.0 * inter / denom))


def _hopcroft_karp(adj: list[list[int]], n_right: int) -> list[int]:
    """Maximum bipartite matching; returns match_left (right index or -1).

    Each phase layers the graph by a BFS from every free left vertex, then
    runs one layered DFS from each free left vertex in ascending order. The
    DFS keeps an explicit stack of (vertex, iterator over its right
    neighbours) plus the neighbour tried at each level, so its depth is
    bounded by memory, not by Python's recursion limit. A neighbour ``v``
    leads on if it is free (augment along the stack) or its partner sits on
    the next layer (push the partner); a vertex whose neighbours are all
    tried leaves the layering and is popped. This visits the same vertices
    in the same order as the textbook recursive DFS.
    """
    n_left = len(adj)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    INF = float("inf")
    dist = [INF] * n_left
    while True:
        q = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        if not found:
            return match_l

        for root in range(n_left):
            if match_l[root] != -1:
                continue
            stack = [(root, iter(adj[root]))]
            tried: list[int] = []  # tried[k]: the neighbour stack[k] leads on through
            while stack:
                u, preds = stack[-1]
                for v in preds:
                    w = match_r[v]
                    if w == -1 or dist[w] == dist[u] + 1:
                        break
                else:  # dead end: u leaves the layering, its parent tries its next
                    dist[u] = INF
                    stack.pop()
                    del tried[-1:]
                    continue
                tried.append(v)
                if w == -1:  # augment: every vertex on the stack takes its tried neighbour
                    for (u, _), v in zip(stack, tried):
                        match_l[u] = v
                        match_r[v] = u
                    break
                stack.append((w, iter(adj[w])))


def match_instances(pred_lab: ComponentLabeling, gt_lab: ComponentLabeling) -> MatchResult:
    """Maximum-cardinality one-to-one matching on the >=1-voxel overlap graph.

    Several maximum matchings can exist, and ``gt_detected`` and quartile
    recall depend on which one is returned. It is the one Hopcroft–Karp
    finds when GT IDs are visited in ascending order and each GT's
    overlapping pred IDs are tried in ascending order. So a pred that
    overlaps two otherwise unmatched GTs goes to the lower GT ID. Another
    matcher (e.g. ``scipy.sparse.csgraph.maximum_bipartite_matching``) can
    return a different maximum matching and so change the reports.

    The overlap edges are the distinct keys ``gt * (n_pred + 1) + pred`` over
    the voxels in both masks, which sort GT-major with preds ascending. The
    matcher's DFS runs on an explicit stack, so an augmenting path may be
    as long as the components allow.
    """
    if pred_lab.labels.shape != gt_lab.labels.shape:
        raise ValueError("labelings cover different grids")

    both = (pred_lab.labels > 0) & (gt_lab.labels > 0)
    stride = pred_lab.count + 1
    keys = np.unique(gt_lab.labels[both] * np.int64(stride) + pred_lab.labels[both])
    adj: list[list[int]] = [[] for _ in range(gt_lab.count)]
    for g, p in (divmod(k, stride) for k in keys.tolist()):
        adj[g - 1].append(p - 1)
    match_l = _hopcroft_karp(adj, pred_lab.count)

    return MatchResult(tuple((g + 1, v + 1) for g, v in enumerate(match_l) if v != -1))


def case_metrics(pred: BinaryMask, gt: BinaryMask, metric: str = "voxel") -> CaseMetrics:
    """All per-case metrics for one prediction/ground-truth pair."""
    _check_metric(metric)
    require_same_grid(pred, gt)
    gt_lab = label_components(gt)
    pred_lab = label_components(pred)
    match = match_instances(pred_lab, gt_lab)

    n_gt, n_pred = gt_lab.count, pred_lab.count
    tp = len(match.pairs)
    fp = n_pred - tp
    fn = n_gt - tp

    detected = np.zeros(n_gt, dtype=bool)
    detected[[g - 1 for g, _ in match.pairs]] = True

    recall = tp / n_gt if n_gt > 0 else None
    precision = tp / (tp + fp) if tp + fp > 0 else None
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn > 0 else None

    return CaseMetrics(
        dice=hard_dice(pred, gt),
        cc_dice=cc_dice(pred, gt, metric, lab=gt_lab),
        precision=precision,
        recall=recall,
        f1=f1,
        n_gt=n_gt,
        n_pred=n_pred,
        tp=tp,
        fp=fp,
        fn=fn,
        gt_volumes_mm3=gt_lab.volumes_mm3,
        gt_detected=detected,
    )


def quartile_recall(cases) -> QuartileRecall:
    """Recall per volume quartile.

    The boundaries are the linearly interpolated 25/50/75th percentiles of
    all GT component volumes pooled across the evaluated cases. Buckets are
    half-open with the maximum closed: (-inf, b25], (b25, b50], (b50, b75],
    (b75, +inf).
    """
    cases = list(cases)
    vols = np.array([v for c in cases for v in c.gt_volumes_mm3], dtype=float)
    det = np.array([d for c in cases for d in c.gt_detected], dtype=bool)
    if vols.size == 0:
        raise ValueError("quartile recall needs at least one ground-truth component")

    b1, b2, b3 = np.percentile(vols, [25.0, 50.0, 75.0])
    bucket = np.digitize(vols, [b1, b2, b3], right=True)

    detected, total, recalls = [], [], []
    for q in range(4):
        in_q = bucket == q
        t = int(np.count_nonzero(in_q))
        d = int(np.count_nonzero(det[in_q]))
        total.append(t)
        detected.append(d)
        recalls.append(d / t if t > 0 else None)
    return QuartileRecall(
        boundaries=(float(b1), float(b2), float(b3)),
        recall_q=tuple(recalls),
        detected=tuple(detected),
        total=tuple(total),
    )


METRIC_FIELDS = ("dice", "cc_dice", "precision", "recall", "f1")


def aggregate(cases) -> dict[str, AggregateStat]:
    """Mean and population std per metric over defined values."""
    cases = list(cases)
    if not cases:
        raise ValueError("cannot aggregate an empty case list")
    out = {}
    for field in METRIC_FIELDS:
        vals = [getattr(c, field) for c in cases]
        defined = np.array([v for v in vals if v is not None], dtype=float)
        out[field] = AggregateStat(
            mean=float(defined.mean()) if defined.size else float("nan"),
            std=float(defined.std()) if defined.size else float("nan"),
            n=int(defined.size),
            n_undefined=len(vals) - defined.size,
        )
    return out
