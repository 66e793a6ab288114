"""Independent reference implementations used to verify the fast paths.

Everything here is deliberately naive (BFS flood fill, exhaustive matching
via bitmask DP, central finite differences, DiceCE straight from its
formula, a recursive Hopcroft–Karp, a voxel-by-voxel 6-boundary, a dilated
gap check) and shares no code with the package internals it checks.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np
from scipy import ndimage

from lesionwise import BinaryMask, LogitVolume, Spacing

UNIT = Spacing(1.0, 1.0, 1.0)

_NEIGHBORS_26 = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def mk_mask(arr, spacing: Spacing = UNIT) -> BinaryMask:
    return BinaryMask(np.asarray(arr, dtype=bool), spacing)


def mk_logits(arr, spacing: Spacing = UNIT) -> LogitVolume:
    return LogitVolume(np.asarray(arr, dtype=np.float64), spacing)


def flood_fill_label(mask: np.ndarray) -> tuple[int, np.ndarray]:
    """BFS 26-connectivity labeling, first-encounter order of the x-fastest scan."""
    mask = np.asarray(mask, dtype=bool)
    nx, ny, nz = mask.shape
    labels = np.zeros(mask.shape, dtype=np.int32)
    count = 0
    # x-fastest scan: x is the innermost loop
    order = [
        (x, y, z) for z in range(nz) for y in range(ny) for x in range(nx)
    ]
    for x, y, z in order:
        if not mask[x, y, z] or labels[x, y, z]:
            continue
        count += 1
        queue = deque([(x, y, z)])
        labels[x, y, z] = count
        while queue:
            cx, cy, cz = queue.popleft()
            for dx, dy, dz in _NEIGHBORS_26:
                px, py, pz = cx + dx, cy + dy, cz + dz
                if 0 <= px < nx and 0 <= py < ny and 0 <= pz < nz \
                        and mask[px, py, pz] and not labels[px, py, pz]:
                    labels[px, py, pz] = count
                    queue.append((px, py, pz))
    return count, labels


def two_branch_sigmoid(logits: np.ndarray) -> np.ndarray:
    """Logistic function by sign: 1 / (1 + exp(-l)) for l >= 0, e / (1 + e) with
    e = exp(l) below, gathered and scattered through boolean masks."""
    logits = np.asarray(logits, dtype=np.float64)
    out = np.empty_like(logits)
    pos = logits >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    e = np.exp(logits[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def finite_difference_grad(fn, logits: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function of the logit grid."""
    grad = np.zeros_like(logits, dtype=np.float64)
    work = logits.astype(np.float64).copy()
    for idx in np.ndindex(*logits.shape):
        orig = work[idx]
        work[idx] = orig + h
        fp = fn(work)
        work[idx] = orig - h
        fm = fn(work)
        work[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def grad_errors(analytic: np.ndarray, fd: np.ndarray):
    """Max relative error (|analytic| > 1e-8) and max absolute error elsewhere."""
    big = np.abs(analytic) > 1e-8
    rel = 0.0
    if big.any():
        rel = float(np.max(np.abs(analytic[big] - fd[big]) / np.abs(fd[big])))
    absolute = 0.0
    if (~big).any():
        absolute = float(np.max(np.abs(analytic[~big] - fd[~big])))
    return rel, absolute


def dicece_over_voxels(logits, gt, voxels) -> float:
    """Soft Dice (no smoothing) plus mean binary cross-entropy over a voxel set.

    ``logits``, ``gt`` and ``voxels`` are arrays of one shape; ``voxels``
    selects the set. CE is -log(p) on GT voxels and -log(1 - p) elsewhere.
    """
    l = np.asarray(logits, dtype=np.float64)[voxels]
    g = np.asarray(gt, dtype=bool)[voxels]
    p = 1.0 / (1.0 + np.exp(-l))
    dice = 1.0 - 2.0 * p[g].sum() / (p.sum() + g.sum())
    ce = np.where(g, np.logaddexp(0.0, -l), np.logaddexp(0.0, l)).mean()
    return float(dice + ce)


def max_matching_size(adj: list[list[int]], n_right: int) -> int:
    """Exhaustive maximum bipartite matching cardinality via bitmask DP."""
    n_left = len(adj)

    @lru_cache(maxsize=None)
    def best(i: int, used: int) -> int:
        if i == n_left:
            return 0
        score = best(i + 1, used)  # leave left vertex i unmatched
        for v in adj[i]:
            if not used & (1 << v):
                score = max(score, 1 + best(i + 1, used | (1 << v)))
        return score

    result = best(0, 0)
    best.cache_clear()
    return result


# The matcher as it was before its DFS moved onto an explicit stack, kept
# verbatim: the reference matching that the stack version must reproduce.
# Its DFS recurses once per layer, so keep its graphs' paths short.
def _hopcroft_karp(adj: list[list[int]], n_right: int) -> list[int]:
    """Maximum bipartite matching; returns match_left (right index or -1)."""
    n_left = len(adj)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    INF = float("inf")
    dist = [INF] * n_left

    def bfs() -> bool:
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
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u)
    return match_l


_NEIGHBORS_6 = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def boundary_voxels(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """Every labeled voxel with an in-lattice 6-neighbour of another label."""
    nx, ny, nz = labels.shape
    out = []
    for x, y, z in np.ndindex(labels.shape):
        own = labels[x, y, z]
        if own and any(
            0 <= x + dx < nx and 0 <= y + dy < ny and 0 <= z + dz < nz
            and labels[x + dx, y + dy, z + dz] != own
            for dx, dy, dz in _NEIGHBORS_6
        ):
            out.append((x, y, z))
    return out


def closer_than_two_voxels(first: np.ndarray, second: np.ndarray) -> bool:
    """Whether mask ``second`` meets the 5x5x5 dilation of mask ``first``: fewer
    than two background voxels (Chebyshev distance < 3) lie between them."""
    near = ndimage.binary_dilation(first, structure=np.ones((5, 5, 5), dtype=bool))
    return bool(near[second].any())


def random_mask_with_components(shape, n_components, seed, spacing=UNIT):
    """Seeded random well-separated instance mask plus its expected count."""
    from lesionwise import Shape, build_phantom, random_instances_spec

    spec = random_instances_spec(Shape(*shape), spacing, n_components, seed)
    mask, lab = build_phantom(spec)
    assert lab.count == n_components
    return mask, lab


def chain_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """GT and prediction arrays, shape (4n + 4, 1, 3), of n lesions in one overlap chain.

    GT i < n - 1 spans x = 4i+1..4i+3 at z = 0, and GT n - 1 the same x at
    z = 2. Pred 0 spans x = 0..1 at z = 0, a pillar at x = 0 up to z = 2 and
    the whole z = 2 row; pred j >= 1 spans x = 4j-1..4j+1 at z = 0. So GT i
    overlaps preds i and i + 1, the last GT only pred 0, and a maximum
    matching needs one augmenting path through all n GTs.
    """
    gt = np.zeros((4 * n + 4, 1, 3), dtype=bool)
    pred = np.zeros_like(gt)
    for i in range(n):
        gt[4 * i + 1 : 4 * i + 4, 0, 2 if i == n - 1 else 0] = True
    pred[0:2, 0, 0] = True
    pred[0, 0, :] = True
    pred[:, 0, 2] = True
    for j in range(1, n):
        pred[4 * j - 1 : 4 * j + 2, 0, 0] = True
    return gt, pred
