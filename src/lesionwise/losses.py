"""Differentiable global and instance-aware segmentation losses.

Every loss maps (logits, ground truth) to a scalar plus the exact analytic
gradient with respect to the logits. All three losses are sums of one DiceCE
term, taken over different voxel sets S. The soft Dice part is the
non-smooth variant (no additive smoothing constant),

    dice_loss = 1 - 2 * sum_S(p * g) / (sum_S(p) + sum_S(g)),   p = sigmoid(l)

and cross-entropy is the mean over S of the stable logit form
``softplus(l) - g * l`` with gradient ``(p - g) / |S|``.

* ``dicece_loss`` has one term, S = the whole lattice.
* ``cc_instance_loss`` averages one term per ground-truth component C, with
  S = C's Voronoi region, so each false positive affects exactly one term.
* ``blob_instance_loss`` averages one term per component C over the whole
  lattice with probabilities zeroed on the *other* components' voxels, so S
  is C plus the background, which every term shares, and the CE mean still
  counts the masked voxels. Each false positive affects every term.

Internally one pass over the lattice computes the sigmoid, its derivative
and the voxel CE once per call, and one reduction turns a voxel -> group
index into per-term Dice and CE values and per-group gradient coefficients.
``combined_loss`` builds the pass once and hands it to the global and the
instance loss, and checks the gradient for NaN and Inf once.

The pass, the reductions and the gradients write into a workspace of
lattices held per thread (a ``threading.local``). The next call on the same
thread reuses it while the logits' shape and strides stay the same, and
replaces it when either changes (a switch between float32 and float64
logits changes the strides), so a training loop with a fixed patch shape
reuses it at every step whatever the ground truth. It holds 57 bytes
per voxel (six float64 lattices, a bool GT and an intp group index), and it
stays resident after the call returns, until the thread ends or a call of
another shape or layout replaces it: one call on a 512^3 volume keeps about
7.6 GB. A warm call allocates only the gradient it returns, plus a bool
lattice for its finiteness check and arrays the size of the GT foreground
or of the component count; with logits not in C order the instance sums
also take a C-order copy of a lattice, one at a time.

The elementwise lattice work (the pass, the gradients and the products and
copies that feed the sums) runs on slabs of about ``SLAB_VOXELS`` voxels,
views of the workspace cut along the slowest axis of its layout, on one
thread pool per process with a worker per usable CPU
(``os.sched_getaffinity``, else ``os.cpu_count``); numpy releases the GIL
inside its ufunc loops. There is no option for the worker count. A lattice
of one slab runs on the calling thread, so no worker starts before the
first call on a larger lattice, and importing the package or running
``eval`` starts none. Threads that take losses at once share the pool, so
the losses never run more workers than there are CPUs. A forked child
starts a pool of its own, and each slab runs in a copy of the caller's
``contextvars`` context, so ``np.errstate`` holds in the workers. Each voxel
goes through the same ufunc loop with the same operands whatever the slabs,
so scalars and gradients are bit-identical for any worker count. The sums
whose bits depend on the order of summation stay one whole-lattice call
each: ``np.sum``'s pairwise totals and ``bincount``'s sequential group
sums. With C-order logits the two lattice-wide group sums of an instance
loss run at once, as two whole calls on the pool. The slabs are views of
the workspace, so it still holds 57 bytes per voxel, and a warm call
allocates what it did on one thread, plus buffers of at most a slab.

Values that depend on the ground truth alone are cached on its immutable
objects rather than recounted per call: the coordinates and group of each
GT voxel (``ComponentLabeling.foreground_coords`` and ``foreground_ids``),
the component sizes (``volumes_vox``) and the Voronoi region sizes
(``VoronoiPartition.region_sizes``). The instance sums gather p at those
coordinates and the gradients scatter there. So ``lab`` must label exactly
``gt``'s voxels and ``part`` must put each of ``lab``'s components in its
own region, as ``label_components`` and ``voronoi_partition`` make them;
else ``ValueError``. Every instance-loss call checks both, in time
proportional to the GT voxels (one ``count_nonzero`` of the mask and
gathers at the cached coordinates), and remembers nothing: a mismatch
raises on every call, whatever earlier calls passed.

Logits are clamped to [-LOGIT_CLAMP, LOGIT_CLAMP] before the sigmoid; at the
bound this changes probabilities by less than 1e-17 and keeps exp() finite.
"""

from __future__ import annotations

import contextvars
import enum
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .components import ComponentLabeling, label_components
from .volumes import BinaryMask, LogitVolume, require_same_grid, sigmoid_parts
from .voronoi import EmptyGroundTruthError, VoronoiPartition, _check_metric, voronoi_partition

LOGIT_CLAMP = 40.0

# Voxels per slab of the elementwise lattice work. On a 96^3 voxel pass
# (2 CPUs, best of 15) 64k voxels took 8.4 ms, against 9.6 ms at 32k and
# 9.0 ms at 128k.
SLAB_VOXELS = 1 << 16


class LossKind(str, enum.Enum):
    DICECE = "dicece"
    CC_DICECE = "cc-dicece"
    BLOB_DICECE = "blob-dicece"


@dataclass(frozen=True)
class LossWeights:
    """Weights of the global/instance terms and of Dice vs CE inside DiceCE."""

    w_global: float = 1.0
    w_instance: float = 1.0
    w_dice: float = 1.0
    w_ce: float = 1.0

    def __post_init__(self):
        vals = (self.w_global, self.w_instance, self.w_dice, self.w_ce)
        if not all(math.isfinite(w) and w >= 0 for w in vals):
            raise ValueError(f"loss weights must be finite and non-negative, got {vals}")
        if all(w == 0 for w in vals):
            raise ValueError("at least one loss weight must be positive")


@dataclass(frozen=True, eq=False)
class LossValue:
    """Scalar loss plus the per-voxel gradient with respect to the logits."""

    scalar: float
    grad: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.scalar):
            raise ValueError(f"loss scalar is not finite: {self.scalar}")
        if not np.isfinite(self.grad).all():
            raise ValueError("loss gradient contains NaN or Inf")
        self.grad.setflags(write=False)


_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The process's loss pool, one worker per usable CPU, made on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
            _POOL = ThreadPoolExecutor(cpus or os.cpu_count() or 1,
                                       thread_name_prefix="lesionwise-loss")
        return _POOL


def _forget_pool() -> None:
    # A forked child has only the forking thread: the parent's workers, and
    # whoever held the lock, are not there, so the child makes its own pool.
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_all(calls) -> list:
    """Run each call on the pool and return their results in order.

    Each runs in its own copy of the caller's context, which carries numpy's
    error state (``np.errstate``). Every call has ended before anything is
    returned or raised, so none still writes to the workspace afterwards;
    the first failed call, in order, raises.
    """
    pool = _pool()
    futures = [pool.submit(contextvars.copy_context().run, call) for call in calls]
    wait(futures)
    return [f.result() for f in futures]


def _slabs(like: np.ndarray) -> list[tuple]:
    """Index tuples of ``like``'s slabs: runs of rows along the slowest axis
    of its layout, so each slab is contiguous in C, F and permuted layouts.
    An axis of length 1 is passed over, as its stride is arbitrary."""
    if like.size <= SLAB_VOXELS:
        return [...]
    ax = max(range(like.ndim), key=lambda a: (like.shape[a] > 1, like.strides[a]))
    n = like.shape[ax]
    rows = max(1, SLAB_VOXELS * n // max(like.size, 1))
    return [(slice(None),) * ax + (slice(k, k + rows),) for k in range(0, n, rows)]


def _each_slab(fn, like: np.ndarray) -> None:
    """``fn(index)`` for each slab of ``like``, on the pool.

    ``fn`` applies the same elementwise ufuncs to each slab of its lattices
    that it would apply to the whole, so the bits do not depend on the slab
    size or the worker count. A lattice of one slab runs inline on the
    calling thread.
    """
    slabs = _slabs(like)
    if len(slabs) < 2:
        fn(...)
    else:
        _run_all([functools.partial(fn, i) for i in slabs])


class _Workspace:
    """The lattices of one loss call, reused by the next call on the thread.

    ``_voxel_pass`` fills it and returns it as the pass. The float lattices
    are float64 whether the logits are stored as float32 or float64, so both
    give the same bits. The float and bool lattices are laid out like the
    logits: raw-file masks are x-fastest (Fortran order) while training
    logits are C order, and elementwise ops on mixed layouts run several
    times slower. ``index`` is C order, so the group sums are taken by
    ``bincount`` in C order whatever the layout and their bits do not
    depend on it.
    """

    def __init__(self, like: np.ndarray):
        self.key = (like.shape, like.strides)
        self.p, self.dpdl, self.r, self.ce, self.buf, self.grad = (
            np.empty_like(like, dtype=np.float64) for _ in range(6)
        )
        # p = sigmoid of the clamped logits, dpdl = p (1 - p), r = p - g the
        # CE residual, ce = softplus(l) - g l; buf is scratch for every
        # reduction and gradient, grad the gradient a loss leaves for
        # combined_loss.
        self.gt = np.empty_like(like, dtype=bool)
        self.index = np.empty(like.shape, dtype=np.intp)  # voxel -> group


_LOCAL = threading.local()


def _workspace(logits: np.ndarray) -> _Workspace:
    ws = getattr(_LOCAL, "workspace", None)
    if ws is None or ws.key != (logits.shape, logits.strides):
        ws = _LOCAL.workspace = None  # free the old lattices before allocating new ones
        ws = _LOCAL.workspace = _Workspace(logits)
    return ws


def _voxel_pass(logits: LogitVolume, gt: BinaryMask) -> _Workspace:
    require_same_grid(logits, gt)
    ws = _workspace(logits.voxels)

    def slab(i):
        p, dpdl, ce, buf, g = ws.p[i], ws.dpdl[i], ws.ce[i], ws.buf[i], ws.gt[i]
        lc = np.clip(logits.voxels[i], -LOGIT_CLAMP, LOGIT_CLAMP, out=ws.r[i])  # r is set last
        e = sigmoid_parts(lc, out=(p, buf, dpdl))[1]  # dpdl holds 1 + e until set
        np.copyto(g, gt.voxels[i])
        # softplus(l) = max(l, 0) + log1p(e); on GT voxels softplus(l) - l =
        # softplus(-l), the CE of a positive.
        np.maximum(lc, 0.0, out=ce)
        ce += np.log1p(e, out=e)
        ce -= np.multiply(lc, g, out=buf)
        np.subtract(1.0, p, out=dpdl)
        dpdl *= p
        np.subtract(p, g, out=ws.r[i])

    _each_slab(slab, ws.p)
    return ws


def _as_pass(logits: LogitVolume | _Workspace, gt: BinaryMask) -> _Workspace:
    return logits if isinstance(logits, _Workspace) else _voxel_pass(logits, gt)


@dataclass(frozen=True, eq=False)
class _Terms:
    """Per-term sums of the DiceCE terms over voxel groups, from one reduction."""

    lab: ComponentLabeling | None  # the grouped terms' labeling; None for the one global term
    shared: bool
    inter: np.ndarray  # sum of p * g
    denom: np.ndarray  # sum of p + sum of g; > 0 on any voxel set, as p > 0
    ce_sum: np.ndarray
    size: np.ndarray  # voxels in the CE mean

    def values(self, w_dice: float, w_ce: float) -> np.ndarray:
        """``w_dice * dice_k + w_ce * ce_k`` for every term k; inf or NaN
        where the weights overflow, which ``LossValue`` then refuses."""
        with np.errstate(over="ignore", invalid="ignore"):
            return w_dice * (1.0 - 2.0 * self.inter / self.denom) + w_ce * (self.ce_sum / self.size)


def _reduce(vp: _Workspace, lab: ComponentLabeling | None = None,
            part: VoronoiPartition | None = None) -> _Terms:
    """Sum the DiceCE terms of a voxel pass over voxel groups.

    With no ``lab`` there is one term over the whole lattice. Otherwise each
    voxel falls in a group 0..count, and group k >= 1 belongs to term k: the
    groups are ``part``'s Voronoi regions, or without ``part`` the
    components, with group 0, the background, shared by every term. A shared
    term spans the whole lattice: the other terms' voxels are masked to
    p = g = 0 and count in the CE mean only.

    Off the GT p * g is exactly 0 and g is 0/1, so ``inter`` is summed over
    the GT voxels only, in the same order and to the same bits as over the
    whole group, and the sums of g are the component sizes. A GT voxel's
    group is its own component, as a component owns its voxels' regions.
    """
    # The sums are whole-lattice calls, as their bits depend on the order of
    # summation: np.sum's pairwise and bincount's sequential.
    if lab is None:
        _each_slab(lambda i: np.multiply(vp.p[i], vp.gt[i], out=vp.buf[i]), vp.buf)
        inter = np.sum(vp.buf)
        psum, ce_sum = np.sum(vp.p), np.sum(vp.ce)
        gsum = float(np.count_nonzero(vp.gt))
        return _Terms(None, False, np.array([inter]), np.array([psum + gsum]),
                      np.array([ce_sum]), np.array([float(vp.p.size)]))
    n, shared = lab.count, part is None
    groups = lab.labels if shared else part.region_of
    _each_slab(lambda i: np.copyto(vp.index[i], groups[i]), vp.index)
    flat = vp.index.ravel()
    inter = np.bincount(lab.foreground_ids, weights=vp.p[lab.foreground_coords], minlength=n + 1)

    def group_sum(x):
        return np.bincount(flat, weights=x.ravel(), minlength=n + 1)

    # Both at once where ravel is a view; else one C-order copy at a time.
    if vp.p.flags.c_contiguous and len(_slabs(vp.p)) > 1:
        psum, ce_sum = _run_all([functools.partial(group_sum, x) for x in (vp.p, vp.ce)])
    else:
        psum, ce_sum = group_sum(vp.p), group_sum(vp.ce)
    sums = (inter, psum, ce_sum)
    if shared:
        inter, psum, ce_sum = (s[1:] + s[0] for s in sums)
        size = np.full(n, float(flat.size))
    else:
        inter, psum, ce_sum = (s[1:] for s in sums)
        size = part.region_sizes().astype(np.float64)
    gsum = lab.volumes_vox.astype(np.float64)
    return _Terms(lab, shared, inter, psum + gsum, ce_sum, size)


def _grad(vp: _Workspace, t: _Terms, w_dice: float, w_ce: float,
          term_weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient of ``sum_k term_weights[k] * (w_dice * dice_k + w_ce * ce_k)``, into ``out``.

    On the voxels of term k, d dice_k/dp = -2 (g denom_k - inter_k) / denom_k^2,
    split as g * a_k + b_k so that a shared group can sum its terms' b_k, and
    d ce_k/dl = (p - g) / size_k.
    """
    # (g a + b) p' + (p - g) c, with g a + b taken per group on and off the
    # GT; inf or NaN where the weights overflow, which LossValue refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        wd = w_dice * term_weights
        a = -2.0 * wd / t.denom
        b = 2.0 * wd * t.inter / (t.denom * t.denom)
        c = w_ce * term_weights / t.size
        if t.lab is not None:  # group 0 carries the sum of every term's coefficients when shared
            a, b, c = (np.concatenate(([x.sum() if t.shared else 0.0], x)) for x in (a, b, c))
        off_gt, on_gt = 0.0 * a + b, a + b

    def tail(i):
        o = out[i]
        o *= vp.dpdl[i]
        o += vp.buf[i]  # the CE part

    if t.lab is None:
        def slab(i):
            np.copyto(out[i], off_gt[0])
            np.copyto(out[i], on_gt[0], where=vp.gt[i])
            np.multiply(vp.r[i], c[0], out=vp.buf[i])
            tail(i)

        _each_slab(slab, out)
        return out

    def gather(i):
        np.take(off_gt, vp.index[i], out=out[i], mode="clip")
        ce_grad = np.take(c, vp.index[i], out=vp.buf[i], mode="clip")
        ce_grad *= vp.r[i]

    _each_slab(gather, out)
    out[t.lab.foreground_coords] = on_gt[t.lab.foreground_ids]
    _each_slab(tail, out)
    return out


class _Unchecked(NamedTuple):
    """A loss taken on a pass: its gradient is the workspace's ``grad``
    lattice, overwritten by the next loss on the thread, and not yet checked."""

    scalar: float
    grad: np.ndarray


def _mean_of_terms(logits, vp, t, w_dice, w_ce) -> LossValue | _Unchecked:
    """The mean of the terms: a checked ``LossValue`` with a fresh gradient,
    or, when ``logits`` is already a pass (``combined_loss``'s path), an
    ``_Unchecked`` that the caller weighs, sums and checks once."""
    n = t.inter.size
    scalar = float(np.sum(t.values(w_dice, w_ce))) / n
    weights = np.full(n, 1.0 / n)
    if logits is vp:
        return _Unchecked(scalar, _grad(vp, t, w_dice, w_ce, weights, vp.grad))
    return LossValue(scalar, _grad(vp, t, w_dice, w_ce, weights, np.empty_like(vp.p)))


def dicece_loss(
    logits: LogitVolume | _Workspace,
    gt: BinaryMask,
    w_dice: float = 1.0,
    w_ce: float = 1.0,
) -> LossValue:
    """Weighted sum of soft Dice and cross-entropy over the whole lattice.

    Leaves this thread's loss workspace, 57 bytes per voxel, resident until
    the thread ends or a call of another shape or memory layout replaces it
    (see the module docstring).
    """
    vp = _as_pass(logits, gt)
    return _mean_of_terms(logits, vp, _reduce(vp), w_dice, w_ce)


def soft_dice_loss(logits: LogitVolume, gt: BinaryMask) -> LossValue:
    """Non-smooth soft Dice loss over the whole lattice."""
    return dicece_loss(logits, gt, w_dice=1.0, w_ce=0.0)


def _check_labeling(lab: ComponentLabeling, gt: BinaryMask) -> None:
    """Raise ``ValueError`` unless ``lab`` labels exactly ``gt``'s voxels; O(GT voxels)."""
    if lab.labels.shape != gt.voxels.shape:
        raise ValueError("component labeling shape does not match the volume")
    coords = lab.foreground_coords
    # as many GT voxels as labeled ones, and each labeled voxel in the GT
    if gt.foreground_count != coords[0].size or not gt.voxels[coords].all():
        raise ValueError(
            "component labeling covers other voxels than the ground truth; "
            "label this ground truth"
        )


def _instance_terms(logits, gt, lab, part=None):
    """Check an instance loss's inputs, then take the pass and sum its terms.

    With ``part`` the terms are CC's Voronoi regions, else blob's masked
    lattices. Every call checks, in time proportional to the GT voxels and
    with no memory of earlier calls, that ``lab`` labels exactly ``gt``'s
    voxels and that ``part`` puts each of ``lab``'s components in its own
    region.
    """
    _check_labeling(lab, gt)
    if lab.count < 1:
        raise EmptyGroundTruthError(
            "instance loss needs at least one ground-truth component"
        )
    if part is not None and (
            part.region_of.shape != gt.voxels.shape or part.count != lab.count
            or not np.array_equal(part.region_of[lab.foreground_coords], lab.foreground_ids)):
        raise ValueError("Voronoi partition does not match the labeling")
    vp = _as_pass(logits, gt)
    return vp, _reduce(vp, lab, part)


def _each_term(vp, t, w_dice, w_ce) -> list[LossValue]:
    values = t.values(w_dice, w_ce)
    terms = []
    for k in range(values.size):
        only_k = np.zeros(values.size)
        only_k[k] = 1.0
        grad = _grad(vp, t, w_dice, w_ce, only_k, np.empty_like(vp.p))
        terms.append(LossValue(float(values[k]), grad))
    return terms


def cc_instance_loss(
    logits: LogitVolume | _Workspace,
    gt: BinaryMask,
    lab: ComponentLabeling,
    part: VoronoiPartition,
    w_dice: float = 1.0,
    w_ce: float = 1.0,
) -> LossValue:
    """Voronoi-restricted instance loss: mean over components C of
    DiceCE(prediction restricted to C's region, C).

    Regions are disjoint, so each voxel receives exactly one component's
    gradient scaled by 1/count.

    Leaves this thread's loss workspace, 57 bytes per voxel, resident until
    the thread ends or a call of another shape or memory layout replaces it
    (see the module docstring).
    """
    return _mean_of_terms(logits, *_instance_terms(logits, gt, lab, part), w_dice, w_ce)


def cc_instance_terms(
    logits: LogitVolume,
    gt: BinaryMask,
    lab: ComponentLabeling,
    part: VoronoiPartition,
    w_dice: float = 1.0,
    w_ce: float = 1.0,
) -> list[LossValue]:
    """Unweighted per-component terms of ``cc_instance_loss`` (no 1/count).

    Each term carries its own dense gradient, so the result holds one float64
    lattice per lesion: memory is count x lattice, where the loss returns one.
    """
    return _each_term(*_instance_terms(logits, gt, lab, part), w_dice, w_ce)


def blob_instance_loss(
    logits: LogitVolume | _Workspace,
    gt: BinaryMask,
    lab: ComponentLabeling,
    w_dice: float = 1.0,
    w_ce: float = 1.0,
) -> LossValue:
    """Mask-other-components instance loss: mean over components C of
    DiceCE over the full lattice with probabilities zeroed on the other
    components' voxels (false positives remain in every term).

    Masked voxels contribute zero gradient; a background voxel accumulates
    gradient from every component's term.

    Leaves this thread's loss workspace, 57 bytes per voxel, resident until
    the thread ends or a call of another shape or memory layout replaces it
    (see the module docstring).
    """
    return _mean_of_terms(logits, *_instance_terms(logits, gt, lab), w_dice, w_ce)


def blob_instance_terms(
    logits: LogitVolume,
    gt: BinaryMask,
    lab: ComponentLabeling,
    w_dice: float = 1.0,
    w_ce: float = 1.0,
) -> list[LossValue]:
    """Unweighted per-component terms of ``blob_instance_loss`` (no 1/count).

    Each term carries its own dense gradient, so the result holds one float64
    lattice per lesion: memory is count x lattice, where the loss returns one.
    """
    return _each_term(*_instance_terms(logits, gt, lab), w_dice, w_ce)


def combined_loss(
    kind: LossKind | str,
    logits: LogitVolume,
    gt: BinaryMask,
    weights: LossWeights | None = None,
    *,
    metric: str = "voxel",
    lab: ComponentLabeling | None = None,
    part: VoronoiPartition | None = None,
) -> LossValue:
    """Global DiceCE plus the selected instance term, weighted 1:1 by default.

    ``lab`` and ``part`` may be supplied to reuse precomputed structures;
    they must derive from ``gt`` (a ``lab`` of other voxels, a ``part`` of
    another labeling, or a ``part`` of another ``metric`` raises
    ``ValueError``), and are checked on every call. With no ground-truth
    components there is no instance term and the value is the global term.

    Leaves this thread's loss workspace, 57 bytes per voxel, resident until
    the thread ends or a call of another shape or memory layout replaces it
    (see the module docstring).
    """
    kind = LossKind(kind)
    _check_metric(metric)
    if part is not None and part.metric != metric:
        raise ValueError(f"Voronoi partition has metric {part.metric!r}, not {metric!r}")
    weights = weights or LossWeights()
    vp = _voxel_pass(logits, gt)

    # Given the pass, each loss leaves its gradient in the workspace; this
    # product is the one lattice the call allocates, checked once on return.
    g = dicece_loss(vp, gt, weights.w_dice, weights.w_ce)
    scalar = weights.w_global * g.scalar
    grad = np.empty_like(g.grad)
    _each_slab(lambda i: np.multiply(g.grad[i], weights.w_global, out=grad[i]), grad)
    if kind is LossKind.DICECE:
        return LossValue(scalar, grad)

    if lab is None:
        lab = label_components(gt)
    elif kind is LossKind.CC_DICECE and part is None:
        _check_labeling(lab, gt)  # before a partition is built from it
    try:  # the instance loss checks lab against gt before it counts components
        if kind is LossKind.CC_DICECE:
            if part is None and lab.count:
                part = voronoi_partition(lab, metric)
            inst = cc_instance_loss(vp, gt, lab, part, weights.w_dice, weights.w_ce)
        else:
            inst = blob_instance_loss(vp, gt, lab, weights.w_dice, weights.w_ce)
    except EmptyGroundTruthError:
        return LossValue(scalar, grad)

    def add(i):
        np.add(grad[i], np.multiply(inst.grad[i], weights.w_instance, out=inst.grad[i]),
               out=grad[i])

    _each_slab(add, grad)
    return LossValue(scalar + weights.w_instance * inst.scalar, grad)


def normalize_gradient(grad: np.ndarray) -> np.ndarray:
    """Rescale so the maximum magnitude is 1 (sign preserved).

    An all-zero gradient normalizes to all zeros.
    """
    peak = float(np.max(np.abs(grad))) if grad.size else 0.0
    return grad / peak if peak > 0.0 else np.zeros_like(grad)


def gradient_map(
    kind: LossKind | str,
    logits: LogitVolume,
    gt: BinaryMask,
    weights: LossWeights | None = None,
    *,
    metric: str = "voxel",
) -> tuple[np.ndarray, np.ndarray]:
    """Per-voxel gradient of the combined loss plus a per-panel normalized copy."""
    lv = combined_loss(kind, logits, gt, weights, metric=metric)
    return lv.grad, normalize_gradient(lv.grad)
