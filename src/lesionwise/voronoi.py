"""Nearest-component Voronoi regions: the dense partition and ``cc_dice``'s lookup.

A voxel belongs to the region of the ground-truth component that minimizes
the Euclidean distance to the component's voxel set. Two distance metrics
are supported:

* ``"voxel"`` (default): plain Euclidean distance on integer voxel indices,
  which is the physical metric at spacing (1, 1, 1). Squared distances are
  sums of integer squares below 2**53, so they are exact in float64 and tie
  handling is bit-deterministic.
* ``"physical"``: spacing-scaled Euclidean distance in mm.

Ties are broken toward the lower canonical component ID. The fast path runs
one exact Euclidean feature transform (EDT) per component and keeps the
strict argmin while scanning IDs in ascending order, which realizes the tie
policy without any floating-point tie heuristics. ``voronoi_partition_bruteforce``
evaluates the defining minimization verbatim (min over every component
voxel) and serves as the conformance oracle.

``voronoi_partition`` is the one public partition: it assigns every lattice
voxel and serves the loss set-up and the ``voronoi`` subcommand. Evaluation
reads regions only at the predicted voxels, so ``metrics.cc_dice`` calls
the private lookup ``_nearest_at``, which answers the same question at
given voxels with the same tie policy and never builds the dense partition
(see "Lookup" below).

Importing this module loads no part of scipy. ``scipy.ndimage`` is
imported inside its two users here, ``_windows`` (``find_objects``) and
``voronoi_partition`` (``distance_transform_edt``), and ``scipy.spatial``
inside ``_nearest_at``: each import costs a few hundred ms the first time
in a process and is a ``sys.modules`` lookup after that.

Windows
-------
Component c's EDT runs only on a window W_c, a box that holds every voxel
where c wins or ties. On a grid of 2x2x2 voxel blocks b:

* ``LB_c(b)`` is the squared distance from b to the bounding box of C_c,
  from per-axis integer gaps through the metric's own expression;
* ``UB(b)`` is the least, over all components c', squared distance from one
  fixed voxel p_c' of C_c' to the farthest voxel of b;
* W_c is the bounding box of the blocks with ``LB_c(b) <= UB(b)``.

If c wins or ties at v in b, then ``LB_c(b) <= d2_c(v) = d2_min(v) <= UB(b)``:
each rounded term of the expression is monotone in its gap, and every
component c' has ``d2_c'(v) <= |v - p_c'|^2``. So every minimizer of v sees
v, the others see a larger value or nothing, and the ascending strict merge
picks the lowest minimizer, as a full-lattice loop does. There is no margin
and no fallback. ``UB`` carries a 1e-9 relative slack, because scipy's float
EDT may return a voxel whose rounded physical distance is a few ulps above
the exact minimum; slack can only enlarge a window, and changes none on the
voxel metric while its integer bounds stay below 10**8. A window contains
the whole bounding box of its component, so its EDT solves
the same one-dimensional problems, over the same sites and with the same
integer coordinate differences, as a full-lattice transform.

Cost: one EDT over each window, sum of |W_c| voxels in all, plus integer
block arithmetic of about count * lattice / 8. On the benchmark's
``eval-lesions`` cases (2-30 lesions on 64^3-88^3) the windows sum to a
median of 2.4 lattices, where a full-lattice EDT per component costs count
lattices. A single component owns the lattice and needs no EDT. Peak
memory, measured with tracemalloc, is at most about 22 bytes per lattice
voxel on the voxel metric (int32 squared distances, exact for any lattice
with ``sum((n_i - 1)**2) < 2**31``, int64 above) and about 40 on the
physical metric (float64 distances and their temporaries). The windows and
this cost concern only the dense partition. A window can come close to the
whole lattice when a small component sits far from the others.

Lookup
------
``_nearest_at(lab, flat, metric)`` maps the voxels at C-order linear indices
``flat`` to their lowest-ID nearest components, equal to
``voronoi_partition(lab, metric).region_of.ravel()[flat]``, without building
the partition. It is ``cc_dice``'s lookup: ``metrics.cc_dice`` hands it the
indices of the predicted voxels, and it checks nothing: ``cc_dice`` has
checked the metric, the grid and the labeling, and has returned early on an
empty ground truth. It rests on one
lemma: under either metric, no interior voxel of a component C (one whose
6-neighbours inside the lattice all lie in C) is strictly nearer to a voxel
q outside C than every 6-boundary voxel of C. Proof: take a nearest voxel v
of C. If v is interior, step one voxel from v toward q along an axis where
they differ. That neighbour lies between v and q, so inside the lattice,
and hence in C. Its gap to q shrinks by one on that axis and is unchanged
on the others; each rounded square term of ``_site_sq_dist`` is monotone in
its gap and float addition is monotone, so the neighbour is no farther and
is again nearest. Each step cuts the L1 gap to q by one, and q is not in C,
so the walk ends at a nearest voxel that is not interior: a boundary voxel.

So every component at the least ``_site_sq_dist`` from q reaches it at a
boundary voxel. The sites are one boundary mask of the whole labeling: the
foreground voxels with an in-lattice 6-neighbour off the foreground. That is
exactly each component's own 6-boundary, because two 26-connected components
never touch, and each site's owner is its label. A ground-truth voxel maps
to its own label; one ``scipy.spatial.cKDTree`` over the sites answers the
rest. A query re-scores its k nearest sites with ``_site_sq_dist``, from
k = 2, and k doubles while the k-th tree distance lies within the
``_PHYS_SLACK`` relative slack of the first, as a site beyond could still
tie; so the answer does not depend on the order of the sites. Voxel-metric
tree distances are square roots of exact integers, so every tie is found
(sites the slack adds only raise k); physical ones may be a few ulps off,
and sites beyond the slack cannot tie after rounding. The lowest ID at the
least distance wins, as in the partition; there is no margin and no
fallback. The cost is one query per given voxel outside the ground truth,
plus one per doubling. Memory is O(given voxels + boundary voxels): the
boundary pass gathers the 6 neighbours of the labeling's cached foreground
indices and makes no lattice temporary. Measured with tracemalloc,
``cc_dice`` peaked at 1.0-4.2 bytes per lattice voxel on the benchmark's
seed-3 eval cases with two or more lesions (at most 1.03 on eval-lesions).

Why two algorithms
------------------
Each wins on the workload it serves. A loss needs every voxel's region: on
the benchmark's ``train-loss`` pools (seeds 3 and 40; 96^3; 2 CPUs; best of
3) the lookup at every voxel took 1.1-2.4 s per subject with 3-13 lesions
and the windowed EDT 0.16-0.25 s, with identical regions, and without
``_windows`` (one full-lattice EDT per component) a 4-subject pool took
1.3-1.6 s against 0.44-0.65 s. Evaluation needs regions only at the
predicted voxels, which the lookup reads without the dense partition. The
lookup has no public entry of its own: the tests compare it with
``voronoi_partition_bruteforce`` at every voxel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .components import ComponentLabeling

VALID_METRICS = ("voxel", "physical")


class EmptyGroundTruthError(ValueError):
    """A Voronoi partition was requested for a mask with zero components."""


@dataclass(frozen=True, eq=False)
class VoronoiPartition:
    """Dense nearest-component assignment over the lattice.

    ``region_of`` holds the winning component ID (1..count) for every voxel.
    Regions are pairwise disjoint and cover the lattice by construction.
    ``lab`` is the labeling partitioned; ``None`` for one built by hand.
    A partition built by hand must cover the lattice too: ``region_of``
    must hold integer IDs in 1..count, else ``ValueError``, checked by one
    min and one max over it.
    """

    region_of: np.ndarray
    count: int
    metric: str
    lab: ComponentLabeling | None = None

    def __post_init__(self):
        r = self.region_of
        if r.dtype.kind not in "iu" or r.min() < 1 or r.max() > self.count:
            raise ValueError(f"Voronoi partition must hold region IDs 1..{self.count} at every voxel")
        r.setflags(write=False)

    def region_sizes(self) -> np.ndarray:
        """Voxels in each region, counted once per partition (read-only)."""
        return self._region_sizes

    @cached_property
    def _region_sizes(self) -> np.ndarray:
        sizes = np.bincount(self.region_of.ravel(), minlength=self.count + 1)[1:]
        sizes.setflags(write=False)
        return sizes


def _check_metric(metric: str) -> None:
    if metric not in VALID_METRICS:
        raise ValueError(f"metric must be one of {VALID_METRICS}, got {metric!r}")


def _grids(shape, dtype=np.int64):
    nx, ny, nz = shape
    gx = np.arange(nx, dtype=dtype).reshape(nx, 1, 1)
    gy = np.arange(ny, dtype=dtype).reshape(1, ny, 1)
    gz = np.arange(nz, dtype=dtype).reshape(1, 1, nz)
    return gx, gy, gz


def _scale(metric: str, spacing) -> tuple[float, float, float]:
    """Per-axis length of one voxel step: the voxel metric is unit spacing."""
    return (1.0, 1.0, 1.0) if metric == "voxel" else spacing.as_tuple()


def _site_sq_dist(dx, dy, dz, metric: str, spacing):
    """Float64 squared distance from integer axis deltas, exact on the voxel metric."""
    sx, sy, sz = _scale(metric, spacing)
    return (dx * sx) ** 2 + (dy * sy) ** 2 + (dz * sz) ** 2


# Edge, in voxels, of the cubic blocks on which each window is bounded.
_BLOCK = 2
# Relative slack on float distances: scipy's float EDT and k-d tree pick their
# nearest voxels by float comparisons, so a rounded physical distance may sit a
# few ulps off the exact one.
_PHYS_SLACK = 1.0 + 1e-9


def _block_sq_dist(gaps, metric: str, spacing):
    """``_site_sq_dist`` of per-axis 1-D block gaps, broadcast to the block grid."""
    gx, gy, gz = gaps
    return _site_sq_dist(
        gx.reshape(-1, 1, 1), gy.reshape(1, -1, 1), gz.reshape(1, 1, -1), metric, spacing
    )


def _windows(lab: ComponentLabeling, metric: str) -> list[tuple[slice, slice, slice]]:
    """Per component, a box of voxels holding every voxel where it wins or ties.

    On the grid of ``_BLOCK``-cubed blocks, ``LB_c(b)`` is the squared distance
    from block b to the bounding box of component c and ``UB(b)`` the least,
    over all components, squared distance from one fixed voxel of the
    component to the farthest voxel of b. The window of c is the bounding box
    of the blocks with ``LB_c(b) <= UB(b)``.
    """
    from scipy import ndimage  # lazy: see the module docstring

    shape = lab.labels.shape
    lo = [np.arange(0, n, _BLOCK) for n in shape]
    hi = [np.minimum(b + _BLOCK - 1, n - 1) for b, n in zip(lo, shape)]
    boxes = ndimage.find_objects(lab.labels)

    ub = None
    for cid, box in enumerate(boxes, start=1):
        own = lab.labels[box] == cid
        site = [s.start + int(i) for s, i in zip(box, np.unravel_index(np.argmax(own), own.shape))]
        far = [np.maximum(abs(p - l), abs(p - h)) for p, l, h in zip(site, lo, hi)]
        d2 = _block_sq_dist(far, metric, lab.spacing)
        ub = d2 if ub is None else np.minimum(ub, d2, out=ub)
    ub *= _PHYS_SLACK

    windows = []
    for box in boxes:
        gaps = [
            np.maximum(np.maximum(s.start - h, l - (s.stop - 1)), 0)
            for s, l, h in zip(box, lo, hi)
        ]
        seen = _block_sq_dist(gaps, metric, lab.spacing) <= ub
        win = []
        for axis, n in enumerate(shape):
            hit = np.flatnonzero(seen.any(axis=tuple(a for a in range(3) if a != axis)))
            win.append(slice(int(hit[0]) * _BLOCK, min((int(hit[-1]) + 1) * _BLOCK, n)))
        windows.append(tuple(win))
    return windows


def voronoi_partition(lab: ComponentLabeling, metric: str = "voxel") -> VoronoiPartition:
    """Partition the lattice into nearest-component regions.

    One exact Euclidean feature transform per component, run only on that
    component's window (see the module docstring for the bound and its
    proof); ascending-ID strict comparison against the running best
    implements the lowest-ID tie policy. A single component needs no EDT.
    """
    from scipy import ndimage  # lazy: see the module docstring

    _check_metric(metric)
    if lab.count < 1:
        raise EmptyGroundTruthError("cannot build a Voronoi partition: no components")

    shape = lab.labels.shape
    if lab.count == 1:
        return VoronoiPartition(np.ones(shape, dtype=np.int32), 1, metric, lab)

    # Integer squares in place: float64 was 4-27% slower, peak 27-40 vs 18-33 B/vox.
    if metric == "voxel":
        dtype = np.int32 if sum((n - 1) ** 2 for n in shape) < 2**31 else np.int64
        best = np.full(shape, np.iinfo(dtype).max, dtype=dtype)
    else:
        best = np.full(shape, np.inf)

    region = np.zeros(shape, dtype=np.int32)
    for cid, win in enumerate(_windows(lab, metric), start=1):
        feat = ndimage.distance_transform_edt(
            lab.labels[win] != cid,
            sampling=_scale(metric, lab.spacing),
            return_distances=False,
            return_indices=True,
        )
        # Feature indices and the grid are both window-relative.
        for f, g in zip(feat, _grids(feat.shape[1:], np.int32)):
            f -= g
        if metric == "voxel":
            feat = feat.astype(dtype, copy=False)
            feat *= feat
            d2 = feat[0]
            d2 += feat[1]
            d2 += feat[2]
        else:  # an in-place float version peaked at 36-49 instead of 31-40 B/vox
            d2 = _site_sq_dist(feat[0], feat[1], feat[2], metric, lab.spacing)
        np.copyto(region[win], cid, where=d2 < best[win])
        np.minimum(best[win], d2, out=best[win])
        del feat, d2  # free this window's arrays before the next EDT allocates its own

    return VoronoiPartition(region, lab.count, metric, lab)


def _boundary_sites(lab: ComponentLabeling) -> np.ndarray:
    """(k, 3) foreground voxels with a 6-neighbour in the lattice off the foreground.

    Two 26-connected components never touch, so a foreground voxel's
    6-neighbours lie in its own component or off the foreground: one pass
    over the labeling's foreground is every component's 6-boundary. It reads
    the labeling's cached C-order foreground indices and gathers the labels
    of their 6 neighbours, so it costs O(foreground) and scans no lattice.
    """
    flat = lab._foreground_flat
    shape = lab.labels.shape
    labels = lab.labels.ravel()
    coords = np.unravel_index(flat, shape)
    edge = np.zeros(flat.size, dtype=bool)
    step = 1  # the C-order stride of the axis
    for axis in (2, 1, 0):
        c = coords[axis]
        edge |= (c > 0) & (labels.take(flat - step, mode="clip") <= 0)
        edge |= (c < shape[axis] - 1) & (labels.take(flat + step, mode="clip") <= 0)
        step *= shape[axis]
    return np.stack([c[edge] for c in coords], axis=1)


def _nearest_at(lab: ComponentLabeling, flat: np.ndarray, metric: str) -> np.ndarray:
    """Lowest-ID nearest component (int32, 1..count) at the C-order linear
    indices ``flat``: ``voronoi_partition(lab, metric).region_of.ravel()[flat]``.

    Unchecked: ``metric`` must be valid and ``lab`` must have a component.
    See "Lookup" in the module docstring for the lemma that makes it exact.
    """
    if lab.count == 1:
        return np.ones(flat.size, dtype=np.int32)
    region = lab.labels.ravel()[flat]
    todo = np.flatnonzero(region == 0)
    if todo.size == 0:
        return region
    from scipy.spatial import cKDTree  # lazy: importing scipy.spatial is slow

    points = np.stack(np.unravel_index(flat[todo], lab.labels.shape), axis=1)
    sites = _boundary_sites(lab)
    owner = lab.labels[tuple(sites.T)]
    scale = _scale(metric, lab.spacing)
    tree = cKDTree(sites * scale)
    k = 2
    while todo.size:
        k = min(k, len(sites))
        dist, idx = tree.query(points * scale, k=k)
        gap = points[:, None, :] - sites[idx]
        d2 = _site_sq_dist(gap[..., 0], gap[..., 1], gap[..., 2], metric, lab.spacing)
        ties = d2 == d2.min(axis=1, keepdims=True)
        region[todo] = np.where(ties, owner[idx], lab.count + 1).min(axis=1)
        if k == len(sites):
            break
        again = dist[:, -1] <= dist[:, 0] * _PHYS_SLACK
        todo, points, k = todo[again], points[again], 2 * k
    return region


def voronoi_partition_bruteforce(
    lab: ComponentLabeling, metric: str = "voxel"
) -> VoronoiPartition:
    """Literal nearest-site evaluation: exhaustive min over every component voxel.

    O(lattice * foreground) — intended for conformance testing at small sizes.
    """
    _check_metric(metric)
    if lab.count < 1:
        raise EmptyGroundTruthError("cannot build a Voronoi partition: no components")

    shape = lab.labels.shape
    gx, gy, gz = _grids(shape)

    region = np.zeros(shape, dtype=np.int32)
    best = None
    for cid in range(1, lab.count + 1):
        d2 = None
        for sx_, sy_, sz_ in lab.voxel_lists[cid - 1]:
            site_d2 = _site_sq_dist(
                gx - int(sx_), gy - int(sy_), gz - int(sz_), metric, lab.spacing
            )
            d2 = site_d2 if d2 is None else np.minimum(d2, site_d2)
        if best is None:
            best = d2
            region[:] = cid
        else:
            closer = d2 < best
            region[closer] = cid
            np.minimum(best, d2, out=best)

    return VoronoiPartition(region, lab.count, metric, lab)
