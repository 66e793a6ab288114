"""Nearest-component Voronoi partition of the full voxel lattice.

Every lattice voxel is assigned the ground-truth component that minimizes
the Euclidean distance to the component's voxel set. Two distance metrics
are supported:

* ``"voxel"`` (default): plain Euclidean distance on integer voxel indices.
  Squared distances are compared in exact int64 arithmetic, so tie handling
  is bit-deterministic.
* ``"physical"``: spacing-scaled Euclidean distance in mm.

Ties are broken toward the lower canonical component ID. The fast path runs
one exact Euclidean feature transform per component and keeps the strict
argmin while scanning IDs in ascending order, which realizes the tie policy
without any floating-point tie heuristics. ``voronoi_partition_bruteforce``
evaluates the defining minimization verbatim (min over every component
voxel) and serves as the conformance oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .components import ComponentLabeling

VALID_METRICS = ("voxel", "physical")


class EmptyGroundTruthError(ValueError):
    """A Voronoi partition was requested for a mask with zero components."""


@dataclass(frozen=True, eq=False)
class VoronoiPartition:
    """Dense nearest-component assignment over the lattice.

    ``region_of`` holds the winning component ID (1..count) for every voxel.
    Regions are pairwise disjoint and cover the lattice by construction.
    """

    region_of: np.ndarray
    count: int
    metric: str

    def __post_init__(self):
        self.region_of.setflags(write=False)

    def region_sizes(self) -> np.ndarray:
        return np.bincount(self.region_of.ravel(), minlength=self.count + 1)[1:]


def _check_metric(metric: str) -> None:
    if metric not in VALID_METRICS:
        raise ValueError(f"metric must be one of {VALID_METRICS}, got {metric!r}")


def _grids(shape):
    nx, ny, nz = shape
    gx = np.arange(nx, dtype=np.int64).reshape(nx, 1, 1)
    gy = np.arange(ny, dtype=np.int64).reshape(1, ny, 1)
    gz = np.arange(nz, dtype=np.int64).reshape(1, 1, nz)
    return gx, gy, gz


def _site_sq_dist(dx, dy, dz, metric: str, spacing):
    """Squared distance from integer axis deltas; int64 for the voxel metric."""
    if metric == "voxel":
        return dx * dx + dy * dy + dz * dz
    sx, sy, sz = spacing.as_tuple()
    return (dx * sx) ** 2 + (dy * sy) ** 2 + (dz * sz) ** 2


def voronoi_partition(lab: ComponentLabeling, metric: str = "voxel") -> VoronoiPartition:
    """Partition the lattice into nearest-component regions.

    One exact Euclidean feature transform per component; ascending-ID strict
    comparison implements the lowest-ID tie policy. O(count * lattice).
    """
    _check_metric(metric)
    if lab.count < 1:
        raise EmptyGroundTruthError("cannot build a Voronoi partition: no components")

    shape = lab.labels.shape
    gx, gy, gz = _grids(shape)
    sampling = lab.spacing.as_tuple() if metric == "physical" else None

    region = np.zeros(shape, dtype=np.int32)
    best = None
    for cid in range(1, lab.count + 1):
        feat = ndimage.distance_transform_edt(
            lab.labels != cid,
            sampling=sampling,
            return_distances=False,
            return_indices=True,
        )
        dx = gx - feat[0]
        dy = gy - feat[1]
        dz = gz - feat[2]
        d2 = _site_sq_dist(dx, dy, dz, metric, lab.spacing)
        if best is None:
            best = d2
            region[:] = cid
        else:
            closer = d2 < best
            region[closer] = cid
            np.minimum(best, d2, out=best)

    return VoronoiPartition(
        region_of=region,
        count=lab.count,
        metric=metric,
    )


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

    return VoronoiPartition(
        region_of=region,
        count=lab.count,
        metric=metric,
    )
