"""26-connectivity connected-component labeling and per-component geometry.

``label_components`` makes one ``scipy.ndimage.label`` call, on the
transposed view of the foreground's bounding box. scipy numbers components
by first encounter in the C-order scan of its input, and the C-order scan of
the transposed (z, y, x) view is the canonical x-fastest scan of the mask,
so scipy's IDs are already the canonical ones and no remap is needed. This
is an observed property of scipy's labeler, not a documented one, so every
call checks it in O(foreground): read in scan order, the nonzero labels
start at 1 and their running maximum never rises by more than 1. A scipy
whose numbering breaks this raises ``RuntimeError``; there is no fallback.

scipy is handed a fresh contiguous output array, and the labeled crop is
then pasted into a zero lattice. Labeling straight into a strided view of
the lattice is not equivalent: with a non-contiguous output scipy 1.17.1
was seen to return a different numbering.

``scipy.ndimage`` is imported inside ``label_components``, not when the
module loads, so ``import lesionwise`` loads numpy and the package's own
modules and no part of scipy. A fresh interpreter takes 0.4-0.6 s to
import ``scipy.ndimage`` and about 0.2 s to import ``lesionwise`` (medians
of 7, 2 CPUs); the first labeling in a process pays the former once, and
each later call finds the module in ``sys.modules``.

``ComponentLabeling.mask`` is the mask object ``label_components``
labeled (``None`` for a labeling built by hand), so the labeling keeps its
mask alive. It makes ``_check_labeling(lab, gt)``, the one labeling check
of the losses and ``metrics.cc_dice``, O(1) when ``lab.mask is gt``; any
other labeling, including one of an equal but distinct mask, is checked in
O(GT). Either way the labeling must be on ``gt``'s grid: the same shape, and
the same spacing within ``SPACING_RTOL``.

``ComponentLabeling.voxel_lists`` (per-component voxel coordinates),
``foreground_coords`` (the coordinates of every foreground voxel, in C
order) and ``foreground_ids`` (their component IDs) are built lazily on
first access and cached; they are pure functions of the labels. Only the
brute-force reference partition and tests read the lists; the instance
losses read the coordinates and IDs, once per labeling rather than once per
call. The labeling itself builds none of them, and evaluation never reads
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .volumes import BinaryMask, Spacing, require_masks

# Full 3x3x3 structuring element: faces, edges and corners all connect.
_STRUCTURE_26 = np.ones((3, 3, 3), dtype=bool)


@dataclass(frozen=True, eq=False)
class ComponentLabeling:
    """Result of labeling a binary mask.

    ``labels`` assigns 0 to background and 1..count to foreground components.
    Component IDs are canonical: sorted by each component's minimal linear
    voxel index (x-fastest scan order), so labeling is fully deterministic
    and downstream tie-breaking can rely on the IDs.
    """

    labels: np.ndarray
    count: int
    volumes_vox: np.ndarray
    volumes_mm3: np.ndarray
    spacing: Spacing
    mask: BinaryMask | None = None  # the mask labeled, trusted by _check_labeling

    def __post_init__(self):
        self.labels.setflags(write=False)
        self.volumes_vox.setflags(write=False)
        self.volumes_mm3.setflags(write=False)

    @cached_property
    def voxel_lists(self) -> tuple[np.ndarray, ...]:
        """Per component, its (k, 3) int32 voxel coordinates in scan order."""
        if self.count == 0:
            return ()
        flat = self.labels.ravel(order="F")  # positions are linear indices
        pos = np.flatnonzero(flat)
        pos = pos[np.argsort(flat[pos], kind="stable")]
        coords = np.stack(np.unravel_index(pos, self.labels.shape, order="F"), axis=1)
        lists = np.split(coords.astype(np.int32), np.cumsum(self.volumes_vox)[:-1])
        for v in lists:
            v.setflags(write=False)
        return tuple(lists)

    @cached_property
    def foreground_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, y, z) ``intp`` coordinates of every foreground voxel, in C order."""
        coords = np.nonzero(self.labels)
        for c in coords:
            c.setflags(write=False)
        return coords

    @cached_property
    def foreground_ids(self) -> np.ndarray:
        """Component ID of every foreground voxel in C order, as ``intp``."""
        ids = self.labels[self.foreground_coords].astype(np.intp)
        ids.setflags(write=False)
        return ids


# At least 4.5x faster than ndimage.find_objects, 88^3 to 256x256x160, 2 CPUs.
def _foreground_box(voxels: np.ndarray) -> tuple[slice, ...] | None:
    """Bounding box of the foreground as slices, or None if there is none."""
    xy = voxels.any(axis=2)
    box = []
    for hit in (xy.any(axis=1), xy.any(axis=0), voxels.any(axis=(0, 1))):
        (ids,) = np.nonzero(hit)
        if ids.size == 0:
            return None
        box.append(slice(int(ids[0]), int(ids[-1]) + 1))
    return tuple(box)


def label_components(mask: BinaryMask) -> ComponentLabeling:
    """Label the 26-connected components of a mask.

    IDs follow first-encounter order of the canonical x-fastest scan
    (equivalently: ascending minimal linear voxel index). A volume that is
    not a bool mask raises ``TypeError``.
    """
    from scipy import ndimage  # lazy: see the module docstring

    require_masks(mask)
    labels = np.zeros(mask.voxels.shape, dtype=np.int32)
    count, fg = 0, np.zeros(0, dtype=np.int32)
    box = _foreground_box(mask.voxels)
    if box is not None:
        crop = mask.voxels[box].T
        raw = np.empty(crop.shape, dtype=np.int32)  # contiguous: see module docstring
        count = int(ndimage.label(crop, structure=_STRUCTURE_26, output=raw))
        # raw's C order is the crop's x-fastest scan order.
        flat = raw.ravel()
        fg = flat[flat != 0]
        if fg[0] != 1 or np.any(np.diff(np.maximum.accumulate(fg)) > 1):
            raise RuntimeError("scipy.ndimage.label did not number components in scan order")
        labels[box] = raw.T

    volumes_vox = np.bincount(fg, minlength=count + 1)[1:].astype(np.int64)
    return ComponentLabeling(
        labels=labels,
        count=count,
        volumes_vox=volumes_vox,
        volumes_mm3=volumes_vox * mask.spacing.voxel_volume,
        spacing=mask.spacing,
        mask=mask,
    )


def _check_labeling(lab: ComponentLabeling, gt: BinaryMask) -> None:
    """Raise ``ValueError`` unless ``lab`` labels exactly ``gt``'s voxels on
    ``gt``'s grid.

    O(1) when ``lab.mask is gt``: ``label_components(gt)`` made it. Any other
    labeling, built by hand or made from an equal but distinct mask, is
    checked in O(GT voxels) once ``gt`` has counted its foreground (one
    lattice pass, cached on the mask): its labeled voxels must be ``gt``'s,
    its IDs positive, and its ``volumes_vox`` and ``count`` those of its
    labels. The losses
    and ``metrics.cc_dice`` share it.
    """
    if lab.mask is gt:
        return
    if lab.labels.shape != gt.voxels.shape or not lab.spacing.isclose(gt.spacing):
        raise ValueError("component labeling shape or spacing does not match the volume")
    coords, ids = lab.foreground_coords, lab.foreground_ids
    # as many GT voxels as labeled ones, each labeled voxel in the GT, and
    # positive IDs whose counts are the sizes that the losses and cc_dice read
    if gt.foreground_count != coords[0].size or not gt.voxels[coords].all() or np.any(ids < 0) \
            or not np.array_equal(np.bincount(ids, minlength=lab.count + 1)[1:], lab.volumes_vox):
        raise ValueError(
            "component labeling covers other voxels than the ground truth, or "
            "gives its components other sizes; label this ground truth"
        )
