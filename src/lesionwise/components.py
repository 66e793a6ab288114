"""26-connectivity connected-component labeling and per-component geometry.

``label_components`` works on the foreground, not the lattice. It takes the
foreground's indices in the canonical x-fastest scan (one scan of the mask,
and no copy for an F-order mask, which is what the file readers give) and
groups them into maximal x-runs: a run starts wherever an index does not
follow its predecessor or lies at x = 0, so runs never cross a row end. Two
runs are 26-adjacent when their rows are 26-neighbours ((dy, dz) in
{-1, 0, 1}^2, not both 0) and their x-extents, each widened by one voxel,
overlap. The runs' last voxels ascend in scan order, so for each of the 8
neighbouring rows one sorted search of them finds, for every run, the first
run ending at or after the run's widened start shifted into that row; it
touches when it starts no later than the widened end, shifted alike. A
shift in y is masked off the first or last row of a z-plane, where it would
wrap into the next plane; a shift in z off the lattice finds no run. Every
adjacent pair is found from one side or the other: if B is not the first
run of its row to reach A, then A is the first of its row to reach B.

Union-find runs in numpy, in rounds: each round hooks every root to the
lowest root it touches, jumps pointers until every run points at its root,
and keeps only the pairs that still span two trees. A run only ever points
at a lower run, so a component's root is its first run in scan order, and
ranking the roots gives the canonical IDs with no remap and no check.
``labels`` is painted through the C-order index of each foreground voxel;
those indices, sorted, are kept on the labeling for the readers below.

Cost: one scan of the mask, then work in the foreground voxels, their runs
and the touching run pairs; an empty mask costs the scan and a zeroed label
lattice. Run indices and run pairs are ``int32`` when the lattice padded by
one row all round has fewer than 2**31 entries, else ``intp``; the C-order
voxel indices are ``intp``. Besides the 4 B/vox ``labels``, the labeling
keeps 8 bytes per foreground voxel (the sorted indices). The scan's
transients reach 17 bytes per foreground voxel (its indices, then their
remainders or their differences); on a mask of many short runs the run
pairs come on top. Traced with tracemalloc on 128x128x96, the whole call
peaked at 17.0 B/vox on an all-foreground mask and 20.8 B/vox on 30% salt
noise, whose 0.33 million runs touch in 1.05 million pairs. Dense noise is
the weak case in time too: about 170-180 ms there, over half of it in the
8 sorted searches, against about 60-67 ms for the all-foreground mask (2
CPUs). A mask of fewer than two runs skips ``_touching`` and ``_roots``, so
an empty 96x96x48 mask costs about 0.15-0.2 ms of numpy calls.
``tests/test_components.py`` bounds the peaks.

The sorted C-order flat indices of the labeled voxels are a private cached
value of the labeling, seeded by ``label_components`` and computed from
``labels`` on first read for a labeling built by hand.
``metrics.match_instances`` and ``voronoi._boundary_sites`` read the labeled
voxels there instead of scanning the lattice. Nothing here imports scipy.

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

    @cached_property
    def _foreground_flat(self) -> np.ndarray:
        """Sorted C-order flat indices of the labeled voxels (read-only);
        ``label_components`` seeds it, a labeling built by hand scans."""
        flat = np.flatnonzero(self.labels > 0)
        flat.setflags(write=False)
        return flat


# The rows (dy, dz) before a row in scan order that can hold its 26-neighbours;
# the rows after it are their mirror images.
_BACK_ROWS = ((-1, 0), (-1, -1), (0, -1), (1, -1))


def _runs(voxels: np.ndarray, itype) -> tuple[np.ndarray, np.ndarray]:
    """Maximal x-runs of the foreground in scan order: the x-fastest linear
    index of each run's first voxel, and its length."""
    idx = np.flatnonzero(voxels.ravel(order="F"))  # a view of an F-order mask
    new = idx % voxels.shape[0] == 0  # a voxel at x == 0 starts a run whatever precedes it
    new[:1] = True
    gap = np.diff(idx)
    gap -= 1  # nonzero where an index does not follow its predecessor
    np.logical_or(new[1:], gap, out=new[1:])
    del gap
    start = np.flatnonzero(new)
    return idx[start].astype(itype), np.diff(start, append=idx.size).astype(itype)


def _touching(first: np.ndarray, length: np.ndarray, shape) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every 26-adjacent pair of runs once, as run indices ``(hi, lo)``,
    ``hi > lo``, in 8 batches."""
    nx, ny = shape[:2]
    itype = first.dtype.type
    row, x0 = np.divmod(first, nx)
    y = row % ny
    # a row shifted in y must stay in its z-plane
    inside = {-1: y > 0, 1: y < ny - 1}
    # each run's extent widened by one voxel, clamped to its row
    lo = first - (x0 > 0)
    last = first + length - 1  # ascending: runs are disjoint and in scan order
    hi = last + (x0 + length < nx)
    del row, x0, y
    stop = np.append(first, np.iinfo(itype).max)  # past the last run: none, touches nothing

    def reach(dy, dz):
        """The first run of row (y + dy, z + dz) ending at or after each run's
        widened start, and whether it touches the run."""
        shift = (dy + dz * ny) * nx
        j = np.searchsorted(last, lo + shift).astype(itype)
        hit = stop[j] <= hi + shift
        if dy:
            hit &= inside[dy]
        return j, hit

    own = np.arange(first.size, dtype=itype)
    pairs = []
    for dy, dz in _BACK_ROWS:
        back, hit = reach(dy, dz)
        run = np.flatnonzero(hit).astype(itype)
        pairs.append((run, back[run]))
        ahead, hit = reach(-dy, -dz)
        hit &= back.take(ahead, mode="clip") != own  # else listed from the other side
        run = np.flatnonzero(hit).astype(itype)
        pairs.append((ahead[run], run))
    return pairs


def _roots(r: int, pairs: list[tuple[np.ndarray, np.ndarray]], itype) -> np.ndarray:
    """Per run, the lowest run of its component, from batches of touching
    pairs ``(hi, lo)``, ``hi > lo``."""
    parent = np.arange(r, dtype=itype)
    while pairs:
        for hi, lo in pairs:
            np.minimum.at(parent, hi, lo)  # each hi is a root: hook it to its lowest lo
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
        pending = []
        while pairs:  # pop each batch, so that it is freed once filtered
            hi, lo = pairs.pop()
            hi, lo = parent[hi], parent[lo]
            apart = np.flatnonzero(hi != lo)
            hi, lo = hi.take(apart), lo.take(apart)
            pending.append((np.maximum(hi, lo), np.minimum(hi, lo)))
        hi, lo = (np.concatenate(side) for side in zip(*pending))
        pairs = [(hi, lo)] if hi.size else []
    return parent


def _c_order(first: np.ndarray, length: np.ndarray, shape) -> np.ndarray:
    """The C-order flat index of every run voxel, run after run: voxel i of
    a run that starts at (x0, y, z) is at (x0 + i) * ny * nz + y * nz + z."""
    nx, ny, nz = shape
    row, x0 = np.divmod(first.astype(np.intp), nx)
    z, y = np.divmod(row, ny)
    skipped = np.cumsum(length, dtype=np.intp) - length  # voxels of the runs before
    flat = np.arange(int(length.sum())) * (ny * nz)
    flat += np.repeat((x0 - skipped) * (ny * nz) + y * nz + z, length)
    return flat


def label_components(mask: BinaryMask) -> ComponentLabeling:
    """Label the 26-connected components of a mask.

    IDs follow first-encounter order of the canonical x-fastest scan
    (equivalently: ascending minimal linear voxel index). A volume that is
    not a bool mask raises ``TypeError``.
    """
    require_masks(mask)
    shape = nx, ny, nz = mask.voxels.shape
    # int32 when every run index and row-shifted voxel index fits
    itype = np.int32 if (nx + 1) * (ny + 2) * (nz + 2) < 2**31 else np.intp
    first, length = _runs(mask.voxels, itype)
    if first.size < 2:  # no run to touch: each run is its own root
        root = np.arange(first.size, dtype=itype)
    else:
        root = _roots(first.size, _touching(first, length, shape), itype)
    rank = np.cumsum(root == np.arange(first.size), dtype=np.int32)  # the roots, ranked
    run_id = rank[root]
    count = int(rank[-1]) if rank.size else 0
    volumes_vox = np.bincount(run_id, weights=length, minlength=count + 1)[1:].astype(np.int64)

    flat = _c_order(first, length, shape)
    labels = np.zeros(shape, dtype=np.int32)
    labels.ravel()[flat] = np.repeat(run_id, length)
    flat.sort()
    flat.setflags(write=False)

    lab = ComponentLabeling(
        labels=labels,
        count=count,
        volumes_vox=volumes_vox,
        volumes_mm3=volumes_vox * mask.spacing.voxel_volume,
        spacing=mask.spacing,
        mask=mask,
    )
    lab.__dict__["_foreground_flat"] = flat  # seeds the cached property
    return lab


def _check_labeling(lab: ComponentLabeling, gt: BinaryMask) -> None:
    """Raise ``ValueError`` unless ``lab`` labels exactly ``gt``'s voxels on
    ``gt``'s grid, and ``TypeError`` unless they are a ``ComponentLabeling``
    and a ``BinaryMask``.

    O(1) when ``lab.mask is gt``: ``label_components(gt)`` made it. Any other
    labeling, built by hand or made from an equal but distinct mask, is
    checked in O(GT voxels) once ``gt`` has counted its foreground (one
    lattice pass, cached on the mask): its labeled voxels must be ``gt``'s,
    its IDs positive, and its ``volumes_vox`` and ``count`` those of its
    labels. The losses and ``metrics.cc_dice`` share it.
    """
    require_masks(gt)
    if not isinstance(lab, ComponentLabeling):
        raise TypeError(f"expected a ComponentLabeling, got {type(lab).__name__}")
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
