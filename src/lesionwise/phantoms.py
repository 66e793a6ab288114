"""Deterministic synthetic volumes for tests, demos and the CLI.

Every component is an axis-aligned box. One predicate on inclusive box
corners, ``_too_close``, keeps at least two background voxels (a Chebyshev
gap of 3 or more) between any two boxes, both where ``build_phantom`` checks
a spec and where ``random_instances_spec`` places boxes, so the painted
instance count always equals the labeled 26-connected component count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .components import ComponentLabeling, label_components
from .losses import LOGIT_CLAMP
from .volumes import BinaryMask, LogitVolume, Shape, Spacing

_GAP = 3  # least Chebyshev gap between boxes: two background voxels in between
_EXTENT = 3  # longest side of a random box
_TRIES = 2000  # boxes drawn by random_instances_spec before it gives up


@dataclass(frozen=True)
class ComponentSpec:
    """One instance: an axis-aligned box of ``size`` (dx, dy, dz) voxels.

    The box spans ``center - (size - 1) // 2`` onward per axis. Boxes of one
    phantom must leave at least two background voxels between each other
    (the one gap rule, ``_too_close``).
    """

    center: tuple[int, int, int]
    size: tuple[int, int, int] = (1, 1, 1)

    def __post_init__(self):
        if len(self.size) != 3 or any(int(d) < 1 for d in self.size):
            raise ValueError(f"box size must be three positive ints, got {self.size!r}")


@dataclass(frozen=True)
class PhantomSpec:
    shape: Shape
    spacing: Spacing
    components: tuple[ComponentSpec, ...]


_Box = tuple[np.ndarray, np.ndarray]  # inclusive lowest and highest voxel index


def _corners(comp: ComponentSpec) -> _Box:
    size = np.array([int(d) for d in comp.size])
    lo = np.array(comp.center) - (size - 1) // 2
    return lo, lo + size - 1


def _slices(box: _Box) -> tuple[slice, ...]:
    lo, hi = box
    return tuple(map(slice, lo, hi + 1))


def _too_close(a: _Box, b: _Box) -> bool:
    """Whether fewer than two background voxels separate boxes ``a`` and ``b``."""
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    return np.max(np.maximum(b_lo - a_hi, a_lo - b_hi)) < _GAP


def build_phantom(spec: PhantomSpec) -> tuple[BinaryMask, ComponentLabeling]:
    """Paint the phantom and label it; exactly one component per spec entry.

    Components are checked in spec order, each against the volume bounds and
    then against the earlier ones. Raises ValueError at the first that leaves
    the volume or comes closer than a two-voxel background gap (Chebyshev
    distance < 3) to an earlier one. A box is one 26-connected component and
    the gap keeps boxes from touching, so the labeling finds one per entry.
    """
    if not spec.components:
        raise ValueError("phantom needs at least one component")
    painted = np.zeros(spec.shape.as_tuple(), dtype=bool)
    boxes: list[_Box] = []
    for i, comp in enumerate(spec.components):
        lo, hi = box = _corners(comp)
        if np.any(lo < 0) or np.any(hi >= spec.shape.as_tuple()):
            raise ValueError(f"component {comp} exceeds the volume bounds")
        if any(_too_close(box, earlier) for earlier in boxes):
            raise ValueError(
                f"component {i} is closer than the required 2-voxel gap to an earlier one"
            )
        boxes.append(box)
        painted[_slices(box)] = True

    mask = BinaryMask(painted, spec.spacing)
    return mask, label_components(mask)


def random_instances_spec(
    shape: Shape, spacing: Spacing, n_components: int, seed: int
) -> PhantomSpec:
    """Randomly place ``n_components`` well-separated boxes; deterministic per seed."""
    if n_components < 1:
        raise ValueError("need at least one component")
    rng = np.random.default_rng(seed)
    comps: list[ComponentSpec] = []
    for _ in range(_TRIES):
        if len(comps) == n_components:
            break
        dims = np.array([rng.integers(1, min(_EXTENT, n) + 1) for n in shape.as_tuple()])
        lo = np.array([rng.integers(0, n - d + 1) for n, d in zip(shape.as_tuple(), dims)])
        center = tuple(int(c) for c in lo + (dims - 1) // 2)
        comp = ComponentSpec(center, tuple(int(d) for d in dims))
        if not any(_too_close(_corners(comp), _corners(placed)) for placed in comps):
            comps.append(comp)
    if len(comps) < n_components:
        raise ValueError(
            f"could not place {n_components} separated components in {shape.as_tuple()}"
        )
    return PhantomSpec(shape=shape, spacing=spacing, components=tuple(comps))


def _saturated(fg: np.ndarray, spacing: Spacing) -> LogitVolume:
    return LogitVolume(np.where(fg, LOGIT_CLAMP, -LOGIT_CLAMP), spacing)


class Figure1Scenario(NamedTuple):
    gt: BinaryMask
    pred_perfect: LogitVolume
    pred_partial: LogitVolume


def figure1_scenario() -> Figure1Scenario:
    """16-instance phantom where the 3 largest instances carry ~88.5% of the
    foreground volume.

    ``pred_partial`` saturates exactly those 3 instances and is background
    elsewhere, so the per-instance Dice-part loss is exactly 13/16 = 0.8125
    while the global soft-Dice loss is 13/213 ~ 0.061. ``pred_perfect``
    saturates all 16.
    """
    shape = Shape(38, 38, 9)
    spacing = Spacing(1.0, 1.0, 1.0)
    starts = (3, 12, 21, 30)

    big = [
        ComponentSpec(center=(4, 4, 4), size=(4, 3, 3)),  # 36 vox
        ComponentSpec(center=(4, 13, 4), size=(4, 3, 3)),  # 36 vox
        ComponentSpec(center=(6, 21, 3), size=(7, 2, 2)),  # 28 vox
    ]
    small = [
        ComponentSpec(center=(starts[i] + 2, starts[j] + 2, 4))
        for i in range(4)
        for j in range(4)
        if not (i == 0 and j < 3)  # cells taken by the big instances
    ]
    spec = PhantomSpec(shape, spacing, tuple(big + small))
    gt, _ = build_phantom(spec)

    big_fg = np.zeros(shape.as_tuple(), dtype=bool)
    for comp in big:
        big_fg[_slices(_corners(comp))] = True
    return Figure1Scenario(
        gt=gt,
        pred_perfect=_saturated(gt.voxels, spacing),
        pred_partial=_saturated(big_fg, spacing),
    )


class Figure2Scenario(NamedTuple):
    gt: BinaryMask
    logits: LogitVolume
    fp_blob: np.ndarray  # bool grid of the false-positive blob


def figure2_scenario() -> Figure2Scenario:
    """Two unequal instances: the large one predicted (plus a false-positive
    blob inside its Voronoi region), the small corner one missed entirely.

    Logits are +/-6: confident but unsaturated, so the cross-entropy term
    dominates the gradients. Under the region-restricted loss the missed
    component's small Voronoi region concentrates its gradient (the panel
    peak sits on the false negative), while under the blob loss the false
    positive feeds every component's term and carries the peak instead.
    """
    shape = Shape(32, 16, 3)
    spacing = Spacing(1.0, 1.0, 1.0)
    spec = PhantomSpec(
        shape,
        spacing,
        (
            ComponentSpec(center=(5, 6, 1), size=(8, 6, 1)),  # large
            ComponentSpec(center=(27, 12, 1), size=(2, 2, 1)),  # small
        ),
    )
    gt, _ = build_phantom(spec)

    fp = np.zeros(shape.as_tuple(), dtype=bool)
    fp[14:16, 1:3, 1] = True

    fg = fp.copy()
    fg[_slices(_corners(spec.components[0]))] = True  # the large instance
    logits = LogitVolume(np.where(fg, 6.0, -6.0), spacing)
    return Figure2Scenario(gt=gt, logits=logits, fp_blob=fp)
