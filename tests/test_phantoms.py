import numpy as np
import pytest

from lesionwise import (
    ComponentSpec,
    PhantomSpec,
    Shape,
    Spacing,
    binarize,
    build_phantom,
    figure1_scenario,
    figure2_scenario,
    label_components,
    random_instances_spec,
    soft_dice_loss,
    voronoi_partition_bruteforce,
)
from oracles import closer_than_two_voxels

UNIT = Spacing(1.0, 1.0, 1.0)


def test_sixteen_boxes_on_a_grid():
    comps = tuple(
        ComponentSpec(center=(4 + 8 * i, 4 + 8 * j, 4), size=(3, 3, 3))
        for i in range(4)
        for j in range(4)
    )
    spec = PhantomSpec(Shape(32, 32, 9), UNIT, comps)
    _, lab = build_phantom(spec)
    assert lab.count == 16
    assert np.all(lab.volumes_vox == 27)


def test_one_voxel_gap_is_rejected():
    comps = (
        ComponentSpec(center=(1, 1, 1), size=(2, 2, 2)),
        ComponentSpec(center=(4, 1, 1), size=(2, 2, 2)),  # gap of 1
    )
    with pytest.raises(ValueError, match="gap"):
        build_phantom(PhantomSpec(Shape(8, 8, 8), UNIT, comps))


def test_out_of_bounds_component_rejected():
    comps = (ComponentSpec(center=(0, 0, 0), size=(3, 3, 3)),)
    with pytest.raises(ValueError, match="bounds"):
        build_phantom(PhantomSpec(Shape(4, 4, 4), UNIT, comps))


def _box_at(lo, size) -> ComponentSpec:
    return ComponentSpec(center=tuple(int(a + (d - 1) // 2) for a, d in zip(lo, size)),
                         size=tuple(int(d) for d in size))


def _box_pairs(rng, n_lattice=12):
    """(lo, size) pairs of boxes inside an n_lattice^3 grid: random ones, then
    ones at Chebyshev gap 2 and 3 along each axis and along all three at once."""
    def random_box():
        size = rng.integers(1, 5, 3)
        return rng.integers(0, n_lattice - size + 1), size

    pairs = [(random_box(), random_box()) for _ in range(400)]
    for gap in (2, 3):
        for axes in ([0], [1], [2], [0, 1, 2]):
            placed = 0
            while placed < 20:
                size_a, size_b = rng.integers(1, 4, 3), rng.integers(1, 4, 3)
                lo_a = rng.integers(0, n_lattice - size_a + 1)
                hi_a = lo_a + size_a - 1
                lo_b = lo_a + rng.integers(1 - size_b, size_a)  # projections overlap
                for ax in axes:  # b beyond a, or a beyond b
                    lo_b[ax] = (hi_a[ax] + gap if rng.random() < 0.5
                                else lo_a[ax] - gap - size_b[ax] + 1)
                if np.all(lo_b >= 0) and np.all(lo_b + size_b <= n_lattice):
                    pairs.append(((lo_a, size_a), (lo_b, size_b)))
                    placed += 1
    return pairs


def test_gap_rule_agrees_with_dilation_oracle():
    shape = Shape(12, 12, 12)
    verdicts = []
    for (lo_a, size_a), (lo_b, size_b) in _box_pairs(np.random.default_rng(13)):
        a = np.zeros(shape.as_tuple(), dtype=bool)
        b = np.zeros_like(a)
        a[tuple(map(slice, lo_a, lo_a + size_a))] = True
        b[tuple(map(slice, lo_b, lo_b + size_b))] = True
        close = closer_than_two_voxels(a, b)
        verdicts.append(close)
        spec = PhantomSpec(shape, UNIT, (_box_at(lo_a, size_a), _box_at(lo_b, size_b)))
        if close:
            with pytest.raises(ValueError, match="component 1 is closer"):
                build_phantom(spec)
        else:
            mask, lab = build_phantom(spec)
            assert lab.count == 2
            assert np.array_equal(mask.voxels, a | b)
    assert len(verdicts) >= 500
    assert sum(verdicts) >= 100 and len(verdicts) - sum(verdicts) >= 100


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ComponentSpec(center=(2, 2, 2), size=(2, 0, 2)), "box size"),
        (lambda: build_phantom(PhantomSpec(Shape(4, 4, 4), UNIT, ())),
         "at least one component"),
        (lambda: random_instances_spec(Shape(8, 8, 8), UNIT, 0, 0), "at least one component"),
        # no two boxes in a 3^3 grid leave two background voxels between them
        (lambda: random_instances_spec(Shape(3, 3, 3), UNIT, 2, 0), "could not place 2"),
        # spec order decides: component 1 is too close, component 2 leaves the grid
        (lambda: build_phantom(PhantomSpec(Shape(8, 8, 8), UNIT, (
            ComponentSpec(center=(1, 1, 1)), ComponentSpec(center=(3, 1, 1)),
            ComponentSpec(center=(9, 1, 1))))), "component 1 is closer"),
        # component 1 both leaves the grid and is too close: bounds are checked first
        (lambda: build_phantom(PhantomSpec(Shape(8, 8, 3), UNIT, (
            ComponentSpec(center=(1, 1, 1)), ComponentSpec(center=(1, 1, 3))))),
         r"component ComponentSpec\(center=\(1, 1, 3\).* exceeds the volume bounds"),
    ],
    ids=["bad-box-size", "no-components", "no-random-components", "unplaceable",
         "gap-before-later-bounds", "bounds-before-gap"],
)
def test_invalid_phantom_requests_raise(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_seeded_phantoms_are_deterministic():
    a = random_instances_spec(Shape(10, 10, 10), UNIT, 3, 123)
    b = random_instances_spec(Shape(10, 10, 10), UNIT, 3, 123)
    assert a == b
    mask_a, _ = build_phantom(a)
    mask_b, _ = build_phantom(b)
    assert np.array_equal(mask_a.voxels, mask_b.voxels)
    c = random_instances_spec(Shape(10, 10, 10), UNIT, 3, 124)
    assert c != a


def test_random_spec_yields_requested_component_count():
    for seed in range(6):
        n = 1 + seed % 4
        spec = random_instances_spec(Shape(8, 8, 8), UNIT, n, seed)
        _, lab = build_phantom(spec)
        assert lab.count == n


def test_figure1_geometry_and_loss_band():
    sc = figure1_scenario()
    lab = label_components(sc.gt)
    assert lab.count == 16
    assert sorted(lab.volumes_vox)[-3:] == [28, 36, 36]
    assert int(lab.volumes_vox.sum()) == 113

    # the partial prediction saturates exactly the 3 largest instances
    pred = binarize(sc.pred_partial)
    pred_lab = label_components(pred)
    assert pred_lab.count == 3
    assert int(pred_lab.volumes_vox.sum()) == 100

    f = 100 / 113
    closed_form = 1 - 2 * f / (1 + f)
    lv = soft_dice_loss(sc.pred_partial, sc.gt)
    assert lv.scalar == pytest.approx(closed_form, abs=1e-12)
    assert 0.055 <= lv.scalar <= 0.065


def test_figure2_construction_checks():
    sc = figure2_scenario()
    lab = label_components(sc.gt)
    assert lab.count == 2
    assert lab.volumes_vox[0] > lab.volumes_vox[1]  # component 1 is the large one

    part = voronoi_partition_bruteforce(lab)
    sizes = part.region_sizes()
    assert sizes[1] < sizes[0]  # the small component owns the smaller region

    assert np.all(part.region_of[sc.fp_blob] == 1)  # FP lies in the large region
    # the small component is entirely missed (all logits negative there)
    assert np.all(sc.logits.voxels[lab.labels == 2] < 0)
    assert np.all(np.abs(sc.logits.voxels) == 6.0)
