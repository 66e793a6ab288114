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

UNIT = Spacing(1.0, 1.0, 1.0)


def test_sixteen_balls_on_a_grid():
    comps = tuple(
        ComponentSpec(center=(4 + 8 * i, 4 + 8 * j, 4), kind="ball", size=1.0)
        for i in range(4)
        for j in range(4)
    )
    spec = PhantomSpec(Shape(32, 32, 9), UNIT, comps)
    _, lab = build_phantom(spec)
    assert lab.count == 16
    assert np.all(lab.volumes_vox == 7)  # radius-1 ball = center + 6 faces


def test_one_voxel_gap_is_rejected():
    comps = (
        ComponentSpec(center=(1, 1, 1), kind="box", size=(2, 2, 2)),
        ComponentSpec(center=(4, 1, 1), kind="box", size=(2, 2, 2)),  # gap of 1
    )
    with pytest.raises(ValueError, match="gap"):
        build_phantom(PhantomSpec(Shape(8, 8, 8), UNIT, comps))


def test_out_of_bounds_component_rejected():
    comps = (ComponentSpec(center=(0, 0, 0), kind="box", size=(3, 3, 3)),)
    with pytest.raises(ValueError, match="bounds"):
        build_phantom(PhantomSpec(Shape(4, 4, 4), UNIT, comps))


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
