import numpy as np
import pytest

from lesionwise import Spacing, component_mask, label_components
from oracles import flood_fill_label, mk_mask


def test_empty_mask():
    lab = label_components(mk_mask(np.zeros((4, 4, 4))))
    assert lab.count == 0
    assert lab.voxel_lists == ()
    assert lab.volumes_vox.size == 0


def test_corner_touch_is_one_component():
    arr = np.zeros((3, 3, 3), dtype=bool)
    arr[0, 0, 0] = True
    arr[1, 1, 1] = True  # shares only a corner
    assert label_components(mk_mask(arr)).count == 1


def test_gap_of_one_voxel_is_two_components():
    arr = np.zeros((5, 1, 1), dtype=bool)
    arr[0, 0, 0] = True
    arr[2, 0, 0] = True
    assert label_components(mk_mask(arr)).count == 2


def test_matches_flood_fill_oracle_on_random_masks():
    rng = np.random.default_rng(5)
    sizes = [(8, 8, 8)] * 6 + [(16, 16, 16)] * 3 + [(32, 32, 32)]
    for i, size in enumerate(sizes):
        arr = rng.random(size) < (0.05 + 0.05 * (i % 4))
        lab = label_components(mk_mask(arr))
        count, oracle = flood_fill_label(arr)
        assert lab.count == count
        # both sides use first-encounter order, so labels match exactly
        assert np.array_equal(lab.labels, oracle)


def test_partition_invariants():
    rng = np.random.default_rng(9)
    arr = rng.random((12, 12, 12)) < 0.1
    mask = mk_mask(arr, Spacing(0.5, 1.0, 2.0))
    lab = label_components(mask)

    union = np.zeros_like(arr)
    for cid in range(1, lab.count + 1):
        cm = component_mask(lab, cid).voxels
        assert not (union & cm).any()  # pairwise disjoint
        union |= cm
    assert np.array_equal(union, arr)

    assert lab.volumes_vox.sum() == np.count_nonzero(arr)
    np.testing.assert_allclose(
        lab.volumes_mm3, lab.volumes_vox * mask.spacing.voxel_volume
    )


def test_labels_do_not_depend_on_spacing():
    rng = np.random.default_rng(2)
    arr = rng.random((10, 10, 10)) < 0.08
    a = label_components(mk_mask(arr, Spacing(1, 1, 1)))
    b = label_components(mk_mask(arr, Spacing(0.3, 2.0, 5.0)))
    assert np.array_equal(a.labels, b.labels)


def test_canonical_order_is_min_linear_index():
    rng = np.random.default_rng(4)
    arr = rng.random((10, 10, 10)) < 0.06
    lab = label_components(mk_mask(arr))
    firsts = []
    for vox in lab.voxel_lists:
        lins = [int(np.ravel_multi_index(v, lab.labels.shape, order="F")) for v in vox]
        assert lins == sorted(lins)  # within-component order is canonical too
        firsts.append(lins[0])
    assert firsts == sorted(firsts)


def test_component_mask_matches_oracle_partition():
    arr = np.zeros((9, 5, 3), dtype=bool)
    arr[0:2, 0:2, 0] = True
    arr[4:6, 0:2, 0] = True
    arr[8, 4, 2] = True
    lab = label_components(mk_mask(arr))
    assert lab.count == 3
    _, oracle = flood_fill_label(arr)
    cm = component_mask(lab, 2)
    assert np.array_equal(cm.voxels, oracle == 2)


def test_component_mask_rejects_bad_ids():
    arr = np.zeros((3, 3, 3), dtype=bool)
    arr[1, 1, 1] = True
    lab = label_components(mk_mask(arr))
    assert np.array_equal(component_mask(lab, 1).voxels, arr)  # identity
    for bad in (0, 2, -1):
        with pytest.raises(ValueError):
            component_mask(lab, bad)
