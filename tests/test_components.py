import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from lesionwise import Spacing, label_components
from oracles import flood_fill_label, mk_mask


def _assert_matches_flood_fill(arr):
    lab = label_components(mk_mask(arr))
    count, oracle = flood_fill_label(arr)
    assert lab.count == count
    assert np.array_equal(lab.labels, oracle)
    assert lab.labels.dtype == np.int32
    assert np.array_equal(lab.volumes_vox, np.bincount(oracle.ravel(), minlength=count + 1)[1:])
    assert "voxel_lists" not in lab.__dict__  # built lazily, on first access only


def test_empty_mask():
    lab = label_components(mk_mask(np.zeros((4, 4, 4))))
    assert lab.count == 0
    assert lab.voxel_lists == ()
    assert lab.volumes_vox.size == 0


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("case", ["empty", "one-voxel", "corner-voxel", "full", "one-voxel-lattice"])
def test_edge_masks_match_flood_fill(case, order):
    shape = (1, 1, 1) if case == "one-voxel-lattice" else (5, 4, 3)
    arr = np.zeros(shape, dtype=bool, order=order)
    if case == "one-voxel":
        arr[2, 1, 1] = True
    elif case == "corner-voxel":
        arr[-1, -1, -1] = True
    elif case in ("full", "one-voxel-lattice"):
        arr[...] = True
    _assert_matches_flood_fill(arr)


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(*(st.integers(1, 7) for _ in range(3))),
    density=st.sampled_from([0.05, 0.2, 0.5, 0.8]),
    seed=st.integers(0, 2**32 - 1),
    order=st.sampled_from("CF"),
    faces=st.booleans(),
)
def test_labeling_matches_flood_fill_oracle(shape, density, seed, order, faces):
    arr = np.asarray(np.random.default_rng(seed).random(shape) < density, order=order)
    if faces:  # foreground on every face, so the crop is the whole lattice
        for axis in range(3):
            for end in (0, -1):
                idx = [slice(None)] * 3
                idx[axis] = end
                face = arr[tuple(idx)]
                face.flat[seed % face.size] = True
    _assert_matches_flood_fill(arr)


@pytest.mark.parametrize("perm", [[0, 3, 2, 1], [0, 1, 3, 2]], ids=["reversed", "first-kept"])
def test_permuted_scipy_numbering_is_rejected(monkeypatch, perm):
    real = ndimage.label  # label_components looks it up on each call

    def swapped(crop, structure, output):
        count = real(crop, structure=structure, output=output)
        output[...] = np.asarray(perm, dtype=output.dtype)[output]
        return count

    arr = np.zeros((5, 1, 1), dtype=bool)
    arr[0] = arr[2] = arr[4] = True
    monkeypatch.setattr(ndimage, "label", swapped)
    with pytest.raises(RuntimeError, match="scan order"):
        label_components(mk_mask(arr))


def test_voxel_lists_are_read_only_coordinates_in_scan_order():
    arr = np.zeros((4, 3, 2), dtype=bool)
    arr[3, 0, 0] = arr[2, 1, 0] = True  # one component, two voxels
    arr[0, 2, 1] = True
    lab = label_components(mk_mask(arr))
    vl = lab.voxel_lists
    assert [v.tolist() for v in vl] == [[[3, 0, 0], [2, 1, 0]], [[0, 2, 1]]]
    assert all(v.dtype == np.int32 and not v.flags.writeable for v in vl)
    assert lab.voxel_lists is vl  # cached


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
        cm = lab.labels == cid
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
    for cid in range(1, 4):
        assert np.array_equal(lab.labels == cid, oracle == cid)
