import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionwise import ComponentLabeling, Spacing, label_components
from lesionwise.metrics import match_instances
from lesionwise.voronoi import _boundary_sites
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
    # x-extents 1 and 2 are drawn often: there a run ending at x = nx - 1 and
    # the next row's voxel at x = 0 are 26-adjacent, at nx >= 3 they are not
    shape=st.tuples(st.one_of(st.sampled_from([1, 2]), st.integers(1, 7)),
                    st.integers(1, 7), st.integers(1, 7)),
    density=st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]),
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


@pytest.mark.parametrize("nx", [1, 2, 3])
@pytest.mark.parametrize("step", [(1, 0), (0, 1), (-1, 1)], ids=["next-y", "next-z", "prev-y-next-z"])
def test_runs_meet_across_a_row_end_only_within_one_voxel(nx, step):
    # x = nx - 1 in one row and x = 0 in a neighbouring row are 26-adjacent iff nx <= 2
    dy, dz = step
    arr = np.zeros((nx, 2, 2), dtype=bool)
    arr[nx - 1, max(-dy, 0), 0] = True
    arr[0, max(dy, 0), dz] = True
    assert label_components(mk_mask(arr)).count == (1 if nx <= 2 else 2)
    _assert_matches_flood_fill(arr)


def _by_hand(lab, order="C"):
    """A copy of ``lab`` built by hand: no mask, no seeded cache."""
    return ComponentLabeling(np.array(lab.labels, order=order), lab.count, lab.volumes_vox.copy(),
                             lab.volumes_mm3.copy(), lab.spacing)


def _masks(seed):
    rng = np.random.default_rng(seed)
    for shape, density in [((9, 7, 5), 0.3), ((6, 1, 4), 0.6), ((1, 5, 5), 0.5), ((8, 8, 8), 0.02),
                           ((12, 10, 6), 0.1), ((4, 4, 4), 0.0), ((3, 3, 3), 1.0)]:
        arr = rng.random(shape) < density
        for order in "CF":
            yield mk_mask(np.asarray(arr, order=order))


def test_seeded_foreground_index_is_the_one_labels_give():
    for mask in _masks(11):
        lab = label_components(mask)
        seeded = lab.__dict__["_foreground_flat"]  # set by label_components, not computed
        assert not seeded.flags.writeable
        assert np.array_equal(seeded, np.flatnonzero(lab.labels))
        assert np.array_equal(seeded, _by_hand(lab)._foreground_flat)
        assert not _by_hand(lab)._foreground_flat.flags.writeable


def test_readers_of_the_foreground_index_agree_on_a_labeling_built_by_hand():
    matched = 0
    for a, b in zip(_masks(12), _masks(13)):  # the same shapes, other voxels
        la, lb = label_components(a), label_components(b)
        match = match_instances(la, lb)
        matched += len(match.pairs)
        for order in "CF":
            assert match_instances(_by_hand(la, order), _by_hand(lb, order)) == match
        assert match_instances(la, la).pairs == tuple((i, i) for i in range(1, la.count + 1))
    assert matched >= 10
    for mask in _masks(12):
        lab = label_components(mask)
        for order in "CF":
            assert np.array_equal(_boundary_sites(_by_hand(lab, order)), _boundary_sites(lab))


def _traced_peak_per_voxel(mask):
    tracemalloc.start()
    try:
        label_components(mask)
        return tracemalloc.get_traced_memory()[1] / mask.voxels.size
    finally:
        tracemalloc.stop()


# Traced peaks with numpy 2.4: 17.0, 21.5 and 6.8 B/vox. The bounds leave
# about a tenth for other numpy versions; dense masks are the labeler's weak case.
@pytest.mark.parametrize("case, bound", [("all-foreground", 18.7), ("salt-30%", 23.7),
                                         ("speckle-4.5%", 7.5)])
def test_labeling_memory_per_voxel_is_bounded(case, bound):
    rng = np.random.default_rng(31)
    if case == "all-foreground":
        arr = np.ones((128, 128, 96), dtype=bool)
    elif case == "salt-30%":
        arr = rng.random((128, 128, 96)) < 0.3
    else:  # the noisiest eval-speckle prediction: thick slices of sparse noise
        arr = rng.random((128, 128, 64)) < 0.045
    peak = _traced_peak_per_voxel(mk_mask(np.asfortranarray(arr)))  # F order, as files give
    assert peak < bound, f"{case}: {peak:.2f} B/vox"


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
