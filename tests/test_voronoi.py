import numpy as np
import pytest

from lesionwise import (
    EmptyGroundTruthError,
    Shape,
    Spacing,
    build_phantom,
    label_components,
    random_instances_spec,
    voronoi_partition,
    voronoi_partition_bruteforce,
)
from oracles import mk_mask

# Spacings whose squares are exactly representable keep the physical-metric
# float arithmetic exact at test scale, so tie comparisons are deterministic.
DYADIC = Spacing(0.5, 1.0, 2.0)


def test_single_component_owns_everything():
    arr = np.zeros((6, 5, 4), dtype=bool)
    arr[2:4, 2, 1] = True
    lab = label_components(mk_mask(arr))
    part = voronoi_partition(lab)
    assert np.all(part.region_of == 1)
    assert part.region_sizes().tolist() == [6 * 5 * 4]


def test_two_sites_on_a_line_with_midpoint_tie():
    arr = np.zeros((5, 1, 1), dtype=bool)
    arr[0, 0, 0] = True
    arr[4, 0, 0] = True
    lab = label_components(mk_mask(arr))
    for fn in (voronoi_partition, voronoi_partition_bruteforce):
        part = fn(lab)
        # x=2 is equidistant; the lower component id wins
        assert part.region_of[:, 0, 0].tolist() == [1, 1, 1, 2, 2]


def test_symmetric_sites_tie_toward_lower_id():
    arr = np.zeros((7, 7, 1), dtype=bool)
    arr[1, 3, 0] = True
    arr[5, 3, 0] = True
    lab = label_components(mk_mask(arr))
    part = voronoi_partition(lab)
    assert np.all(part.region_of[3, :, 0] == 1)  # the whole midline ties


@pytest.mark.parametrize("metric", ["voxel", "physical"])
def test_fast_equals_bruteforce_on_random_masks(metric):
    for seed in range(12):
        n = 1 + seed % 5
        spec = random_instances_spec(Shape(12, 12, 12), DYADIC, n, 100 + seed)
        _, lab = build_phantom(spec)
        fast = voronoi_partition(lab, metric)
        brute = voronoi_partition_bruteforce(lab, metric)
        assert np.array_equal(fast.region_of, brute.region_of)


def test_partition_invariants_hold():
    for seed in (0, 1, 2):
        spec = random_instances_spec(Shape(10, 10, 10), DYADIC, 3, 40 + seed)
        _, lab = build_phantom(spec)
        part = voronoi_partition(lab)
        assert part.region_of.min() >= 1 and part.region_of.max() <= lab.count
        assert int(part.region_sizes().sum()) == 1000
        for cid in range(1, lab.count + 1):
            own = lab.labels == cid
            assert np.all(part.region_of[own] == cid)  # C subset of R_C


def test_isotropic_physical_equals_voxel_partition():
    # s = 1.5: s^2 = 2.25 is dyadic, so scaled squared distances stay exact
    spec = random_instances_spec(Shape(14, 14, 6), Spacing(1.5, 1.5, 1.5), 4, 77)
    _, lab = build_phantom(spec)
    vox = voronoi_partition(lab, "voxel")
    phys = voronoi_partition(lab, "physical")
    assert np.array_equal(vox.region_of, phys.region_of)


def test_empty_ground_truth_raises():
    lab = label_components(mk_mask(np.zeros((3, 3, 3))))
    with pytest.raises(EmptyGroundTruthError):
        voronoi_partition(lab)
    with pytest.raises(EmptyGroundTruthError):
        voronoi_partition_bruteforce(lab)


def test_invalid_metric_rejected():
    arr = np.zeros((3, 3, 3), dtype=bool)
    arr[1, 1, 1] = True
    lab = label_components(mk_mask(arr))
    with pytest.raises(ValueError):
        voronoi_partition(lab, "chebyshev")
