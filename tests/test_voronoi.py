import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lesionwise import (
    EmptyGroundTruthError,
    Shape,
    Spacing,
    build_phantom,
    case_metrics,
    label_components,
    random_instances_spec,
    voronoi_partition,
    voronoi_partition_bruteforce,
)
import lesionwise.metrics
from lesionwise.voronoi import _boundary_sites, _nearest_at, _windows
from oracles import UNIT, boundary_voxels, mk_mask

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


# Spacings whose squares round: physical distances, and so ties, carry float error.
NON_DYADIC = (Spacing(0.9, 0.9, 3.0), Spacing(0.7, 1.3, 2.1))


@pytest.mark.parametrize("spacing", (DYADIC, *NON_DYADIC),
                         ids=("dyadic", "0.9-0.9-3", "0.7-1.3-2.1"))
@pytest.mark.parametrize("metric", ["voxel", "physical"])
def test_fast_equals_bruteforce_on_random_masks(metric, spacing):
    for seed in range(12):
        n = 1 + seed % 5
        spec = random_instances_spec(Shape(12, 12, 12), spacing, n, 100 + seed)
        _, lab = build_phantom(spec)
        fast = voronoi_partition(lab, metric)
        brute = voronoi_partition_bruteforce(lab, metric)
        assert np.array_equal(fast.region_of, brute.region_of)


@st.composite
def tie_heavy_masks(draw):
    """Single-voxel sites on the even sublattice of a line, a plane or the box.

    Distinct even points are never 26-adjacent, so each site starts as its own
    component; mirrored copies (x -> n-1-x) make exact ties, touch the far
    border when the site touches the near one, and may merge with a site at
    the seam. Axes of 1 or of odd length leave partial 2-blocks.
    """
    free = draw(st.sampled_from([(0, 1, 2), (0, 1), (1, 2), (0, 2), (0,), (1,), (2,)]))
    # free axes long enough for 8 even sites: 15 on a line, 5x5 on a plane, 4^3
    lo = {1: 15, 2: 5, 3: 4}[len(free)]
    shape = tuple(
        draw(st.integers(lo, lo + 6) if a in free else st.integers(1, 6)) for a in range(3)
    )
    spacing = draw(st.sampled_from(
        [UNIT, DYADIC, Spacing(2.0, 1.0, 0.5), Spacing(1.0, 0.25, 1.0), *NON_DYADIC]))
    axes = [
        range(0, n, 2) if a in free else [2 * draw(st.integers(0, (n - 1) // 2))]
        for a, n in enumerate(shape)
    ]
    points = list(itertools.product(*axes))
    sites = draw(st.lists(st.sampled_from(points), min_size=8, max_size=16, unique=True))
    arr = np.zeros(shape, dtype=bool)
    for p in sites:
        arr[p] = True
    for axis in draw(st.sets(st.sampled_from(free))):
        arr |= np.flip(arr, axis=axis)
    return mk_mask(arr, spacing)


@settings(max_examples=80, deadline=None)
@given(tie_heavy_masks())
def test_fast_equals_bruteforce_on_tie_heavy_masks(mask):
    lab = label_components(mask)
    gx, gy, gz = np.indices(mask.voxels.shape)
    for metric in ("voxel", "physical"):
        sx, sy, sz = mask.spacing.as_tuple() if metric == "physical" else (1, 1, 1)
        fast = voronoi_partition(lab, metric)
        brute = voronoi_partition_bruteforce(lab, metric)
        assert np.array_equal(fast.region_of, brute.region_of)

        d2 = np.stack([
            np.min([((gx - x) * sx) ** 2 + ((gy - y) * sy) ** 2 + ((gz - z) * sz) ** 2
                    for x, y, z in np.argwhere(lab.labels == cid)], axis=0)
            for cid in range(1, lab.count + 1)
        ])
        ties = d2 == d2.min(axis=0)
        for cid, win in enumerate(_windows(lab, metric), start=1):
            outside = ties[cid - 1].copy()
            outside[win] = False
            assert not outside.any(), f"component {cid} wins or ties outside {win}"


def lookup(lab, mask, metric="voxel"):
    """The lookup kernel at the voxels of a bool mask, in C order, as ``cc_dice`` calls it."""
    return _nearest_at(lab, np.flatnonzero(mask), metric)


def _many_components(seed):
    """Twelve well-separated boxes: one k-d tree holds every component's sites."""
    mask, lab = build_phantom(random_instances_spec(Shape(16, 14, 12), DYADIC, 12, seed))
    assert lab.count == 12
    return mask


# Non-dyadic spacings round the physical squared distances, so geometric ties
# may or may not survive; the lookup must round them as the oracle does.
@settings(max_examples=80, deadline=None)
@given(
    st.one_of(tie_heavy_masks(), st.integers(0, 2**16).map(_many_components)),
    st.sampled_from([None, *NON_DYADIC]),
    st.integers(0, 2**32 - 1),
)
@example(_many_components(3), Spacing(0.7, 1.3, 2.1), 0)
def test_lookup_equals_bruteforce_at_every_voxel(mask, spacing, seed):
    if spacing is not None:
        mask = mk_mask(mask.voxels, spacing)
    lab = label_components(mask)
    shape = mask.voxels.shape
    # Raw predictions load x-fastest (F order); results follow C order either way.
    rng = np.random.default_rng(seed)
    subs = [rng.random(shape) < rng.uniform(0.05, 0.95) for _ in range(2)]
    queries = [np.ones(shape, dtype=bool), subs[0], np.asfortranarray(subs[1])]
    for metric in ("voxel", "physical"):
        brute = voronoi_partition_bruteforce(lab, metric)
        assert np.array_equal(voronoi_partition(lab, metric).region_of, brute.region_of)
        for q in queries:
            assert np.array_equal(lookup(lab, q, metric), brute.region_of[q])


def _two_sites(shape, a, b, spacing=UNIT):
    arr = np.zeros(shape, dtype=bool)
    arr[a] = True
    arr[b] = True
    return label_components(mk_mask(arr, spacing))


def _one_voxel(shape, at):
    q = np.zeros(shape, dtype=bool)
    q[at] = True
    return q


def test_lookup_of_no_points_is_empty():
    lab = _two_sites((5, 1, 1), (0, 0, 0), (4, 0, 0))
    for metric in ("voxel", "physical"):
        out = lookup(lab, np.zeros((5, 1, 1), dtype=bool), metric)
        assert out.shape == (0,)


def test_lookup_inside_ground_truth_is_own_label():
    spec = random_instances_spec(Shape(12, 12, 12), DYADIC, 4, 5)
    _, lab = build_phantom(spec)
    inside = lab.labels > 0
    assert np.array_equal(lookup(lab, inside), lab.labels[inside])


def test_lookup_with_one_component_is_all_ones():
    arr = np.zeros((6, 5, 4), dtype=bool)
    arr[2:4, 2, 1] = True
    lab = label_components(mk_mask(arr))
    out = lookup(lab, np.ones(arr.shape, dtype=bool), "physical")
    assert out.tolist() == [1] * arr.size


@pytest.mark.parametrize("shape", [(1, 1, 9), (1, 7, 1), (9, 1, 1), (5, 5, 1)])
def test_lookup_on_axes_of_length_one(shape):
    arr = np.zeros(shape, dtype=bool)
    arr.flat[0] = True
    arr.flat[-1] = True
    lab = label_components(mk_mask(arr, Spacing(0.9, 0.9, 3.0)))
    every = np.ones(shape, dtype=bool)
    for metric in ("voxel", "physical"):
        brute = voronoi_partition_bruteforce(lab, metric).region_of.ravel()
        assert np.array_equal(lookup(lab, every, metric), brute)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        tie_heavy_masks(),
        # dense noise: components touch the lattice faces, axes may be 1 long
        st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7),
                  st.floats(0.1, 0.9), st.integers(0, 2**32 - 1)).map(
            lambda t: mk_mask(np.random.default_rng(t[4]).random(t[:3]) < t[3])),
    ),
    st.booleans(),
)
@example(mk_mask(np.ones((4, 3, 2), dtype=bool)), False)
@example(mk_mask(np.ones((1, 1, 5), dtype=bool)), True)
@example(mk_mask(np.arange(9).reshape(9, 1, 1) % 3 == 0), False)
@example(mk_mask(np.arange(25).reshape(5, 5, 1) % 4 != 1), True)
def test_boundary_sites_are_the_literal_boundary(mask, fortran):
    if fortran:
        mask = mk_mask(np.asfortranarray(mask.voxels), mask.spacing)
    lab = label_components(mask)
    sites = _boundary_sites(lab)
    assert sites.shape == (len(sites), 3)
    assert len({tuple(p) for p in sites.tolist()}) == len(sites)
    assert {tuple(p) for p in sites.tolist()} == set(boundary_voxels(lab.labels))


def test_importing_the_package_does_not_import_scipy_spatial():
    # The lookup imports cKDTree lazily; importing scipy.spatial is slow.
    # scipy.ndimage (about 0.4 s in a fresh interpreter) is imported inside
    # the dense partition only, and scipy.sparse (about 80 ms and 10 MB) by
    # no module.
    src = str(Path(lesionwise.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lesionwise; "
            "print([m for m in sys.argv[2:] if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code, src,
                           "scipy.spatial", "scipy.sparse", "scipy.ndimage"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _record_tree_queries(monkeypatch):
    import scipy.spatial

    ks = []

    class Recording(scipy.spatial.cKDTree):
        def query(self, x, k=1, **kw):
            ks.append(k)
            return super().query(x, k=k, **kw)

    monkeypatch.setattr(scipy.spatial, "cKDTree", Recording)
    return ks


def test_voxel_lookup_finds_a_tie_across_all_components(monkeypatch):
    ks = _record_tree_queries(monkeypatch)
    # One single-voxel component at each corner of a 3^3 cube: all eight lie
    # sqrt(3) from the centre, so the query doubles k until it holds them all.
    arr = np.zeros((3, 3, 3), dtype=bool)
    arr[::2, ::2, ::2] = True
    lab = label_components(mk_mask(arr))
    assert lab.count == 8
    assert lookup(lab, _one_voxel(arr.shape, (1, 1, 1)), "voxel").tolist() == [1]
    assert ks == [2, 4, 8]


def test_physical_lookup_doubles_k_on_tree_ties(monkeypatch):
    ks = _record_tree_queries(monkeypatch)
    # Component 1 is every voxel of the plane z = 0 at least 5 voxels from
    # q = (6, 6, 0); its 12 nearest voxels lie exactly 5 voxels away. At 1.1 mm
    # the offsets (5, 0) and (0, 5) round to 30.25 mm^2 but (3, 4) and (4, 3)
    # to 30.250000000000007. Component 2, the voxel above q at 5.5 mm, rounds
    # to 30.25: a tie that component 1 wins only if a (5, 0)-type voxel is
    # re-scored, wherever the tree ranks it among the 12.
    n = 13
    gx, gy = np.indices((n, n))
    arr = np.zeros((n, n, 2), dtype=bool)
    arr[..., 0] = (gx - 6) ** 2 + (gy - 6) ** 2 >= 25
    arr[6, 6, 1] = True
    lab = label_components(mk_mask(arr, Spacing(1.1, 1.1, 5.5)))
    assert lab.count == 2
    q = (6, 6, 0)
    assert voronoi_partition_bruteforce(lab, "physical").region_of[q] == 1
    assert lookup(lab, _one_voxel(arr.shape, q), "physical").tolist() == [1]
    assert ks[:3] == [2, 4, 8]


def test_case_metrics_does_not_build_the_dense_partition(monkeypatch):
    rng = np.random.default_rng(8)
    spec = random_instances_spec(Shape(14, 12, 10), Spacing(0.9, 0.9, 3.0), 4, 21)
    gt, lab = build_phantom(spec)
    pred = mk_mask(gt.voxels ^ (rng.random(gt.voxels.shape) < 0.08), gt.spacing)
    expected = {}
    for metric in ("voxel", "physical"):
        region = voronoi_partition_bruteforce(lab, metric).region_of
        p = pred.voxels
        inter = np.bincount(lab.labels[p], minlength=lab.count + 1)[1:]
        in_region = np.bincount(region[p], minlength=lab.count + 1)[1:]
        expected[metric] = float(np.mean(2.0 * inter / (in_region + lab.volumes_vox)))

    def refuse(*args, **kwargs):
        raise AssertionError("case_metrics built the dense partition")

    monkeypatch.setattr(lesionwise.metrics, "voronoi_partition", refuse)
    for metric in ("voxel", "physical"):
        assert case_metrics(pred, gt, metric).cc_dice == expected[metric]


def test_case_metrics_does_not_build_the_gt_coordinate_index(monkeypatch):
    # the instance losses' coordinate index costs a lattice scan; eval never reads it
    rng = np.random.default_rng(9)
    spec = random_instances_spec(Shape(14, 12, 10), Spacing(0.9, 0.9, 3.0), 4, 22)
    gt, _ = build_phantom(spec)
    pred = mk_mask(gt.voxels ^ (rng.random(gt.voxels.shape) < 0.08), gt.spacing)
    built = []

    def recording(mask):
        built.append(label_components(mask))
        return built[-1]

    monkeypatch.setattr(lesionwise.metrics, "label_components", recording)
    for metric in ("voxel", "physical"):
        case_metrics(pred, gt, metric)
    assert len(built) == 4 and all(lab.count for lab in built)
    for lab in built:
        assert "foreground_coords" not in vars(lab) and "foreground_ids" not in vars(lab)


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
