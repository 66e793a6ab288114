import math

import numpy as np
import pytest

from lesionwise import (
    CaseMetrics,
    Shape,
    Spacing,
    aggregate,
    binarize,
    build_phantom,
    case_metrics,
    cc_dice,
    figure1_scenario,
    figure2_scenario,
    hard_dice,
    label_components,
    match_instances,
    quartile_recall,
    random_instances_spec,
    voronoi_partition_bruteforce,
)
from lesionwise.components import ComponentLabeling
from lesionwise.metrics import _hopcroft_karp
from oracles import UNIT, chain_pair, max_matching_size, mk_mask, traced_peak
from oracles import _hopcroft_karp as recursive_hopcroft_karp


def _case(volumes, detected, **kwargs):
    """Synthetic CaseMetrics carrying only what quartile pooling needs."""
    defaults = dict(
        dice=1.0, cc_dice=None, precision=None, recall=None, f1=None,
        n_gt=len(volumes), n_pred=0, tp=int(np.sum(detected)), fp=0,
        fn=len(volumes) - int(np.sum(detected)),
    )
    defaults.update(kwargs)
    return CaseMetrics(
        gt_volumes_mm3=np.asarray(volumes, dtype=float),
        gt_detected=np.asarray(detected, dtype=bool),
        **defaults,
    )


# ---------------------------------------------------------------------------
# hard Dice and CC-Dice
# ---------------------------------------------------------------------------

def test_hard_dice_formula_cases():
    a = np.zeros((4, 4, 4), dtype=bool)
    a[:2] = True
    assert hard_dice(mk_mask(a), mk_mask(a)) == 1.0

    b = np.zeros_like(a)
    b[3] = True
    assert hard_dice(mk_mask(a), mk_mask(b)) == 0.0

    p = np.zeros((20, 1, 1), dtype=bool)
    g = np.zeros_like(p)
    p[0:10] = True
    g[5:15] = True  # |P|=|K|=10, overlap 5
    assert hard_dice(mk_mask(p), mk_mask(g)) == 0.5

    empty = mk_mask(np.zeros((2, 2, 2)))
    assert hard_dice(empty, empty) == 1.0


def test_cc_dice_perfect_and_empty():
    spec = random_instances_spec(Shape(10, 10, 10), UNIT, 3, 1)
    gt, _ = build_phantom(spec)
    assert cc_dice(gt, gt) == 1.0
    assert cc_dice(gt, mk_mask(np.zeros((10, 10, 10)))) is None


def test_cc_dice_on_figure1_prediction():
    sc = figure1_scenario()
    pred = mk_mask(sc.pred_partial.voxels > 0)
    assert math.isclose(cc_dice(pred, sc.gt), 3.0 / 16.0, rel_tol=1e-12)


def test_cc_dice_false_positive_degrades_one_region_only():
    arr = np.zeros((9, 5, 3), dtype=bool)
    arr[1, 2, 1] = True
    arr[7, 2, 1] = True
    gt = mk_mask(arr)

    pred_arr = arr.copy()
    pred_arr[2, 0, 1] = True  # false positive strictly nearer component 1
    pred = mk_mask(pred_arr)

    # literal per-region re-evaluation on the brute-force partition
    lab = label_components(gt)
    part = voronoi_partition_bruteforce(lab)
    per_region = []
    for cid in range(1, lab.count + 1):
        region = part.region_of == cid
        comp = lab.labels == cid
        p_in = pred.voxels & region
        inter = np.count_nonzero(p_in & comp)
        per_region.append(2 * inter / (np.count_nonzero(p_in) + np.count_nonzero(comp)))

    assert per_region[1] == 1.0  # untouched region
    assert per_region[0] == pytest.approx(2 * 1 / (2 + 1))
    assert cc_dice(pred, gt) == pytest.approx(float(np.mean(per_region)))


def test_cc_dice_matches_literal_reevaluation_on_random_cases():
    rng = np.random.default_rng(41)
    for seed in range(6):
        spec = random_instances_spec(Shape(12, 12, 12), UNIT, 1 + seed % 4, 60 + seed)
        gt, lab = build_phantom(spec)
        pred = mk_mask(gt.voxels ^ (rng.random((12, 12, 12)) < 0.05))

        part = voronoi_partition_bruteforce(lab)
        per_region = []
        for cid in range(1, lab.count + 1):
            region = part.region_of == cid
            comp = lab.labels == cid
            p_in = pred.voxels & region
            inter = np.count_nonzero(p_in & comp)
            per_region.append(
                2 * inter / (np.count_nonzero(p_in) + np.count_nonzero(comp))
            )
        assert cc_dice(pred, gt) == pytest.approx(float(np.mean(per_region)), rel=1e-12)


def _layouts(arr):
    """``arr`` in C order, F order and a permuted layout that is neither."""
    permuted = np.ascontiguousarray(arr.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert not (permuted.flags.c_contiguous or permuted.flags.f_contiguous)
    return {"C": np.ascontiguousarray(arr), "F": np.asfortranarray(arr), "permuted": permuted}


def test_dice_and_cc_dice_do_not_depend_on_the_layout():
    # 48x40x36 spans several of hard_dice's slabs
    rng = np.random.default_rng(43)
    spec = random_instances_spec(Shape(48, 40, 36), UNIT, 5, 44)
    gt_arr = build_phantom(spec)[0].voxels
    pred_arr = gt_arr ^ (rng.random(gt_arr.shape) < 0.01)
    want = hard_dice(mk_mask(pred_arr), mk_mask(gt_arr)), cc_dice(mk_mask(pred_arr), mk_mask(gt_arr))
    assert 0 < want[0] < 1 and 0 < want[1] < 1
    for p_name, p in _layouts(pred_arr).items():
        for g_name, g in _layouts(gt_arr).items():
            pred, gt = mk_mask(p), mk_mask(g)
            assert pred.voxels.strides == p.strides  # the mask keeps the layout
            assert (hard_dice(pred, gt), cc_dice(pred, gt)) == want, (p_name, g_name)


def _balls(centres, radius, shape=(64, 64, 64)):
    grid = np.indices(shape)
    return np.any([sum((grid[i] - c[i]) ** 2 for i in range(3)) <= radius ** 2
                   for c in centres], axis=0)


def test_cc_dice_allocates_no_lattice():
    # 0.5% foreground in F order, as files give: the prediction is scanned
    # without a C-order copy (1 B/vox), and the rest is O(foreground)
    gt = mk_mask(np.asfortranarray(_balls([(16, 20, 24), (44, 40, 36), (20, 48, 50)], 4.5)))
    pred = mk_mask(np.asfortranarray(_balls([(16, 20, 24), (44, 41, 36), (20, 48, 50)], 4.5)
                                     | _balls([(50, 12, 10)], 2)))
    assert pred.voxels.flags.f_contiguous and pred.foreground_count < 0.005 * pred.voxels.size
    lab = label_components(gt)
    assert lab.count >= 2
    cc_dice(pred, gt, lab=lab)  # imports scipy.spatial
    peak = traced_peak(lambda: cc_dice(pred, gt, lab=lab))
    assert peak < 0.5 * gt.voxels.size, peak / gt.voxels.size


# ---------------------------------------------------------------------------
# instance matching
# ---------------------------------------------------------------------------

def test_match_single_overlap():
    gt = np.zeros((6, 3, 3), dtype=bool)
    gt[0:2, 0:2, 0:2] = True
    pred = np.zeros_like(gt)
    pred[1:3, 0:2, 0:2] = True
    res = match_instances(label_components(mk_mask(pred)), label_components(mk_mask(gt)))
    assert res.pairs == ((1, 1),)


def test_one_pred_over_two_gt_matches_once():
    gt = np.zeros((7, 1, 1), dtype=bool)
    gt[0:2] = True
    gt[4:6] = True
    pred = np.zeros_like(gt)
    pred[0:6] = True  # one blob covering both
    res = match_instances(label_components(mk_mask(pred)), label_components(mk_mask(gt)))
    assert len(res.pairs) == 1
    # the documented choice: the pred goes to the lower GT ID
    assert res.pairs == ((1, 1),)


def test_disjoint_sets_match_nothing():
    gt = np.zeros((5, 5, 1), dtype=bool)
    gt[0, 0, 0] = True
    pred = np.zeros_like(gt)
    pred[4, 4, 0] = True
    res = match_instances(label_components(mk_mask(pred)), label_components(mk_mask(gt)))
    assert res.pairs == ()


def test_match_rejects_labelings_of_different_grids():
    pred = label_components(mk_mask(np.ones((2, 2, 2), dtype=bool)))
    gt = label_components(mk_mask(np.ones((2, 2, 3), dtype=bool)))
    with pytest.raises(ValueError, match="labelings cover different grids"):
        match_instances(pred, gt)


def test_match_refuses_a_labeling_with_ids_above_its_count():
    # A copy of a two-lesion labeling with count=1 once raised a bare IndexError.
    arr = np.zeros((6, 1, 1), dtype=bool)
    arr[0:2] = arr[4:6] = True
    lab = label_components(mk_mask(arr))
    bad = ComponentLabeling(lab.labels, 1, lab.volumes_vox, lab.volumes_mm3, lab.spacing)
    assert match_instances(lab, lab).pairs == ((1, 1), (2, 2))
    for pred_lab, gt_lab in ((bad, lab), (lab, bad)):
        with pytest.raises(ValueError, match="component ID above its count"):
            match_instances(pred_lab, gt_lab)


def test_matching_is_maximum_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n_gt = rng.integers(0, 7)
        n_pred = rng.integers(0, 7)
        adj = [
            sorted(set(rng.integers(0, n_pred, size=rng.integers(0, n_pred + 1))))
            if n_pred else []
            for _ in range(n_gt)
        ]
        # mirror the package's matching on a synthetic adjacency
        match_l = _hopcroft_karp([list(a) for a in adj], n_pred)
        got = sum(1 for v in match_l if v != -1)
        want = max_matching_size([list(a) for a in adj], n_pred)
        assert got == want


def _chain(n):
    """GT i overlaps preds i and i + 1, and the last GT only pred 0.

    Every GT but the last takes its lower pred in the first phase; the last
    then needs one augmenting path through all n GTs.
    """
    return [[i, i + 1] for i in range(n - 1)] + [[0]]


def test_stack_matcher_equals_recursive_on_random_graphs():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        n_gt, n_pred = (int(n) for n in rng.integers(1, 13, size=2))
        density = rng.uniform(0.05, 0.7)
        adj = [np.flatnonzero(rng.random(n_pred) < density).tolist() for _ in range(n_gt)]
        got = _hopcroft_karp(adj, n_pred)
        assert got == recursive_hopcroft_karp(adj, n_pred)
        assert sum(v != -1 for v in got) == max_matching_size(adj, n_pred)


@pytest.mark.parametrize("depth", [1, 2, 3, 7, 50, 199, 400])
def test_stack_matcher_equals_recursive_on_chains(depth):
    adj = _chain(depth)
    got = _hopcroft_karp(adj, depth)
    assert got == recursive_hopcroft_karp(adj, depth)
    assert got == list(range(1, depth)) + [0]  # every GT moves to its upper pred
    # the same chain with its GTs listed last-first
    rev = adj[::-1]
    assert _hopcroft_karp(rev, depth) == recursive_hopcroft_karp(rev, depth)


def test_stack_matcher_has_no_depth_limit():
    n = 20_000  # far beyond the recursion limit
    match_l = _hopcroft_karp(_chain(n), n)
    assert sorted(match_l) == list(range(n))


def test_overlap_edges_match_a_pairwise_stack_on_random_masks():
    """Edges from the one integer key equal the distinct (gt, pred) columns."""
    rng = np.random.default_rng(5)
    for _ in range(30):
        gt = rng.random((14, 12, 6)) < rng.uniform(0.02, 0.3)
        pred = rng.random(gt.shape) < rng.uniform(0.02, 0.3)
        gt_lab, pred_lab = label_components(mk_mask(gt)), label_components(mk_mask(pred))
        both = (gt_lab.labels > 0) & (pred_lab.labels > 0)
        edges = np.unique(np.stack([gt_lab.labels[both], pred_lab.labels[both]]), axis=1)
        adj = [[] for _ in range(gt_lab.count)]
        for g, q in edges.T.tolist():
            adj[g - 1].append(q - 1)
        match_l = recursive_hopcroft_karp(adj, pred_lab.count)
        res = match_instances(pred_lab, gt_lab)
        assert res.pairs == tuple((g + 1, v + 1) for g, v in enumerate(match_l) if v != -1)


def test_chain_of_1200_lesions_is_fully_matched():
    """A valid pair whose one augmenting path runs through all 1200 GTs."""
    gt, pred = chain_pair(1200)
    cm = case_metrics(mk_mask(pred), mk_mask(gt))
    assert (cm.n_gt, cm.n_pred, cm.tp, cm.fp, cm.fn) == (1200, 1200, 1200, 0, 0)
    assert cm.gt_detected.all()


# ---------------------------------------------------------------------------
# case metrics, quartiles, aggregation
# ---------------------------------------------------------------------------

def test_case_metrics_formula_case():
    # figure-1 geometry: 3 of 16 detected, plus one false-positive blob
    sc = figure1_scenario()
    pred_arr = sc.pred_partial.voxels > 0
    pred_arr = pred_arr.copy()
    pred_arr[36, 36, 1] = True  # isolated false positive
    cm = case_metrics(mk_mask(pred_arr), sc.gt)
    assert (cm.n_gt, cm.n_pred, cm.tp, cm.fp, cm.fn) == (16, 4, 3, 1, 13)
    assert cm.precision == 0.75
    assert cm.recall == 0.1875
    assert cm.f1 == pytest.approx(6 / 20)


def test_case_metrics_empty_gt_has_undefined_lesion_metrics():
    pred = np.zeros((4, 4, 4), dtype=bool)
    pred[0, 0, 0] = True
    cm = case_metrics(mk_mask(pred), mk_mask(np.zeros((4, 4, 4))))
    assert cm.recall is None and cm.cc_dice is None
    assert cm.precision == 0.0  # the FP still counts against precision
    assert cm.n_gt == 0 and cm.fp == 1


@pytest.mark.parametrize("n_lesions", [0, 1])
def test_unknown_metric_is_rejected_before_any_work(n_lesions):
    arr = np.zeros((4, 4, 4), dtype=bool)
    arr[1, 1, 1] = n_lesions == 1
    m = mk_mask(arr)
    with pytest.raises(ValueError, match="metric"):
        case_metrics(m, m, "chebyshev")
    with pytest.raises(ValueError, match="metric"):
        cc_dice(m, m, "chebyshev")


def test_quartile_recall_hand_case():
    # pooled volumes 1..8; only components above the median detected
    c = _case([1, 2, 3, 4, 5, 6, 7, 8], [v > 4.5 for v in range(1, 9)])
    qr = quartile_recall([c])
    assert qr.boundaries == (2.75, 4.5, 6.25)
    assert qr.recall_q == (0.0, 0.0, 1.0, 1.0)
    assert qr.total == (2, 2, 2, 2)


def test_quartile_recall_all_detected():
    c = _case([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [True] * 8)
    qr = quartile_recall([c])
    assert qr.recall_q == (1.0, 1.0, 1.0, 1.0)


def test_quartile_recall_empty_bucket_is_undefined():
    # thirteen volume-1 components collapse the lower boundaries
    c = _case([1.0] * 13 + [28.0, 36.0, 36.0],
              [False] * 13 + [True] * 3)
    qr = quartile_recall([c])
    assert qr.recall_q[0] == 0.0
    assert qr.recall_q[1] is None and qr.recall_q[2] is None
    assert qr.recall_q[3] == 1.0


def test_quartile_recall_requires_components():
    for cases in ([_case([], [])], [], iter([])):
        with pytest.raises(ValueError, match="at least one ground-truth component"):
            quartile_recall(cases)


def test_pooled_recall_consistency():
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(10):
        n = int(rng.integers(1, 9))
        vols = rng.uniform(1, 100, size=n)
        det = rng.random(n) < 0.6
        cases.append(_case(vols, det))
    qr = quartile_recall(cases)
    assert quartile_recall(iter(cases)) == qr
    assert sum(qr.detected) == sum(int(c.gt_detected.sum()) for c in cases)
    assert sum(qr.total) == sum(c.n_gt for c in cases)
    pooled = sum(qr.detected) / sum(qr.total)
    assert pooled == pytest.approx(
        sum(int(c.gt_detected.sum()) for c in cases) / sum(c.n_gt for c in cases)
    )


def test_aggregate_mean_and_population_std():
    a = _case([1.0], [True], dice=0.4, recall=1.0)
    b = _case([1.0], [False], dice=0.6, recall=0.0)
    agg = aggregate([a, b])
    assert agg["dice"].mean == pytest.approx(0.5)
    assert agg["dice"].std == pytest.approx(0.1)
    assert agg["dice"].n == 2

    single = aggregate([a])
    assert single["dice"].std == 0.0

    assert agg["precision"].n == 0
    assert agg["precision"].n_undefined == 2
    assert math.isnan(agg["precision"].mean)


def test_aggregate_rejects_empty_input():
    with pytest.raises(ValueError):
        aggregate([])


def test_metrics_invariant_under_axis_flip():
    rng = np.random.default_rng(31)
    gt = rng.random((10, 10, 6)) < 0.08
    pred = gt ^ (rng.random((10, 10, 6)) < 0.03)
    a = case_metrics(mk_mask(pred), mk_mask(gt))
    b = case_metrics(mk_mask(pred[::-1, ::-1, :]), mk_mask(gt[::-1, ::-1, :]))
    for f in ("dice", "cc_dice", "precision", "recall", "f1", "tp", "fp", "fn"):
        va, vb = getattr(a, f), getattr(b, f)
        if va is None:
            assert vb is None
        else:
            assert va == pytest.approx(vb)


@pytest.mark.parametrize("call", [
    lambda f2: label_components(f2.logits),
    lambda f2: hard_dice(f2.logits, f2.gt),
    lambda f2: hard_dice(f2.gt, f2.logits),
    lambda f2: cc_dice(f2.logits, f2.gt),
    lambda f2: cc_dice(binarize(f2.logits), f2.logits),
    lambda f2: case_metrics(f2.logits, f2.gt),
], ids=["label", "hard-dice-pred", "hard-dice-gt", "cc-dice-pred", "cc-dice-gt", "case"])
def test_logits_are_refused_where_a_mask_is_required(call):
    # Every nonzero logit once counted as foreground: cc_dice read 0.0554 for 0.48.
    f2 = figure2_scenario()
    with pytest.raises(TypeError, match=r"bool mask, got LogitVolume; binarize"):
        call(f2)


def test_cc_dice_refuses_a_labeling_of_other_voxels():
    # A labeling of the GT rolled by 3 voxels once gave 0.3 without error.
    f2 = figure2_scenario()
    pred = binarize(f2.logits)
    rolled = label_components(mk_mask(np.roll(f2.gt.voxels, 3, axis=0)))
    with pytest.raises(ValueError, match="other voxels than the ground truth"):
        cc_dice(pred, f2.gt, lab=rolled)
    assert cc_dice(pred, f2.gt, lab=label_components(f2.gt)) == pytest.approx(0.48)
    assert cc_dice(pred, f2.gt) == pytest.approx(0.48)


def _anisotropic_labeling_case():
    """A phantom, a prediction, and a labeling of the same voxels at other spacing."""
    gt, _ = build_phantom(random_instances_spec(Shape(24, 20, 16), UNIT, 5, seed=3))
    rng = np.random.default_rng(1)
    pred = mk_mask(rng.random(gt.voxels.shape) < 0.05)
    other = label_components(mk_mask(gt.voxels, Spacing(1, 1, 4)))
    return gt, pred, other


def test_cc_dice_refuses_a_labeling_at_another_spacing():
    # Its physical regions are other ones: this once gave 0.008163 without error.
    gt, pred, other = _anisotropic_labeling_case()
    with pytest.raises(ValueError, match="shape or spacing does not match"):
        cc_dice(pred, gt, "physical", lab=other)
    assert cc_dice(pred, gt, "physical") == pytest.approx(0.005556, abs=5e-7)


def test_cc_dice_checks_a_labeling_of_its_own_gt_in_constant_time():
    gt, pred, _ = _anisotropic_labeling_case()
    want = cc_dice(pred, gt)
    lab = label_components(gt)
    assert cc_dice(pred, gt, lab=lab) == want
    assert "foreground_coords" not in vars(lab)  # the O(GT) check gathers there
    assert lab.mask is gt

    # a labeling of an equal but distinct mask, and one built by hand, take
    # the O(GT) check
    equal = label_components(mk_mask(gt.voxels.copy()))
    by_hand = ComponentLabeling(lab.labels, lab.count, lab.volumes_vox, lab.volumes_mm3,
                                lab.spacing)
    for other in (equal, by_hand):
        assert other.mask is not gt
        assert cc_dice(pred, gt, lab=other) == want
        assert "foreground_coords" in vars(other)
    rolled = ComponentLabeling(np.roll(lab.labels, 3, axis=0), lab.count, lab.volumes_vox,
                               lab.volumes_mm3, lab.spacing)
    with pytest.raises(ValueError, match="other voxels than the ground truth"):
        cc_dice(pred, gt, lab=rolled)
