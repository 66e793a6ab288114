import math
import multiprocessing
import sys
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from lesionwise import (
    LOGIT_CLAMP,
    EmptyGroundTruthError,
    LogitVolume,
    LossWeights,
    Shape,
    Spacing,
    blob_instance_loss,
    blob_instance_terms,
    binarize,
    build_phantom,
    cc_dice,
    cc_instance_loss,
    cc_instance_terms,
    combined_loss,
    dicece_loss,
    figure2_scenario,
    gradient_map,
    label_components,
    random_instances_spec,
    soft_dice_loss,
    voronoi_partition,
    voronoi_partition_bruteforce,
)
from lesionwise import _pool, losses
from lesionwise.components import ComponentLabeling
from lesionwise.voronoi import VoronoiPartition
from oracles import (
    UNIT,
    dicece_over_voxels,
    finite_difference_grad,
    flood_fill_label,
    grad_errors,
    mk_logits,
    mk_mask,
    traced_peak,
)

SAT = LOGIT_CLAMP


def _saturated(fg):
    return mk_logits(np.where(fg, SAT, -SAT))


def _random_case(seed, shape=(6, 6, 6), n_components=2):
    spec = random_instances_spec(Shape(*shape), UNIT, n_components, seed)
    gt, lab = build_phantom(spec)
    rng = np.random.default_rng(seed + 1000)
    logits = mk_logits(rng.normal(0.0, 2.0, size=shape))
    return gt, lab, logits


# ---------------------------------------------------------------------------
# soft Dice / cross-entropy / DiceCE
# ---------------------------------------------------------------------------

def test_dice_perfect_overlap_is_zero():
    gt, _, _ = _random_case(0)
    lv = soft_dice_loss(_saturated(gt.voxels), gt)
    assert abs(lv.scalar) <= 1e-9


def test_dice_disjoint_is_one():
    arr = np.zeros((5, 5, 5), dtype=bool)
    arr[0, 0, 0] = True
    pred = np.zeros_like(arr)
    pred[4, 4, 4] = True
    lv = soft_dice_loss(_saturated(pred), mk_mask(arr))
    assert lv.scalar >= 1 - 1e-9


def test_cross_entropy_at_zero_logits_is_log_two():
    gt, _, _ = _random_case(3)
    lv = dicece_loss(mk_logits(np.zeros((6, 6, 6))), gt, w_dice=0.0, w_ce=1.0)
    assert math.isclose(lv.scalar, math.log(2.0), rel_tol=1e-12)


def test_cross_entropy_single_voxel_gradient():
    gt = mk_mask(np.ones((1, 1, 1)))
    lv = dicece_loss(mk_logits(np.zeros((1, 1, 1))), gt, w_dice=0.0, w_ce=1.0)
    assert lv.grad[0, 0, 0] == -0.5


def test_dicece_is_the_weighted_sum():
    gt, _, logits = _random_case(5)
    d = soft_dice_loss(logits, gt)
    c = dicece_loss(logits, gt, w_dice=0.0, w_ce=1.0)
    both = dicece_loss(logits, gt, w_dice=0.7, w_ce=1.3)
    assert math.isclose(both.scalar, 0.7 * d.scalar + 1.3 * c.scalar, rel_tol=1e-12)
    np.testing.assert_allclose(both.grad, 0.7 * d.grad + 1.3 * c.grad, rtol=1e-12)


def test_shape_mismatch_rejected():
    gt = mk_mask(np.zeros((3, 3, 3)))
    logits = mk_logits(np.zeros((3, 3, 4)))
    with pytest.raises(ValueError):
        soft_dice_loss(logits, gt)


# ---------------------------------------------------------------------------
# finite-difference gradient checks
# ---------------------------------------------------------------------------

def _assert_fd(fn_scalar, analytic_grad, logits_arr):
    fd = finite_difference_grad(fn_scalar, logits_arr)
    rel, absolute = grad_errors(analytic_grad, fd)
    assert rel < 1e-4, f"relative gradient error {rel}"
    assert absolute < 1e-7, f"absolute gradient error {absolute}"


def test_soft_dice_gradient_matches_finite_differences():
    gt, _, logits = _random_case(10)
    lv = soft_dice_loss(logits, gt)
    _assert_fd(lambda a: soft_dice_loss(mk_logits(a), gt).scalar, lv.grad, logits.voxels)


def test_cross_entropy_gradient_matches_finite_differences():
    gt, _, logits = _random_case(11)
    lv = dicece_loss(logits, gt, w_dice=0.0, w_ce=1.0)
    _assert_fd(
        lambda a: dicece_loss(mk_logits(a), gt, w_dice=0.0, w_ce=1.0).scalar,
        lv.grad, logits.voxels,
    )


def test_instance_loss_gradients_match_finite_differences():
    gt, lab, logits = _random_case(13, n_components=3)
    part = voronoi_partition(lab)
    cc = cc_instance_loss(logits, gt, lab, part)
    _assert_fd(
        lambda a: cc_instance_loss(mk_logits(a), gt, lab, part).scalar,
        cc.grad,
        logits.voxels,
    )
    blob = blob_instance_loss(logits, gt, lab)
    _assert_fd(
        lambda a: blob_instance_loss(mk_logits(a), gt, lab).scalar,
        blob.grad,
        logits.voxels,
    )


# ---------------------------------------------------------------------------
# instance losses
# ---------------------------------------------------------------------------

def test_cc_with_single_component_equals_global_dicece():
    gt, lab, logits = _random_case(20, n_components=1)
    part = voronoi_partition(lab)
    cc = cc_instance_loss(logits, gt, lab, part)
    ref = dicece_loss(logits, gt)
    assert math.isclose(cc.scalar, ref.scalar, rel_tol=1e-12)
    np.testing.assert_allclose(cc.grad, ref.grad, rtol=1e-10, atol=1e-15)


def test_blob_equals_cc_for_single_component():
    gt, lab, logits = _random_case(21, n_components=1)
    part = voronoi_partition(lab)
    cc = cc_instance_loss(logits, gt, lab, part)
    blob = blob_instance_loss(logits, gt, lab)
    assert math.isclose(cc.scalar, blob.scalar, rel_tol=1e-12)
    np.testing.assert_allclose(cc.grad, blob.grad, rtol=1e-10, atol=1e-15)


def _fp_phantom():
    """Two 1-voxel components plus one false-positive voxel in region 1."""
    arr = np.zeros((9, 9, 3), dtype=bool)
    arr[1, 4, 1] = True
    arr[7, 4, 1] = True
    gt = mk_mask(arr)
    lab = label_components(gt)
    logits = np.full((9, 9, 3), -2.0)
    logits[3, 1, 1] = 2.0  # false positive, strictly nearer component 1
    return gt, lab, mk_logits(logits), (3, 1, 1)


def test_false_positive_hits_both_blob_terms_but_one_cc_term():
    gt, lab, logits, fp = _fp_phantom()
    part = voronoi_partition(lab)
    assert part.region_of[fp] == 1

    cc_terms = cc_instance_terms(logits, gt, lab, part)
    blob_terms = blob_instance_terms(logits, gt, lab)

    assert cc_terms[0].grad[fp] != 0.0
    assert cc_terms[1].grad[fp] == 0.0
    assert blob_terms[0].grad[fp] != 0.0
    assert blob_terms[1].grad[fp] != 0.0

    # removing the false positive changes both blob terms but only cc term 1
    clean = np.full((9, 9, 3), -2.0)
    cc_clean = cc_instance_terms(mk_logits(clean), gt, lab, part)
    blob_clean = blob_instance_terms(mk_logits(clean), gt, lab)
    assert cc_terms[0].scalar != cc_clean[0].scalar
    assert cc_terms[1].scalar == cc_clean[1].scalar
    assert blob_terms[0].scalar != blob_clean[0].scalar
    assert blob_terms[1].scalar != blob_clean[1].scalar


def test_components_are_weighted_equally_regardless_of_volume():
    # terms equal an isolated evaluation of each component on its region
    gt, lab, logits = _random_case(22, shape=(8, 8, 8), n_components=3)
    part = voronoi_partition(lab)
    terms = cc_instance_terms(logits, gt, lab, part)
    for cid in range(1, lab.count + 1):
        isolated = dicece_over_voxels(
            logits.voxels, lab.labels == cid, part.region_of == cid
        )
        assert math.isclose(terms[cid - 1].scalar, isolated, rel_tol=1e-12)
    total = cc_instance_loss(logits, gt, lab, part)
    assert math.isclose(
        total.scalar, sum(t.scalar for t in terms) / lab.count, rel_tol=1e-12
    )


def _permuted(lab, part, perm):
    """Relabel components by ``perm`` (old id i+1 -> perm[i]+1)."""
    from lesionwise.components import ComponentLabeling
    from lesionwise.voronoi import VoronoiPartition

    remap = np.zeros(lab.count + 1, dtype=np.int32)
    remap[1:] = np.asarray(perm) + 1
    inverse = np.argsort(perm)
    lab2 = ComponentLabeling(
        labels=remap[lab.labels],
        count=lab.count,
        volumes_vox=lab.volumes_vox[inverse].copy(),
        volumes_mm3=lab.volumes_mm3[inverse].copy(),
        spacing=lab.spacing,
    )
    part2 = VoronoiPartition(
        region_of=remap[part.region_of],
        count=part.count,
        metric=part.metric,
    )
    return lab2, part2


def test_losses_invariant_under_component_relabeling():
    gt, lab, logits = _random_case(23, n_components=3)
    part = voronoi_partition(lab)
    lab2, part2 = _permuted(lab, part, [2, 0, 1])

    a = cc_instance_loss(logits, gt, lab, part)
    b = cc_instance_loss(logits, gt, lab2, part2)
    assert math.isclose(a.scalar, b.scalar, rel_tol=1e-12)
    np.testing.assert_allclose(a.grad, b.grad, rtol=1e-10, atol=1e-15)

    a = blob_instance_loss(logits, gt, lab)
    b = blob_instance_loss(logits, gt, lab2)
    assert math.isclose(a.scalar, b.scalar, rel_tol=1e-12)
    np.testing.assert_allclose(a.grad, b.grad, rtol=1e-10, atol=1e-15)


def test_geometry_equivariant_losses_under_axis_flip():
    # global DiceCE and blob depend only on sets, not on the tie policy,
    # so a reflection of the whole scene leaves them unchanged
    gt, lab, logits = _random_case(23, n_components=3)
    flipped_gt = mk_mask(gt.voxels[::-1, :, ::-1])
    flipped_logits = mk_logits(logits.voxels[::-1, :, ::-1])
    for kind in ("dicece", "blob-dicece"):
        a = combined_loss(kind, logits, gt)
        b = combined_loss(kind, flipped_logits, flipped_gt)
        assert math.isclose(a.scalar, b.scalar, rel_tol=1e-11)
        np.testing.assert_allclose(
            a.grad, b.grad[::-1, :, ::-1], rtol=1e-9, atol=1e-15
        )


def test_instance_losses_require_components():
    gt = mk_mask(np.zeros((4, 4, 4)))
    lab = label_components(gt)
    logits = mk_logits(np.zeros((4, 4, 4)))
    with pytest.raises(EmptyGroundTruthError):
        blob_instance_loss(logits, gt, lab)


# ---------------------------------------------------------------------------
# combined loss and gradient maps
# ---------------------------------------------------------------------------

def test_combined_weight_limits():
    gt, lab, logits = _random_case(30, n_components=2)
    part = voronoi_partition(lab)

    only_global = combined_loss(
        "cc-dicece", logits, gt, LossWeights(w_global=1, w_instance=0), lab=lab, part=part
    )
    ref_global = dicece_loss(logits, gt)
    assert math.isclose(only_global.scalar, ref_global.scalar, rel_tol=1e-12)

    only_instance = combined_loss(
        "cc-dicece", logits, gt, LossWeights(w_global=0, w_instance=1), lab=lab, part=part
    )
    ref_instance = cc_instance_loss(logits, gt, lab, part)
    assert math.isclose(only_instance.scalar, ref_instance.scalar, rel_tol=1e-12)
    np.testing.assert_allclose(only_instance.grad, ref_instance.grad, rtol=1e-12)


def test_combined_with_empty_gt_reduces_to_global_term():
    gt = mk_mask(np.zeros((5, 5, 5)))
    rng = np.random.default_rng(8)
    logits = mk_logits(rng.normal(0, 1, (5, 5, 5)))
    ref = dicece_loss(logits, gt)
    for kind in ("cc-dicece", "blob-dicece"):
        lv = combined_loss(kind, logits, gt)
        assert math.isclose(lv.scalar, ref.scalar, rel_tol=1e-12)
        np.testing.assert_allclose(lv.grad, ref.grad, rtol=1e-12)


def test_cc_instance_loss_without_a_partition_raises():
    # Read as "blob", a missing partition gave the blob loss (0.562540 on figure 2).
    f2 = figure2_scenario()
    lab = label_components(f2.gt)
    assert cc_instance_loss(f2.logits, f2.gt, lab, voronoi_partition(lab)).scalar == \
        pytest.approx(0.564331, abs=5e-7)
    for call in (cc_instance_loss, cc_instance_terms):
        with pytest.raises(ValueError, match="needs a Voronoi partition"):
            call(f2.logits, f2.gt, lab, None)
    # an empty GT is refused as empty first: combined_loss then keeps the global term
    empty = mk_mask(np.zeros(f2.gt.voxels.shape), f2.gt.spacing)
    with pytest.raises(EmptyGroundTruthError):
        cc_instance_loss(f2.logits, empty, label_components(empty), None)


def test_loss_values_stay_in_documented_bounds():
    for seed in range(5):
        gt, lab, logits = _random_case(40 + seed, n_components=2)
        for kind in ("dicece", "cc-dicece", "blob-dicece"):
            lv = combined_loss(kind, logits, gt, lab=lab)
            max_ce = SAT + math.log(2.0)  # softplus at the clamp bound
            assert 0.0 <= lv.scalar <= 2.0 * (1.0 + max_ce)


def test_gradient_map_zero_gradient_normalizes_to_zeros():
    # empty GT with Dice only: intersection is identically zero, so the
    # analytic gradient is exactly zero everywhere
    gt = mk_mask(np.zeros((4, 4, 4)))
    logits = mk_logits(np.linspace(-1, 1, 64).reshape(4, 4, 4))
    grad, norm = gradient_map(
        "dicece", logits, gt, LossWeights(1.0, 0.0, 1.0, 0.0)
    )
    assert np.all(grad == 0.0)
    assert np.all(norm == 0.0)


def test_gradient_map_single_voxel():
    gt = mk_mask(np.ones((1, 1, 1)))
    logits = mk_logits(np.full((1, 1, 1), 0.5))
    _, norm = gradient_map("dicece", logits, gt)
    assert norm[0, 0, 0] in (-1.0, 0.0, 1.0)


def test_normalized_fn_gradient_larger_under_region_restricted_loss():
    # a false negative in the smaller Voronoi region is weighted up by the
    # region-restricted loss relative to the blob loss, where every false
    # positive dilutes it
    from lesionwise import figure2_scenario, label_components

    sc = figure2_scenario()
    lab = label_components(sc.gt)
    _, norm_cc = gradient_map("cc-dicece", sc.logits, sc.gt)
    _, norm_blob = gradient_map("blob-dicece", sc.logits, sc.gt)
    fn = lab.labels == 2
    assert np.all(np.abs(norm_cc[fn]) > np.abs(norm_blob[fn]))


def test_gradient_map_range_and_sign():
    gt, lab, logits = _random_case(50, n_components=2)
    grad, norm = gradient_map("cc-dicece", logits, gt)
    assert np.max(np.abs(norm)) == 1.0
    assert np.all(np.abs(norm) <= 1.0)
    nz = grad != 0
    assert np.all(np.sign(norm[nz]) == np.sign(grad[nz]))


def test_weight_and_policy_validation():
    with pytest.raises(ValueError):
        LossWeights(0, 0, 0, 0)
    with pytest.raises(ValueError):
        LossWeights(-1, 1, 1, 1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LossWeights(bad, 1, 1, 1)
        with pytest.raises(ValueError):
            LossWeights(1, 1, 1, bad)


# ---------------------------------------------------------------------------
# one voxel pass per call, through the benchmark's traced attributes
# ---------------------------------------------------------------------------

KINDS = ("dicece", "cc-dicece", "blob-dicece")
INSTANCE_FN = {
    "dicece": None,
    "cc-dicece": "cc_instance_loss",
    "blob-dicece": "blob_instance_loss",
}


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_combined_loss_makes_one_voxel_pass(monkeypatch):
    gt, lab, logits = _random_case(60, n_components=3)
    part = voronoi_partition(lab)
    calls = Counter()
    _count_calls(monkeypatch, losses, "_voxel_pass", calls)
    for kind in KINDS:
        for given in ({}, {"lab": lab, "part": part}):
            calls.clear()
            combined_loss(kind, logits, gt, **given)
            assert calls["_voxel_pass"] == 1, (kind, sorted(given))


def test_each_gradient_makes_one_slab_pass(monkeypatch):
    gt, lab, logits = _random_case(63, n_components=3)
    part = voronoi_partition(lab)
    grad = losses._grad
    per_grad = []  # the _each_slab calls of each _grad call

    def counted_grad(*args, **kwargs):
        calls = Counter()
        with monkeypatch.context() as m:
            _count_calls(m, losses, "_each_slab", calls)
            out = grad(*args, **kwargs)
        per_grad.append(calls["_each_slab"])
        return out

    monkeypatch.setattr(losses, "_grad", counted_grad)
    runs = {kind: lambda k=kind: combined_loss(k, logits, gt, lab=lab, part=part)
            for kind in KINDS}
    runs["cc_instance_terms"] = lambda: cc_instance_terms(logits, gt, lab, part)
    runs["blob_instance_terms"] = lambda: blob_instance_terms(logits, gt, lab)
    for name, run in runs.items():
        per_grad.clear()
        run()
        assert per_grad and per_grad == [1] * len(per_grad), (name, per_grad)


def test_each_step_makes_its_pass_budget_and_one_gradient(monkeypatch):
    # dicece: the voxel pass and the gradient; an instance kind also copies
    # the group index. The gradient of both terms is one _grad call.
    gt, lab, logits = _random_case(64, n_components=3)
    part = voronoi_partition(lab)
    calls = Counter()
    _count_calls(monkeypatch, losses, "_each_slab", calls)
    _count_calls(monkeypatch, losses, "_grad", calls)
    for kind, passes in (("dicece", 2), ("cc-dicece", 3), ("blob-dicece", 3)):
        calls.clear()
        combined_loss(kind, logits, gt, lab=lab, part=part)
        assert calls == Counter({"_each_slab": passes, "_grad": 1}), kind


def test_benchmark_layer_calls_see_each_loss_once(monkeypatch, benchmark_tracer):
    # The traced benchmark run times the losses by wrapping these attributes;
    # tests/test_bench_hooks.py checks that every wrapped attribute resolves.
    wrapped = [attr for module, attr, _, _ in benchmark_tracer.LAYER_CALLS
               if module is losses and attr.endswith("_loss")]
    assert sorted(wrapped) == ["blob_instance_loss", "cc_instance_loss", "dicece_loss"]

    gt, lab, logits = _random_case(61, n_components=2)
    part = voronoi_partition(lab)
    calls = Counter()
    for name in wrapped:
        _count_calls(monkeypatch, losses, name, calls)
    for kind in KINDS:
        calls.clear()
        combined_loss(kind, logits, gt, lab=lab, part=part)
        want = Counter({"dicece_loss": 1})
        if INSTANCE_FN[kind]:
            want[INSTANCE_FN[kind]] = 1
        assert calls == want, kind

    # An empty GT has no instance term: no instance loss is entered and no
    # partition is built, whatever labeling or partition is passed.
    empty = mk_mask(np.zeros(gt.voxels.shape, dtype=bool))
    _count_calls(monkeypatch, losses, "voronoi_partition", calls)
    for kind in KINDS:
        for lab_in, part_in in ((None, None), (label_components(empty), None),
                                (None, part), (label_components(empty), part)):
            calls.clear()
            combined_loss(kind, logits, empty, lab=lab_in, part=part_in)
            assert calls == Counter({"dicece_loss": 1}), (kind, lab_in, part_in)


EDGE_LATTICES = {
    "one-voxel": np.ones((1, 1, 1), dtype=bool),
    "all-foreground": np.ones((3, 2, 2), dtype=bool),
    "empty-gt": np.zeros((3, 2, 2), dtype=bool),
}


@pytest.mark.parametrize("name", sorted(EDGE_LATTICES))
def test_combined_gradients_on_edge_lattices(name):
    gt = mk_mask(EDGE_LATTICES[name])
    logits = np.random.default_rng(62).normal(0.0, 2.0, size=gt.voxels.shape)
    for kind in KINDS:
        lv = combined_loss(kind, mk_logits(logits), gt)
        _assert_fd(
            lambda a: combined_loss(kind, mk_logits(a), gt).scalar, lv.grad, logits
        )


# ---------------------------------------------------------------------------
# the per-thread workspace and the GT values cached on the labeling
# ---------------------------------------------------------------------------

def _reuse_cases():
    """Cases on two lattice shapes, each with C- and F-order logits."""
    cases = []
    for seed, shape in ((70, (7, 6, 5)), (71, (6, 8, 4))):
        gt, lab, logits = _random_case(seed, shape=shape, n_components=3)
        part = voronoi_partition(lab)
        for order in "CF":
            lv = mk_logits(np.asarray(logits.voxels, order=order))
            for kind, weights in (("dicece", None), ("cc-dicece", LossWeights(0.7, 1.9, 0.3, 1.3)),
                                  ("blob-dicece", None)):
                cases.append((kind, lv, gt, weights, lab, part))
    return cases


def _digest(lv):
    return float(lv.scalar).hex(), lv.grad.tobytes()


def _run(case):
    kind, logits, gt, weights, lab, part = case
    return _digest(combined_loss(kind, logits, gt, weights, lab=lab, part=part))


def _in_fresh_thread(fn, *args):
    """fn(*args) in a new thread, whose first loss call builds a new workspace."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn(*args)))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive() and len(out) == 1
    return out[0]


def test_workspace_reuse_is_invisible_across_calls_shapes_and_layouts():
    cases = _reuse_cases()
    want = [_in_fresh_thread(_run, c) for c in cases]
    # repeated, then interleaved shapes and layouts in one thread
    order = [i for i in range(len(cases)) for _ in range(2)] + list(range(len(cases)))[::-1]
    for i in order:
        assert _run(cases[i]) == want[i], i


@pytest.mark.parametrize("order", "CF")
def test_float32_and_float64_stored_logits_give_the_same_bits(order):
    # |l| up to about 60, so the clamp at LOGIT_CLAMP runs on float32 data too
    gt, lab, _ = _random_case(75, shape=(7, 6, 5), n_components=3)
    part = voronoi_partition(lab)
    arr = np.random.default_rng(76).normal(0.0, 20.0, size=gt.voxels.shape)
    arr = np.asarray(arr.astype(np.float32), order=order)
    single, double = LogitVolume(arr, UNIT), mk_logits(arr)
    assert (single.voxels.dtype, double.voxels.dtype) == (np.float32, np.float64)
    for kind in KINDS:
        # each in a fresh thread, so each builds its own workspace
        want = _in_fresh_thread(_run, (kind, double, gt, None, lab, part))
        assert _in_fresh_thread(_run, (kind, single, gt, None, lab, part)) == want, kind
        # and in this thread, one after the other
        assert _run((kind, double, gt, None, lab, part)) == want, kind
        assert _run((kind, single, gt, None, lab, part)) == want, kind


def test_held_gradient_survives_later_calls():
    cases = _reuse_cases()
    held = [combined_loss(k, lv, gt, w, lab=lab, part=part) for k, lv, gt, w, lab, part in cases]
    held_bytes = [_digest(v) for v in held]
    for k, lv, gt, w, lab, part in cases[::-1]:
        combined_loss(k, lv, gt, w, lab=lab, part=part)
    gt, lab, logits = _random_case(72, shape=(7, 6, 5), n_components=2)
    part = voronoi_partition(lab)
    public = [dicece_loss(logits, gt), cc_instance_loss(logits, gt, lab, part),
              blob_instance_loss(logits, gt, lab), *cc_instance_terms(logits, gt, lab, part)]
    public_bytes = [_digest(v) for v in public]
    for k, lv, gt2, w, lab2, part2 in cases:
        combined_loss(k, lv, gt2, w, lab=lab2, part=part2)
    for v, b in zip(held + public, held_bytes + public_bytes):
        assert not v.grad.flags.writeable
        assert _digest(v) == b


def test_threads_computing_at_once_match_a_fresh_thread():
    # One shape and layout, so a workspace shared between threads would be
    # written by several calls at once; each thread has its own logits.
    shape = (16, 14, 12)
    spec = random_instances_spec(Shape(*shape), UNIT, 3, 77)
    gt, lab = build_phantom(spec)
    part = voronoi_partition(lab)
    n_threads, rounds = 4, 5  # more threads than cores on a 2-CPU machine
    rng = np.random.default_rng(78)
    cases = [(kind, mk_logits(rng.normal(0.0, 2.0, size=shape)), gt, None, lab, part)
             for _ in range(n_threads) for kind in KINDS]
    want = [_in_fresh_thread(_run, c) for c in cases]
    barrier = threading.Barrier(n_threads)
    got = [[] for _ in range(n_threads)]

    def worker(w):
        barrier.wait(timeout=30)
        mine = range(w * len(KINDS), (w + 1) * len(KINDS))
        for _ in range(rounds):
            got[w].extend((i, _run(cases[i])) for i in mine)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert sum(len(g) for g in got) == rounds * len(cases)
    for g in got:
        for i, d in g:
            assert d == want[i], i


def _mid_size_case():
    shape = (48, 40, 32)
    spec = random_instances_spec(Shape(*shape), UNIT, 6, 73)
    gt, lab = build_phantom(spec)
    arr = np.random.default_rng(74).normal(-2.0, 3.0, size=shape)
    return gt, lab, voronoi_partition(lab), mk_logits(arr), mk_logits(np.asfortranarray(arr))


def _workspace_bytes_per_voxel(like):
    ws = losses._Workspace(like)
    arrays = [v for v in vars(ws).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays) / like.size


# p, ce, a scratch lattice and the gradient in float64, the bool GT and the
# intp group index
WORKSPACE_B_PER_VOX = 4 * 8 + 1 + 8


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("order", "CF")
def test_workspace_holds_only_what_outlives_a_stage(dtype, order):
    like = np.zeros((7, 6, 5), dtype=dtype, order=order)
    assert _workspace_bytes_per_voxel(like) == WORKSPACE_B_PER_VOX


def test_cold_call_allocates_the_workspace_and_a_warm_call():
    gt, lab, part, c_logits, f_logits = _mid_size_case()
    bound = (WORKSPACE_B_PER_VOX + 17) * gt.voxels.size + 65536
    for kind in KINDS:
        for logits in (c_logits, f_logits):
            # a fresh thread builds its workspace in the traced call
            peak = traced_peak(lambda: _in_fresh_thread(
                lambda: combined_loss(kind, logits, gt, lab=lab, part=part)))
            assert peak <= bound, (kind, peak / gt.voxels.size)


def test_warm_call_allocates_only_the_gradient():
    gt, lab, part, c_logits, f_logits = _mid_size_case()
    for kind in KINDS:
        for logits in (c_logits, f_logits):
            combined_loss(kind, logits, gt, lab=lab, part=part)  # builds the workspace
            peak = traced_peak(lambda: combined_loss(kind, logits, gt, lab=lab, part=part))
            assert peak <= 17 * gt.voxels.size + 65536, (kind, peak / gt.voxels.size)


def test_new_layout_frees_the_old_workspace_first():
    # The replaced workspace must be gone before the new one is allocated,
    # so a layout switch peaks at one workspace plus a warm call.
    gt, lab, part, c_logits, f_logits = _mid_size_case()
    ws = _workspace_bytes_per_voxel(c_logits.voxels)
    for kind in KINDS:
        for first, second in ((c_logits, f_logits), (f_logits, c_logits)):
            def switch():  # the first call is traced, so that the old workspace is too
                combined_loss(kind, first, gt, lab=lab, part=part)
                tracemalloc.reset_peak()
                combined_loss(kind, second, gt, lab=lab, part=part)

            peak = traced_peak(switch)
            assert peak <= (ws + 17) * gt.voxels.size + 65536, (kind, peak / gt.voxels.size)


# ---------------------------------------------------------------------------
# lattice slabs on the process's loss pool
# ---------------------------------------------------------------------------

def _slab_cases():
    """Logits in C, F and permuted-axes layouts, float32 and float64, on
    lattices with and without axes of length 1."""
    cases = []
    for seed, shape in ((80, (7, 6, 5)), (81, (1, 9, 5)), (82, (5, 7, 1))):
        rng = np.random.default_rng(seed)
        gt = mk_mask(rng.random(shape) < 0.3)
        lab = label_components(gt)
        part = voronoi_partition(lab)
        c_arr = rng.normal(0.0, 3.0, size=(shape[1], shape[0], shape[2]))
        for arr in (np.ascontiguousarray(np.transpose(c_arr, (1, 0, 2))),
                    np.asfortranarray(np.transpose(c_arr, (1, 0, 2))),
                    np.transpose(c_arr, (1, 0, 2))):
            for dtype in (np.float64, np.float32):
                cases.append((gt, lab, part, LogitVolume(arr.astype(dtype), UNIT)))
    return cases


def _slab_digests(cases):
    out = []
    for gt, lab, part, logits in cases:
        out += [_digest(combined_loss(kind, logits, gt, lab=lab, part=part)) for kind in KINDS]
        out.append(_digest(combined_loss("blob-dicece", logits, gt,
                                         LossWeights(0.7, 1.9, 0.3, 1.3), lab=lab)))
        out += [_digest(v) for v in cc_instance_terms(logits, gt, lab, part)]
        out += [_digest(v) for v in blob_instance_terms(logits, gt, lab)]
    return out


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_bits_do_not_depend_on_the_slabs_or_the_worker_count(monkeypatch, workers):
    cases = _slab_cases()
    want = _slab_digests(cases)  # each lattice is one slab, run inline
    calls = Counter()
    _count_calls(monkeypatch, _pool, "_executor", calls)
    monkeypatch.setenv("LESIONWISE_THREADS", str(workers))
    # one-row slabs, then (on 7x6x5) runs of 2-3 rows that leave a shorter last slab
    for slab_voxels in (1, 100):
        monkeypatch.setattr(losses, "SLAB_VOXELS", slab_voxels)
        calls.clear()
        assert _slab_digests(cases) == want, slab_voxels
        assert (calls["_executor"] > 0) == (workers > 1), slab_voxels


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_combined_loss_is_the_weighted_sum_of_the_public_losses_bit_for_bit(monkeypatch, workers):
    # 48x40x36 is two slabs. Raw bytes, as -0.0 == 0.0.
    monkeypatch.setenv("LESIONWISE_THREADS", str(workers))
    shape = (48, 40, 36)
    assert len(losses._slabs(np.empty(shape))) == 2
    for seed in (90, 91):
        gt, lab = build_phantom(random_instances_spec(Shape(*shape), UNIT, 4, seed))
        part = voronoi_partition(lab)
        arr = np.random.default_rng(seed).normal(-1.0, 3.0, size=shape)
        for logits in (LogitVolume(arr.astype(np.float32), UNIT), mk_logits(arr),
                       LogitVolume(np.asfortranarray(arr.astype(np.float32)), UNIT)):
            for w in (LossWeights(), LossWeights(0.7, 1.3, 0.9, 1.1)):
                g = dicece_loss(logits, gt, w.w_dice, w.w_ce)
                for kind, inst in (
                        ("cc-dicece", cc_instance_loss(logits, gt, lab, part, w.w_dice, w.w_ce)),
                        ("blob-dicece", blob_instance_loss(logits, gt, lab, w.w_dice, w.w_ce))):
                    want_scalar = w.w_global * g.scalar + w.w_instance * inst.scalar
                    want_grad = w.w_global * g.grad + w.w_instance * inst.grad
                    got = combined_loss(kind, logits, gt, w, lab=lab, part=part)
                    assert _digest(got) == (want_scalar.hex(), want_grad.tobytes()), (seed, kind, w)


def test_one_slab_lattice_never_reaches_the_pool(monkeypatch):
    # Nor reads the worker count: a small-lattice step pays no dispatch.
    monkeypatch.setenv("LESIONWISE_THREADS", "2")
    calls = Counter()
    _count_calls(monkeypatch, _pool, "_executor", calls)
    _count_calls(monkeypatch, _pool, "worker_count", calls)
    for shape in ((8, 8, 8), (16, 12, 10)):
        gt, lab, logits = _random_case(92, shape=shape, n_components=3)
        assert len(losses._slabs(logits.voxels)) == 1
        for kind in KINDS:
            combined_loss(kind, logits, gt)
            combined_loss(kind, logits, gt, lab=lab, part=voronoi_partition(lab))
    assert calls == Counter()


def test_a_slab_pass_hands_the_pool_one_task_per_worker(monkeypatch):
    monkeypatch.setattr(losses, "SLAB_VOXELS", 1)
    gt, lab, logits = _random_case(70, shape=(7, 6, 5), n_components=3)
    part = voronoi_partition(lab)
    run_all, sizes = _pool.run_all, []

    def counted(calls):
        sizes.append(len(calls))
        return run_all(calls)

    monkeypatch.setattr(_pool, "run_all", counted)
    for workers in (2, 3, 9):  # 9 workers: one task per slab, as there are 7
        monkeypatch.setenv("LESIONWISE_THREADS", str(workers))
        for kind in KINDS:
            sizes.clear()
            combined_loss(kind, logits, gt, lab=lab, part=part)
            # the voxel pass and the gradient; an instance kind's index copy,
            # then its two group sums at once
            tasks = min(7, workers)
            want = [tasks] * 2 if kind == "dicece" else [tasks, tasks, 2, tasks]
            assert sizes == want, (workers, kind)


def test_threads_sharing_the_loss_pool_match_a_fresh_thread(monkeypatch):
    # The same check with one-row slabs, so that the calling threads' slabs
    # queue on the one pool at once.
    monkeypatch.setattr(losses, "SLAB_VOXELS", 1)
    monkeypatch.setenv("LESIONWISE_THREADS", "2")
    calls = Counter()
    _count_calls(monkeypatch, _pool, "_executor", calls)
    test_threads_computing_at_once_match_a_fresh_thread()
    assert calls["_executor"] > 0


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_computes_the_same_bits(monkeypatch):
    # The parent's pool has running workers when the child is forked; the
    # child has none of them and must not wait on their queue.
    monkeypatch.setattr(losses, "SLAB_VOXELS", 1)
    monkeypatch.setenv("LESIONWISE_THREADS", "2")
    case = _reuse_cases()[1]  # cc-dicece, weighted, C-order logits
    want = _run(case)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(_run(case)), daemon=True)
    child.start()
    send.close()  # so that a child that dies ends the pipe
    got = recv.recv() if recv.poll(30) else None  # None: the child hangs
    child.join(timeout=30 if got is not None else 0)
    if child.is_alive():
        child.kill()
        child.join(timeout=30)
    assert got == want
    assert child.exitcode == 0


def _raised(call):
    try:
        call()
    except (ArithmeticError, ValueError, RuntimeWarning) as exc:
        return type(exc), str(exc)
    return None


def test_threaded_call_raises_what_the_one_slab_call_raises(monkeypatch):
    # The weighted gradient overflows float64 in combined_loss's slab work,
    # under the caller's numpy error state whichever thread runs the slab.
    gt, lab, part, logits = _slab_cases()[0]
    big = LossWeights(1e308, 1e308, 1e307, 1.0)

    def call():
        combined_loss("cc-dicece", logits, gt, big, lab=lab, part=part)

    monkeypatch.setenv("LESIONWISE_THREADS", "2")
    outcomes = []
    for errstate, action in (("raise", "default"), ("ignore", "error")):
        with np.errstate(all=errstate), warnings.catch_warnings():
            warnings.simplefilter(action)
            want = _raised(call)
            with monkeypatch.context() as m:
                m.setattr(losses, "SLAB_VOXELS", 1)
                got = _raised(call)
        assert got == want, errstate
        outcomes.append(want)
    assert outcomes == [(FloatingPointError, "overflow encountered in multiply"),
                        (ValueError, "loss scalar is not finite: inf")]


def test_labeling_or_partition_of_other_voxels_rejected():
    vox = np.zeros((9, 9, 3), dtype=bool)
    vox[1, 1, 1] = vox[7, 7, 1] = True
    gt = mk_mask(vox)
    logits = mk_logits(np.random.default_rng(75).normal(0.0, 2.0, size=vox.shape))
    moved = vox.copy()  # one lesion moved by a voxel: the same voxel count
    moved[7, 7, 1], moved[7, 6, 1] = False, True
    grown = vox.copy()
    grown[7, 6, 1] = True
    for other in (moved, grown):
        wrong = label_components(mk_mask(other))
        part = voronoi_partition(wrong)
        with pytest.raises(ValueError, match="covers"):
            cc_instance_loss(logits, gt, wrong, part)
        with pytest.raises(ValueError, match="covers"):
            blob_instance_loss(logits, gt, wrong)
        for kind in ("cc-dicece", "blob-dicece"):
            with pytest.raises(ValueError, match="covers"):
                combined_loss(kind, logits, gt, lab=wrong, part=part)

    # the partition of the same mask with the two IDs swapped
    lab = label_components(gt)
    swapped = _permuted(lab, voronoi_partition(lab), [1, 0])[1]
    with pytest.raises(ValueError, match="partition does not match"):
        combined_loss("cc-dicece", logits, gt, lab=lab, part=swapped)

    # equal objects built separately are accepted, and give the same bits
    lab2 = label_components(mk_mask(vox.copy()))
    part2 = voronoi_partition(lab2)
    want = _digest(combined_loss("cc-dicece", logits, gt, lab=lab, part=voronoi_partition(lab)))
    assert _digest(combined_loss("cc-dicece", logits, gt, lab=lab2, part=part2)) == want


def test_labeling_with_other_sizes_rejected():
    # the right voxels with doubled sizes once gave cc_dice 0.6667 for pred = gt
    gt, lab = build_phantom(random_instances_spec(Shape(16, 12, 10), UNIT, 3, seed=5))
    logits = mk_logits(np.random.default_rng(5).normal(0.0, 2.0, size=(16, 12, 10)))
    part = voronoi_partition(lab)
    doubled = ComponentLabeling(lab.labels, lab.count, 2 * lab.volumes_vox,
                                2 * lab.volumes_mm3, lab.spacing)
    short = ComponentLabeling(lab.labels, lab.count - 1, lab.volumes_vox[:-1],
                              lab.volumes_mm3[:-1], lab.spacing)
    negated = ComponentLabeling(-lab.labels, lab.count, lab.volumes_vox,
                                lab.volumes_mm3, lab.spacing)
    for wrong in (doubled, short, negated):
        calls = [
            lambda: cc_dice(gt, gt, lab=wrong),
            lambda: cc_instance_loss(logits, gt, wrong, part),
            lambda: blob_instance_loss(logits, gt, wrong),
            lambda: combined_loss("blob-dicece", logits, gt, lab=wrong),
            lambda: combined_loss("cc-dicece", logits, gt, lab=wrong),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^component labeling .* other sizes"):
                call()
    same = ComponentLabeling(lab.labels, lab.count, lab.volumes_vox.copy(),
                             lab.volumes_mm3.copy(), lab.spacing)
    assert cc_dice(gt, gt, lab=same) == 1.0
    assert _digest(blob_instance_loss(logits, gt, same)) == \
        _digest(blob_instance_loss(logits, gt, lab))


def test_public_losses_refuse_the_weights_loss_weights_refuses():
    # w_dice=-1 once gave dicece a value and cc_instance_terms negative terms
    gt, lab, logits = _random_case(77, n_components=2)
    part = voronoi_partition(lab)
    losses_of = [
        lambda **w: dicece_loss(logits, gt, **w),
        lambda **w: cc_instance_loss(logits, gt, lab, part, **w),
        lambda **w: cc_instance_terms(logits, gt, lab, part, **w),
        lambda **w: blob_instance_loss(logits, gt, lab, **w),
        lambda **w: blob_instance_terms(logits, gt, lab, **w),
    ]
    for loss in losses_of:
        for key in ("w_dice", "w_ce"):
            for bad in (-1.0, -1e-300, math.inf, math.nan):
                with pytest.raises(ValueError, match="finite and non-negative"):
                    LossWeights(**{key: bad})
                with pytest.raises(ValueError, match="finite and non-negative"):
                    loss(**{key: bad})
            loss(**{key: 0.0})  # zero and -0.0 pass, as in LossWeights
            loss(**{key: -0.0})


def test_non_finite_loss_raises():
    # weights near the float64 maximum overflow the scalar or the gradient
    gt, lab, logits = _random_case(76, n_components=2)
    part = voronoi_partition(lab)
    big = 1.7e308
    calls = [
        lambda: dicece_loss(logits, gt, w_dice=big),
        lambda: cc_instance_loss(logits, gt, lab, part, w_dice=big),
        lambda: blob_instance_loss(logits, gt, lab, w_dice=big),
        lambda: combined_loss("cc-dicece", logits, gt, LossWeights(w_dice=big), lab=lab, part=part),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for call in calls:
            with pytest.raises(ValueError, match="not finite|NaN or Inf"):
                call()


def test_combined_loss_rejects_a_partition_of_another_metric():
    # at spacing 1x1x3 the voxel and physical partitions differ
    spec = random_instances_spec(Shape(8, 8, 8), Spacing(1.0, 1.0, 3.0), 3, 1)
    gt, lab = build_phantom(spec)
    logits = mk_logits(np.random.default_rng(1).normal(0.0, 2.0, (8, 8, 8)), gt.spacing)
    vox, phys = voronoi_partition(lab, "voxel"), voronoi_partition(lab, "physical")
    assert np.count_nonzero(vox.region_of != phys.region_of) > 0
    for part, metric in ((vox, "physical"), (phys, "voxel")):
        for kind in KINDS:
            with pytest.raises(ValueError, match="metric"):
                combined_loss(kind, logits, gt, metric=metric, lab=lab, part=part)
    want = _digest(combined_loss("cc-dicece", logits, gt, metric="physical"))
    assert _digest(combined_loss("cc-dicece", logits, gt, metric="physical",
                                 lab=lab, part=phys)) == want
    for kind in KINDS:
        with pytest.raises(ValueError, match="metric must be one of"):
            combined_loss(kind, logits, gt, metric="chebyshev")


# ---------------------------------------------------------------------------
# stateless input checks, against the lattice-wide oracle
# ---------------------------------------------------------------------------

_EDITS = ("same", "moved", "grown", "shrunk", "random", "reshaped")


def _edited(data, arr, how):
    """A mask related to ``arr`` by one edit: a voxel of a lesion moved,
    added or removed, an unrelated mask, or a mask of another shape."""
    if how == "random":
        return data.draw(npst.arrays(bool, arr.shape))
    if how == "reshaped":
        return data.draw(npst.arrays(bool, (arr.shape[0] + 1,) + arr.shape[1:]))
    out = np.array(arr, order="C")
    fg, bg = np.flatnonzero(arr), np.flatnonzero(~arr)
    if how in ("moved", "shrunk") and fg.size:
        out.flat[fg[data.draw(st.integers(0, fg.size - 1))]] = False
    if how in ("moved", "grown") and bg.size:
        out.flat[bg[data.draw(st.integers(0, bg.size - 1))]] = True
    return out


def _labeled(arr, order):
    """``label_components`` of ``arr``, its labels laid out in ``order``."""
    lab = label_components(mk_mask(arr))
    return ComponentLabeling(np.asarray(lab.labels, order=order), lab.count,
                             lab.volumes_vox, lab.volumes_mm3, lab.spacing)


def _outcome(call):
    try:
        call()
    except EmptyGroundTruthError:
        return "empty"
    except ValueError as exc:
        msg = str(exc)
        return "labeling" if msg.startswith("component labeling") else \
            "partition" if msg.startswith("Voronoi partition") else msg
    return "ok"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_stateless_checks_accept_exactly_what_the_lattice_oracle_accepts(data):
    shape = data.draw(st.tuples(*[st.integers(1, 5)] * 3))
    arr = data.draw(npst.arrays(bool, shape))
    gt = mk_mask(np.asarray(arr, order=data.draw(st.sampled_from("CF"))))
    logits = mk_logits(np.random.default_rng(80).normal(0.0, 2.0, shape))
    lab = _labeled(_edited(data, arr, data.draw(st.sampled_from(_EDITS))),
                   data.draw(st.sampled_from("CF")))
    # the partition of another labeling, often with the same count, or of
    # gt's own labeling with the IDs reversed
    own = label_components(gt)
    how = data.draw(st.sampled_from(_EDITS + ("reversed",)))
    src = own if how == "reversed" else label_components(mk_mask(_edited(data, arr, how)))
    src = src if src.count else own
    part = voronoi_partition(src) if src.count else None
    if how == "reversed" and part is not None:
        part = VoronoiPartition(part.count + 1 - part.region_of, part.count, part.metric)

    lab_ok = lab.labels.shape == shape and np.array_equal(lab.labels != 0, gt.voxels)
    fg = lab.labels != 0
    # a partition that names its labeling passes only with an equal one;
    # one built by hand, only if each component lies in its own region
    part_ok = part is not None and part.region_of.shape == lab.labels.shape \
        and part.count == lab.count and (
            np.array_equal(part.region_of[fg], lab.labels[fg]) if part.lab is None
            else np.array_equal(part.lab.labels, lab.labels))
    want = "labeling" if not lab_ok else "empty" if lab.count == 0 else "ok"
    good_part = voronoi_partition(own) if own.count else None

    # each mismatch raises on every call, whatever the calls between passed
    for _ in range(2):
        assert _outcome(lambda: blob_instance_loss(logits, gt, lab)) == want
        assert _outcome(lambda: combined_loss("blob-dicece", logits, gt, lab=lab)) == \
            ("ok" if want == "empty" else want)
        if part is not None:
            want_cc = "partition" if want == "ok" and not part_ok else want
            assert _outcome(lambda: cc_instance_loss(logits, gt, lab, part)) == want_cc
            assert _outcome(lambda: combined_loss("cc-dicece", logits, gt, lab=lab,
                                                  part=part)) == \
                ("ok" if want_cc == "empty" else want_cc)
        assert _outcome(lambda: blob_instance_loss(logits, gt, own)) == \
            ("ok" if own.count else "empty")
        if good_part is not None:
            assert _outcome(lambda: cc_instance_loss(logits, gt, own, good_part)) == "ok"

    # the same bits whether gt, lab and part are reused or rebuilt per call
    if own.count:
        for kind in ("cc-dicece", "blob-dicece"):
            reused = [_digest(combined_loss(kind, logits, gt, lab=own, part=good_part))
                      for _ in range(2)]
            fresh = []
            for _ in range(2):
                gt2 = mk_mask(np.array(gt.voxels, order="K"))
                lab2 = label_components(gt2)
                fresh.append(_digest(combined_loss(kind, logits, gt2, lab=lab2,
                                                   part=voronoi_partition(lab2))))
            assert reused == fresh
            assert reused[0] == _digest(combined_loss(kind, logits, gt))


def test_partition_of_a_shifted_labeling_rejected():
    # Each component of the GT rolled by 3 voxels still lies in the region
    # of its own number, so the O(GT) check alone passes it (0.71351).
    f2 = figure2_scenario()
    want = combined_loss("cc-dicece", f2.logits, f2.gt).scalar
    assert want == pytest.approx(0.70740, abs=5e-6)
    rolled = voronoi_partition(label_components(mk_mask(np.roll(f2.gt.voxels, 3, axis=0))))
    with pytest.raises(ValueError, match="Voronoi partition does not match"):
        combined_loss("cc-dicece", f2.logits, f2.gt, part=rolled)
    by_hand = VoronoiPartition(rolled.region_of, rolled.count, rolled.metric)
    assert combined_loss("cc-dicece", f2.logits, f2.gt, part=by_hand).scalar == \
        pytest.approx(0.71351, abs=5e-6)
    # a partition of an equal labeling that is another object passes
    lab = label_components(f2.gt)
    equal = voronoi_partition(label_components(mk_mask(f2.gt.voxels.copy())))
    assert equal.lab is not lab
    assert combined_loss("cc-dicece", f2.logits, f2.gt, lab=lab, part=equal).scalar == want


def _anisotropic_labeling_case():
    """A phantom, logits, and a labeling of the same voxels at other spacing."""
    gt, _ = build_phantom(random_instances_spec(Shape(24, 20, 16), UNIT, 5, seed=3))
    logits = mk_logits(np.random.default_rng(1).standard_normal(gt.voxels.shape))
    return gt, logits, label_components(mk_mask(gt.voxels, Spacing(1, 1, 4)))


def test_labeling_at_another_spacing_rejected():
    # Its physical partition is another one: this once gave 3.588830 for 3.588879.
    gt, logits, other = _anisotropic_labeling_case()
    assert combined_loss("cc-dicece", logits, gt, metric="physical").scalar == \
        pytest.approx(3.588879, abs=5e-7)
    for kind in ("cc-dicece", "blob-dicece"):
        with pytest.raises(ValueError, match="shape or spacing does not match"):
            combined_loss(kind, logits, gt, metric="physical", lab=other)


def test_partition_of_an_equal_labeling_at_another_spacing_rejected():
    gt, logits, other = _anisotropic_labeling_case()
    lab = label_components(gt)
    assert np.array_equal(other.labels, lab.labels)
    part = voronoi_partition(other, "physical")  # 2869 of 7680 voxels in other regions
    assert np.count_nonzero(part.region_of != voronoi_partition(lab, "physical").region_of)
    # this once gave 3.588830 without error
    with pytest.raises(ValueError, match="Voronoi partition does not match"):
        combined_loss("cc-dicece", logits, gt, metric="physical", lab=lab, part=part)


def test_partition_that_does_not_cover_the_lattice_rejected():
    gt, lab = build_phantom(random_instances_spec(Shape(12, 10, 8), UNIT, 3, seed=5))
    logits = mk_logits(np.random.default_rng(1).standard_normal(gt.voxels.shape))
    part = voronoi_partition(lab)
    assert cc_instance_loss(logits, gt, lab, part).scalar == pytest.approx(1.740121, abs=5e-7)
    # Regions cleared off the GT once gave 1.137770 without error; an ID
    # above the count raised numpy's broadcast error.
    for fill in (0, lab.count + 1):
        with pytest.raises(ValueError, match=r"region IDs 1\.\.3 at every voxel"):
            VoronoiPartition(np.where(gt.voxels, part.region_of, fill), part.count, part.metric)
    with pytest.raises(ValueError, match="region IDs"):
        VoronoiPartition(part.region_of.astype(np.float64), part.count, part.metric)
    by_hand = VoronoiPartition(part.region_of.copy(), part.count, part.metric)
    assert cc_instance_loss(logits, gt, lab, by_hand).scalar == \
        cc_instance_loss(logits, gt, lab, part).scalar


@pytest.mark.parametrize("call", [
    lambda m, lab, part: binarize(m, 0.2),
    lambda m, lab, part: dicece_loss(m, m),
    lambda m, lab, part: soft_dice_loss(m, m),
    lambda m, lab, part: cc_instance_loss(m, m, lab, part),
    lambda m, lab, part: cc_instance_terms(m, m, lab, part),
    lambda m, lab, part: blob_instance_loss(m, m, lab),
    lambda m, lab, part: blob_instance_terms(m, m, lab),
    lambda m, lab, part: combined_loss("dicece", m, m),
    lambda m, lab, part: combined_loss("cc-dicece", m, m, lab=lab, part=part),
    lambda m, lab, part: combined_loss("blob-dicece", m, m),
    lambda m, lab, part: gradient_map("dicece", m, m),
], ids=["binarize", "dicece", "soft-dice", "cc", "cc-terms", "blob", "blob-terms", "combined-dicece",
        "combined-cc", "combined-blob", "gradient-map"])
def test_a_mask_is_refused_where_logits_belong(call):
    # Read as logits, a mask once gave 1.633614 for combined_loss("dicece",
    # gt, gt), and binarize(mask, 0.2) gave the mask, where 0/1 logits are all
    # foreground.
    gt, lab = build_phantom(random_instances_spec(Shape(12, 10, 8), UNIT, 3, seed=5))
    with pytest.raises(TypeError, match="expected a LogitVolume, got BinaryMask"):
        call(gt, lab, voronoi_partition(lab))


@pytest.mark.parametrize("call", [
    lambda lv: dicece_loss(lv, lv),
    lambda lv: combined_loss("dicece", lv, lv),
    lambda lv: combined_loss("cc-dicece", lv, lv),
    lambda lv: combined_loss("blob-dicece", lv, lv),
], ids=["dicece", "combined-dicece", "combined-cc", "combined-blob"])
def test_logits_are_refused_where_the_ground_truth_belongs(call):
    _, _, logits = _random_case(83, n_components=2)
    with pytest.raises(TypeError, match="expected a bool mask, got LogitVolume"):
        call(logits)


def test_combined_loss_rejects_an_empty_labeling_of_a_nonempty_gt():
    gt, _, logits = _random_case(81, n_components=2)
    empty = label_components(mk_mask(np.zeros(gt.voxels.shape, dtype=bool)))
    for kind in ("cc-dicece", "blob-dicece"):
        with pytest.raises(ValueError, match="covers"):
            combined_loss(kind, logits, gt, lab=empty)


def test_labeling_is_checked_before_a_partition_is_built(monkeypatch):
    gt, _, logits = _random_case(82, n_components=2)
    shifted = np.roll(gt.voxels, 1, axis=0)  # a labeling of other voxels
    wrong = label_components(mk_mask(shifted))
    calls = []

    def counting_partition(*args, **kwargs):
        calls.append(1)
        return voronoi_partition(*args, **kwargs)

    monkeypatch.setattr(losses, "voronoi_partition", counting_partition)
    with pytest.raises(ValueError, match="covers"):
        combined_loss("cc-dicece", logits, gt, lab=wrong)
    assert calls == []
    combined_loss("cc-dicece", logits, gt, lab=label_components(gt))
    assert calls == [1]


# ---------------------------------------------------------------------------
# combined_loss against a composition of oracles
# ---------------------------------------------------------------------------

def _drawn_gt(data, shape):
    """Empty; speckle (touching components, many on the lattice faces); a few
    boxes that may touch, merge or lie on the faces; or single voxels on a
    regular grid, whose Voronoi regions tie at every midpoint."""
    how = data.draw(st.sampled_from(["empty", "speckle", "boxes", "grid"]))
    gt = np.zeros(shape, dtype=bool)
    if how == "speckle":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        gt = rng.random(shape) < data.draw(st.sampled_from([0.1, 0.3, 0.6]))
    elif how == "boxes":
        for _ in range(data.draw(st.integers(1, 4))):
            lo = [data.draw(st.integers(0, n - 1)) for n in shape]
            hi = [data.draw(st.integers(a, n - 1)) for a, n in zip(lo, shape)]
            gt[tuple(slice(a, b + 1) for a, b in zip(lo, hi))] = True
    elif how == "grid":
        step = data.draw(st.integers(2, 3))
        gt[tuple(slice(data.draw(st.integers(0, step - 1)), None, step) for _ in shape)] = True
    return gt


def _oracle_combined(kind, gt, spacing, metric, weights):
    """``combined_loss``'s scalar as a function of the logit array, from the
    oracles only: flood-fill components, brute-force Voronoi regions and
    DiceCE from its formula. A blob term spans the lattice with p = g = 0 on
    the other components' voxels (logit -inf), which still count in the CE
    mean, as the ``losses`` docstring defines it."""
    count, labels = flood_fill_label(gt)
    everywhere = np.ones(gt.shape, dtype=bool)
    instance = None
    if kind == "cc-dicece" and count:
        vox = np.bincount(labels.ravel(), minlength=count + 1)[1:]
        lab = ComponentLabeling(labels, count, vox, vox * spacing.voxel_volume, spacing)
        region = voronoi_partition_bruteforce(lab, metric).region_of

        def instance(logits):
            return [dicece_over_voxels(logits, labels == k, region == k)
                    for k in range(1, count + 1)]
    elif kind == "blob-dicece" and count:
        def instance(logits):
            return [dicece_over_voxels(np.where((labels != 0) & (labels != k), -np.inf, logits),
                                       labels == k, everywhere)
                    for k in range(1, count + 1)]

    def loss(logits):
        value = weights.w_global * dicece_over_voxels(logits, gt, everywhere)
        if instance is not None:
            value += weights.w_instance * float(np.mean(instance(logits)))
        return value
    return loss


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_combined_loss_is_a_composition_of_oracles(data):
    shape = data.draw(st.sampled_from([(1, 1, 1), (10, 10, 10)])
                      | st.tuples(*[st.integers(1, 10)] * 3))
    spacing = Spacing(*data.draw(st.tuples(*[st.sampled_from([0.5, 1.0, 2.0, 3.0])] * 3)))
    metric = data.draw(st.sampled_from(["voxel", "physical"]))
    weights = LossWeights(w_global=data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
                          w_instance=data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    gt = mk_mask(_drawn_gt(data, shape), spacing)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    arr = np.asarray(rng.normal(0.0, 4.0, shape).clip(-30.0, 30.0),
                     order=data.draw(st.sampled_from("CF")))
    logits = mk_logits(arr, spacing)
    lab = label_components(gt)
    part = voronoi_partition(lab, metric) if lab.count else None
    picks = data.draw(st.lists(st.integers(0, arr.size - 1), min_size=1, max_size=3,
                               unique=True))
    subset = np.unravel_index(np.array(picks), shape)

    for kind in KINDS:
        lv = combined_loss(kind, logits, gt, weights, metric=metric, lab=lab, part=part)
        oracle = _oracle_combined(kind, gt.voxels, spacing, metric, weights)
        assert math.isclose(lv.scalar, oracle(arr), rel_tol=1e-10, abs_tol=1e-12), kind

        def at_subset(values):
            work = arr.copy()
            work[subset] = values
            return oracle(work)

        fd = finite_difference_grad(at_subset, arr[subset])
        np.testing.assert_allclose(lv.grad[subset], fd, rtol=1e-4, atol=1e-8, err_msg=kind)
