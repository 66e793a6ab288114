import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from lesionwise import (
    BinaryMask,
    LogitVolume,
    ProbVolume,
    Shape,
    Spacing,
    ShapeMismatchError,
    binarize,
    sigmoid,
)
from lesionwise.volumes import require_same_grid, stable_sigmoid
from oracles import UNIT, mk_logits, mk_mask, two_branch_sigmoid


def test_shape_validation():
    assert Shape(2, 3, 4).count == 24
    with pytest.raises(ValueError):
        Shape(0, 1, 1)
    with pytest.raises(ValueError):
        Shape(1, -2, 1)


def test_spacing_validation():
    s = Spacing(0.5, 0.5, 2.0)
    assert s.voxel_volume == 0.5
    for bad in [(0, 1, 1), (1, float("inf"), 1), (1, 1, float("nan")), (-1, 1, 1)]:
        with pytest.raises(ValueError):
            Spacing(*bad)


def test_volumes_are_immutable():
    m = mk_mask(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        m.voxels[0, 0, 0] = False
    l = mk_logits(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        l.voxels[0, 0, 0] = 1.0


@pytest.mark.parametrize("shape, axis", [((0, 3, 3), "x"), ((3, 0, 3), "y"), ((3, 3, 0), "z")],
                         ids=["x", "y", "z"])
def test_zero_voxel_lattice_is_rejected(shape, axis):
    for cls in (BinaryMask, LogitVolume, ProbVolume):
        with pytest.raises(ValueError, match=f"no voxels along {axis}"):
            cls(np.zeros(shape), UNIT)


def test_logit_volume_rejects_non_finite():
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        LogitVolume(arr, UNIT)


def test_prob_volume_rejects_out_of_range():
    arr = np.full((2, 2, 2), 1.5)
    with pytest.raises(ValueError):
        ProbVolume(arr, UNIT)


def test_sigmoid_at_zero_is_half():
    p = sigmoid(mk_logits(np.zeros((3, 3, 3))))
    assert np.all(p.voxels == 0.5)


def test_sigmoid_saturation():
    arr = np.full((2, 2, 2), 40.0)
    arr[0, 0, 0] = 0.0
    p = sigmoid(mk_logits(arr)).voxels
    assert p[0, 0, 0] == 0.5
    # sigmoid(40) = 1 - 4.25e-18, which float64 rounds to exactly 1.0
    assert np.all(p.ravel()[1:] >= 1 - 1e-17)


def test_sigmoid_symmetry():
    rng = np.random.default_rng(0)
    arr = rng.normal(0, 5, size=(4, 4, 4))
    p = sigmoid(mk_logits(arr)).voxels
    q = sigmoid(mk_logits(-arr)).voxels
    np.testing.assert_allclose(p + q, 1.0, rtol=0, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(
    npst.arrays(
        np.float64,
        (3, 3, 3),
        elements=st.floats(min_value=-30, max_value=30),
    ),
    npst.arrays(
        np.float64,
        (3, 3, 3),
        elements=st.floats(min_value=0, max_value=10),
    ),
)
def test_sigmoid_in_open_unit_interval_and_monotone(arr, bump):
    p = sigmoid(mk_logits(arr)).voxels
    assert np.all(p > 0) and np.all(p < 1)
    q = sigmoid(mk_logits(arr + bump)).voxels
    assert np.all(q >= p)


def test_stable_sigmoid_equals_two_branch_formula_bit_for_bit():
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, -0.0, 40.0, -40.0, 700.0, -700.0, 800.0, -800.0,
             tiny, -tiny, 1e-310, -1e-310, np.finfo(np.float64).tiny, 1e-300, -1e-300]
    rng = np.random.default_rng(11)
    for arr in (np.array(edges), rng.normal(0, 20, size=(7, 6, 5)),
                np.asfortranarray(rng.normal(0, 1e-3, size=(4, 5, 6)))):
        got = stable_sigmoid(arr)
        assert got.dtype == np.float64
        assert got.tobytes() == two_branch_sigmoid(arr).tobytes()


def test_same_grid_requires_matching_spacing():
    a = mk_mask(np.zeros((2, 3, 4)), Spacing(0.9, 0.9, 3.0))
    # the float32 pixdim of a NIfTI file is the same spacing
    f32 = Spacing(*(float(np.float32(s)) for s in (0.9, 0.9, 3.0)))
    require_same_grid(a, mk_mask(np.zeros((2, 3, 4)), f32))
    for other in (Spacing(0.9, 0.9, 3.0001), Spacing(0.9, 1.0, 3.0)):
        with pytest.raises(ShapeMismatchError, match="spacings differ"):
            require_same_grid(a, mk_mask(np.zeros((2, 3, 4)), other))
    with pytest.raises(ShapeMismatchError, match="shapes differ"):
        require_same_grid(a, mk_mask(np.zeros((2, 3, 5)), Spacing(0.9, 1.0, 3.0)))


def test_binarize_threshold_is_inclusive():
    p = ProbVolume(np.full((2, 2, 2), 0.5), UNIT)
    assert binarize(p, 0.5).voxels.all()
    p49 = ProbVolume(np.full((2, 2, 2), 0.49), UNIT)
    assert not binarize(p49, 0.5).voxels.any()


def test_binarize_checkerboard():
    idx = np.indices((4, 4, 2)).sum(axis=0)
    probs = np.where(idx % 2 == 0, 0.8, 0.2)
    out = binarize(ProbVolume(probs, UNIT), 0.5)
    assert np.array_equal(out.voxels, idx % 2 == 0)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
def test_binarize_rejects_bad_threshold(bad):
    p = ProbVolume(np.full((1, 1, 1), 0.5), UNIT)
    with pytest.raises(ValueError):
        binarize(p, bad)


@settings(max_examples=30, deadline=None)
@given(
    npst.arrays(
        np.float64,
        (3, 3, 3),
        elements=st.floats(min_value=-30, max_value=30).filter(
            lambda v: v == 0.0 or abs(v) > 1e-9
        ),
    )
)
def test_binarize_sigmoid_equals_sign_test(arr):
    # |l| above the float dead zone around 0, where sigmoid rounds to 0.5
    l = mk_logits(arr)
    out = binarize(sigmoid(l), 0.5)
    assert np.array_equal(out.voxels, arr >= 0)
