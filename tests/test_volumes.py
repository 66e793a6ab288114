import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from lesionwise import (
    BinaryMask,
    LogitVolume,
    Shape,
    Spacing,
    ShapeMismatchError,
    binarize,
    sigmoid,
)
from lesionwise.volumes import require_same_grid, sigmoid_parts
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
    for bad in [(0, 1, 1), (1, float("inf"), 1), (1, 1, float("nan")), (-1, 1, 1),
                (1e200, 1e200, 1.0), (1e-200, 1e-200, 1.0)]:  # the last two: voxel volume
        with pytest.raises(ValueError):
            Spacing(*bad)
    assert Spacing(1e200, 1e-200, 1.0).voxel_volume == pytest.approx(1.0)


def test_volumes_are_immutable():
    m = mk_mask(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        m.voxels[0, 0, 0] = False
    l = mk_logits(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        l.voxels[0, 0, 0] = 1.0


@pytest.mark.parametrize("shape, message", [
    ((0, 3, 3), "no voxels along x"), ((3, 0, 3), "no voxels along y"),
    ((3, 3, 0), "no voxels along z"), ((3, 3), "expected a 3D voxel grid, got ndim=2"),
], ids=["x", "y", "z", "2d"])
def test_zero_voxel_lattice_is_rejected(shape, message):
    for cls in (BinaryMask, LogitVolume):
        with pytest.raises(ValueError, match=message):
            cls(np.zeros(shape), UNIT)


def test_logit_volume_rejects_non_finite():
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        LogitVolume(arr, UNIT)


def test_sigmoid_at_zero_is_half():
    p = sigmoid(np.zeros((3, 3, 3)))
    assert np.all(p == 0.5)


@pytest.mark.parametrize("x", [np.array(-1e-9), np.float32(3)], ids=["0-d", "scalar"])
def test_sigmoid_of_a_0d_array_or_scalar(x):
    p = sigmoid(x)
    assert np.shape(p) == ()
    assert p == two_branch_sigmoid(x)


def test_sigmoid_saturation():
    arr = np.full((2, 2, 2), 40.0)
    arr[0, 0, 0] = 0.0
    p = sigmoid(arr)
    assert p[0, 0, 0] == 0.5
    # sigmoid(40) = 1 - 4.25e-18, which float64 rounds to exactly 1.0
    assert np.all(p.ravel()[1:] >= 1 - 1e-17)


def test_sigmoid_symmetry():
    rng = np.random.default_rng(0)
    arr = rng.normal(0, 5, size=(4, 4, 4))
    p = sigmoid(arr)
    q = sigmoid(-arr)
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
    p = sigmoid(arr)
    assert np.all(p > 0) and np.all(p < 1)
    q = sigmoid(arr + bump)
    assert np.all(q >= p)


def test_stable_sigmoid_equals_two_branch_formula_bit_for_bit():
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, -0.0, 40.0, -40.0, 700.0, -700.0, 800.0, -800.0,
             tiny, -tiny, 1e-310, -1e-310, np.finfo(np.float64).tiny, 1e-300, -1e-300]
    rng = np.random.default_rng(11)
    for arr in (np.array(edges), rng.normal(0, 20, size=(7, 6, 5)),
                np.asfortranarray(rng.normal(0, 1e-3, size=(4, 5, 6)))):
        got = sigmoid(arr)
        assert got.dtype == np.float64
        assert got.tobytes() == two_branch_sigmoid(arr).tobytes()


def test_sigmoid_parts_into_given_arrays_equals_allocating_call():
    rng = np.random.default_rng(12)
    arr = rng.normal(0, 20, size=(7, 6, 5))
    for logits in (arr, np.asfortranarray(arr), arr.astype(np.float32)):
        p, e = sigmoid_parts(logits)
        out = tuple(np.empty(logits.shape) for _ in range(3))
        p2, e2 = sigmoid_parts(logits, out=out)
        assert p2 is out[0] and e2 is out[1]
        assert p2.tobytes() == p.tobytes() and e2.tobytes() == e.tobytes()
        np.testing.assert_array_equal(out[2], e + 1.0)


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
    # sigmoid(0) is exactly 0.5, so l = 0 meets t = 0.5
    assert binarize(mk_logits(np.zeros((2, 2, 2))), 0.5).voxels.all()
    below = -1e-9  # outside the dead zone where sigmoid(l) rounds to 0.5
    assert sigmoid(np.array([below]))[0] < 0.5
    assert not binarize(mk_logits(np.full((2, 2, 2), below)), 0.5).voxels.any()


def test_binarize_checkerboard():
    idx = np.indices((4, 4, 2)).sum(axis=0)
    logits = np.where(idx % 2 == 0, 1.4, -1.4)  # sigmoid: about 0.8 and 0.2
    out = binarize(mk_logits(logits), 0.5)
    assert np.array_equal(out.voxels, idx % 2 == 0)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
def test_binarize_rejects_bad_threshold(bad):
    l = mk_logits(np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        binarize(l, bad)


@st.composite
def _threshold_and_logits(draw):
    """A threshold and float32 logits near its logit, with +-0 and subnormals."""
    t = draw(st.one_of(st.sampled_from([1e-12, 0.5, 1 - 1e-12]),
                       st.floats(min_value=1e-6, max_value=1 - 1e-6)))
    centre = np.float32(np.log(t) - np.log1p(-t))
    near = st.integers(-64, 64).map(lambda k: np.float32(centre + k * np.spacing(centre)))
    tiny = np.finfo(np.float32).smallest_subnormal
    special = st.sampled_from([np.float32(v) for v in
                               (0.0, -0.0, tiny, -tiny, 1e-40, -1e-40,
                                np.finfo(np.float32).tiny, -np.finfo(np.float32).tiny)])
    wide = st.floats(min_value=-40, max_value=40, width=32).map(np.float32)
    arr = draw(npst.arrays(np.float32, (3, 3, 3), elements=st.one_of(near, special, wide)))
    return t, arr


@settings(max_examples=60, deadline=None)
@given(
    npst.arrays(
        np.float64,
        (3, 3, 3),
        elements=st.floats(min_value=-30, max_value=30).filter(
            lambda v: v == 0.0 or abs(v) > 1e-9
        ),
    ),
    _threshold_and_logits(),
)
def test_binarize_sigmoid_equals_sign_test(arr, case):
    # |l| above the float dead zone around 0, where sigmoid rounds to 0.5
    out = binarize(mk_logits(arr), 0.5)
    assert np.array_equal(out.voxels, arr >= 0)
    # f32 logits near logit(t): the mask is the reference formula's
    t, l32 = case
    got = binarize(LogitVolume(l32, UNIT), t).voxels
    assert np.array_equal(got, two_branch_sigmoid(l32) >= t)


# Thresholds at the edges of the band's error bound: subnormal sigmoid
# (1e-310), the least normal float, and t within an ulp or so of 1.
EDGE_THRESHOLDS = [1e-310, 2.0 ** -1022, 1e-12, 0.5, 1 - 1e-12, 1 - 2.0 ** -53]


@st.composite
def _logits_near_the_threshold(draw):
    """A threshold and logits within +-64 ulps of its logit (some of them
    scaled further out), stored as float32 or float64, in C or F order."""
    t = draw(st.one_of(st.sampled_from(EDGE_THRESHOLDS),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    centre = dtype(math.log(t) - math.log1p(-t))
    ulps = draw(npst.arrays(np.int64, (4, 3, 5), elements=st.integers(-64, 64)))
    scale = draw(st.sampled_from([1, 1, 2 ** 10, 2 ** 20]))
    arr = (centre + ulps * (scale * np.spacing(centre))).astype(dtype)
    return t, arr if draw(st.booleans()) else np.asfortranarray(arr)


@settings(max_examples=200, deadline=None)
@given(_logits_near_the_threshold())
def test_binarize_equals_the_full_sigmoid_compare_near_the_threshold(case):
    t, arr = case
    logits = LogitVolume(arr, UNIT)
    assert logits.voxels.dtype == arr.dtype
    got = binarize(logits, t).voxels
    want = sigmoid(arr) >= t
    assert got.dtype == bool
    assert got.tobytes(order="F") == want.tobytes(order="F")


@pytest.mark.parametrize("arr, dtype", [
    (np.arange(8, dtype=np.int16), np.float64),
    (np.arange(8, dtype=np.uint8), np.float64),
    (np.linspace(-1, 1, 8), np.float64),
    (np.linspace(-1, 1, 8, dtype=np.float32), np.float32),
    (np.linspace(-1, 1, 8, dtype=">f4"), np.float32),
    (np.linspace(-1, 1, 8, dtype=np.float16), np.float64),
], ids=["int16", "uint8", "float64", "float32", "float32-big-endian", "float16"])
def test_logit_volume_stores_float32_as_float32_and_the_rest_as_float64(arr, dtype):
    vol = LogitVolume(arr.reshape(2, 2, 2), UNIT)
    assert vol.voxels.dtype == np.dtype(dtype)  # native byte order
    assert not vol.voxels.flags.writeable
    assert np.array_equal(vol.voxels, arr.reshape(2, 2, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float32_logit_volume_rejects_non_finite(bad):
    arr = np.zeros((2, 2, 2), dtype=np.float32)
    arr[1, 0, 1] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        LogitVolume(arr, UNIT)
