import gc
import math
import weakref

import numpy as np
import pytest

from lesionwise import Spacing, corpus_stats
from oracles import mk_mask


def _mask_with_n_points(n, size=8, spacing=Spacing(1, 1, 1)):
    arr = np.zeros((size, size, size), dtype=bool)
    for i in range(n):
        arr[(3 * i) % size, (3 * ((3 * i) // size)) % size, 0] = True
    return mk_mask(arr, spacing)


def test_count_percentiles_with_linear_interpolation():
    masks = [_mask_with_n_points(n) for n in (0, 1, 2)]
    stats = corpus_stats(masks)
    assert stats.cc_p50 == 1.0
    assert (stats.cc_p25, stats.cc_p75) == (0.5, 1.5)
    assert stats.n_scans == 3
    assert stats.n_components == 3


def test_single_component_volume():
    arr = np.zeros((12, 2, 2), dtype=bool)
    arr[0:10, 0, 0] = True  # one 10-voxel component at unit spacing
    stats = corpus_stats([mk_mask(arr)])
    assert stats.vol_mean_mm3 == 10.0
    assert stats.vol_std_mm3 == 0.0
    assert stats.n_components == 1


def test_zero_component_scan_contributes_count_only():
    stats = corpus_stats([_mask_with_n_points(0), _mask_with_n_points(2)])
    assert stats.n_components == 2
    assert stats.cc_p50 == 1.0


def test_spacing_scales_volumes_cubed_but_not_counts():
    rng = np.random.default_rng(6)
    arrs = [rng.random((10, 10, 10)) < 0.05 for _ in range(4)]
    base = corpus_stats([mk_mask(a, Spacing(1, 1, 1)) for a in arrs])
    scaled = corpus_stats([mk_mask(a, Spacing(2, 2, 2)) for a in arrs])
    assert scaled.vol_mean_mm3 == pytest.approx(8 * base.vol_mean_mm3)
    assert scaled.vol_std_mm3 == pytest.approx(8 * base.vol_std_mm3)
    assert (scaled.cc_p25, scaled.cc_p50, scaled.cc_p75) == (
        base.cc_p25, base.cc_p50, base.cc_p75,
    )


def test_order_invariance():
    masks = [_mask_with_n_points(n) for n in (3, 0, 5, 1)]
    a = corpus_stats(masks)
    b = corpus_stats(list(reversed(masks)))
    assert a == b


def test_all_empty_corpus_has_nan_volume_stats():
    stats = corpus_stats([_mask_with_n_points(0)])
    assert math.isnan(stats.vol_mean_mm3)
    assert stats.n_components == 0


def test_empty_input_rejected():
    for masks in ([], iter([])):
        with pytest.raises(ValueError, match="at least one mask"):
            corpus_stats(masks)


def test_masks_are_released_as_they_arrive():
    counts = (3, 0, 5, 1, 2)
    alive = []

    def masks():
        for n in counts:
            gc.collect()
            # the mask being labeled last may still be referenced, no older one
            assert sum(ref() is not None for ref in alive) <= 1
            mask = _mask_with_n_points(n)
            alive.append(weakref.ref(mask))
            yield mask

    assert corpus_stats(masks()) == corpus_stats([_mask_with_n_points(n) for n in counts])
