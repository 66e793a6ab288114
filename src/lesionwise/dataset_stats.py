"""Corpus-level connected-component statistics.

Per-scan component counts are summarized by their 25/50/75th percentiles
(linear interpolation); component volumes are pooled over all scans and
summarized as mean and population standard deviation in mm^3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import label_components


@dataclass(frozen=True)
class CorpusStats:
    cc_p25: float
    cc_p50: float
    cc_p75: float
    vol_mean_mm3: float
    vol_std_mm3: float
    n_scans: int
    n_components: int


def corpus_stats(masks) -> CorpusStats:
    """Component-count percentiles and pooled volume statistics for a corpus.

    A scan with zero components contributes count 0 and no volumes. With no
    components anywhere the volume statistics are NaN.
    """
    counts = []
    volumes = []
    for mask in masks:  # one at a time: a corpus need not fit in memory
        lab = label_components(mask)
        counts.append(lab.count)
        if lab.count:
            volumes.append(lab.volumes_mm3)
    if not counts:
        raise ValueError("corpus_stats needs at least one mask")

    p25, p50, p75 = np.percentile(np.array(counts, dtype=float), [25.0, 50.0, 75.0])
    if volumes:
        pooled = np.concatenate(volumes)
        vol_mean = float(pooled.mean())
        vol_std = float(pooled.std())
    else:
        pooled = np.zeros(0)
        vol_mean = float("nan")
        vol_std = float("nan")

    return CorpusStats(
        cc_p25=float(p25),
        cc_p50=float(p50),
        cc_p75=float(p75),
        vol_mean_mm3=vol_mean,
        vol_std_mm3=vol_std,
        n_scans=len(counts),
        n_components=int(pooled.size),
    )
