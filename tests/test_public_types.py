"""Every public function refuses a wrong-typed volume, labeling or partition
with a ``TypeError`` or ``ValueError`` that names the type it expected."""

import inspect
import re

import numpy as np
import pytest

import lesionwise
from lesionwise import label_components, voronoi_partition
from oracles import mk_logits, mk_mask

_TYPES = ("BinaryMask", "LogitVolume", "ComponentLabeling", "VoronoiPartition")


def _values():
    gt = np.zeros((6, 5, 4), dtype=bool)
    gt[0:2, 0:2, 0:2] = True
    gt[4:6, 3:5, 2:4] = True
    mask = mk_mask(gt)
    lab = label_components(mask)
    return {
        "an ndarray": gt,
        "None": None,
        "a mask": mask,
        "logits": mk_logits(np.where(gt, 2.0, -2.0)),
        "a labeling": lab,
        "a partition": voronoi_partition(lab),
    }


_VALUES = _values()
_VALID = {"mask": "a mask", "gt": "a mask", "pred": "a mask", "vol": "a mask", "logits": "logits",
          "lab": "a labeling", "pred_lab": "a labeling", "gt_lab": "a labeling",
          "part": "a partition"}


def _swaps():
    """(function name, parameter, wrong value name, expected type names) for
    every volume, labeling or partition parameter of the public API."""
    for name in lesionwise.__all__:
        fn = getattr(lesionwise, name)
        if not inspect.isfunction(fn):
            continue
        for p in inspect.signature(fn).parameters.values():
            expected = tuple(t for t in _TYPES if re.search(rf"\b{t}\b", str(p.annotation)))
            if not expected:
                continue
            for wrong, value in _VALUES.items():
                allowed = value is None and "None" in str(p.annotation)
                if not allowed and not any(type(value).__name__ == t for t in expected):
                    yield name, p.name, wrong, expected


_SWAPS = list(_swaps())


def test_the_table_covers_every_kind_of_parameter():
    covered = {(fn, p) for fn, p, _, _ in _SWAPS}
    assert {("write_volume", "vol"), ("label_components", "mask"), ("binarize", "logits"),
            ("match_instances", "gt_lab"), ("cc_instance_loss", "part"),
            ("combined_loss", "lab"), ("voronoi_partition_bruteforce", "lab")} <= covered
    assert len(_SWAPS) > 100


def _valid_args(fn, tmp_path):
    args = {}
    for p in inspect.signature(fn).parameters.values():
        if p.name in _VALID:
            args[p.name] = _VALUES[_VALID[p.name]]
        elif p.name == "kind":
            args[p.name] = "cc-dicece"
        elif p.name == "path":
            args[p.name] = tmp_path / "v.nii"
    return args


@pytest.mark.parametrize("name", sorted({fn for fn, _, _, _ in _SWAPS}))
def test_the_valid_call_of_each_function_runs(name, tmp_path):
    fn = getattr(lesionwise, name)
    fn(**_valid_args(fn, tmp_path))


@pytest.mark.parametrize("name, param, wrong, expected", _SWAPS,
                         ids=[f"{fn}-{p}-{w}" for fn, p, w, _ in _SWAPS])
def test_a_wrong_type_is_refused_by_name(name, param, wrong, expected, tmp_path):
    fn = getattr(lesionwise, name)
    args = _valid_args(fn, tmp_path)
    args[param] = _VALUES[wrong]
    with pytest.raises((TypeError, ValueError), match="|".join(expected)):
        fn(**args)
