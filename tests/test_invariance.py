"""Invariance of every profile value under relabelling the target's coordinates or values.

Renaming coordinates or alphabet values describes the same distribution, so
``Gap(m, l)``, ``S(m)``, ``G(m)`` and ``eta(m)`` must not move.  Targets are
small (alphabets of size 2 or 3, at most 4 coordinates) with integer weights,
so zero entries are common: they leave contexts unsupported and make the
conditional rows fall back to uniform.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spectel import FiniteTarget, assemble_bounds

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@st.composite
def targets(draw) -> np.ndarray:
    axes = draw(st.lists(st.sampled_from((2, 3)), min_size=2, max_size=4))
    size = int(np.prod(axes))
    weights = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    if not any(weights):
        weights[draw(st.integers(0, size - 1))] = 1
    tensor = np.array(weights, dtype=float).reshape(axes)
    return tensor / tensor.sum()


def profile_values(tensor: np.ndarray) -> dict:
    report = assemble_bounds(FiniteTarget(tensor.shape, tensor), 1).to_json_dict()
    return {name: report[name] for name in ("gap", "S", "G", "eta")}


def assert_same_profiles(a: dict, b: dict) -> None:
    for name in a:
        assert a[name].keys() == b[name].keys()
        for key, value in a[name].items():
            assert abs(value - b[name][key]) <= 1e-12, (name, key, value, b[name][key])


@SETTINGS
@given(data=st.data())
def test_coordinate_permutation_invariance(data):
    tensor = data.draw(targets())
    order = data.draw(st.permutations(range(tensor.ndim)))
    assert_same_profiles(profile_values(tensor), profile_values(tensor.transpose(order)))


@SETTINGS
@given(data=st.data())
def test_value_relabelling_invariance(data):
    tensor = data.draw(targets())
    relabelled = tensor
    for axis, size in enumerate(tensor.shape):
        labels = data.draw(st.permutations(range(size)))
        relabelled = np.take(relabelled, labels, axis=axis)
    assert_same_profiles(profile_values(tensor), profile_values(relabelled))
