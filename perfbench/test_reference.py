"""Tests of the plain-numpy reference on cases small enough to derive by
hand. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import numpy as np
import pytest

import common
import reference as ref

EPS = ref.BN_EPS


def test_conv_taps_and_same_padding():
    x = np.array([[1.0, 2.0, 3.0]])
    ones = np.ones((1, 1, 3))
    # Zero padding at both ends: [0+1+2, 1+2+3, 2+3+0].
    assert ref.conv1d_same(x, ones, np.zeros(1)).tolist() == [[3.0, 6.0, 5.0]]
    # Tap 0 reads one sample to the left: a right shift.
    shift = np.array([[[1.0, 0.0, 0.0]]])
    assert ref.conv1d_same(x, shift, np.array([0.5])).tolist() == [[0.5, 1.5, 2.5]]


def test_conv_sums_input_channels():
    x = np.array([[1.0, 2.0], [10.0, 20.0]])
    weight = np.array([[[1.0], [-1.0]]])  # 1x1 kernel: x0 - x1
    assert ref.conv1d_same(x, weight, np.zeros(1)).tolist() == [[-9.0, -18.0]]


def test_batchnorm_eval_is_affine():
    out = ref.batchnorm_eval(
        np.array([[1.0, 3.0]]), np.array([2.0]), np.array([1.0]),
        np.array([1.0]), np.array([3.0]),
    )
    assert out[0, 0] == 1.0
    assert out[0, 1] == pytest.approx(1.0 + 4.0 / np.sqrt(3.0 + EPS), abs=1e-15)


def test_minmax():
    assert ref.minmax(np.array([1.0, 2.0, 3.0])).tolist() == [0.0, 0.5, 1.0]
    assert ref.minmax(np.full(4, 7.0)).tolist() == [0.0] * 4


def _unit_member(fc_weight) -> dict:
    """Three one-channel blocks of 1x1 identity convs and identity BN:
    each block is ReLU(relu(h) + h) = 2 relu(h), so features = 8 relu(x)."""
    state = {}
    for block in ("block1", "block2", "block3"):
        for conv, bn in (("main.0", "main.1"), ("main.3", "main.4"), ("main.6", "main.7")):
            state[f"{block}.{conv}.weight"] = np.ones((1, 1, 1))
            state[f"{block}.{conv}.bias"] = np.zeros(1)
            state[f"{block}.{bn}.gamma"] = np.ones(1)
            state[f"{block}.{bn}.beta"] = np.zeros(1)
            state[f"{block}.{bn}.running_mean"] = np.zeros(1)
            state[f"{block}.{bn}.running_var"] = np.array([1.0 - EPS])
    state["fc.weight"] = np.array(fc_weight, dtype=np.float64)
    state["fc.bias"] = np.zeros(2)
    return state


def test_six_steps_by_hand():
    x = np.array([-1.0, 0.0, 1.0, 2.0])
    features, logits = ref.member_forward(x, _unit_member([[0.0], [1.0]]))
    assert features.tolist() == [[0.0, 0.0, 8.0, 16.0]]
    assert logits.tolist() == [0.0, 6.0]
    out = ref.camal_window(x, [_unit_member([[0.0], [1.0]])])
    assert out["probability"] == pytest.approx(1.0 / (1.0 + np.exp(-6.0)), abs=1e-15)
    assert out["detected"]
    assert out["cam"].tolist() == [0.0, 0.0, 0.5, 1.0]
    sigmoid = 1.0 / (1.0 + np.exp(-np.array([0.0, 0.0, 0.5, 2.0])))
    assert np.abs(out["attention"] - sigmoid).max() < 1e-15
    # sigmoid(0) is exactly 0.5, which is not above the threshold.
    assert out["status"].tolist() == [0.0, 0.0, 1.0, 1.0]


def test_not_detected_means_all_off():
    x = np.array([-1.0, 0.0, 1.0, 2.0])
    out = ref.camal_window(x, [_unit_member([[1.0], [0.0]])])
    assert out["probability"] == pytest.approx(1.0 / (1.0 + np.exp(6.0)), abs=1e-15)
    assert not out["detected"]
    assert out["status"].tolist() == [0.0] * 4


def test_ensemble_averages_probabilities_and_normalised_cams():
    x = np.array([-1.0, 0.0, 1.0, 2.0])
    on, off = _unit_member([[0.0], [1.0]]), _unit_member([[0.0], [-0.5]])
    out = ref.camal_window(x, [on, off])
    # Member logits [0, 6] and [0, -3]: probabilities sigmoid(6), sigmoid(-3).
    expected = (1.0 / (1.0 + np.exp(-6.0)) + 1.0 / (1.0 + np.exp(3.0))) / 2.0
    assert out["probability"] == pytest.approx(expected, abs=1e-15)
    assert out["detected"]
    # Normalised CAMs [0, 0, .5, 1] and [1, 1, .5, 0] average to 0.5.
    assert out["cam"].tolist() == [0.5] * 4
    assert out["status"].tolist() == [0.0, 0.0, 1.0, 1.0]


def test_projection_shortcut():
    state = {}
    for conv, bn in (("main.0", "main.1"), ("main.3", "main.4"), ("main.6", "main.7")):
        cin = 1 if conv == "main.0" else 2
        state[f"b.{conv}.weight"] = np.zeros((2, cin, 3))
        state[f"b.{conv}.bias"] = np.zeros(2)
    for bn in ("main.1", "main.4", "main.7", "shortcut.1"):
        state[f"b.{bn}.gamma"] = np.ones(2)
        state[f"b.{bn}.beta"] = np.zeros(2)
        state[f"b.{bn}.running_mean"] = np.zeros(2)
        state[f"b.{bn}.running_var"] = np.full(2, 1.0 - EPS)
    state["b.shortcut.0.weight"] = np.array([[[2.0]], [[-1.0]]])
    state["b.shortcut.0.bias"] = np.zeros(2)
    out = ref.residual_block(np.array([[1.0, -1.0]]), state, "b")
    assert out.tolist() == [[2.0, 0.0], [0.0, 1.0]]


def test_interpolate_gaps_and_intervals():
    assert ref.interpolate_gaps(np.array([1.0, np.nan, 3.0])).tolist() == [1.0, 2.0, 3.0]
    assert ref.interpolate_gaps(np.array([np.nan, 2.0, np.nan])).tolist() == [2.0] * 3
    assert ref.status_from_intervals([[11, 13]], 10, 4).tolist() == [0.0, 1.0, 1.0, 0.0]


def test_agrees_with_the_program_on_a_small_ensemble():
    common.use_program()
    from repro.core import CamAL
    from repro.datasets import Standardizer
    from repro.models import ResNetEnsemble

    ensemble = ResNetEnsemble((3, 5), n_filters=(2, 4, 4), seed=3)
    ensemble.eval()
    model = CamAL(ensemble, Standardizer(mean=100.0, std=50.0))
    watts = np.random.default_rng(0).gamma(2.0, 60.0, size=(3, 96))
    result = model.localize_watts(watts)
    states = [member.state_dict() for member in ensemble.members]
    for i in range(3):
        out = ref.camal_window((watts[i] - 100.0) / 50.0, states)
        assert abs(out["probability"] - result.probabilities[i]) < ref.TOLERANCE
        assert np.abs(out["cam"] - result.cam[i]).max() < ref.TOLERANCE
        assert (out["status"] == result.status[i]).all()
