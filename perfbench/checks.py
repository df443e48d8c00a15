"""Correctness checks on the program's outputs.

Three kinds: properties every CamAL result must have (binary,
window-length status; all OFF when not detected; probabilities in
[0, 1]; intervals equal to the status runs, inside the window), the
plain-numpy reference (``reference.py``) within its stated tolerance,
and bitwise identities the program promises (a batched or incremental
sweep equals a solo cold sweep, DESIGN.md §12/§13).
"""

from __future__ import annotations

import numpy as np

import reference
from common import APPLIANCES, KERNEL_SIZES, MODEL_SEED, N_FILTERS, PROFILE, check

TOL = reference.TOLERANCE


def runs(mask: np.ndarray) -> list[list[int]]:
    """Half-open ``[start, end)`` runs of True."""
    edges = np.diff(np.concatenate([[0], mask.astype(np.int8), [0]]))
    return [[int(a), int(b)] for a, b in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))]


def program_models() -> dict:
    """The served models, rebuilt the way the server builds them: the
    same seeded ``ModelBank`` (weights and standardizer are the program's;
    the checks only read them)."""
    from repro.serve import ModelBank

    bank = ModelBank(
        appliances=APPLIANCES, profile=PROFILE, seed=MODEL_SEED,
        kernel_sizes=KERNEL_SIZES, n_filters=N_FILTERS,
    )
    return {appliance: bank.get(appliance)[0] for appliance in APPLIANCES}


def localize_payload(payload: dict, start: int, length: int) -> None:
    """Properties of one ``/localize`` or ``/live_localize`` answer."""
    check(payload["verdict"] == "ok", f"verdict {payload['verdict']} on a clean window")
    check(payload["length"] == length and payload["start"] == start, "window bounds differ")
    p = payload["probability"]
    check(p is not None and 0.0 <= p <= 1.0, f"probability {p} outside [0, 1]")
    check(payload["detected"] == (p > 0.5), "detected disagrees with the probability")
    intervals = payload["intervals"]
    if not payload["detected"]:
        check(intervals == [], "intervals on a window where nothing was detected")
    end = start
    for a, b in intervals:
        # Maximal runs: ordered, non-empty, separated by at least one OFF.
        check(start <= a < b <= start + length, f"interval {[a, b]} outside the window")
        check(a > end or (a == start and end == start), "intervals overlap or touch")
        end = b
    on = sum(b - a for a, b in intervals)
    check(abs(payload["on_fraction"] - on / length) <= 1e-12, "on_fraction differs from intervals")


def result_row(result, length: int) -> None:
    """Properties of a one-row ``CamALResult`` from a clean window."""
    status = result.status
    check(status.shape == (1, length), f"status shape {status.shape}")
    check(np.isin(status, (0.0, 1.0)).all(), "status is not binary")
    p = result.probabilities[0]
    check(0.0 <= p <= 1.0, f"probability {p} outside [0, 1]")
    if not result.detected[0]:
        check(not status.any(), "status ON where nothing was detected")


def _reference(model, watts: np.ndarray) -> dict:
    states = [member.state_dict() for member in model.ensemble.members]
    x = (watts - model.scaler.mean) / model.scaler.std
    threshold = model.config.detection_threshold
    ref = reference.camal_window(x, states, threshold, model.config.status_threshold)
    return dict(ref, detection_threshold=threshold)


def _compare(ref: dict, probability: float, status: np.ndarray, cam=None) -> None:
    check(abs(ref["probability"] - probability) <= TOL,
          f"probability {probability} vs reference {ref['probability']}")
    if cam is not None:
        check(np.abs(ref["cam"] - cam).max() <= TOL, "CAM differs from the reference")
    if abs(ref["probability"] - ref["detection_threshold"]) <= TOL:
        return  # detection itself is within rounding of the threshold
    decided = np.abs(ref["attention"] - 0.5) > TOL
    check((ref["status"][decided] == status[decided]).all(), "status differs from the reference")


def against_reference(model, watts: np.ndarray, payload: dict) -> None:
    """An HTTP answer against the plain-numpy reference (the API returns
    probability and intervals, not the CAM)."""
    ref = _reference(model, watts)
    status = reference.status_from_intervals(payload["intervals"], payload["start"], watts.size)
    _compare(ref, payload["probability"], status)


def result_against_reference(model, watts: np.ndarray, result) -> None:
    """A one-row ``CamALResult`` against the reference, CAM included."""
    ref = _reference(model, watts)
    _compare(ref, float(result.probabilities[0]), result.status[0], cam=result.cam[0])


def equals_cold_sweep(model, watts: np.ndarray, payload: dict) -> None:
    """A live answer equals a cold ``localize_watts`` on the same samples."""
    cold = model.localize_watts(watts[None, :])
    start = payload["start"]
    check(float(cold.probabilities[0]) == payload["probability"],
          "live probability differs from a cold sweep")
    check(bool(cold.detected[0]) == payload["detected"], "live detection differs")
    expected = [[a + start, b + start] for a, b in runs(cold.status[0] > 0.5)]
    check(expected == payload["intervals"], "live intervals differ from a cold sweep")
