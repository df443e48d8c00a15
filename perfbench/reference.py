"""Plain-numpy CamAL, written apart from ``repro`` to check its outputs.

It follows the paper's six steps over the TSC-ResNet definition and
shares no code with the program: convolutions are direct tap sums (no
im2col, no tiling), BatchNorm is the eval-mode affine map, each block is
``ReLU(main(x) + shortcut(x))``, then global average pooling, the linear
head, softmax, the class-1 CAM, min-max normalisation, the sigmoid mask
and the thresholds. Weights come in through ``state_dict()``, the
public parameter/buffer mapping of each ensemble member.

Everything works on one window at a time in float64. Results agree with
the program to rounding (different summation order), never bitwise; the
checks compare with :data:`TOLERANCE`.
"""

from __future__ import annotations

import numpy as np

#: Absolute tolerance for probabilities, normalised CAM and attention.
#: Both sides are float64; their sums run in different orders, which
#: moves results by ~1e-13 on a paper-scale member, far inside this.
TOLERANCE = 1e-8

BN_EPS = 1e-5


def conv1d_same(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """'Same'-padded stride-1 convolution of ``x`` ``(C, L)`` by
    ``weight`` ``(D, C, K)``: ``out[d, t] = b[d] + Σ_c Σ_k w[d, c, k] ·
    x[c, t + k - left]`` with zeros outside the window, ``left = (K-1)//2``."""
    d, c, k = weight.shape
    if x.shape[0] != c:
        raise ValueError(f"expected {c} input channels, got {x.shape[0]}")
    length = x.shape[1]
    left = (k - 1) // 2
    padded = np.zeros((c, length + k - 1))
    padded[:, left : left + length] = x
    out = np.repeat(bias[:, None], length, axis=1).astype(np.float64)
    for tap in range(k):
        out += weight[:, :, tap] @ padded[:, tap : tap + length]
    return out


def batchnorm_eval(x, gamma, beta, mean, var, eps: float = BN_EPS) -> np.ndarray:
    """Eval-mode BatchNorm over ``(C, L)``: running statistics, affine."""
    scale = gamma / np.sqrt(var + eps)
    return (x - mean[:, None]) * scale[:, None] + beta[:, None]


def _conv_bn(x: np.ndarray, state: dict, conv: str, bn: str) -> np.ndarray:
    h = conv1d_same(x, state[f"{conv}.weight"], state[f"{conv}.bias"])
    return batchnorm_eval(
        h,
        state[f"{bn}.gamma"],
        state[f"{bn}.beta"],
        state[f"{bn}.running_mean"],
        state[f"{bn}.running_var"],
    )


def residual_block(x: np.ndarray, state: dict, block: str) -> np.ndarray:
    """conv-BN-ReLU, conv-BN-ReLU, conv-BN, plus the (projected) input,
    then ReLU. The shortcut is a 1x1 conv + BN when the state has one."""
    h = np.maximum(_conv_bn(x, state, f"{block}.main.0", f"{block}.main.1"), 0.0)
    h = np.maximum(_conv_bn(h, state, f"{block}.main.3", f"{block}.main.4"), 0.0)
    h = _conv_bn(h, state, f"{block}.main.6", f"{block}.main.7")
    if f"{block}.shortcut.0.weight" in state:
        shortcut = _conv_bn(x, state, f"{block}.shortcut.0", f"{block}.shortcut.1")
    else:
        shortcut = x
    return np.maximum(h + shortcut, 0.0)


def member_forward(x: np.ndarray, state: dict) -> tuple[np.ndarray, np.ndarray]:
    """One member on one standardised window ``(L,)``: the final feature
    maps ``(C, L)`` and the head's logits ``(2,)``."""
    h = np.asarray(x, dtype=np.float64)[None, :]
    for block in ("block1", "block2", "block3"):
        h = residual_block(h, state, block)
    pooled = h.mean(axis=1)
    logits = state["fc.weight"] @ pooled + state["fc.bias"]
    return h, logits


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def minmax(cam: np.ndarray) -> np.ndarray:
    """Min-max normalise to [0, 1]; a flat CAM (span <= 1e-12) maps to 0."""
    span = cam.max() - cam.min()
    if span <= 1e-12:
        return np.zeros_like(cam)
    return (cam - cam.min()) / span


def camal_window(
    x: np.ndarray,
    states: list[dict],
    detection_threshold: float = 0.5,
    status_threshold: float = 0.5,
) -> dict:
    """The six CamAL steps on one standardised window ``(L,)``.

    1. ensemble probability: mean over members of softmax(logits)[1];
    2. detection: probability > threshold;
    3. per-member CAM: ``Σ_k w_1k f_k(t)``;
    4. min-max normalise each CAM, average;
    5. attention: ``sigmoid(CAM_avg(t) · x(t))``;
    6. status: attention > threshold, all OFF when not detected.
    """
    probabilities, cams = [], []
    for state in states:
        features, logits = member_forward(x, state)
        probabilities.append(softmax(logits)[1])
        cams.append(minmax(state["fc.weight"][1] @ features))
    probability = float(np.mean(probabilities))
    detected = probability > detection_threshold
    cam = np.mean(cams, axis=0)
    attention = 1.0 / (1.0 + np.exp(-(cam * x)))
    status = (attention > status_threshold) & detected
    return {
        "probability": probability,
        "member_probabilities": np.array(probabilities),
        "detected": bool(detected),
        "cam": cam,
        "attention": attention,
        "status": status.astype(np.float64),
    }


def interpolate_gaps(watts: np.ndarray) -> np.ndarray:
    """Fill NaN samples by linear interpolation between finite neighbours
    (edges hold the nearest finite value) — the repair the program's
    validators apply to short gaps."""
    watts = np.asarray(watts, dtype=np.float64)
    bad = np.isnan(watts)
    if not bad.any():
        return watts.copy()
    idx = np.arange(watts.size)
    return np.interp(idx, idx[~bad], watts[~bad])


def status_from_intervals(intervals, start: int, length: int) -> np.ndarray:
    """Paint half-open absolute ``[a, b)`` intervals into a window mask."""
    status = np.zeros(length)
    for a, b in intervals:
        status[a - start : b - start] = 1.0
    return status
