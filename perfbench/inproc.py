"""The in-process workloads: ``backfill`` and ``train``.

The program runs inside this process; set-up is model build, scaler fit
and a warm-up sweep, timed five times. Traced runs wrap the layers for
every other op of one measurement.
"""

from __future__ import annotations

import time

import numpy as np

import checks
import common
import inputs
import reference
import tracing
from common import KERNEL_SIZES, MODEL_SEED, N_FILTERS, WINDOW, check

SETUP_REPEATS = 5


class Backfill:
    """Sliding-window localization over whole multi-day houses."""

    appliance = "kettle"
    #: The seeded untrained ensemble scores these windows 0.34-0.44, below
    #: the default 0.5, so nothing would be detected and every status
    #: would be all OFF. At 0.36 (the knob ``CamAL.calibrate`` sets) about
    #: half the windows are detected, and the attention threshold, the
    #: stitch's OR and the reference's status comparison all see ON runs.
    detection_threshold = 0.36

    def __init__(self, seed: int):
        from repro.datasets import House

        rng = np.random.default_rng([seed, 3])
        series = inputs.backfill_houses(rng, inputs.BACKFILL_POOL + 1)
        self.houses = [
            House(house_id=f"b{i}", step_s=common.STEP_S, aggregate=watts)
            for i, watts in enumerate(series)
        ]
        self.warm = self.houses.pop()

    def setup(self):
        from repro.core import CamAL, CamALConfig, SlidingWindowLocalizer
        from repro.datasets import Standardizer
        from repro.models import ResNetEnsemble

        ensemble = ResNetEnsemble(KERNEL_SIZES, n_filters=N_FILTERS, seed=MODEL_SEED)
        ensemble.eval()
        scaler = Standardizer.fit(np.stack([h.aggregate for h in self.houses]))
        model = CamAL(ensemble, scaler, CamALConfig(detection_threshold=self.detection_threshold))
        localizer = SlidingWindowLocalizer(model, WINDOW, stride=WINDOW // 2, repair=True)
        localizer.localize_house(self.warm, self.appliance)
        return localizer

    def op(self, localizer, n: int):
        house = self.houses[n % len(self.houses)]
        return house, localizer.localize_house(house, self.appliance)

    def check(self, localizer, outputs, acct) -> None:
        from repro.robust import validate_series

        model = localizer.model
        for house, loc in outputs:
            n = house.n_steps
            check(loc.status.shape == (n,) and np.isin(loc.status, (0.0, 1.0)).all(),
                  "series status is not binary and series-length")
            check(loc.repaired == bool(np.isnan(house.aggregate).any()) and not loc.degraded,
                  "repair verdict differs from the input's gaps")
            check(list(loc.window_starts) == list(range(0, n - WINDOW + 1, WINDOW // 2)),
                  "a window was dropped")
            acct.add("check", True)
        for house, loc in outputs[::8][:3]:
            repaired, _ = validate_series(house.aggregate, max_gap=5)
            check(np.abs(repaired - reference.interpolate_gaps(house.aggregate)).max() <= 1e-9,
                  "repaired series differs from linear interpolation")
            probability = np.zeros(house.n_steps)
            cam = np.zeros(house.n_steps)
            status = np.zeros(house.n_steps)
            counts = np.zeros(house.n_steps)
            for i, start in enumerate(loc.window_starts):
                span = slice(start, start + WINDOW)
                solo = model.localize_watts(repaired[span][None, :])
                checks.result_row(solo, WINDOW)
                # Batch invariance: the stacked sweep's row equals the
                # window swept alone, bit for bit.
                check(solo.probabilities[0] == loc.window_probabilities[i],
                      "stacked window probability differs from a solo sweep")
                if i % 3 == 0:
                    checks.result_against_reference(model, repaired[span], solo)
                probability[span] += solo.probabilities[0]
                cam[span] += solo.cam[0]
                status[span] = np.maximum(status[span], solo.status[0])
                counts[span] += 1
            check((status == loc.status).all(), "stitched status differs from the windows' OR")
            check(np.abs(probability / counts - loc.probability).max() <= 1e-12,
                  "stitched probability differs from the windows' mean")
            check(np.abs(cam / counts - loc.cam).max() <= 1e-12,
                  "stitched CAM differs from the windows' mean")
            acct.add("check", True)


class Train:
    """Few-label training of the paper-scale ensemble."""

    BATCH = 6

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        self.sets = [inputs.train_windows(rng) for _ in range(inputs.TRAIN_POOL)]
        self.grad_seed = int(rng.integers(0, 2**31))

    def windowset(self, scaler, watts, labels):
        from repro.datasets import WindowSet

        n = len(labels)
        return WindowSet(
            x=scaler.transform(watts)[:, None, :], x_watts=watts, y_weak=labels,
            y_strong=np.zeros_like(watts), house_ids=["train"] * n,
            starts=np.zeros(n, dtype=np.int64), appliance="kettle", scaler=scaler,
        )

    def setup(self):
        from repro.datasets import Standardizer
        from repro.models import ResNetEnsemble

        ensemble = ResNetEnsemble(KERNEL_SIZES, n_filters=N_FILTERS, seed=MODEL_SEED)
        scaler = Standardizer.fit(np.concatenate([w for w, _ in self.sets]))
        sets = [self.windowset(scaler, w, y) for w, y in self.sets]
        ensemble.eval()
        ensemble.predict_with_cams(sets[0].x)  # warm-up sweep
        ensemble.train()
        return {"sets": sets, "ensemble": ensemble}

    def before_timing(self, state, acct) -> None:
        gradient_check(state["ensemble"].members[0], state["sets"][0], self.grad_seed)
        acct.add("gradcheck", True)

    def op(self, state, n: int):
        from repro.models import ResNetEnsemble, TrainConfig, training

        ensemble = ResNetEnsemble(KERNEL_SIZES, n_filters=N_FILTERS, seed=MODEL_SEED)
        config = TrainConfig(
            epochs=inputs.TRAIN_EPOCHS, batch_size=self.BATCH, patience=None,
            val_fraction=0.25, seed=n,
        )
        windows = state["sets"][n % len(state["sets"])]
        return None, training.train_ensemble(ensemble, windows, config)[1]

    def check(self, state, outputs, acct) -> None:
        for _, histories in outputs:
            check(len(histories) == len(KERNEL_SIZES), "a member was not trained")
            for history in histories:
                losses = history.train_loss
                check(len(losses) == inputs.TRAIN_EPOCHS and np.isfinite(losses).all(),
                      f"training ran {len(losses)} epochs, losses {losses}")
                check(losses[-1] < losses[0], f"training loss did not fall: {losses}")
            acct.add("check", True)


def gradient_check(member, windows, seed: int, coords: int = 8) -> None:
    """Finite differences against backprop, on one mini-batch of two
    windows, for ``coords`` sampled parameter entries.

    ReLU makes the loss piecewise smooth. A step that carries a unit
    across its kink biases the central difference (at 1e-5 this shows as
    ~1e-3 relative error), and a unit sitting on its kink makes the loss
    one-sidedly differentiable there, where backprop returns one of the
    one-sided derivatives. So each entry passes when the central, forward
    or backward difference at a step of 1e-6 or 1e-7 agrees within
    1e-4 relative plus 1e-8 absolute: float64 rounding of the loss adds
    up to ~1e-8 to a difference quotient at those steps, which matters
    for the many entries whose gradient is near zero (a conv bias ahead
    of a training-mode BatchNorm has none at all).
    """
    from repro import nn

    rng = np.random.default_rng(seed)
    x, y = windows.x[:2], windows.y_weak[:2].astype(np.int64)
    loss = nn.CrossEntropyLoss()
    member.train()
    member.zero_grad()
    base = loss(member(x), y)
    member.backward(loss.backward())
    named = list(member.named_parameters())
    for index in rng.choice(len(named), size=coords, replace=False):
        name, param = named[index]
        flat = param.data.reshape(-1)
        i = int(rng.integers(0, flat.size))
        analytic = param.grad.reshape(-1)[i]
        original = flat[i]
        errors = []
        for eps in (1e-6, 1e-7):
            flat[i] = original + eps
            plus = loss(member(x), y)
            flat[i] = original - eps
            minus = loss(member(x), y)
            flat[i] = original
            for numeric in ((plus - minus) / (2 * eps), (plus - base) / eps, (base - minus) / eps):
                errors.append(abs(analytic - numeric) - 1e-4 * max(abs(analytic), abs(numeric)))
        check(min(errors) <= 1e-8,
              f"gradient check {name}[{i}]: backprop {analytic}, excess errors {errors}")
    member.zero_grad()


def run(workload_cls, seed: int, seconds: float, trace: bool, acct) -> dict:
    """Untraced: set up five times (timed), measure, check. Traced: set up
    once under tracing, then alternate untraced and traced ops in one
    measurement, so both arms see the same host conditions."""
    workload = workload_cls(seed)
    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            stolen, start = common.steal_seconds(), time.perf_counter()
            state = workload.setup()
            elapsed = time.perf_counter() - start
            setups.append((elapsed, common.net_seconds(elapsed, stolen, common.steal_seconds())))
            acct.add("setup", True)
        (phase,) = _measure(workload, state, seconds, acct)
        return {"phase": phase, "setups": setups}
    tracer = tracing.Tracer()
    tracing.install_program_spans(tracer)
    try:
        tracer.set_request("setup")
        state = workload.setup()
        acct.add("setup", True)
    finally:
        tracer.uninstall()
    plain, traced = _measure(workload, state, seconds, acct, tracer)
    traced["spans"] = tracer.spans
    traced["setup_requests"] = {"setup"}
    return {"phases": {"measure": plain, "measure-traced": traced}}


def _measure(workload, state, seconds, acct, tracer=None) -> list[dict]:
    """One measurement; with a tracer, odd ops run traced. Returns one
    phase per arm."""
    if hasattr(workload, "before_timing"):
        workload.before_timing(state, acct)
    ops, outputs = [], []
    steal0 = common.steal_seconds()
    start = deadline = time.perf_counter()
    deadline += seconds
    n = 0
    while time.perf_counter() < deadline:
        arm = n % 2 if tracer is not None else 0
        if arm:
            tracing.install_program_spans(tracer)
            tracer.set_request(f"op{n}")
        try:
            stolen = common.steal_seconds()
            begin, cpu0 = time.perf_counter(), time.process_time()
            outputs.append(workload.op(state, n))
            end = time.perf_counter()
            net = common.net_seconds(end - begin, stolen, common.steal_seconds())
        finally:
            if arm:
                tracer.uninstall()
        ops.append({
            "arm": arm, "tenant": 0, "round": n, "end": end, "status": 200,
            "latency": end - begin, "net": net, "cpu": time.process_time() - cpu0,
            "requests": [(f"op{n}", end - begin)],
        })
        n += 1
    wall = time.perf_counter() - start
    steal = common.steal_seconds() - steal0
    rss = common.rss_peak_mb()
    workload.check(state, outputs, acct)
    phases = []
    for arm in range(2 if tracer is not None else 1):
        arm_ops = [op for op in ops if op["arm"] == arm]
        acct.merge(("measure", "measure-traced")[arm], len(arm_ops), 0)
        phases.append({"ops": arm_ops, "wall": wall, "rss": rss, "steal": steal,
                       "attempted": len(arm_ops), "failed": 0})
    return phases
