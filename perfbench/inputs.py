"""Seeded input generation. The same seed gives the same inputs.

A house is one-minute mains power in watts: standby base load, an
evening lighting bump, a fridge compressor cycle, white noise, and
appliance pulses — kettle boils (2-3 kW, 2-4 min, several a day),
washing-machine cycles (a 2 kW heating phase then a 300-500 W motor
phase, about one a day) and microwave runs (1-1.5 kW, 2-6 min). Values
are rounded to 0.1 W, as meters report them. Backfill houses also
carry short meter dropouts: NaN runs of 1-5 samples, the repair
budget's range.
"""

from __future__ import annotations

import numpy as np

from common import STEP_S, WINDOW

DAY = int(86400 / STEP_S)


def _pulses(rng, n: int, per_day: float, watts, minutes) -> np.ndarray:
    out = np.zeros(n)
    count = rng.poisson(per_day * n / DAY)
    for start in rng.integers(0, n, size=count):
        length = int(rng.integers(*minutes))
        out[start : start + length] += rng.uniform(*watts)
    return out


def house_series(
    rng: np.random.Generator, n: int, kettle_per_day: float = 4.0
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` samples of aggregate watts and the kettle's own ON mask."""
    t = np.arange(n)
    minute_of_day = t % DAY
    base = rng.uniform(80.0, 200.0)
    lighting = 150.0 * np.exp(-(((minute_of_day - 20 * 60) / 120.0) ** 2))
    period = int(rng.integers(40, 60))
    fridge = 90.0 * ((t + rng.integers(0, period)) % period < 0.4 * period)
    noise = rng.normal(0.0, 8.0, size=n)
    kettle = _pulses(rng, n, kettle_per_day, (2000.0, 3000.0), (2, 5))
    washer = np.zeros(n)
    for start in rng.integers(0, n, size=rng.poisson(n / DAY)):
        washer[start : start + 15] += 2000.0
        washer[start + 15 : start + 75] += rng.uniform(300.0, 500.0)
    microwave = _pulses(rng, n, 2.0, (1000.0, 1500.0), (2, 7))
    watts = base + lighting + fridge + noise + kettle + washer + microwave
    return np.round(np.maximum(watts, 0.0), 1), kettle > 0


def add_gaps(rng: np.random.Generator, watts: np.ndarray, per_day: float) -> np.ndarray:
    """NaN dropouts of 1-5 samples, off the series edges and at least two
    valid samples apart, so every dropout stays within the repair budget."""
    out = watts.copy()
    count = rng.poisson(per_day * watts.size / DAY)
    last_end = 0
    for start in np.sort(rng.integers(10, watts.size - 10, size=count)):
        length = int(rng.integers(1, 6))
        if start >= last_end + 2:
            out[start : start + length] = np.nan
            last_end = start + length
    return out


# -- interactive -------------------------------------------------------------

#: Each tenant's house: 24 days. Pages step by one day; every pass over
#: the house starts at a new offset (one of 24 multiples of 60 samples),
#: so a run never pages into a window it has already seen except by an
#: intended revisit (552 distinct pages per tenant).
INTERACTIVE_DAYS = 24
#: One round: four new pages, then a revisit of one of them; every page
#: asks for both appliances. 8 of 10 ops are misses, 2 are cache hits.
NEW_PAGES_PER_ROUND = 4
WARMUP_START = 7  # the warm-up window's start: never a walk page


def interactive_pages(rng: np.random.Generator):
    """Yield rounds of page starts: ``(new_pages, revisited_page)``."""
    n = INTERACTIVE_DAYS * DAY
    pages = [
        start
        for k in range(WINDOW // 60)
        for start in range((k * 420) % WINDOW, n - WINDOW + 1, WINDOW)
    ]
    for r in range(len(pages) // NEW_PAGES_PER_ROUND):
        new = pages[r * NEW_PAGES_PER_ROUND : (r + 1) * NEW_PAGES_PER_ROUND]
        yield new, new[int(rng.integers(0, len(new)))]


# -- live ----------------------------------------------------------------------

LIVE_HISTORY_DAYS = 2
#: Native meter rate: one reading every 10 s, six per stored minute.
LIVE_FACTOR = 6
#: Raw readings per append: 24 (4 stored minutes). The sliding window
#: rebases every 160 stored samples (5 tiles), so exactly one op in 40
#: pays a head re-sweep; a round is those 40 ops.
LIVE_CHUNK = 24
LIVE_ROUND = 40


def live_stream(rng: np.random.Generator, minutes: int) -> np.ndarray:
    """Raw 10-s readings whose minute means follow a house series."""
    watts, _ = house_series(rng, minutes)
    raw = np.repeat(watts, LIVE_FACTOR) + rng.normal(0.0, 3.0, minutes * LIVE_FACTOR)
    return np.round(np.maximum(raw, 0.0), 1)


# -- backfill ------------------------------------------------------------------

#: One op = one 4-day house, 1-day windows at half-window stride: seven
#: stacked windows per sweep. Four dropouts a day on average.
BACKFILL_DAYS = 4
BACKFILL_GAPS_PER_DAY = 4.0
BACKFILL_POOL = 48


def backfill_houses(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    return [
        add_gaps(rng, house_series(rng, BACKFILL_DAYS * DAY)[0], BACKFILL_GAPS_PER_DAY)
        for _ in range(count)
    ]


# -- train ---------------------------------------------------------------------

#: Few labels: six 1-day windows (three with a kettle boil, three
#: without), of which the trainer holds out a quarter for validation.
TRAIN_WINDOWS = 6
TRAIN_EPOCHS = 2
TRAIN_POOL = 4


def train_windows(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``(watts (6, 1440), weak labels (6,))`` with exactly three positives."""
    half = TRAIN_WINDOWS // 2
    positives = []
    while len(positives) < half:
        watts, kettle_on = house_series(rng, WINDOW)
        if kettle_on.any():
            positives.append(watts)
    negatives = [house_series(rng, WINDOW, kettle_per_day=0.0)[0] for _ in range(half)]
    labels = np.array([1.0] * half + [0.0] * half)
    order = rng.permutation(TRAIN_WINDOWS)
    return np.stack(positives + negatives)[order], labels[order]
