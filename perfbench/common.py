"""Shared pieces of the benchmark: where the program lives, the model
under test, statistics, the hardware fingerprint and run accounting."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

import numpy as np

#: The checkout root (the benchmark lives one level below it).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_program() -> None:
    """Make ``import repro`` load the checkout's ``src/`` tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: Paper scale: the 4-member k∈{5,7,9,15} ensemble, (16,32,32) filters,
#: 1-day windows of 1440 one-minute samples. Seeded and untrained.
KERNEL_SIZES = (5, 7, 9, 15)
N_FILTERS = (16, 32, 32)
MODEL_SEED = 0
WINDOW = 1440
STEP_S = 60.0
#: The two served appliances (the program's ``ModelBank`` builds one
#: seeded ensemble per appliance).
APPLIANCES = ("kettle", "washing_machine")
#: The program's default standardizer profile (``devicescope serve``).
PROFILE = "ukdale"


def quantile(values, q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted
    mean of all order statistics. It equals the usual sample quantile in
    the limit and, with a few dozen ops per run, varies less from run to
    run than any single order statistic."""
    from scipy.stats import beta

    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    edges = beta.cdf(np.arange(n + 1) / n, q * (n + 1), (1.0 - q) * (n + 1))
    return float(np.diff(edges) @ x)


def rss_peak_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of a process in MiB, from /proc."""
    path = f"/proc/{pid or os.getpid()}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    # fields[11], fields[12] are utime and stime (stat fields 14 and 15).
    return (int(fields[11]) + int(fields[12])) / ticks


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs, from /proc/stat (in 10 ms ticks). Read around each
    timed interval: it is the main source of run-to-run spread on a
    shared host."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _stat_cpus() -> int:
    with open("/proc/stat") as fh:
        return sum(1 for line in fh if line[:3] == "cpu" and line[3].isdigit())


#: The CPUs /proc/stat sums its counters over.
STAT_CPUS = _stat_cpus()


def net_seconds(seconds: float, stolen_before: float, stolen_after: float) -> float:
    """``seconds`` of wall time less the host steal that fell in it.

    On a shared host other guests take CPU time from this machine's CPUs
    while they have work. Between two ``steal_seconds()`` readings taken
    around a timed interval, each CPU lost on average the stolen total
    divided by the number of CPUs, and that is taken off the interval.
    Work whose critical path ran where more was stolen keeps the rest, so
    the result errs long, never short. With no steal it is ``seconds``.
    """
    return max(0.0, seconds - (stolen_after - stolen_before) / STAT_CPUS)


def fingerprint() -> dict:
    """Hardware and library facts a reader needs to compare runs."""
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        build = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{build.get('name', '?')} {build.get('version', '?')}"
    except (TypeError, AttributeError):  # numpy < 1.26 has no mode=
        pass
    thread_vars = {
        name: os.environ[name]
        for name in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        )
        if name in os.environ
    }
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_vars": thread_vars or "none set",
    }


class Accounting:
    """Operations attempted / succeeded / failed, per phase."""

    def __init__(self, workload: str):
        self.workload = workload
        self.phases: dict[str, list[int]] = {}

    def add(self, phase: str, ok: bool) -> None:
        row = self.phases.setdefault(phase, [0, 0, 0])
        row[0] += 1
        row[1 if ok else 2] += 1

    def merge(self, phase: str, attempted: int, failed: int) -> None:
        row = self.phases.setdefault(phase, [0, 0, 0])
        row[0] += attempted
        row[1] += attempted - failed
        row[2] += failed

    def lines(self) -> list[str]:
        out = [f"{'workload':<12} {'phase':<16} {'attempted':>9} "
               f"{'succeeded':>9} {'failed':>6}"]
        for phase, (att, ok, bad) in self.phases.items():
            out.append(
                f"{self.workload:<12} {phase:<16} {att:>9} {ok:>9} {bad:>6}"
            )
        return out


class CheckFailed(AssertionError):
    """A program output failed a correctness check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)
