"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench``."""

import pytest

import common


def test_net_seconds_without_steal_is_the_clock():
    assert common.net_seconds(0.125, 7.5, 7.5) == 0.125


def test_net_seconds_takes_off_the_steal_per_cpu():
    stolen = 0.04 * common.STAT_CPUS
    assert common.net_seconds(0.125, 1.0, 1.0 + stolen) == pytest.approx(0.085)


def test_net_seconds_is_never_negative():
    # Steal is read in 10 ms ticks, so a short interval may see a whole tick.
    assert common.net_seconds(0.004, 0.0, 0.01 * common.STAT_CPUS) == 0.0
