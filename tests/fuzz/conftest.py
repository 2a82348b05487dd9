"""Shared fixtures of the fuzz tests."""

import pytest

from repro.power.psm import PowerStateMachine


@pytest.fixture
def lost_transition_residency(monkeypatch):
    """Plant a bug: completed transitions never book their latency.

    The PSM's residency then falls short of the simulated time by the
    transition latencies, which the ``structural`` oracle must catch on
    any platform whose PSMs make a non-instant transition.
    """
    original = PowerStateMachine._complete_transition

    def buggy(self, source, target, cost):
        original(self, source, target, cost)
        self._residency_fs[source._idx] -= int(cost.latency)

    monkeypatch.setattr(PowerStateMachine, "_complete_transition", buggy)
