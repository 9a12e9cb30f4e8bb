"""Tests for the cost-model base classes."""

import pytest

from repro.simkernel.costmodel import CostModel, ZeroCostModel

pytestmark = pytest.mark.tier1


def test_base_cost_model_charges_nothing():
    model = CostModel()
    assert model.context_switch(0, None, None, None) == 0.0
    assert model.wakeup_latency(None, None) == 0.0
    assert model.wakeup_latency(None, None, kind="sleep") == 0.0
    assert model.cond_signal(None, None, None) == 0.0
    assert model.timer_handler(None, None) == 0.0
    assert model.unwind(None, None) == 0.0
    assert model.mutex_handoff(None, 0, 1, True, None) == 0.0
    assert model.syscall(None, None, None) == 0.0


def test_zero_cost_model_is_a_cost_model():
    assert isinstance(ZeroCostModel(), CostModel)

