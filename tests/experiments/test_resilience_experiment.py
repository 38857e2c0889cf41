"""Tests for the loss x retry-policy sweep docs/RESILIENCE.md quotes."""

import pytest

from repro.experiments.resilience import SWEEP_POLICY, policy_label, sweep


@pytest.fixture(scope="module")
def cells():
    return sweep()


def cell_at(cells, loss, policy):
    (cell,) = [c for c in cells
               if c.loss == loss and c.policy == policy_label(policy)]
    return cell


def test_retries_hold_the_answered_fraction_where_the_brittle_client_drops(
        cells):
    assert cell_at(cells, 0.05, SWEEP_POLICY).answered_fraction >= 0.99
    assert cell_at(cells, 0.05, None).answered_fraction < 0.97


def test_no_policy_cell_strands_a_query(cells):
    policy_cells = [c for c in cells if c.policy != "none"]
    assert policy_cells
    assert all(c.still_pending == 0 for c in policy_cells)


def test_sweep_is_deterministic(cells):
    assert sweep() == cells
