import numpy as np
import pytest

from platekit import run_validation


@pytest.mark.parametrize("trials", [True, False, 2.5, 3.0, "3", 0, -1])
def test_run_validation_rejects_malformed_trials(trials):
    with pytest.raises(ValueError, match="trials must be a positive integer"):
        run_validation(trials, 1)


@pytest.mark.parametrize("nodes", [30.0, True, 1, 513, 2049])
def test_run_validation_rejects_bad_rule_before_any_trial(nodes):
    with pytest.raises(ValueError, match="nodes_per_edge"):
        run_validation(1, 1, nodes_per_edge=nodes)


def test_run_validation_fixed_rule():
    report = run_validation(np.int64(3), 5, nodes_per_edge=np.int64(80))
    assert report.trials == 3 and report.nodes_per_edge == 80
    assert report.passed and report.max_rel_error < 1e-8
    assert report.lines()[0] == "trials=3 seed=5 nodes_per_edge=80"
