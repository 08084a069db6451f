"""How agree.py judges a (workload, metric) pair."""

from e2e import agree


def test_gap_is_how_much_worse_the_second_set_is():
    assert abs(agree.worse_by(2.0, 2.2, "lower") - 0.1) < 1e-12
    assert abs(agree.worse_by(10.0, 9.0, "higher") - 0.1) < 1e-12
    assert agree.worse_by(2.0, 1.0, "lower") == -0.5


def test_a_gap_beyond_the_bound_disagrees_in_either_direction():
    assert agree.verdict([0.01, 0.02], 0.04, 0.05) == "yes"
    assert agree.verdict([0.01, 0.02], 0.06, 0.05) == "NO"
    assert agree.verdict([0.01, 0.02], -0.40, 0.05) == "NO"


def test_a_spread_wider_than_the_bound_is_unresolved_not_agreement():
    assert agree.verdict([0.01, 0.30], 0.04, 0.25) == "unresolved"
    assert agree.verdict([0.30, 0.30], 0.26, 0.25) == "NO"
