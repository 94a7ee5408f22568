"""The verdict ``benchmarks/paired.py`` prints per end-to-end metric."""

from benchmarks.paired import verdict, wins

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


def test_a_change_better_in_every_pair_by_more_than_the_spread_gains():
    change = [value * 0.7 for value in PARENT]
    assert wins(PARENT, change, "lower") == 10
    assert verdict(PARENT, change, "lower", 0.25) == "gain"
    assert verdict(change, PARENT, "higher", 0.25) == "gain"


def test_nine_wins_in_ten_still_gain_but_eight_do_not():
    nine = [value * 0.7 for value in PARENT[:9]] + [PARENT[9] * 1.1]
    assert verdict(PARENT, nine, "lower", 0.25) == "gain"
    eight = nine[:8] + [PARENT[8] * 1.1, PARENT[9] * 1.1]
    assert wins(PARENT, eight, "lower") == 8
    assert verdict(PARENT, eight, "lower", 0.25) == "same"


def test_a_gap_inside_the_parent_spread_is_no_gain():
    # Every pair won, by less than the parent's quartile spread.
    change = [value - 0.005 for value in PARENT]
    assert verdict(PARENT, change, "lower", 0.25) == "same"


def test_identical_runs_are_the_same():
    assert verdict([5.0] * 10, [5.0] * 10, "lower", 0.1) == "same"
    assert verdict([0.0] * 10, [0.0] * 10, "higher", 0.25) == "same"


def test_a_median_worse_by_more_than_the_bound_is_worse():
    change = [value * 1.3 for value in PARENT]
    assert verdict(PARENT, change, "lower", 0.25) == "worse"
    assert verdict(PARENT, change, "lower", 0.5) == "same"
    assert verdict(PARENT, [value * 0.7 for value in PARENT],
                   "higher", 0.25) == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert verdict(noisy, [1.4] * 10, "lower", 0.25) == "unresolved"
    # ...unless every change run beats every parent run.
    assert verdict(noisy, [0.95] * 10, "lower", 0.25) == "same"
