"""The pair campaign's verdict rule (``benchmarks/pairs.py``) on
synthetic run lists: one per verdict, the campaign that refused PR 17,
and the parsing of what ``run.py`` prints."""

from __future__ import annotations

import json

import pytest

from benchmarks import pairs

#: ten runs around 100 with an interquartile range of about 2
STEADY = [98.0, 99.0, 99.5, 100.0, 100.0, 100.5, 101.0, 101.0, 101.5, 102.0]


def _scaled(runs: list[float], factor: float) -> list[float]:
    return [value * factor for value in runs]


def test_better_needs_nine_pairs_and_more_than_the_parents_iqr():
    cell = pairs.verdict(STEADY, _scaled(STEADY, 1.05),
                         higher_is_better=True, bound=0.10)
    assert (cell.verdict, cell.won, cell.pairs) == (pairs.BETTER, 10, 10)
    assert cell.dominates
    assert cell.delta == pytest.approx(0.05)
    # a gain inside the parent's own spread is not one, 10/10 or not
    small = pairs.verdict(STEADY, [v + 0.5 for v in STEADY],
                          higher_is_better=True, bound=0.10)
    assert (small.verdict, small.won) == (pairs.WITHIN, 10)
    # nor is a large median gain won in only 8 of 10 pairs
    change = _scaled(STEADY, 1.05)
    change[0], change[1] = 90.0, 91.0
    assert pairs.verdict(
        STEADY, change, higher_is_better=True, bound=0.10
    ).verdict != pairs.BETTER


def test_lower_is_better_turns_the_comparison_round():
    parent = [0.283, 0.290, 0.288, 0.346, 0.291, 0.285, 0.300, 0.295,
              0.289, 0.292]
    change = [0.157, 0.160, 0.168, 0.175, 0.166, 0.170, 0.159, 0.171,
              0.165, 0.169]
    cell = pairs.verdict(parent, change, higher_is_better=False, bound=0.15)
    assert (cell.verdict, cell.won, cell.dominates) == (pairs.BETTER, 10, True)
    back = pairs.verdict(change, parent, higher_is_better=False, bound=0.15)
    assert (back.verdict, back.won, back.dominates) == (pairs.WORSE, 0, False)


def test_within_bound_and_ties_count_for_neither_side():
    cell = pairs.verdict(STEADY, list(STEADY), higher_is_better=True,
                         bound=0.10)
    assert (cell.verdict, cell.won, cell.delta) == (pairs.WITHIN, 0, 0.0)
    bit_identical = pairs.verdict([1.075] * 10, [1.075] * 10,
                                  higher_is_better=False, bound=0.001)
    assert bit_identical.verdict == pairs.WITHIN
    assert bit_identical.parent_iqr == bit_identical.change_iqr == 0.0


def test_worse_is_a_median_beyond_the_bound():
    assert pairs.verdict(
        STEADY, _scaled(STEADY, 0.85), higher_is_better=True, bound=0.10
    ).verdict == pairs.WORSE
    assert pairs.verdict(
        STEADY, _scaled(STEADY, 0.95), higher_is_better=True, bound=0.10
    ).verdict == pairs.WITHIN


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [80.0, 85.0, 90.0, 95.0, 100.0, 100.0, 105.0, 110.0, 115.0, 120.0]
    for parent, change in ((noisy, STEADY), (STEADY, noisy)):
        assert pairs.verdict(
            parent, change, higher_is_better=True, bound=0.10
        ).verdict == pairs.UNRESOLVED


def test_the_campaign_that_refused_pr_17():
    """`local_1k_memcpy` `mb_per_s`: the metric doubled and its absolute
    spread doubled with it — the same 6.6 % of host noise on both sides
    — but the bound is a share of the *parent's* median, so the
    change's IQR exceeded it: unresolved, with every run of the change
    above every run of the parent."""
    parent = [61.9, 63.5, 65.3, 66.6, 67.5, 68.0, 68.9, 69.7, 70.3, 71.2]
    change = _scaled(parent, 2.0)
    cell = pairs.verdict(parent, change, higher_is_better=True, bound=0.10)
    assert cell.parent_iqr < 0.10 * cell.parent_median < cell.change_iqr
    assert cell.change_iqr == pytest.approx(2 * cell.parent_iqr)
    assert (cell.won, cell.dominates) == (10, True)
    assert cell.verdict == pairs.UNRESOLVED


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        pairs.verdict([1.0, 2.0], [1.0], higher_is_better=True, bound=0.1)
    with pytest.raises(ValueError):
        pairs.verdict([], [], higher_is_better=True, bound=0.1)


def _printed(workload: str, calib: float, setup_s: float) -> str:
    final = {"correct": True, "attempted": 10, "failed": 0,
             "metrics": {"setup_s": {"value": setup_s, "unit": "s"}}}
    return "\n".join([
        f"# {workload}: seed 13, 2 rounds (quick, NOT comparable), cpu 0, "
        "workdir on ext4",
        "#   host.calib_iqr_ms = 0.4424",
        f"#   host.calib_ms = {calib}",
        f"{workload} setup_s = {setup_s} s",
        json.dumps(final),
    ])


def test_parse_run_reads_what_run_py_prints():
    one = pairs.parse_run(_printed("local_1k_memcpy", 2.97, 0.154),
                          "local_1k_memcpy")
    assert one["calib_ms"] == {"local_1k_memcpy": 2.97}
    assert one["results"]["local_1k_memcpy"]["metrics"]["setup_s"][
        "value"] == 0.154
    # all workloads: run.py echoes each child, then one line keyed by name
    both = [_printed("local_1k_memcpy", 2.97, 0.154),
            _printed("remote_16k_memcpy", 3.10, 0.096)]
    merged = {
        name: json.loads(text.splitlines()[-1])
        for name, text in zip(("local_1k_memcpy", "remote_16k_memcpy"), both)
    }
    everything = pairs.parse_run(
        "\n".join([*both, json.dumps(merged)]), None
    )
    assert everything["calib_ms"] == {
        "local_1k_memcpy": 2.97, "remote_16k_memcpy": 3.10,
    }
    assert everything["results"] == merged


def test_summary_lists_every_run_of_a_cell_that_moved():
    definition = {"end_to_end": [
        {"name": "setup_s", "better": "lower", "bound": 0.15},
    ]}
    records = []
    for pair in range(1, 11):
        for side, setup_s in (("parent", 0.29), ("change", 0.16)):
            records.append({
                "pair": pair, "side": side,
                "first": (side == "parent") == bool(pair % 2),
                **pairs.parse_run(
                    _printed("local_1k_memcpy", 3.0, setup_s + pair / 1e4),
                    "local_1k_memcpy",
                ),
            })
    text = "\n".join(pairs.summarise(records, definition))
    assert (
        "#### local_1k_memcpy (10 pairs; ops_failed parent 0, change 0)"
        in text
    )
    (row,) = [line for line in text.splitlines() if "`setup_s` |" in line]
    assert row.endswith(
        "| -44.7% | 10/10 | 15.0% | better, every run better |"
    )
    assert "0.2901 (3.00)→0.1601 (3.00), 0.2902 (3.00)→0.1602 (3.00)*" in text
