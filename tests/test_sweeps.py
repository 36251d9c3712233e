"""Sweeps that tier-1 otherwise never runs, checked against their known row counts."""
from collections import Counter

from divlab.sweeps import run_sweep


def test_stability_rhs_rows_pass():
    rows = run_sweep("stability-rhs")
    assert [row.status for row in rows] == ["pass"] * 3


def test_example_t_gamma_flags_only_off_triple_degrees():
    rows = run_sweep("example-t-gamma")
    assert Counter(row.status for row in rows) == {"pass": 21, "flagged": 32}
    for row in rows:
        if row.status == "flagged":
            witness = int(row.note.rsplit(" ", 1)[1])
            assert witness not in (1, 2, 3), row
