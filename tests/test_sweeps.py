"""Sweeps that tier-1 otherwise never runs, checked against their known row counts."""
from collections import Counter

from divlab import formulas
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


def test_example_t_gamma_fails_a_wrong_gamma_formula(monkeypatch):
    # gamma off by one puts Delta's formula |F| - gamma off by one on [3],
    # so the attainment rule flags no row that disagrees
    right = formulas.example_t_gamma
    monkeypatch.setattr(formulas, "example_t_gamma", lambda n, k, ell: right(n, k, ell) + 1)
    rows = run_sweep("example-t-gamma")
    differing = [row for row in rows if row.formula != row.measured]
    assert differing and all(row.status == "fail" for row in differing)
