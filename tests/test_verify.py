"""The acceptance suite of ``disczeta.verify``, criterion by criterion."""

from fractions import Fraction

import pytest

from disczeta import oracle, verify


@pytest.mark.parametrize(
    "name,check",
    [(name, check) for name, check, _ in verify.CRITERIA],
    ids=[name for name, _, _ in verify.CRITERIA],
)
def test_criterion_passes(name, check):
    res = check()
    assert res["name"] == name
    assert res["ok"], res["detail"]


def test_smooth_fraction_must_be_exact(monkeypatch):
    # a smooth fraction off 3/8 by 1/1000 at every degree is a failure, not a pass
    near = Fraction(3, 8) + Fraction(1, 1000)
    monkeypatch.setattr(oracle, "count_hyper_s_table", lambda q, j, s_max, guard=None: [near] * (s_max + 1))
    res = verify.check_hyper_density_p1()
    assert res["name"] == "hyper-density-p1"
    assert not res["ok"]
