"""One ``Tolerances`` value reaches every thresholded decision."""

import inspect
import re
from dataclasses import fields

import numpy as np
import pytest

import lme
from lme import equations, geninv, matcore, oracle, simdiag
from lme.instances import random_equation_instance
from lme.tolerances import (
    DEFAULT,
    TOL_CLUSTER,
    TOL_COMMUTE,
    TOL_RANK,
    TOL_RECON,
    TOL_RES,
    TOL_ZERO,
    Tolerances,
)

# (module, primitive) -> {threshold parameter: Tolerances field}
SPIED = {
    (matcore, "cluster_values"): {"gap": "cluster"},
    (simdiag, "_clusters"): {"gap": "cluster"},
    (simdiag, "_joint_eigenbasis"): {"tol_recon": "recon", "tol_cluster": "cluster"},
    (simdiag, "_uncertified_pairs"): {"tol_commute": "commute"},
    (equations, "_normal_within"): {"tol": "commute"},
    (equations, "relevant_matrix"): {"tol_zero": "zero"},
    (geninv, "drazin"): {"tol_zero": "zero", "tol_rank": "rank"},
    # rank(W) of the evidence's range test, counted on the SVD drazin shares
    (geninv, "_count_rank"): {"tol_rank": "rank"},
    (oracle, "_least_squares"): {"tol_rank": "rank"},
}

# each field moved by its own factor, none of them 1; cluster stays below
# recon, so the joint eigensolve groups at cluster
CUSTOM = Tolerances(recon=3e-7, commute=5e-11, cluster=7e-10, zero=2e-11, res=4e-9, rank=6e-12)


def test_defaults_are_the_constants():
    assert [f.name for f in fields(Tolerances)] == ["recon", "commute", "cluster", "zero", "res", "rank"]
    assert DEFAULT == Tolerances(TOL_RECON, TOL_COMMUTE, TOL_CLUSTER, TOL_ZERO, TOL_RES, TOL_RANK)
    assert lme.Tolerances is Tolerances


def _record_thresholds(monkeypatch, spec, tol):
    """(primitive, parameter, field, value) of every threshold the primitives
    receive from solve, check_consistent and compare at ``tol``."""
    seen = []
    for (module, name), params in SPIED.items():
        original = getattr(module, name)
        signature = inspect.signature(original)

        def spy(*args, _original=original, _signature=signature, _name=name, _params=params, **kwargs):
            bound = _signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for param, field_name in _params.items():
                seen.append((_name, param, field_name, bound.arguments[param]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    result = lme.solve(spec, tol)
    lme.check_consistent(spec, tol)
    lme.compare(result, lme.vectorize(spec))
    monkeypatch.undo()
    return seen


def test_every_field_reaches_its_decision(monkeypatch):
    spec, _ = random_equation_instance(np.random.default_rng(11), 5, 2, zero_diag_rows=1)
    at_default = _record_thresholds(monkeypatch, spec, DEFAULT)
    at_custom = _record_thresholds(monkeypatch, spec, CUSTOM)
    assert [r[:3] for r in at_custom] == [r[:3] for r in at_default]
    # one gap groups the generic combination's eigenvalues inside the joint
    # eigensolve and one clusters each member's diagonal; check_consistent
    # reuses the result solve memoized, so it decides no gap again
    gaps = [r for r in at_custom if r[0] in ("cluster_values", "_clusters")]
    assert len(gaps) == 1 + len(spec.members())
    assert {r[2] for r in at_custom} == {"recon", "commute", "cluster", "zero", "rank"}
    assert {r[0] for r in at_custom} == {name for _, name in SPIED}
    for (name, param, field_name, default_value), (*_, value) in zip(at_default, at_custom):
        # the scale of a call is what its default threshold was multiplied by
        scale = default_value / getattr(DEFAULT, field_name)
        assert value == pytest.approx(getattr(CUSTOM, field_name) * scale, rel=1e-12), (name, param)


def test_result_carries_its_tolerances():
    spec, _ = random_equation_instance(np.random.default_rng(12), 4, 2, zero_diag_rows=1)
    result = lme.solve(spec, CUSTOM)
    assert result.tolerances is CUSTOM
    assert lme.validate_family(spec.members(), CUSTOM).tol is CUSTOM
    # res is the evidence's residual acceptance: nothing passes at 1e-30
    _, evidence = lme.check_consistent(spec, Tolerances(res=1e-30))
    assert not evidence.x_hat_solves_equation and not evidence.x_hat_solves_standard
    _, evidence = lme.check_consistent(spec)
    assert evidence.x_hat_solves_equation and evidence.x_hat_solves_standard


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, None, "1e-3", 1j, [1]])
@pytest.mark.parametrize("name", [f.name for f in fields(Tolerances)])
def test_out_of_range_value_rejected(name, value):
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be a finite float >= 0, got {value!r}") + "$"):
        Tolerances(**{name: value})


def test_zero_is_in_range_and_a_negative_zero_threshold_is_refused():
    assert Tolerances(zero=0.0).zero == 0.0
    # at zero=-1 every gamma cell counted as nonzero made this inconsistent
    # equation read consistent, of dimension 0
    spec = lme.equation_spec([np.diag([1.0, 0.0])], [np.eye(2)], np.diag([0.0, 1.0]))
    assert not lme.solve(spec).consistent
    with pytest.raises(ValueError, match="^zero "):
        lme.solve(spec, Tolerances(zero=-1.0))
