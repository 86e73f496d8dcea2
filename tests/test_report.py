import math
from dataclasses import fields

import numpy as np
import pytest

from relusynth.core import AffineMap, DiscretePWL
import relusynth.deep as deep_module
from relusynth.deep import deep_build
from relusynth.report import BuildFailure, ConstructionReport
from relusynth.shallow import multi_output_build

from conftest import strict_loads


def _pwl():
    return DiscretePWL(2, 1, (
        (np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.5]]), AffineMap([[1.0, 0.5]], [0.3])),
        (np.array([[2.0, 0.0], [2.0, 1.0], [2.5, 0.5]]), AffineMap([[0.2, -1.0]], [1.0])),
        (np.array([[6.0, 0.0], [6.0, 1.0], [6.5, 0.5]]), AffineMap([[-0.7, 0.1]], [-0.5])),
    ))


def test_json_keys_are_the_fields_in_order():
    names = [f.name for f in fields(ConstructionReport)]
    assert list(ConstructionReport().to_json_dict()) == names
    assert list(deep_build(_pwl(), seed=1).report.to_json_dict()) == names


@pytest.mark.parametrize("build", [multi_output_build, deep_build])
def test_round_trip_keeps_the_bytes(build):
    report = build(_pwl(), seed=1).report
    assert report.plan is not None and report.rank_audits
    back = ConstructionReport.from_json_dict(report.to_json_dict())
    assert back.to_json(indent=2) == report.to_json(indent=2)
    assert ConstructionReport.from_json(report.to_json()).to_json() == report.to_json()


def test_missing_keys_take_the_defaults():
    r = ConstructionReport.from_json_dict({"architecture": "2(1)1'(1)", "seed": 3,
                                           "unknown": 1})
    assert (r.architecture, r.seed) == ("2(1)1'(1)", 3)
    assert math.isnan(r.max_residual) and r.wall_clock == 0.0
    assert r.activation_audits == r.rank_audits == r.affine_fit_residuals == []
    assert r.tolerances == {} and r.plan is None
    other = ConstructionReport.from_json_dict({})
    assert other.rank_audits is not r.rank_audits
    with pytest.raises(ValueError, match="not a JSON object"):
        ConstructionReport.from_json_dict([])


def test_one_subdomain_report_is_strict_json():
    # no foreign points: the layer audit's foreign maximum is -inf
    pwl = DiscretePWL(2, 1, ((np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                              AffineMap([[1.0, 0.5]], [0.3])),))
    report = deep_build(pwl, seed=1).report
    assert report.activation_audits[0]["foreign_max_preactivation"] == -math.inf
    for indent in (None, 2):
        d = strict_loads(report.to_json(indent=indent))
        assert d["activation_audits"][0]["foreign_max_preactivation"] is None


def test_failure_report_is_strict_json_and_reads_back_its_nan(monkeypatch):
    rng = np.random.default_rng(3)
    pwl = DiscretePWL(2, 1, tuple(
        (rng.normal(size=(3, 2)) * 0.5 + c,
         AffineMap(rng.normal(size=(1, 2)), rng.normal(size=1)))
        for c in np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0], [6.0, 6.0]])))
    monkeypatch.setattr(deep_module, "interference_avoiding_weights",
                        lambda W, b, dims, images: np.zeros((len(W), len(dims))))
    with pytest.raises(BuildFailure) as err:
        deep_build(pwl)
    report = err.value.report
    assert math.isnan(report.max_residual)
    text = report.to_json(indent=2)
    assert strict_loads(text)["max_residual"] is None
    assert math.isnan(ConstructionReport.from_json(text).max_residual)
