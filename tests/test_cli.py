import json

import numpy as np
import pytest

from relusynth import cli
from relusynth.cli import InputError, main, verify_network
from relusynth.core import (
    AffineMap,
    DiscretePWL,
    Hyperplane,
    Layer,
    Network,
    dumps,
    forward_batch,
    forward_traced,
)
import relusynth.deep as deep_module
from relusynth.deep import deep_build
from relusynth.ordering import check_distinguishable
from relusynth.report import BuildFailure, ConstructionReport
from relusynth.shallow import classifier_build, multi_output_build

from conftest import strict_loads


@pytest.fixture
def workdir(tmp_path, rng):
    pts = rng.normal(size=(5, 2))
    vals = rng.normal(size=5)
    subs = [{"points": [p.tolist()], "W": [[0.0, 0.0]], "b": [float(v)]}
            for p, v in zip(pts, vals)]
    pwl_path = tmp_path / "pwl.json"
    pwl_path.write_text(json.dumps(
        {"dim": 2, "output_dim": 1, "subdomains": subs}))
    arr_path = tmp_path / "arr.json"
    arr_path.write_text(json.dumps({
        "dim": 2,
        "hyperplanes": [{"w": [1, 0], "b": 0}, {"w": [0, 1], "b": 0},
                        {"w": [1, 1], "b": -1}],
    }))
    return tmp_path


def test_synth3_then_verify_ok(workdir, capsys):
    net = workdir / "net.json"
    rep = workdir / "rep.json"
    assert main(["synth3", "--pwl", str(workdir / "pwl.json"),
                 "--out", str(net), "--report", str(rep)]) == 0
    assert main(["verify", "--net", str(net),
                 "--pwl", str(workdir / "pwl.json")]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    payload = json.loads(out)
    assert payload["max_residual"] <= 1e-8


def test_verify_fails_on_perturbed_weight(workdir):
    net_path = workdir / "net.json"
    main(["synth3", "--pwl", str(workdir / "pwl.json"), "--out", str(net_path)])
    net = json.loads(net_path.read_text())
    net["layers"][1]["weights"][0][0] += 1e-3
    net_path.write_text(json.dumps(net))
    assert main(["verify", "--net", str(net_path),
                 "--pwl", str(workdir / "pwl.json")]) == 1


def test_verify_classifier_compares_clamped_targets():
    # relu outputs reach max(target, 0), not the raw -1 of other categories
    build = classifier_build(np.array([[0.0, 0], [1, 0], [5, 5], [6, 5]]), [0, 0, 1, 1])
    report, code = verify_network(build.network, build.pwl)
    assert code == 0
    assert report.max_residual <= 1e-8


def test_schema_violation_exits_2(workdir):
    bad = workdir / "bad.json"
    bad.write_text("{\"nope\": 1}")
    assert main(["verify", "--net", str(bad),
                 "--pwl", str(workdir / "pwl.json")]) == 2
    missing = workdir / "missing.json"
    assert main(["synth3", "--pwl", str(missing),
                 "--out", str(workdir / "x.json")]) == 2


def test_synthesis_is_deterministic(workdir):
    a = workdir / "a.json"
    b = workdir / "b.json"
    main(["synth3", "--seed", "7", "--pwl", str(workdir / "pwl.json"),
          "--out", str(a)])
    main(["synth3", "--seed", "7", "--pwl", str(workdir / "pwl.json"),
          "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_count_regions_output(workdir, capsys):
    assert main(["count-regions", "--arrangement", str(workdir / "arr.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count_formula"] == 7
    assert payload["count_enumerated"] == 7


def test_count_regions_csv_file(workdir):
    csv_path = workdir / "regions.csv"
    main(["count-regions", "--arrangement", str(workdir / "arr.json"),
          "--csv", str(csv_path)])
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 8  # header + 7 regions


def test_count_regions_over_the_cap_never_counts_by_formula(tmp_path, capsys, monkeypatch):
    # the formula ran first, so a 2-d input over the cap paid for it, or
    # failed with its error rather than the cap's
    def formula(arr):
        raise AssertionError("count_regions_2d called")

    monkeypatch.setattr(cli, "count_regions_2d", formula)
    arr = tmp_path / "arr13.json"
    arr.write_text(json.dumps({"dim": 2, "hyperplanes": [
        {"w": [1.0, k / 7], "b": float(k)} for k in range(13)]}))
    assert main(["count-regions", "--arrangement", str(arr)]) == 2
    assert capsys.readouterr().err == (
        "input error: 13 hyperplanes exceed the enumeration cap 12\n")


def test_count_regions_of_25_concurrent_lines_under_a_larger_cap(tmp_path, capsys):
    # 25 lines through (0, -7): 50 wedges, with 2**25 sign vectors
    arr = tmp_path / "arr25.json"
    arr.write_text(json.dumps({"dim": 2, "hyperplanes": [
        {"w": [1.0, k / 7], "b": float(k)} for k in range(25)]}))
    csv_path = tmp_path / "regions.csv"
    assert main(["count-regions", "--arrangement", str(arr), "--cap", "64",
                 "--csv", str(csv_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count_formula"] == payload["count_enumerated"] == 50
    k = np.arange(25)
    for row in csv_path.read_text().splitlines()[1:]:
        _, signs, x0, x1 = row.split(",")
        assert "".join(np.where(float(x0) + k / 7 * float(x1) + k > 0, "+", "0")) == signs


def test_order_command(workdir, capsys):
    pts_path = workdir / "points.json"
    pts_path.write_text(json.dumps({"points": [[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]]}))
    assert main(["order", "--points", str(pts_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["order"]) == [0, 1, 2]
    assert len(payload["hyperplanes"]) == 3


def test_order_command_with_fewer_earlier_points_than_dimensions(workdir, capsys):
    # the last point lies between two earlier ones in 4-D: no touch set exists
    pts = np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    pts_path = workdir / "points.json"
    pts_path.write_text(json.dumps({"points": pts.tolist()}))
    assert main(["order", "--points", str(pts_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    hps = [Hyperplane(h["w"], h["b"]) for h in payload["hyperplanes"]]
    ok, failures = check_distinguishable([pts[j][None, :] for j in payload["order"]], hps)
    assert ok, failures


def test_rank_prob_command(capsys):
    assert main(["rank-prob", "--n", "2", "--m", "3", "--trials", "2000",
                 "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["full_rank_fraction"] == 1.0


def test_eval_command(workdir, capsys):
    net = workdir / "net.json"
    main(["synth3", "--pwl", str(workdir / "pwl.json"), "--out", str(net)])
    capsys.readouterr()
    assert main(["eval", "--net", str(net), "--x", "0.1,0.2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["outputs"]) == 1
    pts = np.random.default_rng(3).normal(size=(7, 2)) * 2
    pts_path = workdir / "probe.json"
    pts_path.write_text(json.dumps({"points": pts.tolist()}))
    assert main(["eval", "--net", str(net), "--points", str(pts_path)]) == 0
    outputs = np.array(json.loads(capsys.readouterr().out)["outputs"])
    expected = forward_batch(Network.from_json(net.read_text()), pts)
    assert outputs.shape == expected.shape == (7, 1)
    assert np.abs(outputs - expected).max() <= 1e-12


def test_widen_roundtrip(workdir, capsys):
    net = workdir / "net.json"
    rep = workdir / "rep.json"
    wide = workdir / "wide.json"
    main(["synth3", "--pwl", str(workdir / "pwl.json"), "--out", str(net),
          "--report", str(rep)])
    assert main(["widen", "--net", str(net), "--report", str(rep),
                 "--uniform", "20", "--out", str(wide)]) == 0
    assert main(["verify", "--net", str(wide),
                 "--pwl", str(workdir / "pwl.json")]) == 0
    payload = json.loads(wide.read_text())
    assert len(payload["layers"][0]["weights"]) == 20


def test_synthdeep_and_decode(workdir, tmp_path, capsys, rng):
    pwl = {
        "dim": 2, "output_dim": 1,
        "subdomains": [
            {"points": [[0.0, 0.0], [0.3, 0.5]], "W": [[1.0, 0.0]], "b": [0.5]},
            {"points": [[5.0, 0.0], [5.3, 0.5]], "W": [[0.0, 1.0]], "b": [-1.0]},
        ],
    }
    pwl_path = tmp_path / "deep_pwl.json"
    pwl_path.write_text(json.dumps(pwl))
    net = tmp_path / "deep_net.json"
    assert main(["synthdeep", "--pwl", str(pwl_path), "--out", str(net)]) == 0
    assert main(["verify", "--net", str(net), "--pwl", str(pwl_path)]) == 0

    codes = tmp_path / "codes.json"
    targets = tmp_path / "targets.json"
    codes.write_text(json.dumps([[0.0], [1.0], [2.0]]))
    targets.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    dec = tmp_path / "decoder.json"
    assert main(["decode", "--codes", str(codes), "--targets", str(targets),
                 "--out", str(dec)]) == 0
    netobj = Network.from_json(dec.read_text())
    widths = [len(l["weights"]) for l in json.loads(dec.read_text())["layers"][:-1]]
    assert widths == sorted(widths)


@pytest.mark.parametrize("fixture,expect_arch", [
    ("fig2", "2(1)6(1)1'(1)"),
    ("fig9", "2(1)4(1)6(1)9(1)1'(1)"),
])
def test_demo_architectures(fixture, expect_arch, tmp_path, capsys):
    assert main(["demo", fixture, "--outdir", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["architecture"] == expect_arch


def test_demo_fig5_and_fig7(tmp_path, capsys):
    assert main(["demo", "fig5", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["demo", "fig7", "--outdir", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(v > 0 for v in payload["protected_preactivations"])
    assert all(v < 0 for v in payload["foreign_preactivations"])


def test_demo_decoder_shape(tmp_path, capsys):
    assert main(["demo", "decoder", "--outdir", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    net = Network.from_json((tmp_path / "decoder_net.json").read_text())
    widths = [l.units for l in net.layers[:-1]]
    assert widths == sorted(widths)
    assert payload["max_residual"] <= 1e-8


def test_demo_unknown_fixture(tmp_path):
    assert main(["demo", "nonsense", "--outdir", str(tmp_path)]) == 2


@pytest.mark.parametrize("fixture", ["fig9", "decoder"])
def test_demo_reports_end_with_a_newline(fixture, tmp_path, capsys):
    assert main(["demo", fixture, "--outdir", str(tmp_path)]) == 0
    text = (tmp_path / f"{fixture}_report.json").read_text()
    assert text.endswith("}\n")
    assert ConstructionReport.from_json(text).max_residual <= 1e-8


def test_emitted_reports_reverify(workdir, rng):
    # a synthesis report's claimed residual is reproducible from the files
    net_path = workdir / "net.json"
    rep_path = workdir / "rep.json"
    main(["synth3", "--pwl", str(workdir / "pwl.json"), "--out", str(net_path),
          "--report", str(rep_path)])
    net = Network.from_json(net_path.read_text())
    pwl = DiscretePWL.from_json((workdir / "pwl.json").read_text())
    report, code = verify_network(net, pwl)
    assert code == 0
    claimed = json.loads(rep_path.read_text())["max_residual"]
    assert abs(report.max_residual - claimed) <= 1e-9


def _verify_per_point(net, pwl, tol=1e-8):
    """The per-point verify loop that the batched pass replaced: one traced
    forward pass per point.  Returns (point checks, max residual, code)."""
    relu_output = net.layers[-1].activation == "relu"
    checks, worst = [], 0.0
    for si, (pts, amap) in enumerate(pwl.subdomains):
        targets = amap.apply(pts)
        if relu_output:
            targets = np.maximum(targets, 0.0)
        for x, y in zip(pts, targets):
            out, patterns = forward_traced(net, x)
            residual = float(np.max(np.abs(out - y)))
            worst = max(worst, residual)
            checks.append({"subdomain": si, "point": x.tolist(), "residual": residual,
                           "active_units": [list(p.active_units()) for p in patterns]})
    return checks, worst, (0 if worst <= tol else 1)


def _deep_case():
    r = np.random.default_rng(8)
    subs = tuple((r.normal(size=(3, 2)) * 0.5 + c,
                  AffineMap(r.normal(size=(1, 2)), r.normal(size=1)))
                 for c in r.normal(size=(6, 2)) * 8)
    pwl = DiscretePWL(2, 1, subs)
    return deep_build(pwl, seed=1).network, pwl


def _multi_output_case():
    r = np.random.default_rng(9)
    subs = tuple((p[None, :], AffineMap.constant(t, 2))
                 for p, t in zip(r.normal(size=(6, 2)) * 2, r.normal(size=(6, 3))))
    pwl = DiscretePWL(2, 3, subs)
    return multi_output_build(pwl, seed=2).network, pwl


def _classifier_case():
    r = np.random.default_rng(10)
    pts = np.vstack([r.normal(size=(4, 2)) * 0.4 + c for c in ([0, 0], [4, 1], [1, 5])])
    build = classifier_build(pts, np.repeat([0, 1, 2], 4))
    return build.network, build.pwl


def _perturbed_case():
    net, pwl = _deep_case()
    last = net.layers[-1]
    W = last.weights.copy()
    W[0, int(np.argmax(np.abs(W[0])))] += 1e-3
    return Network(net.input_dim, net.layers[:-1] + (Layer(W, last.biases, last.activation),)), pwl


@pytest.mark.parametrize("case,expect_code", [
    (_deep_case, 0), (_multi_output_case, 0), (_classifier_case, 0), (_perturbed_case, 1),
])
def test_batched_verify_equals_per_point_loop(case, expect_code):
    net, pwl = case()
    report, code = verify_network(net, pwl)
    checks, worst, ref_code = _verify_per_point(net, pwl)
    assert code == ref_code == expect_code
    # the batched product sums in another order: residuals agree to rounding
    assert abs(report.max_residual - worst) <= 1e-10
    assert len(report.activation_audits) == len(checks)
    for got, ref in zip(report.activation_audits, checks):
        assert list(got) == ["subdomain", "point", "residual", "active_units"]
        assert got["subdomain"] == ref["subdomain"]
        assert got["point"] == ref["point"]
        assert got["active_units"] == ref["active_units"]
        assert abs(got["residual"] - ref["residual"]) <= 1e-10
    assert any(any(units) for c in checks for units in c["active_units"])


def test_verify_rejects_dimension_mismatch(workdir):
    net_path = workdir / "net.json"
    pwl_path = workdir / "pwl.json"
    assert main(["synth3", "--pwl", str(pwl_path), "--out", str(net_path)]) == 0
    net = Network.from_json(net_path.read_text())
    pwl = DiscretePWL.from_json(pwl_path.read_text())
    wide_out = DiscretePWL(2, 2, tuple((pts, AffineMap.constant([0.0, 1.0], 2))
                                       for pts, _ in pwl.subdomains))
    wide_in = DiscretePWL(3, 1, tuple((np.hstack([pts, np.zeros((len(pts), 1))]),
                                       AffineMap.constant([0.0], 3))
                                      for pts, _ in pwl.subdomains))
    for bad in (wide_out, wide_in):
        with pytest.raises(InputError):
            verify_network(net, bad)
        bad_path = workdir / "bad_pwl.json"
        bad_path.write_text(bad.to_json())
        assert main(["verify", "--net", str(net_path), "--pwl", str(bad_path)]) == 2


def test_verify_fails_on_nan_output():
    # a NaN residual must fail, not vanish under max(worst, nan)
    net = Network(1, (Layer([[1.0]], [0.0], "relu"), Layer([[float("nan")]], [0.0], "linear")))
    pwl = DiscretePWL(1, 1, ((np.array([[1.0], [2.0]]), AffineMap([[1.0]], [0.0])),))
    report, code = verify_network(net, pwl)
    assert code == 1
    assert np.isnan(report.max_residual)


def _failing(message, report=None):
    def build(*args, **kwargs):
        if report is None:
            raise RuntimeError(message)
        raise BuildFailure(message, report)
    return build


def test_failed_build_exits_3_and_writes_its_report(workdir, capsys, monkeypatch):
    report = ConstructionReport(architecture="2(1)15(1)1'(1)", max_residual=2.34e-7)
    monkeypatch.setattr(cli, "multi_output_build",
                        _failing("synthesis residual 2.34e-07 above 1e-8", report))
    net, rep = workdir / "net.json", workdir / "rep.json"
    assert main(["synth3", "--pwl", str(workdir / "pwl.json"), "--out", str(net),
                 "--report", str(rep)]) == 3
    err = capsys.readouterr().err
    assert err == "build failed: synthesis residual 2.34e-07 above 1e-8\n"
    assert not net.exists()
    kept = ConstructionReport.from_json(rep.read_text())
    assert (kept.architecture, kept.max_residual) == ("2(1)15(1)1'(1)", 2.34e-7)


def test_failed_build_without_report_exits_3(workdir, capsys, monkeypatch):
    monkeypatch.setattr(cli, "deep_build", _failing("layer 2: affine transmission broke"))
    net, rep = workdir / "net.json", workdir / "rep.json"
    assert main(["synthdeep", "--pwl", str(workdir / "pwl.json"), "--out", str(net),
                 "--report", str(rep)]) == 3
    assert capsys.readouterr().err == "build failed: layer 2: affine transmission broke\n"
    assert not net.exists() and not rep.exists()


@pytest.mark.parametrize("plan, missing", [
    ([1], "not a JSON object"),
    ({"kind": "shallow"}, "'pwl'"),
    ({"pwl": {"dim": 1, "output_dim": 1, "subdomains": []}}, "'kind'"),
    ({"kind": "deep", "pwl": {"dim": 1, "output_dim": 1, "subdomains": [
        {"points": [[0.0]], "W": [[0.0]], "b": [1.0]}]}}, "'tree'"),
])
def test_widen_on_a_malformed_plan_is_an_input_error(tmp_path, capsys, plan, missing):
    rep = tmp_path / "bad.json"
    rep.write_text(json.dumps({"plan": plan}))
    out = tmp_path / "o.json"
    assert main(["widen", "--report", str(rep), "--uniform", "9", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: malformed synthesis plan: {missing}\n"
    assert not out.exists()


def _three_point_report(tmp_path, command):
    """The report of a ``command`` build of three single points."""
    pwl = tmp_path / "pwl.json"
    pwl.write_text(json.dumps({"dim": 2, "output_dim": 1, "subdomains": [
        {"points": [p], "W": [[0.0, 0.0]], "b": [float(i + 1)]}
        for i, p in enumerate([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])]}))
    rep = tmp_path / "rep.json"
    assert main([command, "--pwl", str(pwl), "--out", str(tmp_path / "net.json"),
                 "--report", str(rep)]) == 0
    return rep


def _first_leaf(tree):
    while "leaf" not in tree:
        tree = tree["a"]
    return tree


@pytest.mark.parametrize("command, edit, message", [
    # the seed-0 staircase orders the points [2, 0, 1]
    ("synth3", lambda plan: plan.update(order=plan["order"][:2]),
     "order [2, 0] is not a permutation of the 3 subdomains"),
    ("synth3", lambda plan: plan.update(order=[2, 0, 0]),
     "order [2, 0, 0] is not a permutation of the 3 subdomains"),
    ("synth3", lambda plan: plan.update(hyperplanes=plan["hyperplanes"][:2]),
     "2 hyperplanes for 3 order entries"),
    ("synthdeep", lambda plan: _first_leaf(plan["tree"]).update(leaf=99),
     "tree leaves [1, 2, 99] are not a permutation of the 3 subdomains"),
])
def test_widen_on_a_plan_that_does_not_match_its_subdomains(tmp_path, capsys, command,
                                                           edit, message):
    # these died with numpy's broadcast error, a MarginError on a stage or,
    # for the deep leaf, an IndexError traceback with exit 1
    rep = _three_point_report(tmp_path, command)
    report = json.loads(rep.read_text())
    edit(report["plan"])
    rep.write_text(json.dumps(report))
    capsys.readouterr()
    wide = tmp_path / "wide.json"
    assert main(["widen", "--report", str(rep), "--uniform", "12", "--out", str(wide)]) == 2
    assert capsys.readouterr().err == f"input error: malformed synthesis plan: {message}\n"
    assert not wide.exists()


def test_widen_rejects_decreasing_deep_widths_before_rebuilding(tmp_path, capsys,
                                                                monkeypatch):
    # the plan is rebuilt once to be widened; the widened rebuild would
    # only fail at its end, with "hidden widths decreased" and exit 3
    rep = _three_point_report(tmp_path, "synthdeep")
    assert ConstructionReport.from_json(rep.read_text()).architecture == "2(1)4(1)6(1)9(1)1'(1)"
    capsys.readouterr()
    monkeypatch.setattr(deep_module, "rebuild_deep_from_plan",
                        _failing("widen_network rebuilt the plan"))
    wide = tmp_path / "wide.json"
    assert main(["widen", "--report", str(rep), "--widths", "10,8,12", "--out", str(wide)]) == 2
    assert capsys.readouterr().err == (
        "input error: deep hidden widths must not decrease, got [10, 8, 12]\n")
    assert not wide.exists()


def test_widen_on_a_non_object_report_is_an_input_error(tmp_path, capsys):
    rep, out = tmp_path / "r.json", tmp_path / "o.json"
    rep.write_text("[1, 2]")
    assert main(["widen", "--report", str(rep), "--uniform", "9", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: malformed report JSON: not a JSON object\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth3", "synthdeep"])
def test_reports_with_traces_still_load_and_widen(tmp_path, capsys, command):
    # reports written before the traces list was dropped still carry one
    pwl = tmp_path / "pwl.json"
    pwl.write_text(json.dumps({"dim": 2, "output_dim": 1, "subdomains": [
        {"points": [[0.0, 0.0], [0.3, 0.5]], "W": [[1.0, 0.0]], "b": [0.5]},
        {"points": [[5.0, 0.0], [5.3, 0.5]], "W": [[0.0, 1.0]], "b": [-1.0]},
        {"points": [[1.0, 4.0]], "W": [[0.0, 0.0]], "b": [2.0]}]}))
    net, rep, wide = tmp_path / "net.json", tmp_path / "rep.json", tmp_path / "wide.json"
    args = ["--pwl", str(pwl), "--out", str(net), "--report", str(rep)]
    assert main([command] + args + (["--multi"] if command == "synth3" else [])) == 0
    old = json.loads(rep.read_text())
    assert "traces" not in old
    old["traces"] = [{"event": "widen_invariance_probe", "points": 7, "max_diff": 0.0},
                     {"event": "activation_claim_mismatch"}]
    rep.write_text(json.dumps(old))
    loaded = ConstructionReport.from_json(rep.read_text())
    assert loaded.to_json_dict() == {k: v for k, v in old.items() if k != "traces"}

    widths = [len(l["weights"]) + 2 for l in json.loads(net.read_text())["layers"][:-1]]
    assert main(["widen", "--report", str(rep), "--widths", ",".join(map(str, widths)),
                 "--out", str(wide)]) == 0
    assert [len(l["weights"]) for l in json.loads(wide.read_text())["layers"][:-1]] == widths
    assert main(["verify", "--net", str(wide), "--pwl", str(pwl)]) == 0
    assert "traces" not in json.loads(rep.read_text())


def test_failed_widen_keeps_the_plan_it_read(workdir, capsys, monkeypatch):
    # widen reads its plan from --report; a failure must not overwrite it
    net, rep = workdir / "net.json", workdir / "rep.json"
    main(["synth3", "--pwl", str(workdir / "pwl.json"), "--out", str(net),
          "--report", str(rep)])
    plan = rep.read_text()
    monkeypatch.setattr(cli, "widen_network",
                        _failing("widening changed outputs by 1e-3", ConstructionReport()))
    wide = workdir / "wide.json"
    assert main(["widen", "--report", str(rep), "--uniform", "30",
                 "--out", str(wide)]) == 3
    assert capsys.readouterr().err.endswith("build failed: widening changed outputs by 1e-3\n")
    assert rep.read_text() == plan and not wide.exists()


@pytest.mark.parametrize("config, message", [
    ('{"margin": "x"}', "margin must be a finite positive number, got 'x'"),
    ("[1, 2]", "config must be a JSON object"),
    ('{"seed": "abc"}', "seed must be a non-negative integer, got 'abc'"),
    ('{"seed": 1.5}', "seed must be a non-negative integer, got 1.5"),
    # NaN is not JSON (RFC 8259), so the file fails to parse before any
    # margin check; BundleConfig still rejects a NaN margin given in code
    ('{"margin": NaN}', "cannot read config from {cfg}: unexpected character: "
                        "line 1 column 12 (char 11)"),
    # a misspelled key must not fall back to the default silently
    ('{"margn": 0.5}', "unknown config keys ['margn']; known: seed, margin"),
    # above 2^64 - 1 the JSON reader gives a float
    ('{"seed": 18446744073709551616}',
     "seed must be a non-negative integer, got 1.8446744073709552e+19"),
])
def test_bad_config_is_an_input_error(workdir, capsys, config, message):
    cfg, net = workdir / "c.json", workdir / "net.json"
    cfg.write_text(config)
    assert main(["synth3", "--pwl", str(workdir / "pwl.json"), "--out", str(net),
                 "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"input error: {message.format(cfg=cfg)}\n"
    assert not net.exists()


@pytest.mark.parametrize("command", ["synth3", "synthdeep"])
def test_seed_above_the_json_integer_range_is_an_input_error(workdir, capsys, monkeypatch,
                                                              command):
    # the seed is written into the report, and JSON integers stop at 2^64 - 1
    monkeypatch.setattr(cli, "multi_output_build", _failing("must not build", None))
    monkeypatch.setattr(cli, "deep_build", _failing("must not build", None))
    net, rep = workdir / "net.json", workdir / "rep.json"
    argv = [command, "--pwl", str(workdir / "pwl.json"), "--out", str(net),
            "--report", str(rep), "--seed"]
    assert main(argv + [str(2**64)]) == 2
    assert capsys.readouterr().err == (
        "input error: seed must be at most 2^64 - 1, got 18446744073709551616\n")
    assert not net.exists() and not rep.exists()
    monkeypatch.undo()
    assert main(argv + [str(2**64 - 1)]) == 0
    assert ConstructionReport.from_json(rep.read_text()).seed == 2**64 - 1


@pytest.mark.parametrize("command", ["demo", "rank-prob"])
def test_demo_and_rank_prob_check_the_seed_too(tmp_path, capsys, command):
    out = tmp_path / "demo"
    argv = {"demo": ["demo", "fig9", "--outdir", str(out)],
            "rank-prob": ["rank-prob", "--n", "2", "--m", "2", "--trials", "10"]}[command]
    assert main(argv + ["--seed", str(2**64)]) == 2
    assert capsys.readouterr().err == (
        "input error: seed must be at most 2^64 - 1, got 18446744073709551616\n")
    assert not out.exists()


def test_inseparable_subdomains_are_an_input_error(tmp_path, capsys):
    # point_key keeps the first two points apart, but no LP separates them
    pwl = tmp_path / "pwl.json"
    pwl.write_text(json.dumps({"dim": 2, "output_dim": 1, "subdomains": [
        {"points": [p], "W": [[0.0, 0.0]], "b": [float(i)]}
        for i, p in enumerate([[4.9e-13, 0.0], [5.1e-13, 0.0], [3.0, 1.0]])]}))
    net = tmp_path / "net.json"
    assert main(["synthdeep", "--pwl", str(pwl), "--out", str(net)]) == 2
    assert capsys.readouterr().err == (
        "input error: no separable bipartition of subdomains [0, 1], even as single "
        "points; their closest points are 2e-14 apart\n")
    assert not net.exists()


def test_config_sets_seed_and_margin(workdir, capsys):
    cfg, rep = workdir / "c.json", workdir / "rep.json"
    cfg.write_text('{"seed": 3, "margin": 1e-5}')
    assert main(["synth3", "--pwl", str(workdir / "pwl.json"), "--out",
                 str(workdir / "net.json"), "--report", str(rep), "--config", str(cfg)]) == 0
    report = ConstructionReport.from_json(rep.read_text())
    assert (report.seed, report.tolerances["margin"]) == (3, 1e-5)


def test_widen_without_widths_is_an_input_error(workdir, capsys):
    rep, wide = workdir / "rep.json", workdir / "wide.json"
    main(["synth3", "--pwl", str(workdir / "pwl.json"), "--out", str(workdir / "net.json"),
          "--report", str(rep)])
    capsys.readouterr()
    assert main(["widen", "--report", str(rep), "--out", str(wide)]) == 2
    assert capsys.readouterr().err == "input error: give --widths or --uniform\n"
    assert not wide.exists()


@pytest.mark.parametrize("args, message", [
    (["--tol", "-1"], "tol must be a finite positive number, got -1.0"),
    (["--tol", "0"], "tol must be a finite positive number, got 0.0"),
    (["--tol", "nan"], "tol must be a finite positive number, got nan"),
    (["--m", "0"], "need at least one row"),
])
def test_rank_prob_rejects_a_bad_tol_or_row_count(capsys, args, message):
    # a tol at or below 0 or NaN used to count no sample as near-singular
    argv = ["rank-prob", "--n", "2", "--m", "2", "--trials", "10"] + args
    assert main(argv) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def _two_cluster_pwl(tmp_path):
    rng = np.random.default_rng(0)
    subs = [{"points": (rng.normal(size=(3, 2)) * 0.5 + c).tolist(),
             "W": [[0.0, 0.0]], "b": [float(i)]}
            for i, c in enumerate([[0.0, 0.0], [6.0, 1.0]])]
    path = tmp_path / "pwl.json"
    path.write_text(json.dumps({"dim": 2, "output_dim": 1, "subdomains": subs}))
    return path


def test_synth3_classify_labels_each_subdomain(tmp_path, capsys):
    pwl, net = _two_cluster_pwl(tmp_path), tmp_path / "net.json"
    assert main(["synth3", "--classify", "--pwl", str(pwl), "--out", str(net)]) == 0
    network = Network.from_json(net.read_text())
    assert network.architecture() == "2(1)18(1)2(1)"    # ReLU outputs, one per subdomain
    out = forward_batch(network, DiscretePWL.from_json(pwl.read_text()).all_points())
    assert ((out > 0) == np.repeat(np.eye(2, dtype=bool), 3, axis=0)).all()


def test_synth3_classify_rejects_extra_units(tmp_path, capsys):
    pwl, net = _two_cluster_pwl(tmp_path), tmp_path / "net.json"
    assert main(["synth3", "--classify", "--extra-units", "3", "--pwl", str(pwl),
                 "--out", str(net)]) == 2
    assert capsys.readouterr().err == "input error: --extra-units does not apply to --classify\n"
    assert not net.exists()


def test_json_writers_write_what_core_dumps_gives(tmp_path, capsys, rng):
    obj = {"w": rng.normal(size=(3, 4)).tolist(), "s": "é",
           "b": [0.1, -0.0, 1e-300, float("inf"), float("nan"), None, True]}
    path = tmp_path / "out.json"
    cli._write_json(path, obj)
    cli._emit(obj)
    expected = dumps(obj) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    assert capsys.readouterr().out == expected
    assert '"s":"é"' in expected and '1e-300,null,null,null,true]' in expected
    back = strict_loads(path.read_bytes())
    assert back["w"] == obj["w"] and back["b"] == [0.1, -0.0, 1e-300, None, None, None, True]
