"""Command-line surface.

Subcommands: synth3, synthdeep, decode, widen, order, count-regions,
rank-prob, verify, demo, eval.  Results go to stdout as JSON, human
summaries to stderr.  Exit codes: 0 verified/ok, 1 verification failed,
2 input error, 3 build failed (a synthesis failed one of its own checks;
its report, when it made one, still goes to ``--report``).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .core import (
    ACTIVATION_TOL,
    MARGIN,
    VERIFY_TOL,
    AffineMap,
    DiscretePWL,
    JSONDecodeError,
    Network,
    dumps,
    forward_batch,
    forward_masks,
    loads,
)
from .arrangement import DEFAULT_CAP, Arrangement, count_regions_2d, enumerate_regions
from .bundles import BundleConfig
from .ordering import distinguishable_order
from .randmat import SphereSampler, rank_probability
from .report import ConstructionReport
from .shallow import (
    classifier_build,
    multi_output_build,
    rebuild_from_plan,
    two_subdomain_build,
)
from .deep import decoder_build, deep_build, rebuild_deep_from_plan
from .affine import interference_avoiding_weights, widen_network


class InputError(ValueError):
    pass


def _load_json(path, what):
    try:
        with open(path, "rb") as fh:
            return loads(fh.read())
    except (OSError, JSONDecodeError) as exc:
        raise InputError(f"cannot read {what} from {path}: {exc}") from exc


def _load_points(path, what="points"):
    data = _load_json(path, what)
    if isinstance(data, dict) and "points" in data:
        data = data["points"]
    pts = np.asarray(data, dtype=float)
    if pts.ndim != 2:
        raise InputError(f"{what} must be a 2-d array of coordinates")
    return pts


def _write_json(path, obj):
    with open(path, "wb") as fh:
        fh.write((dumps(obj) + "\n").encode())


def _emit(obj, summary=None):
    sys.stdout.write(dumps(obj) + "\n")
    if summary:
        print(summary, file=sys.stderr)


def _seed(seed):
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    # reports and results carry the seed, and JSON integers stop at 2^64 - 1
    if seed > 2**64 - 1:
        raise InputError(f"seed must be at most 2^64 - 1, got {seed}")
    return seed


def _config(args):
    cfg = _load_json(args.config, "config") if args.config else {}
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    unknown = sorted(set(cfg) - {"seed", "margin"})
    if unknown:
        raise InputError(f"unknown config keys {unknown}; known: seed, margin")
    seed = _seed(args.seed if args.seed is not None else cfg.get("seed", 0))
    return seed, BundleConfig(margin=cfg.get("margin", MARGIN))


def verify_network(net, pwl):
    """Re-verify a network against its target function, point by point.

    One batched forward pass over every point gives, per point, the residual
    against the subdomain's affine target (clamped at zero when the output
    layer is a ReLU, as for classifiers) and the activated-unit sets per
    layer.  The batched product sums in another order than a one-point
    product, so residuals can differ from a per-point evaluation in the last
    digits (about 1e-12), far below ``VERIFY_TOL``.  The report's
    max_residual is recomputed from scratch; passing means at most
    ``VERIFY_TOL``, and a NaN residual fails.
    """
    t0 = time.monotonic()
    if net.output_dim != pwl.output_dim:
        raise InputError(
            f"network outputs {net.output_dim} values but the function "
            f"has output_dim {pwl.output_dim}")
    if net.input_dim != pwl.dim:
        raise InputError(
            f"network expects {net.input_dim}-dimensional input but the "
            f"function has dim {pwl.dim}")
    X = pwl.all_points()
    targets = pwl.all_targets()
    if net.layers and net.layers[-1].activation == "relu":
        targets = np.maximum(targets, 0.0)
    out, masks = forward_masks(net, X)
    residuals = np.abs(out - targets).max(axis=1)
    # one nonzero per layer; its column indices, cut at the row counts, are
    # each point's active units in ascending order
    active = []
    for on in masks:
        units = np.nonzero(on)[1].tolist()
        ends = np.cumsum(on.sum(axis=1)).tolist()
        active.append([units[a:b] for a, b in zip([0] + ends[:-1], ends)])
    subdomain = [si for si, (pts, _) in enumerate(pwl.subdomains) for _ in pts]
    point_checks = [
        {"subdomain": si, "point": x, "residual": r,
         "active_units": [layer[i] for layer in active]}
        for i, (si, x, r) in enumerate(zip(subdomain, X.tolist(), residuals.tolist()))
    ]
    worst = float(residuals.max(initial=0.0))
    report = ConstructionReport(
        architecture=net.architecture(),
        max_residual=worst,
        activation_audits=point_checks,
        wall_clock=time.monotonic() - t0,
        tolerances={"verify_tol": VERIFY_TOL, "activation_tol": ACTIVATION_TOL},
    )
    return report, (0 if worst <= VERIFY_TOL else 1)


def cmd_verify(args):
    net = Network.from_json_dict(_load_json(args.net, "network"))
    pwl = DiscretePWL.from_json_dict(_load_json(args.pwl, "function"))
    report, code = verify_network(net, pwl)
    _emit(report.to_json_dict(),
          f"verify: architecture {report.architecture} "
          f"max residual {report.max_residual:.3e} -> "
          f"{'ok' if code == 0 else 'FAILED'}")
    return code


def _write_report(path, report):
    with open(path, "wb") as fh:
        fh.write((report.to_json(indent=2) + "\n").encode())


def _finish_synthesis(args, build):
    _write_json(args.out, build.network.to_json_dict())
    if getattr(args, "report", None):
        _write_report(args.report, build.report)
    _emit({"architecture": build.network.architecture(),
           "max_residual": build.report.max_residual,
           "out": args.out},
          f"synthesized {build.network.architecture()} "
          f"(max residual {build.report.max_residual:.3e})")
    return 0


def cmd_synth3(args):
    seed, bundle_cfg = _config(args)
    pwl = DiscretePWL.from_json_dict(_load_json(args.pwl, "function"))
    if args.classify:
        if args.extra_units:
            raise InputError("--extra-units does not apply to --classify")
        pts = pwl.all_points()
        labels = np.concatenate([
            np.full(p.shape[0], i) for i, (p, _) in enumerate(pwl.subdomains)
        ])
        build = classifier_build(pts, labels, cfg=bundle_cfg, seed=seed)
    else:
        if pwl.output_dim > 1 and not args.multi:
            raise InputError("multi-dimensional targets need --multi")
        build = multi_output_build(pwl, cfg=bundle_cfg, seed=seed,
                                    extra_units=args.extra_units)
    return _finish_synthesis(args, build)


def cmd_synthdeep(args):
    seed, bundle_cfg = _config(args)
    pwl = DiscretePWL.from_json_dict(_load_json(args.pwl, "function"))
    build = deep_build(pwl, cfg=bundle_cfg, seed=seed)
    return _finish_synthesis(args, build)


def cmd_decode(args):
    seed, bundle_cfg = _config(args)
    codes = _load_points(args.codes, "codes")
    targets = _load_points(args.targets, "targets")
    build = decoder_build(codes, targets, cfg=bundle_cfg, seed=seed)
    return _finish_synthesis(args, build)


def cmd_widen(args):
    if args.widths is None and args.uniform is None:
        raise InputError("give --widths or --uniform")
    report = ConstructionReport.from_json_dict(_load_json(args.report, "report"))
    if report.plan is None:
        raise InputError("report carries no synthesis plan; cannot widen")
    if not isinstance(report.plan, dict):
        raise InputError("malformed synthesis plan: not a JSON object")
    if report.plan.get("kind") == "deep":
        build = rebuild_deep_from_plan(report.plan)
    else:
        build = rebuild_from_plan(report.plan)
    if args.net:
        net = Network.from_json_dict(_load_json(args.net, "network"))
        if net.architecture() != build.network.architecture():
            print(
                f"warning: report plan rebuilds {build.network.architecture()} "
                f"but --net holds {net.architecture()}", file=sys.stderr)
    widths = args.widths and [int(w) for w in args.widths.split(",")]
    widened = widen_network(build, target_widths=widths, uniform=args.uniform)
    return _finish_synthesis(args, widened)


def _order_payload(pts):
    """The staircase order of single points with one hyperplane per
    position, as ``relusynth order`` and ``demo fig5`` write it."""
    result = distinguishable_order([p[None, :] for p in pts])
    return {
        "order": [int(j) for j in result.order],
        "hyperplanes": [{"w": h.w.tolist(), "b": h.b} for h in result.hyperplanes],
    }


def cmd_order(args):
    pts = _load_points(args.points)
    payload = _order_payload(pts)
    if args.out:
        _write_json(args.out, payload)
    _emit(payload, f"ordered {len(pts)} points")
    return 0


def cmd_count_regions(args):
    arr = Arrangement.from_json_dict(_load_json(args.arrangement, "arrangement"))
    regions = enumerate_regions(arr, cap=args.cap)    # checks the cap first
    payload = {"dim": arr.dim, "hyperplanes": len(arr.hyperplanes)}
    if arr.dim == 2:
        payload["count_formula"] = count_regions_2d(arr)
    payload["count_enumerated"] = len(regions)
    lines = ["region,signs," + ",".join(f"x{i}" for i in range(arr.dim))]
    for i, r in enumerate(regions):
        signs = "".join(r.sign_vector)
        coords = ",".join(repr(float(v)) for v in r.witness)
        lines.append(f"{i},{signs},{coords}")
    csv_text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stderr.write(csv_text)
    _emit(payload, None)
    return 0


def cmd_rank_prob(args):
    stats = rank_probability(
        SphereSampler(args.n, seed=_seed(args.seed or 0)), args.m,
        trials=args.trials, tol=args.tol,
    )
    _emit(stats,
          f"full-rank fraction {stats['full_rank_fraction']} over "
          f"{args.trials} trials ({stats['near_singular_count']} near-singular)")
    return 0


def cmd_eval(args):
    net = Network.from_json_dict(_load_json(args.net, "network"))
    if args.x:
        pts = np.array([[float(v) for v in s.split(",")] for s in args.x])
    elif args.points:
        pts = _load_points(args.points)
    else:
        raise InputError("give --x or --points")
    outs = forward_batch(net, pts).tolist()
    _emit({"outputs": outs}, f"evaluated {len(outs)} points")
    return 0


# ---------------------------------------------------------------------------
# demo fixtures


def _fixture_fig2(seed):
    rng = np.random.default_rng(seed)
    D1 = rng.normal(size=(4, 2)) * 0.6
    D2 = rng.normal(size=(4, 2)) * 0.6 + [6.0, 0.5]
    pwl = DiscretePWL(2, 1, (
        (D1, AffineMap([[1.0, 2.0]], [0.5])),
        (D2, AffineMap([[-1.0, 0.3]], [2.0])),
    ))
    net = two_subdomain_build(pwl, seed=seed).network
    return pwl, net


def _fixture_fig9(seed):
    pwl = DiscretePWL(2, 1, (
        (np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
         AffineMap([[1.0, 0.5]], [0.3])),
        (np.array([[2.0, 0.0], [2.0, 1.0], [2.5, 0.5]]),
         AffineMap([[0.2, -1.0]], [1.0])),
        (np.array([[6.0, 0.0], [6.0, 1.0], [6.5, 0.5]]),
         AffineMap([[-0.7, 0.1]], [-0.5])),
    ))
    return pwl, deep_build(pwl, seed=seed)


def fig7_fixture():
    """Interference demo: two 3-point sets, one shared line dark for one set.

    The first-layer lines give the first set nonzero output on units 0 and
    2 only; the second-layer unit is activated by the first set and driven
    strictly negative on the second via the weight on the dimension where
    only the second set is positive.
    """
    from .core import Hyperplane, Layer

    D1 = np.array([[0.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    D2 = np.array([[3.0, 0.0], [3.5, 1.0], [4.0, 0.5]])
    lines = [Hyperplane([1.0, 0.0], 5.0),
             Hyperplane([1.0, 0.0], -2.0),
             Hyperplane([0.0, 1.0], 5.0)]
    layer1 = Layer(np.array([l.w for l in lines]), np.array([l.b for l in lines]),
                   "relu")
    img1 = np.maximum(D1 @ layer1.weights.T + layer1.biases, 0.0)
    img2 = np.maximum(D2 @ layer1.weights.T + layer1.biases, 0.0)
    w = np.array([1.0, 0.0, 1.0])
    b = -float((img1 @ w).min()) + 1.0
    w[1] = interference_avoiding_weights(w, b, [1], img2)
    layer2 = Layer(w[None, :], np.array([b]), "relu")
    return D1, D2, layer1, layer2


def _fixture_decoder(seed):
    rng = np.random.default_rng(seed)
    codes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    patterns = rng.uniform(size=(3, 9)).round(3)  # flattened 3x3 gray images
    return codes, patterns, decoder_build(codes, patterns, seed=seed)


def cmd_demo(args):
    import os

    seed = _seed(args.seed if args.seed is not None else 0)
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    name = args.fixture
    if name == "fig2":
        pwl, net = _fixture_fig2(seed)
        _write_json(os.path.join(outdir, "fig2_pwl.json"), pwl.to_json_dict())
        _write_json(os.path.join(outdir, "fig2_net.json"), net.to_json_dict())
        report, code = verify_network(net, pwl)
        _write_json(os.path.join(outdir, "fig2_report.json"), report.to_json_dict())
        _emit({"fixture": name, "architecture": net.architecture(),
               "max_residual": report.max_residual}, None)
        return code
    if name == "fig5":
        rng = np.random.default_rng(seed)
        pts = np.vstack([rng.normal(size=(6, 2)) * 2,
                         [[1.0, 3.0], [3.0, 3.0]]])  # deliberate tie pair
        payload = _order_payload(pts)
        _write_json(os.path.join(outdir, "fig5_points.json"),
                    {"points": pts.tolist()})
        _write_json(os.path.join(outdir, "fig5_order.json"), payload)
        _emit({"fixture": name, "order": payload["order"]}, None)
        return 0
    if name == "fig7":
        D1, D2, layer1, layer2 = fig7_fixture()
        net = Network(2, (layer1, layer2))
        _write_json(os.path.join(outdir, "fig7_net.json"), net.to_json_dict())
        pre2 = lambda D: np.maximum(D @ layer1.weights.T + layer1.biases, 0.0) \
            @ layer2.weights.T + layer2.biases
        payload = {
            "fixture": name,
            "protected_preactivations": pre2(D1)[:, 0].tolist(),
            "foreign_preactivations": pre2(D2)[:, 0].tolist(),
        }
        _write_json(os.path.join(outdir, "fig7_summary.json"), payload)
        _emit(payload, None)
        return 0
    if name == "fig9":
        pwl, build = _fixture_fig9(seed)
        _write_json(os.path.join(outdir, "fig9_pwl.json"), pwl.to_json_dict())
        _write_json(os.path.join(outdir, "fig9_net.json"),
                    build.network.to_json_dict())
        _write_report(os.path.join(outdir, "fig9_report.json"), build.report)
        _emit({"fixture": name, "architecture": build.network.architecture(),
               "max_residual": build.report.max_residual}, None)
        return 0
    if name == "decoder":
        codes, patterns, build = _fixture_decoder(seed)
        _write_json(os.path.join(outdir, "decoder_codes.json"),
                    {"points": codes.tolist()})
        _write_json(os.path.join(outdir, "decoder_targets.json"),
                    {"points": patterns.tolist()})
        _write_json(os.path.join(outdir, "decoder_net.json"),
                    build.network.to_json_dict())
        _write_report(os.path.join(outdir, "decoder_report.json"), build.report)
        _emit({"fixture": name, "architecture": build.network.architecture(),
               "max_residual": build.report.max_residual}, None)
        return 0
    raise InputError(f"unknown fixture {name!r}; have fig2, fig5, fig7, fig9, decoder")


def build_parser():
    p = argparse.ArgumentParser(prog="relusynth",
                                description="exact ReLU network synthesis")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--config", default=None,
                        help="JSON file with tolerances/seeds")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    s = add_parser("synth3", help="three-layer synthesis")
    s.add_argument("--pwl", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--report", default=None)
    s.add_argument("--multi", action="store_true")
    s.add_argument("--classify", action="store_true")
    s.add_argument("--extra-units", type=int, default=0)
    s.set_defaults(func=cmd_synth3)

    s = add_parser("synthdeep", help="deep region-dividing synthesis")
    s.add_argument("--pwl", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--report", default=None)
    s.set_defaults(func=cmd_synthdeep)

    s = add_parser("decode", help="decoder synthesis from code/target pairs")
    s.add_argument("--codes", required=True)
    s.add_argument("--targets", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--report", default=None)
    s.set_defaults(func=cmd_decode)

    s = add_parser("widen", help="widen a synthesized network")
    s.add_argument("--net", default=None)
    s.add_argument("--report", required=True, help="report with the synthesis plan")
    s.add_argument("--widths", default=None, help="comma-separated hidden widths")
    s.add_argument("--uniform", type=int, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_widen)

    s = add_parser("order", help="staircase-order a point set")
    s.add_argument("--points", required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_order)

    s = add_parser("count-regions", help="arrangement region counting")
    s.add_argument("--arrangement", required=True)
    s.add_argument("--cap", type=int, default=DEFAULT_CAP)
    s.add_argument("--csv", default=None)
    s.set_defaults(func=cmd_count_regions)

    s = add_parser("rank-prob", help="Monte Carlo full-rank statistics")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--trials", type=int, default=100000)
    s.add_argument("--tol", type=float, default=1e-9)
    s.set_defaults(func=cmd_rank_prob)

    s = add_parser("verify", help="re-verify a network against its targets")
    s.add_argument("--net", required=True)
    s.add_argument("--pwl", required=True)
    s.set_defaults(func=cmd_verify)

    s = add_parser("demo", help="emit a built-in demo fixture")
    s.add_argument("fixture")
    s.add_argument("--outdir", default="demo-out")
    s.set_defaults(func=cmd_demo)

    s = add_parser("eval", help="evaluate a network at points")
    s.add_argument("--net", required=True)
    s.add_argument("--x", action="append", default=None,
                   help="comma-separated coordinates (repeatable)")
    s.add_argument("--points", default=None)
    s.set_defaults(func=cmd_eval)
    return p


# commands whose --report is an output; widen reads its plan from --report
_REPORT_OUTPUT = ("synth3", "synthdeep", "decode")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        report = getattr(exc, "report", None)
        if report is not None and args.command in _REPORT_OUTPUT and args.report:
            _write_report(args.report, report)
        return 3


if __name__ == "__main__":
    sys.exit(main())
