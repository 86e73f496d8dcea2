"""Seeded workloads: inputs, the ops that run on them, and their checks.

A workload is a list of rounds.  Every round has the same slots (the same
op kinds in the same order); the inputs of slot ``i`` in round ``r`` come
from ``default_rng([seed, r, i])``, except the inputs of ops that are
expected to hit a named program fault, which are fixed and do not depend
on the seed.  So every round holds the same number of such ops.

An op is the library call a CLI subcommand makes: it starts from the
input's JSON text and ends at the serialized network and report (or the
verify report, or the eval outputs).  ``Op.run`` is the timed part;
``Op.check`` compares the output with ``oracle``'s own computation.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle

MARGIN = 1e-6        # the CLI's default bundle margin
FIXED_SEED = 20220204


@dataclass
class Op:
    kind: str
    run: Callable          # (lib, outputs) -> result; timed
    check: Callable        # (result, outputs) -> bookkeeping dict; untimed
    slot: str = ""
    fault: str | None = None               # named fault this op may hit
    fault_match: Callable | None = None    # exception -> True if it is that fault
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# input JSON, in the CLI's file formats


def pwl_text(subs, dim, out_dim):
    return json.dumps({"dim": dim, "output_dim": out_dim, "subdomains": [
        {"points": P.tolist(), "W": W.tolist(), "b": b.tolist()} for P, W, b in subs]})


def targets_of(subs):
    points = np.vstack([P for P, _, _ in subs])
    targets = np.vstack([P @ W.T + b for P, W, b in subs])
    return points, targets


def singleton_subs(points, values):
    n = points.shape[1]
    return [(p[None, :], np.zeros((values.shape[1], n)), v) for p, v in zip(points, values)]


# ---------------------------------------------------------------------------
# generators


def halfplane_depth(x, P):
    """Tukey depth of x among the rows of P (2-D): the fewest points of P in
    an open half-plane whose boundary passes through x."""
    if len(P) == 0:
        return 0
    d = P - x
    phi = np.arctan2(d[:, 1], d[:, 0])
    th = np.concatenate([phi + s * np.pi / 2 + e for s in (1, -1) for e in (1e-7, -1e-7)])
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    return int(((d @ U.T) > 0).sum(axis=0).min())


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


_ROT90 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _min_flat_gap(c, P, n):
    """Smallest distance, after adding point c to the rows of P (n <= 3), from
    any point to another point or to the hyperplane through n others.  Only
    the distances that involve c are new, so only those are computed."""
    k = len(P)
    if k == 0:
        return np.inf
    gaps = [np.linalg.norm(P - c, axis=1)]
    if n >= 2 and k >= n - 1:
        if n == 2:
            # lines through c and one point; lines through two points
            through_c = _unit((P - c) @ _ROT90)
            on_flat = [np.arange(k)[:, None]]
            i, j = np.triu_indices(k, 1)
            through_p = _unit((P[j] - P[i]) @ _ROT90)
        else:
            # planes through c and two points; planes through three points
            i, j = np.triu_indices(k, 1)
            through_c = _unit(np.cross(P[i] - c, P[j] - c))
            on_flat = [i[:, None], j[:, None]]
            tri = np.array(list(itertools.combinations(range(k), 3)), dtype=int).reshape(-1, 3)
            i = tri[:, 0]
            through_p = _unit(np.cross(P[tri[:, 1]] - P[i], P[tri[:, 2]] - P[i]))
        dist = np.abs(through_c @ (P - c).T)
        for rows in on_flat:
            np.put_along_axis(dist, rows, np.inf, axis=1)
        gaps += [dist.ravel(), np.abs(np.sum((c - P[i]) * through_p, axis=1))]
    with np.errstate(invalid="ignore"):
        return float(np.min(np.concatenate(gaps)))


def general_position_points(rng, sample, k, n, delta, depth_cap=None):
    """k points drawn by ``sample``, each kept only if no point comes within
    ``delta`` of a hyperplane through n others (of another point when n = 1)
    and, with ``depth_cap`` (2-D), if its half-plane depth among the earlier
    points is at most the cap.  ``sample(i)`` draws a candidate for point i.

    Points that are almost on a hyperplane through others give staircase
    and separating hyperplanes tiny margins, and then the epsilon-power
    bundle family can lose rank or exactness (see CHANGES.md).  The depth
    cap bounds the exclusion search of ``maximum_hyperplane``: the staircase
    order places points in index order and searches exclusion sets up to
    the point's depth, so no single instance dominates a run while every
    point inside the hull of the earlier ones still needs a search.
    """
    pts = np.zeros((0, n))
    while len(pts) < k:
        c = sample(len(pts))
        if depth_cap is not None and halfplane_depth(c, pts) > depth_cap:
            continue
        if _min_flat_gap(c, pts, n) >= delta:
            pts = np.vstack([pts, c])
    return pts


def interp_subs(rng, n, k, depth_cap=None):
    pts = general_position_points(rng, lambda i: rng.normal(size=n) * 3.0, k, n, 5e-3,
                                  depth_cap)
    return singleton_subs(pts, rng.normal(size=(k, 1)))


def _clustered(rng, clusters, per, n, center_scale, spread):
    centers = rng.normal(size=(clusters, n)) * center_scale
    pts = general_position_points(
        rng, lambda i: centers[i // per] + rng.normal(size=n) * spread,
        clusters * per, n, 2e-3)
    return [pts[c * per:(c + 1) * per] for c in range(clusters)]


def multi_subs(rng, mu, clusters, per=3, n=2):
    sets = _clustered(rng, clusters, per, n, 6.0, 0.7)
    return [(P, rng.normal(size=(mu, n)), rng.normal(size=mu)) for P in sets]


def classifier_subs(rng, mu, per, n=2):
    sets = _clustered(rng, mu, per, n, 8.0, 0.7)
    return [(P, np.zeros((mu, n)), np.where(np.arange(mu) == c, 1.0, -1.0))
            for c, P in enumerate(sets)]


def cluster_subs(rng, n, k, lattice):
    """k clusters of 1-4 points (sizes cycle) around a jittered grid of
    spacing 6, with random affine targets."""
    grid = np.array(list(itertools.product(*[range(m) for m in lattice])), dtype=float)
    centers = grid * 6.0 + rng.uniform(-0.3, 0.3, size=grid.shape)
    return [(rng.normal(size=(1 + i % 4, n)) * 0.5 + c, rng.normal(size=(1, n)),
             rng.normal(size=1)) for i, c in enumerate(centers)]


def decoder_data(rng, code_dim, target_dim, codes):
    pts = general_position_points(rng, lambda i: rng.normal(size=code_dim), codes,
                                  code_dim, 5e-3)
    return pts, rng.uniform(size=(codes, target_dim))


# ---------------------------------------------------------------------------
# ops (each mirrors one CLI subcommand)


def _cfg(lib):
    return lib.bundles.BundleConfig(margin=MARGIN)


def _serialized(build):
    return build.network.to_json(), build.report.to_json(indent=2)


def synth3(text, seed, classify):
    def run(lib, outputs):
        pwl = lib.core.DiscretePWL.from_json(text)
        if classify:
            pts = pwl.all_points()
            labels = np.concatenate([np.full(p.shape[0], i)
                                     for i, (p, _) in enumerate(pwl.subdomains)])
            build = lib.shallow.classifier_build(pts, labels, cfg=_cfg(lib), seed=seed)
        else:
            build = lib.shallow.multi_output_build(pwl, cfg=_cfg(lib), seed=seed)
        return _serialized(build)
    return run


def synthdeep(text, seed):
    def run(lib, outputs):
        pwl = lib.core.DiscretePWL.from_json(text)
        return _serialized(lib.deep.deep_build(pwl, cfg=_cfg(lib), seed=seed))
    return run


def decode(codes_text, targets_text, seed):
    def run(lib, outputs):
        codes = np.asarray(json.loads(codes_text)["points"], dtype=float)
        targets = np.asarray(json.loads(targets_text)["points"], dtype=float)
        return _serialized(lib.deep.decoder_build(codes, targets, cfg=_cfg(lib), seed=seed))
    return run


def widen(src, extra):
    """Widen the network an earlier op of the round built: ``extra`` more
    units on every hidden layer, replayed from its report's plan."""
    def run(lib, outputs):
        report = lib.report.ConstructionReport.from_json(outputs[src]["result"][1])
        if report.plan.get("kind") == "deep":
            build = lib.deep.rebuild_deep_from_plan(report.plan)
        else:
            build = lib.shallow.rebuild_from_plan(report.plan)
        widths = [w + extra for w in outputs[src]["hidden"]]
        return _serialized(lib.affine.widen_network(build, target_widths=widths))
    return run


def verify(net_text, pwl_txt):
    def run(lib, outputs):
        net = lib.core.Network.from_json(net_text)
        pwl = lib.core.DiscretePWL.from_json(pwl_txt)
        report, code = lib.cli.verify_network(net, pwl)
        return report.to_json(), code
    return run


def evaluate(net_text, probe_text):
    def run(lib, outputs):
        net = lib.core.Network.from_json(net_text)
        X = np.asarray(json.loads(probe_text)["points"], dtype=float)
        return json.dumps({"outputs": lib.core.forward_batch(net, X).tolist()})
    return run


# ---------------------------------------------------------------------------
# build ops with their checks


def build_op(kind, slot, subs, dim, out_dim, seed, classify=False, deep=False,
             decoder=None):
    points, targets = targets_of(subs)
    labels = None
    if classify:
        labels = np.concatenate([np.full(P.shape[0], i) for i, (P, _, _) in enumerate(subs)])
    if decoder is not None:
        codes, tg = decoder
        run = decode(json.dumps({"points": codes.tolist()}),
                     json.dumps({"points": tg.tolist()}), seed)
    elif deep:
        run = synthdeep(pwl_text(subs, dim, out_dim), seed)
    else:
        run = synth3(pwl_text(subs, dim, out_dim), seed, classify)
    shallow_width = None if deep else points.shape[0] * (dim + 1)

    def check(result, outputs):
        return oracle.check_build(result[0], result[1], points, targets, labels=labels,
                                  shallow_width=shallow_width)
    return Op(kind, run, check, slot, meta={"points": points, "targets": targets,
                                            "labels": labels, "subs": subs, "dim": dim})


def widen_op(slot, src_op, extra):
    def check(result, outputs):
        src = outputs[src_op.slot]
        return oracle.check_build(
            result[0], result[1], src_op.meta["points"], src_op.meta["targets"],
            labels=src_op.meta["labels"],
            widths=[w + extra for w in src["hidden"]], reference=src["result"][0])
    return Op("widen", widen(src_op.slot, extra), check, slot)


def _is_residual_fault(exc):
    return isinstance(exc, RuntimeError) and str(exc).startswith("synthesis residual")


# ---------------------------------------------------------------------------
# workloads


def shallow_round(seed, r):
    def rng(i):
        return np.random.default_rng([seed, r, i])

    def lib_seed(i):
        return int(rng(i).integers(2 ** 31)) ^ 0x5A5A

    ops = []
    specs = [  # slot, n, points, capped depth
        ("interp2-17", 2, 17, True), ("interp2-18", 2, 18, True),
        ("interp2-20", 2, 20, True), ("interp2-21", 2, 21, True),
        ("interp1-20", 1, 20, False), ("interp2-12", 2, 12, False),
        ("interp3-10", 3, 10, False), ("interp3-12", 3, 12, False),
    ]
    for i, (slot, n, k, capped) in enumerate(specs):
        ops.append(build_op("interp", slot, interp_subs(rng(i), n, k, 2 if capped else None),
                            n, 1, lib_seed(i)))
    i = len(ops)
    ops.append(build_op("multi", "multi2", multi_subs(rng(i), 2, 3), 2, 2, lib_seed(i)))
    ops.append(build_op("multi", "multi3", multi_subs(rng(i + 1), 3, 4), 2, 3, lib_seed(i + 1)))
    for j, (mu, per) in enumerate(((2, 5), (3, 4), (4, 3))):
        k = i + 2 + j
        ops.append(build_op("classify", f"classify{mu}", classifier_subs(rng(k), mu, per),
                            2, mu, lib_seed(k), classify=True))
    by_slot = {op.slot: op for op in ops}
    for src in ("interp2-12", "multi2", "classify3"):
        ops.append(widen_op(f"widen-{src}", by_slot[src], 3))
    return ops


def deep_round(seed, r):
    def rng(i):
        return np.random.default_rng([seed, r, i])

    def lib_seed(i):
        return int(rng(i).integers(2 ** 31)) ^ 0x5A5A

    specs = [  # slot, n, clusters, lattice
        ("deep2-32", 2, 32, (8, 4)), ("deep2-24", 2, 24, (6, 4)),
        ("deep2-8", 2, 8, (4, 2)), ("deep2-12", 2, 12, (4, 3)), ("deep2-16", 2, 16, (4, 4)),
    ]
    ops = []
    for i, (slot, n, k, lattice) in enumerate(specs):
        ops.append(build_op("deep", slot, cluster_subs(rng(i), n, k, lattice), n, 1,
                            lib_seed(i), deep=True))
    for j, (cd, td, k) in enumerate(((1, 5, 6), (2, 12, 8), (3, 20, 6))):
        i = len(specs) + j
        codes, tg = decoder_data(rng(i), cd, td, k)
        subs = singleton_subs(codes, tg)
        ops.append(build_op("decode", f"decode{cd}-{td}", subs, cd, td, lib_seed(i),
                            deep=True, decoder=(codes, tg)))
    by_slot = {op.slot: op for op in ops}
    ops.append(widen_op("widen-deep2-8", by_slot["deep2-8"], 2))
    ops.append(widen_op("widen-decode2-12", by_slot["decode2-12"], 1))
    # n = 4: the epsilon-power bundle family leaves residuals above 1e-8
    # after the whole build; fixed inputs, one of three per round
    fixed = np.random.default_rng([FIXED_SEED, r % 3])
    subs = [(fixed.normal(size=(3, 4)) * 0.8 + c, fixed.normal(size=(1, 4)), fixed.normal(size=1))
            for c in fixed.normal(size=(3, 4)) * 10.0]
    op = build_op("deep4", "deep4-fixed", subs, 4, 1, r % 3, deep=True)
    op.fault, op.fault_match = "deep-n4-residual", _is_residual_fault
    ops.append(op)
    return ops


def verify_setup(lib, seed):
    """Synthesize the networks the verify workload checks (set-up work)."""
    def rng(i):
        return np.random.default_rng([seed, 0, i])

    sources = [
        ("deep2-32", build_op("deep", "", cluster_subs(rng(0), 2, 32, (8, 4)), 2, 1, 1, deep=True)),
        ("deep2-24", build_op("deep", "", cluster_subs(rng(1), 2, 24, (6, 4)), 2, 1, 2,
                              deep=True)),
        # fixed, so that the eval times, and with them the median op
        # time, do not depend on the seed
        ("deep2-16-fixed", build_op("deep", "", cluster_subs(
            np.random.default_rng([FIXED_SEED, 9]), 2, 16, (4, 4)), 2, 1, 3, deep=True)),
        ("interp2-12", build_op("interp", "", interp_subs(rng(3), 2, 12), 2, 1, 4)),
        ("multi3", build_op("multi", "", multi_subs(rng(4), 3, 4), 2, 3, 5)),
    ]
    fixed = np.random.default_rng([FIXED_SEED, 7])
    sources.append(("classify3-fixed", build_op(
        "classify", "", classifier_subs(fixed, 3, 4), 2, 3, 6, classify=True)))
    nets = {}
    for name, op in sources:
        result = op.run(lib, {})
        op.check(result, {})
        nets[name] = dict(op.meta, text=result[0], layers=oracle.parse_network(result[0])[1],
                          relu=op.meta["labels"] is not None)
    # perturbed copies: one output weight moved by 1e-6 on the unit most
    # active over the given points; the known verdict is "fail"
    for name in ("deep2-32", "interp2-12"):
        src = nets[name]
        layers = [(W.copy(), b.copy(), a) for W, b, a in src["layers"]]
        X = src["points"]
        for W, b, a in layers[:-1]:
            X = np.maximum(X @ W.T + b, 0.0)
        unit = int(np.argmax(X.max(axis=0)))
        layers[-1][0][0, unit] += 1e-6
        nets[f"{name}-perturbed"] = dict(src, text=oracle.network_text(src["dim"], layers),
                                         layers=layers)
    return nets


def verify_round(nets, seed, r):
    """One round of verify and eval ops on the networks made in set-up.

    The five evals send seeded batches of 512 probe points through the
    same mid-sized deep network, built from fixed inputs.  Their times sit
    between those of the verifies of three-layer networks and of the larger
    deep networks, so the median op time is an eval time.  With evals of
    networks of every size, the op times spread evenly from 1 to 40 ms and
    the median moved by a third between seeds.
    """
    def verify_op(name, kind):
        net = nets[name]
        text = pwl_text(net["subs"], net["dim"], net["targets"].shape[1])
        reference = functools.cache(lambda: oracle.verify_reference(
            net["layers"], net["points"], net["targets"], net["relu"]))

        def check(result, outputs):
            return oracle.check_verify(result[0], result[1], reference())
        return Op(kind, verify(net["text"], text), check, f"verify-{name}")

    ops = [verify_op(name, "verify")
           for name in ("deep2-32", "deep2-24", "deep2-16-fixed", "interp2-12", "multi3")]
    for name in ("deep2-32-perturbed", "interp2-12-perturbed"):
        ops.append(verify_op(name, "verify-perturbed"))
    op = verify_op("classify3-fixed", "verify-classifier")
    op.fault = "classifier-verify"
    ops.append(op)
    net = nets["deep2-16-fixed"]
    P = net["points"]
    for i in range(5):
        rng = np.random.default_rng([seed, r, i])
        X = P[rng.integers(len(P), size=512)] + rng.normal(size=(512, P.shape[1])) * 0.5
        reference = functools.cache(lambda X=X: oracle.eval_reference(net["layers"], X))

        def check(result, outputs, reference=reference):
            return oracle.check_eval(result, reference())
        ops.append(Op("eval", evaluate(net["text"], json.dumps({"points": X.tolist()})),
                      check, f"eval-deep2-16-fixed-{i}"))
    return ops


WORKLOADS = {
    # name: (round maker, tail percentile, rounds in the pool: one pass)
    "shallow": (shallow_round, 90, 10),
    "deep": (deep_round, 85, 6),
    "verify": (verify_round, 99, 1),
}
