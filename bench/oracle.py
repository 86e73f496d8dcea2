"""The benchmark's own computations, made apart from the program.

Nothing here imports relusynth.  Networks are read from the JSON text an
op returns and evaluated with plain numpy; targets come from the affine
maps the benchmark generated.  Each check either returns bookkeeping for
the op (parameter count, hidden layers), raises ``KnownFault`` when the
output shows exactly the signature of a named program fault, or raises
``CheckFailed``.
"""

from __future__ import annotations

import json

import numpy as np

EXACT_TOL = 1e-8        # every given point within 1e-8 of its target
ACTIVATION_TOL = 1e-9   # ReLU outputs clamp to zero at or below this
EPS = np.finfo(float).eps
SLACK = 4.0             # safety factor on rounding-error bounds
TARGET_ROUNDING = 64 * EPS   # targets computed by the program in another order


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own computation."""


class KnownFault(Exception):
    """An op hit a named program fault; it counts as failed, not as wrong."""

    def __init__(self, name, detail):
        super().__init__(f"{name}: {detail}")
        self.name = name


def parse_network(text):
    d = json.loads(text) if isinstance(text, str) else text
    layers = [(np.asarray(l["weights"], dtype=float),
               np.asarray(l["biases"], dtype=float),
               l["activation"]) for l in d["layers"]]
    return int(d["input_dim"]), layers


def network_text(input_dim, layers):
    return json.dumps({
        "input_dim": input_dim,
        "layers": [{"weights": W.tolist(), "biases": b.tolist(), "activation": act}
                   for W, b, act in layers],
    })


def forward(layers, X, tol=ACTIVATION_TOL):
    """Batched forward pass.

    Returns the outputs, per layer the preactivations ``z``, and per layer
    the rounding error that layer adds to its own ``z``:
    (fan-in + 1) * eps * (|W| |a| + |b|), whatever the summation order.
    ``rounding_bound`` carries these to later layers.
    """
    out = np.asarray(X, dtype=float)
    zs, deltas = [], []
    for W, b, act in layers:
        z = out @ W.T + b
        deltas.append((W.shape[1] + 1) * EPS * (np.abs(out) @ np.abs(W).T + np.abs(b)))
        zs.append(z)
        out = np.where(z > tol, z, 0.0) if act == "relu" else z
    return out, zs, deltas


def rounding_bound(layers, zs, deltas, upto=-1, tol=ACTIVATION_TOL):
    """Per point, a first-order bound on the rounding error of layer
    ``upto``'s preactivations: every earlier layer's own rounding, carried
    through the network's signed Jacobian at that point.  Two evaluations
    of the network in different orders differ by at most twice this.
    (Carried through |W| instead, the bound ignores cancellation and
    reaches 1e11 on deep networks.)"""
    upto %= len(layers)
    n, w = zs[upto].shape
    G = np.broadcast_to(np.eye(w), (n, w, w))   # d z[upto] / d z[l], per point
    bound = deltas[upto].copy()
    for l in range(upto - 1, -1, -1):
        on = zs[l] > tol if layers[l][2] == "relu" else np.ones(zs[l].shape, dtype=bool)
        G = (G @ layers[l + 1][0]) * on[:, None, :]
        bound += np.einsum("nij,nj->ni", np.abs(G), deltas[l])
    return bound


def active_sets_agree(claimed, z, err, tol=ACTIVATION_TOL):
    """Per point, ``claimed`` unit indices equal the units with z > tol,
    except units whose preactivation lies within the rounding bound of tol."""
    mask = np.zeros(z.shape, dtype=bool)
    for i, units in enumerate(claimed):
        mask[i, units] = True
    sure_on = z - SLACK * err > tol
    sure_off = z + SLACK * err <= tol
    return bool(np.all(mask[sure_on]) and not np.any(mask[sure_off]))


def param_count(layers):
    return int(sum(W.size + b.size for W, b, _ in layers))


def hidden_widths(layers):
    return [W.shape[0] for W, _, _ in layers[:-1]]


def check_build(net_text, report_text, points, targets, labels=None,
                shallow_width=None, widths=None, reference=None):
    """Check a synthesized network against the generated targets.

    ``labels`` marks a classifier (ReLU outputs: they must equal
    max(target, 0) and be positive exactly on the point's own category);
    ``shallow_width`` is the required single hidden width; ``widths`` the
    required hidden widths of a widened network, whose outputs must also
    agree with the ``reference`` network text on the given points.  Deep
    networks (more than one hidden layer) must have non-decreasing widths.
    """
    input_dim, layers = parse_network(net_text)
    if input_dim != points.shape[1]:
        raise CheckFailed(f"input_dim {input_dim} != {points.shape[1]}")
    out, zs, deltas = forward(layers, points)
    want = targets if labels is None else np.maximum(targets, 0.0)
    resid = float(np.max(np.abs(out - want)))
    claim_tol = (SLACK * float(np.max(rounding_bound(layers, zs, deltas))) +
                 TARGET_ROUNDING * (1.0 + float(np.max(np.abs(want)))))
    if not resid <= EXACT_TOL:
        raise CheckFailed(f"residual {resid:.3g} above {EXACT_TOL:g}")
    if labels is not None:
        own = labels[:, None] == np.arange(out.shape[1])[None, :]
        if not np.array_equal(out > 0.0, own):
            raise CheckFailed("classifier outputs are not positive exactly on the own category")
    hidden = hidden_widths(layers)
    if shallow_width is not None and hidden != [shallow_width]:
        raise CheckFailed(f"hidden widths {hidden}, want [{shallow_width}]")
    if any(b < a for a, b in zip(hidden, hidden[1:])):
        raise CheckFailed(f"deep hidden widths decrease: {hidden}")
    if widths is not None and hidden != list(widths):
        raise CheckFailed(f"widened hidden widths {hidden}, want {list(widths)}")
    if reference is not None:
        _, ref_layers = parse_network(reference)
        ref_out, _, _ = forward(ref_layers, points)
        diff = float(np.max(np.abs(out - ref_out)))
        if not diff <= EXACT_TOL:
            raise CheckFailed(f"widened network differs from its source by {diff:.3g}")
    claimed = json.loads(report_text)["max_residual"]
    if not abs(claimed - resid) <= claim_tol:
        raise CheckFailed(f"report claims residual {claimed!r}, benchmark finds {resid!r}")
    return {"params": param_count(layers), "hidden": hidden}


def verify_reference(layers, points, targets, relu_output):
    """What ``check_verify`` compares a verify report with.  It depends
    only on the network and its points, so a workload computes it once.

    The known answer comes from the benchmark's own forward pass: a network
    with ReLU outputs is right when it matches max(target, 0), and its
    residuals are measured against that.  ``raw`` holds the residuals
    against the raw targets, the signature of the classifier fault.
    """
    out, zs, deltas = forward(layers, points)
    want = np.maximum(targets, 0.0) if relu_output else targets
    resid = np.max(np.abs(out - want), axis=1)
    bounds = [rounding_bound(layers, zs, deltas, upto=l) for l in range(len(layers))]
    return {
        "resid": resid,
        "raw": np.max(np.abs(out - targets), axis=1),
        "known_pass": bool(np.max(resid) <= EXACT_TOL),
        "relu_output": relu_output,
        "claim_tol": SLACK * np.max(bounds[-1], axis=1) + TARGET_ROUNDING * (
            1.0 + np.max(np.abs(targets), axis=1)),
        "layers": list(zip(zs, bounds)),
        "book": {"params": param_count(layers), "hidden": hidden_widths(layers)},
    }


def check_verify(report_text, code, ref):
    """Check a verify op against ``verify_reference``: verdict, per-point
    residuals and active-unit sets.  A "fail" on a passing ReLU-output
    network whose residuals equal the raw-target residuals is the named
    classifier fault; any other departure, that signature included, is a
    wrong answer."""
    report = json.loads(report_text)
    audits = report["activation_audits"]
    if len(audits) != len(ref["resid"]):
        raise CheckFailed(f"{len(audits)} point checks for {len(ref['resid'])} points")
    if any(len(a["active_units"]) != len(ref["layers"]) for a in audits):
        raise CheckFailed("active units are not given for every layer")
    for layer, (z, bound) in enumerate(ref["layers"]):
        if not active_sets_agree([a["active_units"][layer] for a in audits], z, bound):
            raise CheckFailed(f"layer {layer}: active units differ from the benchmark's")
    residuals = np.array([a["residual"] for a in audits])
    max_claimed = report["max_residual"]
    claim_tol = ref["claim_tol"]

    def matches(expected):
        return (bool(np.all(np.abs(residuals - expected) <= claim_tol)) and
                abs(max_claimed - float(np.max(expected))) <= float(np.max(claim_tol)))

    resid, known_pass = ref["resid"], ref["known_pass"]
    if matches(resid) and (code == 0) == known_pass:
        return ref["book"]
    if ref["relu_output"] and known_pass and code == 1 and matches(ref["raw"]):
        raise KnownFault("classifier-verify",
                         f"raw-target residual {np.max(ref['raw']):.3g} on a passing network")
    differ = int(np.sum(~(np.abs(residuals - resid) <= claim_tol)))
    raise CheckFailed(f"{differ} point residuals differ from the benchmark's, max_residual "
                      f"{max_claimed!r} vs {float(np.max(resid))!r}; verdict "
                      f"{'pass' if code == 0 else 'fail'}, known answer "
                      f"{'pass' if known_pass else 'fail'}")


def eval_reference(layers, X):
    """What ``check_eval`` compares eval outputs with: the benchmark's own
    outputs and, per output, how far another evaluation order may move them."""
    out, zs, deltas = forward(layers, X)
    tol = SLACK * rounding_bound(layers, zs, deltas) + EPS
    return {"outputs": out, "tol": tol,
            "book": {"params": param_count(layers), "hidden": hidden_widths(layers)}}


def check_eval(out_text, ref):
    got = np.asarray(json.loads(out_text)["outputs"], dtype=float)
    want = ref["outputs"]
    if got.shape != want.shape or not np.all(np.abs(got - want) <= ref["tol"]):
        raise CheckFailed("eval outputs disagree with the benchmark's forward pass")
    return ref["book"]
