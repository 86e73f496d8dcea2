"""Self-test of the benchmark's checker on a network worked out by hand.

    h1 = relu(x),  h2 = relu(1 - x),  y = 2 h1 + 3 h2 - 1

gives y(0) = 2, y(0.5) = 1.5 and y(2) = 3, which is the function
y = 2 - x on {0, 0.5} and y = 3 on {2}.  The network must pass the
benchmark's own evaluator; with one output weight moved by 1e-6 it must
count as a failed build and get a "fail" verify verdict.  With a ReLU
output the network must pass a verify measured against max(target, 0),
and a raw-target "fail" must count as the named classifier fault.

Run: python3 bench/selftest.py   (exit code 0 when every check holds)
"""

from __future__ import annotations

import json

import numpy as np

import oracle

LAYERS = [
    (np.array([[1.0], [-1.0]]), np.array([0.0, 1.0]), "relu"),
    (np.array([[2.0, 3.0]]), np.array([-1.0]), "linear"),
]
SUBS = [  # points, W, b
    (np.array([[0.0], [0.5]]), np.array([[-1.0]]), np.array([2.0])),
    (np.array([[2.0]]), np.array([[0.0]]), np.array([3.0])),
]
HAND_OUTPUTS = np.array([[2.0], [1.5], [3.0]])
HAND_ACTIVE = [[1], [0, 1], [0]]

# The same hidden layer with a ReLU output, relu(h1 - h2): outputs 0, 0, 2
# against targets -1, 0, 2 (y = 2x - 1 on {0, 0.5}, y = 2 on {2}).  It is
# exact against max(target, 0); against the raw targets point 0 is 1 off.
RELU_LAYERS = [LAYERS[0], (np.array([[1.0, -1.0]]), np.array([0.0]), "relu")]
RELU_SUBS = [
    (np.array([[0.0], [0.5]]), np.array([[2.0]]), np.array([-1.0])),
    (np.array([[2.0]]), np.array([[0.0]]), np.array([2.0])),
]
RELU_OUTPUT_ACTIVE = [[], [], [0]]


def verify_report(residuals, active):
    return json.dumps({"max_residual": max(residuals), "activation_audits": [
        {"residual": r, "active_units": a} for r, a in zip(residuals, active)]})


def run():
    """Raise AssertionError (with a message) if the checker misjudges."""
    points = np.vstack([P for P, _, _ in SUBS])
    targets = np.vstack([P @ W.T + b for P, W, b in SUBS])
    if not np.array_equal(targets, HAND_OUTPUTS):
        raise AssertionError("generated targets differ from the hand-worked values")
    out, zs, _ = oracle.forward(LAYERS, points)
    if not np.array_equal(out, HAND_OUTPUTS):
        raise AssertionError(f"evaluator gives {out.ravel()}, hand-worked {HAND_OUTPUTS.ravel()}")
    if [np.flatnonzero(z > oracle.ACTIVATION_TOL).tolist() for z in zs[0]] != HAND_ACTIVE:
        raise AssertionError("evaluator's active units differ from the hand-worked sets")

    good = oracle.network_text(1, LAYERS)
    oracle.check_build(good, json.dumps({"max_residual": 0.0}), points, targets)
    if not oracle.verify_reference(LAYERS, points, targets, relu_output=False)["known_pass"]:
        raise AssertionError("hand-worked network does not get a pass verdict")

    bad_layers = [LAYERS[0], (LAYERS[1][0] + np.array([[1e-6, 0.0]]), LAYERS[1][1], "linear")]
    bad = oracle.network_text(1, bad_layers)
    try:
        oracle.check_build(bad, json.dumps({"max_residual": 2e-6}), points, targets)
    except oracle.CheckFailed:
        pass
    else:
        raise AssertionError("perturbed network passed the build check")
    if oracle.verify_reference(bad_layers, points, targets, relu_output=False)["known_pass"]:
        raise AssertionError("perturbed network gets a pass verdict")

    # a ReLU-output network: a verify that measures against max(target, 0)
    # is right; one that fails it on the raw targets is the classifier fault
    points = np.vstack([P for P, _, _ in RELU_SUBS])
    targets = np.vstack([P @ W.T + b for P, W, b in RELU_SUBS])
    active = [[h, o] for h, o in zip(HAND_ACTIVE, RELU_OUTPUT_ACTIVE)]
    ref = oracle.verify_reference(RELU_LAYERS, points, targets, relu_output=True)
    oracle.check_verify(verify_report([0.0, 0.0, 0.0], active), 0, ref)
    try:
        oracle.check_verify(verify_report([1.0, 0.0, 0.0], active), 1, ref)
    except oracle.KnownFault:
        pass
    else:
        raise AssertionError("a raw-target fail on a ReLU-output network is not the known fault")


if __name__ == "__main__":
    import sys

    try:
        run()
    except AssertionError as exc:
        print(f"checker self-test FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
    print("checker self-test passed")
