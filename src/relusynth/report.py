"""Construction certificates emitted alongside every synthesized network.

A report records what the builder claims (architecture, residuals, audits)
plus enough synthesis metadata to rebuild the network with different
widths.  Reports are re-verifiable: loading one and re-running the checks
against the network and its target function must reproduce max_residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .core import ACTIVATION_TOL, RANK_TOL, VERIFY_TOL, dumps, loads


class BuildFailure(RuntimeError):
    """A build that failed a check after its report was made.  The report
    rides along as ``report``, so the failure can be diagnosed from it
    alone."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass
class ConstructionReport:
    architecture: str = ""
    max_residual: float = float("nan")
    activation_audits: list = field(default_factory=list)
    rank_audits: list = field(default_factory=list)
    affine_fit_residuals: list = field(default_factory=list)
    seed: int | None = None
    wall_clock: float = 0.0
    tolerances: dict = field(default_factory=dict)
    plan: dict | None = None

    def to_json_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self, indent=None):
        return dumps(self.to_json_dict(), indent=indent)

    @staticmethod
    def from_json_dict(d):
        """Missing keys take the defaults; keys it does not know, such as
        those older reports carry, are ignored.  A ``null`` max_residual,
        which is how a NaN one is written, reads as NaN."""
        if not isinstance(d, dict):
            raise ValueError("malformed report JSON: not a JSON object")
        report = ConstructionReport(**{f.name: d[f.name] for f in fields(ConstructionReport)
                                       if f.name in d})
        if report.max_residual is None:
            report.max_residual = float("nan")
        return report

    @staticmethod
    def from_json(text):
        return ConstructionReport.from_json_dict(loads(text))


def build_tolerances(margin):
    """The ``tolerances`` block of a shallow or deep build's report."""
    return {
        "activation_tol": ACTIVATION_TOL,
        "margin": margin,
        "rank_tol": RANK_TOL,
        "note": "preactivations in (0, activation_tol] count as zero output",
    }


def check_exact(report):
    """Raise ``BuildFailure`` when a build's residual is above
    ``VERIFY_TOL`` (1e-8)."""
    if report.max_residual > VERIFY_TOL:
        raise BuildFailure(f"synthesis residual {report.max_residual:.3g} above 1e-8",
                           report)
