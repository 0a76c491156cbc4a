"""The reports of ``lot``: one builder per subcommand, each returning a JSON-ready dict.

``natred_report`` and ``go_report`` render one classification, and
``natred_from_dict`` reads the former back, so the certificate's JSON format
lives here alone.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .classify import (
    GoResult, GoVerdict, NatRedCase, NatRedResult, classify_go, classify_natred, go_family,
)
from .errors import InputError
from .liealg import default_backend
from .metrics import MetricForm, MetricT, T_to_form, power_of_two_scale
from .oracle import _assess, _bracket_check, _certificate_check
from .reduce import SPLIT_RTOL, decompose
from .serialize import _integer
from .trees import PartitionPair, enumerate_partition_pairs


def _parsed(data: dict, key: str, parse):
    """``parse(data[key])``, None when the key is absent or null."""
    try:
        return None if data.get(key) is None else parse(data[key])
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {key!r}: {exc}")


def natred_from_dict(data: dict) -> NatRedResult:
    """Parse a naturally-reductive certificate back from its JSON form.

    A malformed field is an InputError.  Coherence of the parameters with
    a particular metric is not checked here; certificate verification does
    that against the backend algebra.
    """
    if not isinstance(data, dict):
        raise InputError("certificate must be a JSON object")
    try:
        case = NatRedCase(data["case"])
    except (KeyError, ValueError, TypeError):
        allowed = ", ".join(c.value for c in NatRedCase)
        raise InputError(f"certificate needs a 'case' among: {allowed}")
    return NatRedResult(
        case=case,
        normal=bool(data.get("normal", False)),
        betas=_parsed(data, "betas", lambda b: {int(k): float(v) for k, v in b.items()}),
        ideal_index=_parsed(data, "ideal_index", _integer),
        alphas=_parsed(data, "alphas", lambda a: np.array(a, dtype=float)),
        alpha_sum=_parsed(data, "alpha_sum", float),
    )


def natred_report(result: NatRedResult) -> dict:
    """JSON-ready rendering of a naturally-reductive classification."""
    out: dict = {
        "case": result.case.value,
        "naturally_reductive": result.is_naturally_reductive,
        "normal": result.normal,
    }
    if result.betas is not None:
        out["betas"] = {str(k): v for k, v in sorted(result.betas.items())}
    if result.ideal_index is not None:
        out["ideal_index"] = result.ideal_index
    if result.alphas is not None:
        out["alphas"] = result.alphas
        out["alpha_sum"] = result.alpha_sum
    return out


def go_report(result: GoResult) -> dict:
    """JSON-ready rendering of a geodesic-orbit classification."""
    out: dict = {"verdict": result.verdict.value}
    if result.reason:
        out["reason"] = result.reason
    if result.eigen is not None:
        out["eigenvalues"] = result.eigen.system.gammas
        out["clusters"] = [list(c) for c in result.eigen.clusters]
    if result.certificate is not None:
        out["certificate"] = {
            "vectors": result.certificate.system.vectors,
            "gammas": result.certificate.system.gammas,
            "constants": result.certificate.constants,
        }
    return out


def _pair(pair: PartitionPair) -> dict:
    """The two partitions of ``pair`` as lists of parts."""
    return {"first": [list(p) for p in pair.first], "second": [list(p) for p in pair.second]}


def decompose_report(
    metric: MetricT, tol: float = 1e-8, tol_split: float = SPLIT_RTOL
) -> dict:
    """JSON-ready report of ``lot decompose``: the factors and the group they certify.

    The product is a geodesic-orbit manifold exactly when every irreducible
    factor is naturally reductive (``go_manifold``).
    """
    decomp = decompose(metric, tol_split)
    results = [classify_natred(T_to_form(factor), tol) for factor in decomp.factors]
    factors = [
        {"m": factor.m, "T": factor.matrix, "natred": natred_report(result)}
        for factor, result in zip(decomp.factors, results)
    ]
    return {
        "m": metric.m,
        "reducible": decomp.is_reducible,
        "factor_sizes": list(decomp.factor_sizes),
        "factors": factors,
        "isometry_group_k": decomp.isometry_group_exponent,
        "go_manifold": all(r.is_naturally_reductive for r in results),
        "splits": [
            {"path": rec.path, "m": rec.m, **_pair(rec.pair),
             "tree_edges": [list(e) for e in rec.pair.tree_edges()]}
            for rec in decomp.records
        ],
    }


def _classified(metric: MetricT, tol: float, cluster_tol: float):
    """The report's first sections, the form over its scale, the NR result on it and the GO result.

    ``classify_natred`` divides by that scale anyway; the report multiplies its weights back.
    """
    # the form is T's leading block (``T_to_form``); it is validated once, divided
    block = metric.matrix[:-1, :-1]
    scale = power_of_two_scale(block)
    unit = MetricForm(block / scale)
    nr = classify_natred(unit, tol)
    go = classify_go(metric, tol, cluster_tol)
    report = {"m": metric.m, "natred": natred_report(_times(nr, scale)), "go": go_report(go)}
    return report, unit, nr, go


def _times(result: NatRedResult, scale: float) -> NatRedResult:
    """``result`` with its weights times ``scale``, and ``normal`` read again: one may underflow."""
    if result.alphas is None:
        betas = result.betas and {k: float(w * scale) for k, w in result.betas.items()}
        return replace(result, betas=betas)
    alphas = result.alphas * scale
    normal = bool(np.all(alphas > 0))
    return replace(result, alphas=alphas, alpha_sum=result.alpha_sum * scale, normal=normal)


def _concluded(report: dict, final: GoVerdict) -> dict:
    """``report`` with the final GO verdict, and whether its NR verdict agrees with it."""
    agree = report["natred"]["naturally_reductive"] == (final is GoVerdict.YES)
    report["go_final"] = final.value
    report["agreement"] = None if final is GoVerdict.INDETERMINATE else agree
    return report


def classify_report(metric: MetricT, tol: float = 1e-8, cluster_tol: float = 1e-8) -> dict:
    """JSON-ready report of ``lot classify``: the classifiers alone; an indeterminate GO stays so."""
    report, _, _, go = _classified(metric, tol, cluster_tol)
    return _concluded(report, go.verdict)


def verify_report(
    metric: MetricT, certificate: dict | None = None, tol: float = 1e-8, cluster_tol: float = 1e-8,
    samples: int = 200, seed: int = 42,
) -> dict:
    """JSON-ready report of ``lot verify``: the classification checked against the oracle.

    ``certificate``, the JSON form of an NR certificate, is parsed after the
    table is read and the metric classified; None checks the classifier's.
    The GO assessment resolves an indeterminate GO verdict (``go_oracle_fallback``).
    ``disagreements`` lists every claim that fails, and ``ok`` says none does.
    The report has ``natred_certificate`` only when the claim is naturally
    reductive, and ``bracket_properties`` only when the GO classifier says
    yes or indeterminate: a classifier no makes the final verdict no, and the
    bracket verdict is read only when it is yes.  Either way ``classify_go``
    has found every eigenspace self-saturated, so the bracket check samples
    identity (i) alone (see ``oracle.brackets_property_check``).
    """
    sc = default_backend()
    report, unit, nr, go = _classified(metric, tol, cluster_tol)
    # reported weights are rounded where subnormal: check the exact ones,
    # found on the form divided by its scale
    form, claim, source = unit, nr, "classifier"
    if certificate is not None:
        form, claim, source = T_to_form(metric), natred_from_dict(certificate), "input file"
    # GO round 0 and these checks draw each sample once, in one pass
    checks = []
    if claim.is_naturally_reductive:
        checks.append(_certificate_check(form, claim, sc, tol))
    # the bracket check reads the classifier's eigen data
    if go.verdict is not GoVerdict.NO:
        checks.append(_bracket_check(go.eigen, sc, tol))
    word, last, reports = _assess(metric, sc, samples, seed, checks)
    final = go.verdict
    if final is GoVerdict.INDETERMINATE:
        final = {"confirmed": GoVerdict.YES, "refuted": GoVerdict.NO}.get(word, final)
        report["go_resolved_by"] = "oracle"
        report["go_oracle_fallback"] = last.to_dict()
    _concluded(report, final)
    report["go_oracle"] = last.to_dict()
    report["go_oracle_assessment"] = word
    reports = {checked.kind: checked for checked in reports}
    certified = reports.get("naturally_reductive_certificate")
    brackets = reports.get("bracket_properties")
    if certified is not None:
        report["natred_certificate"] = certified.to_dict()
        report["natred_certificate_source"] = source
    if brackets is not None:
        report["bracket_properties"] = brackets.to_dict()

    case, yes = report["natred"]["case"], final is GoVerdict.YES
    # (failed, text) for each claim, in the order the report lists them
    table = (
        (report["agreement"] is False,
         f"classifiers split: natred case {case}, go_final {final.value}"),
        (metric.m == 3 and case == NatRedCase.NOT_NR.value,
         f"natred case {case} at m = 3, where every metric is naturally reductive"),
        (yes and word == "refuted", "classifier says geodesic orbit, oracle refutes"),
        (final is GoVerdict.NO and word == "confirmed",
         "classifier denies geodesic orbit, oracle confirms"),
        (certified is not None and not certified.verdict,
         f"naturally-reductive certificate from {source} fails verification"),
        # a final "yes" comes from a classifier "yes" or "indeterminate", so
        # the bracket check ran
        (yes and not brackets.verdict, "bracket identity (i) fails although classifier says GO"),
    )
    report["disagreements"] = [text for failed, text in table if failed]
    report["ok"] = not report["disagreements"]
    return report


def generate_report(
    nodes: np.ndarray, rho: float, lam: float, tol: float = 1e-8, cluster_tol: float = 1e-8
) -> tuple[MetricT, dict]:
    """The geodesic-orbit family metric on ``nodes``, and the report of ``lot generate``."""
    metric, family, gammas = go_family(nodes, rho, lam)
    go = classify_go(metric, tol, cluster_tol)
    report = {
        "m": int(nodes.size),
        "z": nodes,
        "rho": rho,
        "lambda": lam,
        "roots": family.roots,
        "gammas": gammas,
        "go_verdict": go.verdict.value,
    }
    if go.certificate is not None:
        report["constants"] = go.certificate.constants
    return metric, report


def trees_report(m: int) -> dict:
    """JSON-ready report of ``lot trees``: every admissible partition pair on m copies."""
    pairs = enumerate_partition_pairs(m)
    return {"m": m, "count": len(pairs), "pairs": [_pair(pair) for pair in pairs]}
