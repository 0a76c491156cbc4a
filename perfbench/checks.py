"""Independent checks of `lot` reports against each input's construction.

Nothing here calls the program: every expectation comes from how the input
was built (inputs.py) and from the paper's theorems, and every rebuild is
done with this module's own numpy code.  Each check returns a list of
problems; an empty list means the report is right.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


def rebuild_natred(natred: dict, m: int) -> np.ndarray:
    """Coefficient matrix T from the weights of a naturally reductive report.

    diagonal / ideal: T = sum_i beta_i (e_i - e_k)(e_i - e_k)^T over the
    copies i != k, with k the dropped copy (copy m in the diagonal case).
    invariant_form: T = diag(alpha) - alpha alpha^T / sum(alpha).
    """
    case = natred["case"]
    if case in ("diagonal", "ideal"):
        k = m - 1 if case == "diagonal" else int(natred["ideal_index"]) - 1
        t = np.zeros((m, m))
        for copy, beta in natred["betas"].items():
            e = np.zeros(m)
            e[int(copy) - 1] = 1.0
            e[k] = -1.0
            t += float(beta) * np.outer(e, e)
        return t
    if case == "invariant_form":
        alphas = np.asarray(natred["alphas"], dtype=float)
        return np.diag(alphas) - np.outer(alphas, alphas) / float(natred["alpha_sum"])
    raise ValueError(f"no weights to rebuild for case {case!r}")


def check_classify(case, code: int, report: dict | None) -> list[str]:
    if code != 0 or report is None:
        return [f"exit code {code}"]
    problems = []
    expect = case.expect
    natred = report["natred"]
    if report["m"] != case.m:
        problems.append(f"m {report['m']} != {case.m}")
    if natred["naturally_reductive"] != expect["naturally_reductive"]:
        problems.append(f"naturally_reductive {natred['naturally_reductive']}")
    if expect["normal"] is not None and natred["normal"] != expect["normal"]:
        problems.append(f"normal {natred['normal']}")
    if report["go_final"] != expect["go_final"]:
        problems.append(f"go_final {report['go_final']}")
    if report["agreement"] is not True:
        problems.append(f"agreement {report['agreement']}")
    if natred["naturally_reductive"]:
        err = _rel_err(rebuild_natred(natred, case.m), case.t)
        if not err <= RTOL:
            problems.append(f"natred weights rebuild T to {err:.2e}")
    certificate = report["go"].get("certificate")
    if report["go"]["verdict"] == "yes":
        if certificate is None:
            problems.append("GO verdict without a certificate")
        else:
            v = np.asarray(certificate["vectors"], dtype=float)
            g = np.asarray(certificate["gammas"], dtype=float)
            err = _rel_err((v.T * g) @ v, case.t)
            if not err <= RTOL:
                problems.append(f"GO certificate rebuilds T to {err:.2e}")
    return problems


def verdicts(report: dict | None) -> tuple | None:
    if report is None:
        return None
    natred = report["natred"]
    return natred["naturally_reductive"], natred["normal"], report["go_final"]


def check_groups(cases, reports) -> dict[int, str]:
    """Relabelled and scaled copies must get the verdicts of their base input.

    ``reports`` holds None for an operation that already failed its own
    checks.  Returns {index of a failing copy: problem}.
    """
    base_of = {c.name: i for i, c in enumerate(cases)}
    problems = {}
    for i, case in enumerate(cases):
        if case.group is None or case.group == case.name:
            continue
        base, mine = verdicts(reports[base_of[case.group]]), verdicts(reports[i])
        if base is not None and mine is not None and base != mine:
            problems[i] = f"verdicts {mine} differ from {case.group} {base}"
    return problems


def _spectrum(t: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((t + t.T) / 2)


def check_decompose(case, code: int, report: dict | None) -> list[str]:
    if code != 0 or report is None:
        return [f"exit code {code}"]
    problems = []
    expect = case.expect
    sizes = sorted(report["factor_sizes"])
    if sizes != expect["factor_sizes"]:
        problems.append(f"factor sizes {sizes} != {expect['factor_sizes']}")
    for key in ("isometry_group_k", "reducible", "go_manifold"):
        if report[key] != expect[key]:
            problems.append(f"{key} {report[key]} != {expect[key]}")
    # match each factor to an unused block of its size and spectrum
    unused = list(case.blocks)
    for factor in report["factors"]:
        spectrum = _spectrum(np.asarray(factor["T"], dtype=float))
        if spectrum.size != factor["m"]:
            problems.append(f"factor of size {factor['m']} has {spectrum.size} eigenvalues")
            continue
        for block in unused:
            same_size = len(block[0]) == spectrum.size
            if same_size and _rel_err(spectrum, _spectrum(block[1])) <= RTOL:
                unused.remove(block)
                break
        else:
            problems.append(f"factor of size {factor['m']} matches no block spectrum")
    return problems


def check_verify(case, code: int, report: dict | None) -> list[str]:
    if code != 0 or report is None:
        return [f"exit code {code}"]
    problems = []
    if report["ok"] is not True:
        problems.append(f"ok {report['ok']}: {report['disagreements']}")
    assessment = report["go_oracle_assessment"]
    if assessment != case.expect["assessment"]:
        problems.append(f"oracle {assessment} != {case.expect['assessment']}")
    if case.expect["naturally_reductive"]:
        cert = report.get("natred_certificate")
        if cert is None or cert["verdict"] is not True:
            problems.append("natred certificate not verified")
        if report["bracket_properties"]["verdict"] is not True:
            problems.append("bracket identities fail on a GO metric")
    return problems


CHECKS = {
    "classify": check_classify,
    "decompose": check_decompose,
    "verify": check_verify,
}
