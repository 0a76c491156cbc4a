"""Command-line entry point.

Subcommands: classify (naturally-reductive case and geodesic-orbit verdict
for a metric file), decompose (irreducible factors and the isometry group),
verify (run the numeric oracles and cross-check the classifiers), generate
(write a geodesic-orbit family metric), trees (list admissible partition
pairs).  JSON output is the contract; text output renders the same report.
Exit codes: 0 success, 1 input error, 2 verification disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .classify import (
    GoVerdict,
    NatRedResult,
    classify_go,
    classify_natred,
    go_family,
    go_report,
    natred_from_dict,
    natred_report,
)
from .errors import InputError, LedgerObataError
from .liealg import default_backend
from .metrics import MetricT, T_to_form
from .oracle import (
    assess_geodesic_orbit,
    brackets_property_check,
    natred_certificate_check,
)
from .reduce import decompose_report
from .serialize import dumps_numeric, metric_from_dict, write_metric
from .trees import enumerate_partition_pairs


class _Parser(argparse.ArgumentParser):
    """Exit 1 on bad command lines; code 2 is reserved for disagreements."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def render_text(obj, indent: int = 0) -> str:
    """Plain-text rendering of a report dict; numbers match the JSON."""
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key, value in obj.items():
            if isinstance(value, dict) or _is_block_list(value):
                lines.append(f"{pad}{key}:")
                lines.append(render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {dumps_numeric(value)}")
        return "\n".join(lines)
    if isinstance(obj, (list, tuple, np.ndarray)):
        lines = []
        for item in obj:
            if isinstance(item, dict) or _is_block_list(item):
                lines.append(f"{pad}-")
                lines.append(render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {dumps_numeric(item)}")
        return "\n".join(lines)
    return f"{pad}{dumps_numeric(obj)}"


def _is_block_list(value) -> bool:
    return isinstance(value, (list, tuple)) and any(
        isinstance(item, (dict, list, tuple, np.ndarray)) for item in value
    )


def _emit(args, report: dict) -> None:
    if args.format == "json":
        print(dumps_numeric(report))
    else:
        print(render_text(report))
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(dumps_numeric(report))
            fh.write("\n")


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _load_metric(args) -> tuple[MetricT, dict]:
    if not args.input:
        raise InputError("--input PATH is required for this command")
    data = _read_json(args.input)
    return metric_from_dict(data), data


def _warn_cap(args, m: int) -> None:
    if max(m, args.max_m) > 8:
        print(
            f"warning: enumeration above m = 8 is expensive (m = {m})",
            file=sys.stderr,
        )


def _classified(args, metric: MetricT) -> tuple[dict, NatRedResult, GoVerdict]:
    """Shared classification report with oracle fallback on indeterminate.

    Returns the report, the naturally-reductive result and the final
    geodesic-orbit verdict.
    """
    nr = classify_natred(T_to_form(metric), args.tol)
    go = classify_go(metric, args.tol, args.cluster_tol)
    report = {
        "m": metric.m,
        "natred": natred_report(nr),
        "go": go_report(go),
    }
    final = go.verdict
    if go.verdict is GoVerdict.INDETERMINATE:
        word, oracle_report = assess_geodesic_orbit(
            metric,
            default_backend(),
            samples=args.samples,
            seed=args.seed,
            jobs=args.jobs,
        )
        if word == "confirmed":
            final = GoVerdict.YES
        elif word == "refuted":
            final = GoVerdict.NO
        report["go_resolved_by"] = "oracle"
        report["go_oracle_fallback"] = oracle_report.to_dict()
    report["go_final"] = final.value
    if final is GoVerdict.INDETERMINATE:
        report["agreement"] = None
    else:
        report["agreement"] = bool(
            nr.is_naturally_reductive == (final is GoVerdict.YES)
        )
    return report, nr, final


def cmd_classify(args) -> int:
    metric, _ = _load_metric(args)
    report, _, _ = _classified(args, metric)
    _emit(args, report)
    return 0


def cmd_decompose(args) -> int:
    metric, _ = _load_metric(args)
    report = decompose_report(metric, tol=args.tol, tol_split=args.split_tol)
    _emit(args, report)
    return 0


def cmd_verify(args) -> int:
    metric, raw = _load_metric(args)
    backend = default_backend()
    report, nr, final = _classified(args, metric)

    word, oracle_report = assess_geodesic_orbit(
        metric, backend, samples=args.samples, seed=args.seed, jobs=args.jobs
    )
    report["go_oracle"] = oracle_report.to_dict()
    report["go_oracle_assessment"] = word

    disagreements = []
    if final is GoVerdict.YES and word == "refuted":
        disagreements.append("classifier says geodesic orbit, oracle refutes")
    if final is GoVerdict.NO and word == "confirmed":
        disagreements.append("classifier denies geodesic orbit, oracle confirms")

    certificate = nr
    source = "classifier"
    if isinstance(raw, dict) and raw.get("natred_certificate") is not None:
        certificate = natred_from_dict(raw["natred_certificate"])
        source = "input file"
    if certificate.is_naturally_reductive:
        cert_report = natred_certificate_check(
            T_to_form(metric),
            certificate,
            backend,
            samples=args.samples,
            seed=args.seed,
            tol=args.tol,
        )
        report["natred_certificate"] = cert_report.to_dict()
        report["natred_certificate_source"] = source
        if not cert_report.verdict:
            disagreements.append(
                f"naturally-reductive certificate from {source} fails verification"
            )

    bracket_report = brackets_property_check(
        metric,
        backend,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
        cluster_tol=args.cluster_tol,
        include_centralizers=args.centralizers,
    )
    report["bracket_properties"] = bracket_report.to_dict()
    if final is GoVerdict.YES and not bracket_report.verdict:
        disagreements.append("bracket identities fail although classifier says GO")

    report["disagreements"] = disagreements
    report["ok"] = not disagreements
    _emit(args, report)
    return 2 if disagreements else 0


def cmd_generate(args) -> int:
    if not args.z:
        raise InputError("--z Z1,Z2,... is required for generate")
    try:
        nodes = np.array([float(v) for v in args.z.split(",")], dtype=float)
    except ValueError as exc:
        raise InputError(f"--z must be a comma-separated number list: {exc}")
    metric, family, gammas = go_family(nodes, args.rho, args.lam)
    go = classify_go(metric, args.tol, args.cluster_tol)
    report = {
        "m": int(nodes.size),
        "z": nodes,
        "rho": args.rho,
        "lambda": args.lam,
        "roots": family.roots,
        "gammas": gammas,
        "go_verdict": go.verdict.value,
    }
    if go.certificate is not None:
        report["constants"] = go.certificate.constants
    if args.output:
        write_metric(metric, args.output)
        report["written"] = args.output
    if args.format == "json":
        print(dumps_numeric(report))
    else:
        print(render_text(report))
    return 0


def cmd_trees(args) -> int:
    if args.m is None:
        raise InputError("--m INT is required for trees")
    _warn_cap(args, args.m)
    pairs = enumerate_partition_pairs(args.m, max_m=args.max_m)
    report = {
        "m": args.m,
        "count": len(pairs),
        "pairs": [
            {"first": [list(p) for p in pair.first],
             "second": [list(p) for p in pair.second]}
            for pair in pairs
        ],
    }
    if args.format == "text":
        print(f"m = {args.m}: {len(pairs)} admissible partition pairs")
        for pair in pairs:
            left = " | ".join("".join(str(x) for x in p) for p in pair.first)
            right = " | ".join("".join(str(x) for x in p) for p in pair.second)
            print(f"  {left}  //  {right}")
        if getattr(args, "output", None):
            with open(args.output, "w") as fh:
                fh.write(dumps_numeric(report))
                fh.write("\n")
    else:
        _emit(args, report)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="lot",
        description="Classify and decompose invariant metrics on F^m/diag(F).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "classify": (cmd_classify, "naturally-reductive case and geodesic-orbit verdict"),
        "decompose": (cmd_decompose, "irreducible factors and the isometry group"),
        "verify": (cmd_verify, "numeric oracle cross-checks (exit 2 on disagreement)"),
        "generate": (cmd_generate, "write a geodesic-orbit family metric"),
        "trees": (cmd_trees, "list admissible partition pairs"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--input", help="metric JSON file")
        p.add_argument("--output", help="output file (report JSON, or the generated metric)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--m", type=int, help="number of copies (trees)")
        p.add_argument("--z", help="comma-separated nodes for generate")
        p.add_argument("--rho", type=float, default=1.0)
        p.add_argument("--lambda", dest="lam", type=float, default=0.0)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--cluster-tol", dest="cluster_tol", type=float, default=1e-8)
        p.add_argument("--split-tol", dest="split_tol", type=float, default=1e-9)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--max-m", dest="max_m", type=int, default=8, help="enumeration cap (trees)")
        p.add_argument(
            "--centralizers",
            action="store_true",
            help="include the centralizer bracket identity in verify",
        )
    return parser


def _validate(args) -> None:
    for name in ("tol", "cluster_tol", "split_tol"):
        if getattr(args, name) <= 0:
            raise InputError(f"--{name.replace('_', '-')} must be positive")
    if args.samples < 1:
        raise InputError("--samples must be at least 1")
    if args.jobs < 1:
        raise InputError("--jobs must be at least 1")


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The argparse tree, built on first use and reused by every ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except (LedgerObataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
