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
from .serialize import (
    dumps_numeric,
    metric_from_dict,
    read_json,
    write_json,
    write_metric,
)
from .trees import enumerate_partition_pairs


class _Parser(argparse.ArgumentParser):
    """Exit 1 on bad command lines; code 2 is reserved for disagreements.

    ``build_parser`` sets ``commands`` on the top-level parser: the parser
    of each subcommand, by name.
    """

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


def _print_report(args, report: dict, text: str | None = None) -> None:
    """Print the report as JSON, or as ``text`` (default ``render_text``)."""
    if args.format == "json":
        print(dumps_numeric(report))
    else:
        print(render_text(report) if text is None else text)


def _emit(args, report: dict, text: str | None = None) -> None:
    """Print the report, and save it as JSON when --output is given."""
    _print_report(args, report, text)
    if args.output:
        write_json(report, args.output)


def _load_metric(args) -> tuple[MetricT, dict]:
    if not args.input:
        raise InputError("--input PATH is required for this command")
    data = read_json(args.input)
    return metric_from_dict(data), data


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
        metric, backend, samples=args.samples, seed=args.seed
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
    if raw.get("natred_certificate") is not None:
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
    _print_report(args, report)
    return 0


def cmd_trees(args) -> int:
    if args.m is None:
        raise InputError("--m INT is required for trees")
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
    lines = [f"m = {args.m}: {len(pairs)} admissible partition pairs"]
    for pair in pairs:
        left = " | ".join("".join(str(x) for x in p) for p in pair.first)
        right = " | ".join("".join(str(x) for x in p) for p in pair.second)
        lines.append(f"  {left}  //  {right}")
    _emit(args, report, "\n".join(lines))
    return 0


# every flag of ``lot`` with its argparse settings
_FLAGS = {
    "--input": dict(help="metric JSON file"),
    "--output": dict(help="output file (report JSON, or the generated metric)"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--tol": dict(type=float, default=1e-8),
    "--cluster-tol": dict(dest="cluster_tol", type=float, default=1e-8),
    "--split-tol": dict(dest="split_tol", type=float, default=1e-9),
    "--samples": dict(type=int, default=200),
    "--seed": dict(type=int, default=42),
    "--centralizers": dict(action="store_true", help="also check the centralizer identity"),
    "--z": dict(help="comma-separated nodes"),
    "--rho": dict(type=float, default=1.0),
    "--lambda": dict(dest="lam", type=float, default=0.0),
    "--m": dict(type=int, help="number of copies"),
    "--max-m": dict(dest="max_m", type=int, default=8, help="enumeration cap"),
}
# the only flags each subcommand reads
_COMMAND_FLAGS = {
    "classify": "--input --output --format --tol --cluster-tol --samples --seed",
    "decompose": "--input --output --format --tol --split-tol",
    "verify": "--input --output --format --tol --cluster-tol --samples --seed --centralizers",
    "generate": "--z --rho --lambda --tol --cluster-tol --output --format",
    "trees": "--m --max-m --output --format",
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="lot",
        description="Classify and decompose invariant metrics on F^m/diag(F).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
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
        for flag in _COMMAND_FLAGS[name].split():
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _validate(args) -> None:
    """Check the numeric flags that the parsed subcommand has."""
    given = vars(args)
    for name in ("tol", "cluster_tol", "split_tol"):
        if name in given and given[name] <= 0:
            raise InputError(f"--{name.replace('_', '-')} must be positive")
    if given.get("samples", 1) < 1:
        raise InputError("--samples must be at least 1")


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The argparse tree, built on first use and reused by every ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # argparse hands a subcommand's unknown flags back to the top level;
        # report them with the usage of the subcommand, which lists its flags
        parser.commands[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        _validate(args)
        return args.func(args)
    except (LedgerObataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
