"""Benchmark of `lot classify`, `lot decompose` and `lot verify`.

    python3 perfbench/run.py --workload classify|decompose|verify \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload on one thread in a closed loop:
each operation is one `lot` command run in-process through
``ledger_obata.cli.main(["<command>", "--input", FILE, "--format", "json"])``
with stdout captured; the JSON report is parsed and checked after the
timer stops.  A run repeats whole passes over the seeded input set until
``--seconds`` have passed and at least 100 operations are timed.

``--trace 0`` prints the end-to-end metrics.  ``ops_per_s`` is the number
of timed operations over the timed wall time of all passes.  ``setup_s`` is
the median of three set-ups, each from the first line of a fresh process to
the end of an untimed warm-up pass: this process and two set-up-only child
processes.
The children run one at a time between three timed slices of this
process, so the timed passes sample the machine at three moments.
``--trace 1`` prints the per-layer metrics: it alternates untraced and
traced passes (layers.py) and reports the tracing overhead between the
two.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread, fixed before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("classify", "decompose", "verify")
SETUP_REPEATS = 3
MIN_OPS = 100


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up time as JSON and exit (used for setup_s)",
    )
    return parser.parse_args(argv)


def import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "ledger_obata" / "__init__.py").is_file():
        raise SystemExit(f"error: no ledger_obata sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ledger_obata
    from ledger_obata import cli

    if Path(ledger_obata.__file__).resolve().parent != SRC / "ledger_obata":
        raise SystemExit(f"error: imported ledger_obata from {ledger_obata.__file__}")
    return cli


def write_inputs(cases, workdir: Path) -> list[Path]:
    paths = []
    for index, case in enumerate(cases):
        path = workdir / f"{index:03d}-{case.name}.json"
        path.write_text(json.dumps({"m": case.m, "repr": "T", "T": case.t.tolist()}))
        paths.append(path)
    return paths


def run_pass(cli, argvs, latencies, outputs) -> None:
    """One operation per input, in order; outputs are kept for checking."""
    for index, argv in enumerate(argvs):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code = f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        outputs.append((index, code, out.getvalue()))


def measure(cli, argvs, seconds: float, between=()):
    """Time whole passes for ``seconds`` in total and at least MIN_OPS.

    The time is cut into ``len(between) + 1`` slices, and each callable in
    ``between`` runs, untimed, after one slice: the slices then sample the
    machine at several moments of the run, not one.  Returns the latencies,
    the outputs and the wall time of each pass.
    """
    latencies: list[float] = []
    outputs: list = []
    pass_walls: list[float] = []
    slices = len(between) + 1
    for index in range(slices):
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            run_pass(cli, argvs, latencies, outputs)
            pass_walls.append(time.perf_counter() - pass_start)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds / slices and (index < slices - 1 or len(latencies) >= MIN_OPS):
                break
        if index < slices - 1:
            between[index]()
    return latencies, outputs, pass_walls


def check_outputs(workload, cases, outputs, problems_out: dict) -> int:
    """Check every report; returns the number of failed operations."""
    from checks import CHECKS, check_groups

    check = CHECKS[workload]
    failed = 0
    passes = [outputs[i:i + len(cases)] for i in range(0, len(outputs), len(cases))]
    for chunk in passes:
        reports = []
        problems = []
        for index, code, text in chunk:
            report = None
            if code == 0:
                try:
                    report = json.loads(text)
                except ValueError:
                    pass
            try:
                found = check(cases[index], code, report)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                found = [f"malformed report: {type(exc).__name__}: {exc}"]
            reports.append(None if found else report)
            problems.append(found)
        if workload == "classify":
            for index, problem in check_groups(cases, reports).items():
                problems[index].append(problem)
        for index, found in enumerate(problems):
            if found:
                failed += 1
                problems_out.setdefault(cases[index].name, found)
    return failed


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile: the smallest value with a share q at or below it."""
    rank = math.ceil(round(q * len(sorted_values), 6))
    return sorted_values[max(rank, 1) - 1]


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process that only sets up."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up child failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def per_case_ms(cases, latencies) -> dict:
    per = {}
    for i, case in enumerate(cases):
        per[case.name] = 1e3 * statistics.median(latencies[i::len(cases)])
    return per


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    sys.path.insert(0, str(HERE))
    from inputs import cases_for

    tracer = None
    if args.trace:
        from layers import LayerTrace

        tracer = LayerTrace()
        tracer.install()

    cases = cases_for(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    try:
        paths = write_inputs(cases, workdir)
        argvs = [[args.workload, "--input", str(p), "--format", "json"] for p in paths]
        run_pass(cli, argvs, [], [])  # warm-up: fills caches, e.g. the pair lists
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        detail = {"workload": args.workload, "seed": args.seed, "inputs": len(cases)}
        problems: dict = {}
        if tracer is None:
            setups = [setup_s]

            def child_setup():
                setups.append(child_setup_seconds(args))

            latencies, outputs, pass_walls = measure(
                cli, argvs, args.seconds, [child_setup] * (SETUP_REPEATS - 1)
            )
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failed = check_outputs(args.workload, cases, outputs, problems)
            attempted = len(latencies)
            ordered = sorted(latencies)
            metrics = {
                "ops_per_s": (len(latencies) / sum(pass_walls), "1/s"),
                "latency_p50_ms": (1e3 * quantile(ordered, 0.5), "ms"),
                "latency_p90_ms": (1e3 * quantile(ordered, 0.9), "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "setup_s": (statistics.median(setups), "s"),
            }
            detail.update(setups_s=setups, pass_walls_s=pass_walls,
                          per_case_ms=per_case_ms(cases, latencies))
        else:
            setup_enumerate_ms = 1e3 * tracer.stats["trees.enumerate_partition_pairs"].total
            tracer.remove()
            tracer.reset()
            # untraced and traced passes alternate, so both see the same machine
            plain, plain_out, traced, traced_out = [], [], [], []
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds or len(traced) < MIN_OPS:
                run_pass(cli, argvs, plain, plain_out)
                tracer.install()
                run_pass(cli, argvs, traced, traced_out)
                tracer.remove()
            failed = check_outputs(args.workload, cases, plain_out, problems)
            failed += check_outputs(args.workload, cases, traced_out, problems)
            attempted = len(plain) + len(traced)
            metrics = tracer.metrics(len(traced))
            metrics["trees.setup_enumerate_ms"] = (setup_enumerate_ms, "ms")
            metrics["trace.overhead_pct"] = (100.0 * (sum(traced) / sum(plain) - 1.0), "%")
        detail["problems"] = problems
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        detail["result"] = result
        name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(detail, indent=1))
        for case_name, found in problems.items():
            print(f"FAILED {case_name}: {'; '.join(found)}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
