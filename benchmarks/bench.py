"""catchain benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Run from the root of a checkout (the directory holding ``src/catchain``)::

    python3 benchmarks/bench.py --workload simulate-long --seed 1 --seconds 25 --trace 0

One process, one caller: each command is issued through
``catchain.cli.main(argv)`` only after the previous one returns, and the
workload's command list is repeated until ``--seconds`` is used up.  The
first repetition is a warm-up that is checked but not timed.  Every
command writes into a fresh, empty output directory that is created before
and removed after its timed region; its outputs are checked and hashed
outside the timed region.  A command fails when it exits non-zero, fails its
output check, or writes bytes that differ from the first repetition.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (median over repetitions) plus
``trace.overhead_s``; the spans of the last traced repetition are written to
``.bench_work/spans-<workload>-seed<seed>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a ``{"record": ...}`` object with the environment, per-repetition times,
output digests and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import LAYERS, Tracer
from workloads import CHECKS, WORKLOADS, Command, write_inputs

BENCH_FILE = Path(__file__).resolve()
SETUP_PROBES = 5

# numpy's bundled OpenBLAS starts one spinning thread per core.  With it,
# simulate-long switched between two speeds 40 % apart, for minutes at a
# time, on a 2-vCPU VM, and was no faster in its fast state.  Only catchain's
# own parallelism (CATCHAIN_THREADS, set per workload) is measured.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: each layer's self time, then counters of the functions
# that the open performance directions are expected to move.
_COUNTED = (
    ("bounds.bstar_from_b", ("calls", "s", "horizon_sq")),
    ("bounds.bstar_sum_bracket", ("s",)),
    ("kernels.certify_b0", ("calls", "s")),
    ("models.model_to_kernel", ("calls", "s")),
    ("kernels.transition_table", ("calls", "s")),
    ("kernels.KernelHandle.probs", ("calls", "s")),
    ("simulate.exact_marginal_law", ("calls", "s")),
    ("simulate.coupled_ladder_mc", ("calls", "s", "replica_steps")),
    ("simulate.sample_forward", ("s", "steps")),
    ("simulate.path_to_csv", ("s",)),
    ("cli.write_atomic", ("calls", "bytes", "s")),
    ("cli.cmd_bounds", ("s",)),
    ("cli.cmd_simulate", ("s",)),
    ("estimate.fit_mle", ("s",)),
    ("estimate.semiparametric_fit", ("s",)),
    ("estimate.conditional_loglik", ("calls", "s")),
    ("estimate.loglik_gradient", ("calls",)),
    ("models.stationarity_check", ("calls", "s")),
    ("dependence.certificate_for_model", ("s",)),
    ("dependence.empirical_beta_small", ("s",)),
    ("prob.tv_distance", ("calls",)),
)
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{name}.{kind}": {"s": "s", "bytes": "B"}.get(kind, "count") for name, kinds in _COUNTED for kind in kinds},
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


@dataclass
class CommandResult:
    label: str
    seconds: float
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def digest_dir(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_command(main, cmd: Command, config_path: str, out_dir: str, seed: int, clock=time.perf_counter):
    """Time one CLI command in a fresh output directory, then check, hash and remove it."""
    os.mkdir(out_dir)
    try:
        start = clock()
        try:
            rc = main(cmd.argv(config_path, out_dir, seed))
        except Exception as exc:  # a crash is a failed command, not a crashed benchmark
            traceback.print_exc()
            rc = f"none, raised {exc!r}"
        seconds = clock() - start
        result = CommandResult(cmd.label, seconds)
        if rc != 0:
            result.problems.append(f"exit status {rc}")
        # also after a non-zero exit: a verify report names the failing check
        try:
            result.problems += CHECKS[cmd.kind](cmd.config, out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            if rc == 0:
                result.problems.append(f"output check raised {exc!r}")
        result.digests = digest_dir(out_dir)
    finally:
        shutil.rmtree(out_dir)
    return result


# ---------------------------------------------------------------------------
# checkout, environment and set-up
# ---------------------------------------------------------------------------


def import_catchain(root: Path):
    """Import ``catchain.cli`` from ``root/src``; refuse any other copy."""
    pkg = root / "src" / "catchain"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no catchain sources under {pkg}")
    sys.path.insert(0, str(root / "src"))
    import catchain.cli

    if Path(catchain.cli.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported catchain from {catchain.cli.__file__}, not {pkg}")
    return catchain.cli


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "CATCHAIN_THREADS": os.environ.get("CATCHAIN_THREADS"),
        **{name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
        "src_sha256": tree_digest(root / "src" / "catchain"),
        "seed": seed,
    }


def setup_probe(root: Path, workload: str, seed: int, directory: str) -> float:
    """Seconds from starting a fresh interpreter to catchain imported and inputs written."""
    argv = [
        sys.executable, str(BENCH_FILE), "--setup-probe", directory,
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    # CLOCK_MONOTONIC is system-wide, so the probe's reading is comparable.
    return float(proc.stdout.split()[-1]) - start


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def measure(cli, workload, seed: int, seconds: float, trace: bool, run_dir: str, spans_path: str):
    """Repeat the workload until ``seconds`` is used up; return (repetitions, layer samples).

    Repetition 0 is a warm-up: checked and hashed like the others, but left
    out of the timings.  With ``trace`` the later repetitions alternate
    traced and untraced, starting with a traced one.
    """
    commands = workload.commands(seed)
    paths = write_inputs(commands, os.path.join(run_dir, "inputs"))
    tracer = Tracer()
    passes = []  # (traced, [CommandResult])
    layer_samples = []
    durations = {False: [], True: []}
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            results = [
                # look cli.main up per call: tracing replaces the attribute
                run_command(lambda argv: cli.main(argv), cmd, path, os.path.join(run_dir, f"out-{len(passes)}-{i}"), seed)
                for i, (cmd, path) in enumerate(zip(commands, paths))
            ]
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            leftovers = tracer.leftovers()
            if leftovers:
                raise BenchError(f"tracer wrappers left installed: {leftovers}")
            layer_samples.append(tracer.layer_metrics())
        took = time.perf_counter() - began
        if passes:
            durations[traced].append(took)
        passes.append((traced, results))
        expected = median(durations[trace and len(passes) % 2 == 1]) or took
        enough = len(passes) >= (3 if trace else 2)
        if enough and time.perf_counter() - start + expected > seconds:
            break
    if trace:
        tracer.write_spans(spans_path)  # the last traced repetition
    return passes, layer_samples


def summarize(passes) -> dict:
    """Failures, digests and per-repetition times; a digest change is a failure."""
    reference = [r.digests for r in passes[0][1]]
    problems = []
    attempted = failed = 0
    for n, (traced, results) in enumerate(passes):
        for i, r in enumerate(results):
            if r.digests != reference[i]:
                r.problems.append(f"output digests differ from repetition 0 ({'traced' if traced else 'untraced'})")
            attempted += 1
            if r.problems:
                failed += 1
                problems.append(f"repetition {n} {r.label}: {'; '.join(r.problems)}")
    walls = {False: [], True: []}
    for traced, results in passes[1:]:
        walls[traced].append(sum(r.seconds for r in results))
    untraced = [results for traced, results in passes[1:] if not traced]
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems[:20],
        "warmup_s": sum(r.seconds for r in passes[0][1]),
        "wall_s": walls[False],
        "traced_wall_s": walls[True],
        "command_s": {r.label: median([rep[i].seconds for rep in untraced]) for i, r in enumerate(passes[0][1])},
        "digests": {r.label: r.digests for r in passes[0][1]},
    }


def layer_metrics(samples, summary) -> dict:
    values = {}
    for name, unit in PER_LAYER.items():
        # counts repeat exactly, so take a sample rather than a mean of two
        pick = statistics.median if unit == "s" else statistics.median_low
        values[name] = pick([s.get(name, 0) for s in samples])
    values["trace.overhead_s"] = median(summary["traced_wall_s"]) - median(summary["wall_s"])
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def end_to_end_metrics(summary, setup_samples) -> dict:
    values = {
        "wall_s": median(summary["wall_s"]),
        "setup_s": median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run(args, root: Path) -> dict:
    workload = WORKLOADS[args.workload]
    cli = import_catchain(root)
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work)
    try:
        setup_samples = []
        if not args.trace:
            setup_samples = [
                setup_probe(root, workload.name, args.seed, os.path.join(run_dir, f"probe-{i}"))
                for i in range(SETUP_PROBES)
            ]
        spans_path = str(work / f"spans-{workload.name}-seed{args.seed}.csv")
        passes, samples = measure(cli, workload, args.seed, args.seconds, bool(args.trace), run_dir, spans_path)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    summary = summarize(passes)
    if args.trace:
        metrics = layer_metrics(samples, summary)
    else:
        metrics = end_to_end_metrics(summary, setup_samples)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "env": environment(root, args.seed),
        "setup_s": setup_samples,
        **summary,
    }
    for problem in summary["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    # before numpy is imported; set-up probes inherit it
    os.environ.update(BLAS_ENV, CATCHAIN_THREADS=str(WORKLOADS[args.workload].threads))
    try:
        if args.setup_probe:
            import_catchain(root)
            write_inputs(WORKLOADS[args.workload].commands(args.seed), args.setup_probe)
            print(time.monotonic())
            return 0
        result = run(args, root)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
