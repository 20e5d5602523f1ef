"""Repository benchmark: one workload per process, end-to-end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload design-k6 --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for what each one runs and why):
``design-k6``, ``colgen-hard`` and ``faults-k4``.

A run sets the workload up several times (``setup_s`` is the median;
see ``SETUP_MIN_REPEATS``), then runs complete rounds of it back to back
until ``--seconds`` have passed and at least the workload's ``min_rounds``
ran, checking the outputs of every round.  ``wall_s`` is the median round time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
one round untraced, then runs the timed rounds with the layer probes of
``probes.py`` installed; it prints the per-layer metrics (per round),
the tracing overhead (median traced round minus the untraced round) and
writes a collapsed-stack profile of the traced rounds under
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
and ``failed`` count program operations and output checks; an operation
that raises is a failed operation, and a check that fails also makes
``correct`` false.  Human-readable lines above it give every metric
with its unit and sample count, the environment fingerprint, and each
failure.

``--record FILE`` also writes the whole result, with the environment
fingerprint and every sample, to FILE; it is refused when the git
revision of the checkout is unknown.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probes
from workloads import WORKLOADS, Ledger, WorkDir

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Set-up runs at least SETUP_MIN_REPEATS times and keeps repeating, up
#: to SETUP_MAX_REPEATS, while the repeats total under SETUP_BUDGET_S,
#: so a set-up of a few milliseconds still gets a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_BUDGET_S = 1.0

ALL = tuple(WORKLOADS)
#: Every end-to-end metric: unit, better direction, and the workloads
#: it applies to.  Each run prints the ones that apply to its workload.
END_TO_END = {
    "setup_s": ("s", "lower", ALL),
    "wall_s": ("s", "lower", ALL),
    "design_s": ("s", "lower", ("design-k6", "colgen-hard")),
    "eval_s": ("s", "lower", ("design-k6", "faults-k4")),
    "warm_task_ms": ("ms", "lower", ("design-k6",)),
    "sat_bracket_s": ("s", "lower", ("faults-k4",)),
    "sim_pkts_per_s": ("1/s", "higher", ("faults-k4",)),
    "peak_rss_mb": ("MB", "lower", ALL),
    "fail_ratio": ("ratio", "lower", ALL),
}
#: The end-to-end metrics the JSON result carries with ``--trace 0``
#: (BENCHMARK.json's ``end_to_end``): the ones that apply to, and are
#: never 0 on, every workload.
GATED = ("setup_s", "wall_s", "peak_rss_mb")


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def git_revision(root: Path) -> str | None:
    """HEAD of the work tree rooted exactly at ``root`` (``-dirty`` when
    it has uncommitted changes), or ``None`` outside one."""

    def git(*args):
        out = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True,
            text=True,
            timeout=30,
        )
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or Path(top).resolve() != root:
            return None
        rev = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None
    if not rev:
        return None
    return rev + ("-dirty" if status else "")


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, so runs from a checkout
    without git history still name the code they measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "git_rev": git_revision(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def measure(name: str, workload, seed: int, seconds: float, traced: bool) -> dict:
    from repro import obs

    ledger = Ledger()
    work = WorkDir(OUT_DIR)
    hooks = probes.EndToEndHooks(ledger, traced=traced)
    layer_probes = probes.LayerProbes()
    rounds: list[float] = []
    layers: list[dict] = []
    events: list[dict] = []
    untraced_round = None
    try:
        setup: list[float] = []
        while len(setup) < SETUP_MIN_REPEATS or (
            len(setup) < SETUP_MAX_REPEATS and sum(setup) < SETUP_BUDGET_S
        ):
            t0 = time.perf_counter()
            state = workload.setup(seed, work)
            setup.append(time.perf_counter() - t0)
        with hooks.installed():
            if traced:
                obs.configure()
                t0 = time.perf_counter()
                out = workload.round(state, ledger)
                untraced_round = time.perf_counter() - t0
                workload.verify(state, out, ledger)
                # Operation timings of a traced run come from its traced
                # rounds only; the counts keep every operation.
                ledger.samples.clear()
                hooks.take_round()
                hooks.kernel_s = hooks.delivered = 0
            with layer_probes.installed() if traced else contextlib.nullcontext():
                start = time.perf_counter()
                while True:
                    obs.configure()  # a fresh in-memory trace per round
                    layer_probes.reset()
                    span = (
                        obs.span("bench.round", workload=name)
                        if traced
                        else contextlib.nullcontext()
                    )
                    t0 = time.perf_counter()
                    with span:
                        out = workload.round(state, ledger)
                    rounds.append(time.perf_counter() - t0)
                    sim_round = hooks.take_round()
                    if traced:
                        tracer = obs.get_tracer()
                        layers.append(
                            probes.layer_metrics(
                                tracer.events,
                                tracer.counters,
                                layer_probes.counts,
                                sim_round,
                            )
                        )
                        events.extend(tracer.events)
                    workload.verify(state, out, ledger)
                    if (
                        time.perf_counter() - start >= seconds
                        and len(rounds) >= workload.min_rounds
                    ):
                        break
    finally:
        work.close()

    def op_median(kind, scale=1.0):
        values = ledger.samples.get(kind, [])
        return (scale * median(values), len(values))

    values = {
        "setup_s": (median(setup), len(setup)),
        "wall_s": (median(rounds), len(rounds)),
        "design_s": op_median("design"),
        "eval_s": op_median("eval"),
        "warm_task_ms": op_median("warm", scale=1000.0),
        "sat_bracket_s": op_median("bracket"),
        "sim_pkts_per_s": (
            hooks.delivered / hooks.kernel_s if hooks.kernel_s else float("nan"),
            hooks.delivered,
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            1,
        ),
        "fail_ratio": (ledger.failed / max(1, ledger.attempted), ledger.attempted),
    }
    result = {
        "ledger": ledger,
        "setup": setup,
        "rounds": rounds,
        "e2e": {
            metric: values[metric]
            for metric, (_, _, applies) in END_TO_END.items()
            if name in applies
        },
    }
    if traced:
        per_round = {
            key: statistics.fmean(layer[key] for layer in layers)
            for key in layers[0]
        }
        per_round["trace.overhead_s"] = median(rounds) - untraced_round
        result["layers"] = per_round
        result["untraced_round"] = untraced_round
        result["collapsed"] = probes.collapsed_stacks(events)
    return result


def render(name: str, args, result: dict, env: dict) -> tuple[list[str], dict]:
    """Human-readable lines and the final JSON object."""
    ledger = result["ledger"]
    lines = [
        f"# perfbench workload={name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} scale={args.scale}",
        "# env " + json.dumps(env, sort_keys=True),
    ]
    for metric, (value, n) in result["e2e"].items():
        unit = END_TO_END[metric][0]
        if metric == "fail_ratio":
            count = f"{ledger.failed} failed / {ledger.attempted} attempted"
        elif metric == "sim_pkts_per_s":
            count = f"{n} packets delivered over all launches"
        else:
            count = f"median of {n}"
        lines.append(f"e2e {metric:<15} {value:.6g} {unit} ({count})")
    lines.append("rounds " + " ".join(f"{t:.4f}" for t in result["rounds"]) + " s")
    lines.append(
        "checks " + " ".join(f"{c}x{n}" for c, n in sorted(ledger.checks.items()))
    )
    lines.extend(f"failed {msg}" for msg in ledger.failures)

    if args.trace:
        metrics = {
            key: {"value": float(result["layers"][key]), "unit": unit}
            for key, unit, _ in probes.LAYER_METRICS
        }
        for key, m in metrics.items():
            lines.append(f"layer {key:<22} {m['value']:.6g} {m['unit']} (per round)")
        lines.append(
            f"trace overhead {metrics['trace.overhead_s']['value']:.4f} s: traced "
            f"round {median(result['rounds']):.4f} s vs untraced "
            f"{result['untraced_round']:.4f} s"
        )
    else:
        metrics = {
            key: {"value": float(result["e2e"][key][0]), "unit": END_TO_END[key][0]}
            for key in GATED
        }
    doc = {
        "correct": bool(ledger.correct),
        "attempted": int(ledger.attempted),
        "failed": int(ledger.failed),
        "metrics": metrics,
    }
    return lines, doc


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def write_collapsed(name: str, seed: int, result: dict, env: dict) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}"
    path = stem.with_suffix(".collapsed")
    with open(path, "w") as fh:
        for stack, seconds in sorted(result["collapsed"].items()):
            micros = int(round(seconds * 1e6))
            if micros > 0:
                fh.write(f"{stack} {micros}\n")
    with open(stem.with_suffix(".env.json"), "w") as fh:
        json.dump({"env": env, "layers": result["layers"]}, fh, indent=1)
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="smoke: a tiny version of the workload, for the smoke tests",
    )
    parser.add_argument("--record", metavar="FILE", help="also write the result here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    env = fingerprint(ROOT)
    if args.record and env["git_rev"] is None:
        print(
            "perfbench: refusing to record a run whose git revision is unknown",
            file=sys.stderr,
        )
        return 2
    full, smoke = WORKLOADS[args.workload]
    workload = smoke if args.scale == "smoke" else full
    result = measure(args.workload, workload, args.seed, args.seconds, bool(args.trace))
    lines, doc = render(args.workload, args, result, env)
    if args.trace:
        path = write_collapsed(args.workload, args.seed, result, env)
        lines.append(f"collapsed stacks: {path.relative_to(ROOT)}")
    if args.record:
        record = {
            "env": env,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": args.scale,
            "setup_samples": result["setup"],
            "round_samples": result["rounds"],
            "op_samples": result["ledger"].samples,
            "end_to_end": {
                k: {"value": v, "unit": END_TO_END[k][0], "n": n}
                for k, (v, n) in result["e2e"].items()
            },
            "failures": result["ledger"].failures,
            "result": doc,
        }
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
