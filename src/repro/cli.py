"""Command-line entry point: regenerate any of the paper's figures.

Usage::

    repro-experiments list
    repro-experiments run headline
    repro-experiments run fig1 --k 8 --out results/
    REPRO_FAST=1 repro-experiments run fig6      # scaled-down quick run
    repro-experiments run fig6 --jobs 4          # parallel LP solves
    repro-experiments run fig1 --no-cache        # force fresh solves
    repro-experiments run fig5 --metrics m.csv   # per-LP run metrics
    repro-experiments fig6 --trace t.jsonl --profile   # traced run
    repro-experiments obs-report t.jsonl         # aggregate a trace
    repro-experiments run fig6 --progress        # live stderr status line
    repro-experiments run fig6 --metrics-out m.prom  # export metrics
    repro-experiments bench-report --check       # benchmark regression gate
    repro-experiments run fig6 --certify         # certified LP solves
    repro-experiments verify --k 4               # certification battery
    repro-experiments verify --cached            # re-certify the cache
    repro-experiments verify --design table.json # verify one design file
    repro-experiments run topo3d --k 4 --bandwidths 1,1,0.5  # 3-D sweep

(``repro-experiments fig6 ...`` is shorthand for ``run fig6 ...``.)

LP design work runs through the experiment engine: ``--jobs`` (or
``$REPRO_JOBS``; default: CPU count) workers solve independent design
LPs in parallel, and solved designs persist in an on-disk cache
(``--cache-dir`` / ``$REPRO_CACHE_DIR``, default
``~/.cache/repro-designs``) so identical LPs are never re-solved.

Observability: ``--trace FILE`` writes the JSONL trace (spans from LP
solves, cache, engine workers, simulator), ``--metrics-out FILE``
exports the typed metrics registry (Prometheus text for ``.prom`` /
``.txt``, else JSONL), ``--progress`` renders a live stderr status
line, ``--profile`` prints a top-spans table on exit, ``--log-level``
tunes the stderr diagnostics.  ``bench-report`` diffs the canonical
``BENCH_<name>.json`` benchmark artifacts against committed baselines
(``--check`` makes regressions fail the exit code).  Results tables are
the only thing on stdout.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.experiments.runner import EXPERIMENTS, run_experiment

log = obs.get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the evaluation of 'Throughput-Centric Routing "
            "Algorithm Design' (SPAA 2003)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    run_p.add_argument("--k", type=int, default=8, help="torus radix (default 8)")
    run_p.add_argument("--seed", type=int, default=2003)
    run_p.add_argument(
        "--out", default=None, help="directory for CSV output (optional)"
    )
    run_p.add_argument(
        "--fast",
        action="store_true",
        help="scaled-down parameters (same as REPRO_FAST=1)",
    )
    run_p.add_argument(
        "--plot",
        action="store_true",
        help="also render an ASCII plot (fig1/fig5/fig6)",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel LP workers (default: $REPRO_JOBS or CPU count; "
        "1 = serial, in-process)",
    )
    run_p.add_argument(
        "--cache-dir",
        default=None,
        help="design-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-designs)",
    )
    run_p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the design cache entirely",
    )
    run_p.add_argument(
        "--certify",
        action="store_true",
        help="certify every design: attach LP duality certificates to "
        "fresh solves and re-check cached designs without re-solving "
        "(failures abort with exit code 1)",
    )
    run_p.add_argument(
        "--sim-backend",
        choices=["vectorized", "reference"],
        default=None,
        help="simulation kernel for the sim/adaptive/faults experiments "
        "(default: vectorized; both produce identical results for the "
        "same seed — 'reference' runs the per-packet loop)",
    )
    run_p.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help="sim/faults/rotor/topo3d experiments: average each "
        "saturation probe over an ensemble of N consecutive seeds "
        "starting at --seed (majority stability verdict; the batched "
        "backends run the whole ensemble per kernel launch)",
    )
    run_p.add_argument(
        "--fault-schedule",
        default=None,
        metavar="CYC:CH,..",
        help="sim experiment: kill channel CH at cycle CYC in every "
        "probe, e.g. '0:3,500:17' (lost packets keep the conservation "
        "identity; see the faults experiment for swept kill counts)",
    )
    run_p.add_argument(
        "--failures",
        type=int,
        default=None,
        help="faults experiment: largest failed-channel count to sweep "
        "(default 3)",
    )
    run_p.add_argument(
        "--reroute",
        choices=["renormalize", "detour"],
        default=None,
        help="faults experiment: reroute policy for degraded networks "
        "(default detour; renormalize drops dead paths and reports 0 "
        "for disconnected commodities)",
    )
    run_p.add_argument(
        "--topology",
        choices=["torus", "pillar", "mesh"],
        default=None,
        help="topo3d experiment: network family (default torus; pillar = "
        "sparse-vertical-link 3-D torus, mesh = open boundaries)",
    )
    run_p.add_argument(
        "--dims",
        type=int,
        default=None,
        help="topo3d experiment: cube dimensionality n (default 3)",
    )
    run_p.add_argument(
        "--bandwidths",
        default=None,
        metavar="B1,..,BN",
        help="topo3d experiment: per-dimension bandwidth factors, e.g. "
        "'1,1,0.5' for a half-speed Z dimension (default: sweep the "
        "trailing dimension over 1.0,0.75,0.5,0.25)",
    )
    run_p.add_argument(
        "--phases",
        type=int,
        default=None,
        help="rotor experiment: largest phase count to sweep (default 4; "
        "phases=1 is the static complete graph)",
    )
    run_p.add_argument(
        "--period",
        type=int,
        default=None,
        help="rotor experiment: cycles per full rotation (default 16; "
        "each phase count P runs max(1, period // P)-cycle phases)",
    )
    run_p.add_argument(
        "--scheme",
        choices=["vlb", "orn"],
        default=None,
        help="rotor experiment: restrict the sweep to one oblivious "
        "scheme (default: both VLB-on-rotor and ORN)",
    )
    run_p.add_argument(
        "--radices",
        default=None,
        metavar="K1,..,KM",
        help="design-scale experiment: comma-separated torus radices to "
        "time (default: 8,12,16 clipped to --k)",
    )
    run_p.add_argument(
        "--method",
        choices=["auto", "full", "colgen"],
        default=None,
        help="design-scale experiment: worst-case LP formulation for "
        "every solve (default auto: full below the node threshold, "
        "certified column generation above it)",
    )
    run_p.add_argument(
        "--bench-out",
        default=None,
        metavar="DIR",
        help="design-scale experiment: directory receiving the "
        "BENCH_design_scale.json benchmark artifact (default: not "
        "written)",
    )
    run_p.add_argument(
        "--metrics",
        default=None,
        metavar="CSV",
        help="write per-LP run metrics (solve time, LP size, cache "
        "hit/miss) to this CSV file",
    )
    run_p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="append the structured JSONL trace (spans, counters, "
        "gauges) to FILE; aggregate it with 'obs-report FILE'",
    )
    run_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the metrics registry (counters, gauges, histograms "
        "from the engine, LP solver, cache and simulator) to FILE on "
        "exit; .prom/.txt selects the Prometheus text format, anything "
        "else JSON lines",
    )
    run_p.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress line on stderr (tasks done/total, "
        "cache hit-rate, ETA) from engine lifecycle events",
    )
    run_p.add_argument(
        "--profile",
        action="store_true",
        help="print a top-spans wall-time table to stderr on exit",
    )
    run_p.add_argument(
        "--log-level",
        default="info",
        metavar="LEVEL",
        help="stderr diagnostics level: debug, info, warning, error "
        "(default: info)",
    )

    verify_p = sub.add_parser(
        "verify",
        help="run the correctness certification battery (repro.verify)",
        description=(
            "Certify routing algorithms (invariants, deadlock spot checks, "
            "duality certificates, brute-force differential worst case), a "
            "serialized design file, or every cached design entry.  Exit "
            "code 0 when everything passes, 1 on any verification failure."
        ),
    )
    verify_p.add_argument(
        "--k", type=int, default=4, help="torus radix to certify on (default 4)"
    )
    verify_p.add_argument(
        "--algorithms",
        default=None,
        metavar="NAMES",
        help="comma-separated algorithms (default DOR,VAL,IVAL,2TURN)",
    )
    verify_p.add_argument(
        "--design",
        default=None,
        metavar="FILE",
        help="verify one serialized design document (flows/routing/cache "
        "entry JSON) instead of the algorithm battery",
    )
    verify_p.add_argument(
        "--cached",
        action="store_true",
        help="re-certify every design-cache entry without re-solving",
    )
    verify_p.add_argument(
        "--cache-dir",
        default=None,
        help="design-cache directory for --cached (default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro-designs)",
    )
    verify_p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="duality-gap / certificate tolerance (default 1e-7)",
    )
    verify_p.add_argument(
        "--no-differential",
        action="store_true",
        help="skip the brute-force differential worst-case cross-check",
    )
    verify_p.add_argument(
        "--trace", default=None, metavar="FILE", help="append JSONL trace to FILE"
    )
    verify_p.add_argument(
        "--profile",
        action="store_true",
        help="print a top-spans wall-time table to stderr on exit",
    )
    verify_p.add_argument(
        "--log-level", default="info", metavar="LEVEL", help="stderr log level"
    )

    report_p = sub.add_parser(
        "obs-report", help="aggregate a JSONL trace written with --trace"
    )
    report_p.add_argument("trace_file", help="trace file (JSON lines)")
    report_p.add_argument(
        "--top",
        type=int,
        default=15,
        help="span rows to show in the time breakdown (default 15)",
    )

    bench_p = sub.add_parser(
        "bench-report",
        help="diff BENCH_*.json benchmark artifacts against a baseline",
        description=(
            "Compare the median of every timing series in the results "
            "directory's canonical BENCH_<name>.json artifacts against "
            "the committed baseline copies.  With --check, exit 1 when "
            "any series regressed beyond the threshold; exit 2 on "
            "schema-invalid artifacts either way."
        ),
    )
    bench_p.add_argument(
        "--results",
        default="results",
        metavar="DIR",
        help="directory holding current BENCH_*.json artifacts "
        "(default: results)",
    )
    bench_p.add_argument(
        "--baseline",
        default="results/baselines",
        metavar="DIR",
        help="directory holding baseline BENCH_*.json artifacts "
        "(default: results/baselines)",
    )
    bench_p.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="median slowdown fraction that counts as a regression "
        "(default: 0.25 = +25%%)",
    )
    bench_p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any timing series regressed (the CI gate); "
        "without it the report is informational",
    )
    return parser


def _verify(args) -> int:
    from repro.constants import DUALITY_GAP_TOL
    from repro.verify import verify_algorithms, verify_cache, verify_design_file

    tol = DUALITY_GAP_TOL if args.tol is None else float(args.tol)
    reports = []
    if args.design is not None:
        reports.append(verify_design_file(args.design, tol=tol))
    if args.cached:
        cached = verify_cache(args.cache_dir, tol=tol)
        if not cached:
            log.warning("design cache is empty; nothing to re-certify")
        reports.extend(cached)
    if args.design is None and not args.cached:
        names = (
            [n.strip() for n in args.algorithms.split(",") if n.strip()]
            if args.algorithms
            else None
        )
        try:
            reports.extend(
                verify_algorithms(
                    k=args.k,
                    names=names,
                    tol=tol,
                    differential=not args.no_differential,
                )
            )
        except ValueError as exc:
            print(f"repro-experiments: error: {exc}", file=sys.stderr)
            return 2
    for report in reports:
        print(report.render())
        print()
    failed = [r for r in reports if not r.passed]
    checks = sum(len(r.checks) for r in reports)
    print(
        f"verify: {len(reports)} subjects, {checks} checks, "
        f"{len(failed)} failed"
    )
    return 1 if failed else 0


def _obs_report(args) -> int:
    try:
        report = obs.report_from_file(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"repro-experiments: error: {exc}", file=sys.stderr)
        return 2
    print(report.render(top=args.top))
    return 0


def _bench_report(args) -> int:
    try:
        report = obs.compare_dirs(
            args.results, args.baseline, threshold=args.threshold
        )
    except (OSError, obs.BenchValidationError) as exc:
        print(f"repro-experiments: error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.check and not report.passed:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:  # pragma: no cover - interactive path
        argv = sys.argv[1:]
    if argv and argv[0] in EXPERIMENTS:
        argv = ["run"] + list(argv)  # 'repro-experiments fig6' shorthand
    args = build_parser().parse_args(argv)
    if getattr(args, "fast", False):
        import os

        os.environ["REPRO_FAST"] = "1"
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(f"{name:10s} {EXPERIMENTS[name]['description']}")
        return 0
    if args.command == "obs-report":
        obs.setup_logging("info")
        return _obs_report(args)
    if args.command == "bench-report":
        obs.setup_logging("info")
        return _bench_report(args)

    try:
        obs.setup_logging(args.log_level)
    except ValueError as exc:
        print(f"repro-experiments: error: {exc}", file=sys.stderr)
        return 2
    tracer = obs.configure(trace_path=args.trace)
    if args.trace:
        log.info("writing trace events to %s", args.trace)

    if args.command == "verify":
        try:
            return _verify(args)
        finally:
            if args.profile:
                print(obs.profile_table(tracer), file=sys.stderr)
            tracer.close()

    from repro.experiments.engine import TaskError
    from repro.verify.certificates import CertificationError

    bandwidths = None
    if getattr(args, "bandwidths", None):
        try:
            bandwidths = tuple(
                float(part) for part in args.bandwidths.split(",") if part.strip()
            )
        except ValueError:
            print(
                f"repro-experiments: error: --bandwidths expects comma-"
                f"separated numbers, got {args.bandwidths!r}",
                file=sys.stderr,
            )
            return 2

    fault_schedule = None
    if getattr(args, "fault_schedule", None):
        try:
            fault_schedule = tuple(
                (int(cyc), int(ch))
                for part in args.fault_schedule.split(",")
                if part.strip()
                for cyc, ch in [part.split(":")]
            )
        except ValueError:
            print(
                f"repro-experiments: error: --fault-schedule expects comma-"
                f"separated CYCLE:CHANNEL pairs, got {args.fault_schedule!r}",
                file=sys.stderr,
            )
            return 2

    radices = None
    if getattr(args, "radices", None):
        try:
            radices = tuple(
                int(part) for part in args.radices.split(",") if part.strip()
            )
        except ValueError:
            print(
                f"repro-experiments: error: --radices expects comma-"
                f"separated integers, got {args.radices!r}",
                file=sys.stderr,
            )
            return 2

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    registry = obs.configure_metrics()
    try:
        for name in names:
            progress = (
                obs.ProgressReporter(label=name) if args.progress else None
            )
            try:
                data, text = run_experiment(
                    name,
                    k=args.k,
                    seed=args.seed,
                    out_dir=args.out,
                    jobs=args.jobs,
                    cache_dir=args.cache_dir,
                    use_cache=not args.no_cache,
                    certify=args.certify,
                    metrics_path=args.metrics,
                    sim_backend=args.sim_backend,
                    seeds=args.seeds,
                    fault_schedule=fault_schedule,
                    failures=args.failures,
                    reroute=args.reroute,
                    topology=args.topology,
                    dims=args.dims,
                    bandwidths=bandwidths,
                    phases=args.phases,
                    period=args.period,
                    scheme={"vlb": "VLBR", "orn": "ORN"}.get(args.scheme),
                    radices=radices,
                    method=args.method,
                    bench_out=args.bench_out,
                    progress=progress,
                )
            except ValueError as exc:
                print(f"repro-experiments: error: {exc}", file=sys.stderr)
                return 2
            except CertificationError as exc:
                print(f"repro-experiments: certification failed: {exc}", file=sys.stderr)
                return 1
            except TaskError as exc:
                print(f"repro-experiments: {exc}", file=sys.stderr)
                return 1
            finally:
                if progress is not None:
                    progress.close()
            print(text)
            if getattr(args, "plot", False) and hasattr(data, "plot"):
                print()
                print(data.plot())
            print()
    finally:
        if args.metrics_out:
            fmt = obs.write_metrics(registry, args.metrics_out)
            log.info("wrote %s metrics to %s", fmt, args.metrics_out)
        if args.profile:
            print(obs.profile_table(tracer), file=sys.stderr)
        tracer.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `obs-report trace | head`
        sys.exit(0)
