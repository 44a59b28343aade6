"""Command-line interface.

``python -m repro <command>``:

========== ==========================================================
verify     check Condition 1 on a program (exit 0 iff it holds)
lint       validate a program statically (exit 1 on an error)
transform  run the offline pipeline; print or write the safe program
simulate   execute a program on the simulator, optionally with
           crashes, a protocol, and a space-time diagram
cfg        dump the (extended) CFG as Graphviz DOT
figures    print the Figure 8 / Figure 9 data tables
compare    run every protocol on one standard workload
analyze    check the straight cuts of a recorded ``--trace-out`` event
           log (exit 1 iff one is not a recovery line)
programs   list the shipped example programs
trace      inspect/filter/convert a recorded JSONL observability event
           log (``trace query LOG`` lists events matching rank/kind/
           time-window/span filters; ``--format spacetime`` draws the
           whole run with its recovery lines marked)
metrics    metric-artifact tooling (``metrics diff`` compares two
           metrics/rollup/BENCH JSONs under ratio thresholds)
chaos      run the chaos sweep, dumping diagnostics on failure
           (resumable via --resume)
campaign   run a declarative scenario campaign on N worker processes
           with timeouts, retry/quarantine, and --resume restart
optimal    tabulate each protocol's optimal checkpoint interval
           and overhead ratio
========== ==========================================================

Program arguments accept either a file path or ``@name`` for a shipped
program (see ``python -m repro programs``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

from repro.errors import ReproError, SimulationError
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.printer import to_source
from repro.lang.programs import program_names, program_source
from repro.protocols import PROTOCOL_CLASSES, protocol_names
from repro.runtime.config import BACKENDS, CHECKPOINT_MODES, RunConfig
from repro.runtime.failures import (
    EVENT_LISTS,
    FaultPlan,
    event_syntax,
    parse_event,
)


def _source(spec: str) -> str:
    """The MiniMP source text a program argument names."""
    if spec.startswith("@"):
        return program_source(spec[1:])
    return Path(spec).read_text(encoding="utf-8")


def _load(spec: str) -> ast.Program:
    return parse(_source(spec))


def _write(path: str, text: str, what: str = "") -> None:
    """Write *text* to *path* (``-``: stdout), announcing a file on stderr."""
    if path == "-":
        print(text, end="")
        return
    Path(path).write_text(text)
    print(f"# wrote {what + ' to ' if what else ''}{path}", file=sys.stderr)


def _json(data) -> str:
    """*data* as the CLI's JSON files hold it: indented, keys sorted."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _add_program_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "program",
        help="path to a MiniMP source file, or @name for a shipped program",
    )


def _cmd_programs(_args: argparse.Namespace) -> int:
    for name in program_names():
        print(name)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.phases.matching import build_extended_cfg
    from repro.phases.verification import check_condition1

    program = _load(args.program)
    ext = build_extended_cfg(program)
    result = check_condition1(
        ext, include_back_edge_paths=not args.loop_optimization
    )
    mode = "loop-optimised" if args.loop_optimization else "conservative"
    print(f"program   : {program.name}")
    print(f"mode      : {mode}")
    print(f"msg edges : {len(ext.message_edges)}")
    print(f"Condition 1 holds: {result.ok}")
    if not result.balanced:
        print(f"  {result.reason}")
    for violation in result.violations[:args.max_violations]:
        print(f"  violation: {violation.describe(ext)}")
    return 0 if result.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lang.validate import validate_program

    program = _load(args.program)
    params = tuple(args.param) if args.param else ("steps",)
    diagnostics = validate_program(program, params=params)
    for diagnostic in diagnostics:
        print(diagnostic)
    errors = [d for d in diagnostics if d.severity == "error"]
    if not diagnostics:
        print("clean: no diagnostics")
    return 1 if errors else 0


def _cmd_transform(args: argparse.Namespace) -> int:
    from repro.phases.insertion import CostModel
    from repro.phases.pipeline import transform

    program = _load(args.program)
    model = CostModel(
        checkpoint_overhead=args.checkpoint_overhead,
        failure_rate=args.failure_rate,
        params={"steps": args.steps} if args.steps else {},
    )
    cache = None
    if args.cache:
        from repro.campaign.cache import TransformCache

        cache = TransformCache(args.cache)
    tracker = None
    if args.spans_out:
        from repro.obs.spans import SpanTracker

        tracker = SpanTracker()
    result = transform(
        program,
        cost_model=model,
        loop_optimization=args.loop_optimization,
        force_insertion=args.force_insertion,
        cache=cache,
        tracker=tracker,
    )
    if tracker is not None:
        _write(args.spans_out, tracker.chrome_trace_json(indent=2) + "\n",
               "span trace")
    if cache is not None:
        verdict = "hit" if cache.hits else "miss"
        print(f"# transform cache: {verdict} ({args.cache})",
              file=sys.stderr)
    from repro.phases.report import transform_report

    for line in transform_report(result).splitlines():
        print(f"# {line}", file=sys.stderr)
    _write(args.output or "-", to_source(result.program))
    return 0


def _cmd_cfg(args: argparse.Namespace) -> int:
    from repro.cfg.builder import build_cfg
    from repro.cfg.dot import to_dot
    from repro.phases.matching import build_extended_cfg

    program = _load(args.program)
    if args.extended:
        graph = build_extended_cfg(program)
    else:
        graph = build_cfg(program)
    print(to_dot(graph, name=program.name), end="")
    return 0


def _event_parser(name: str | None, what: str):
    """An argparse ``type`` reading one fault event's text form.

    *name* is the event list (``None``: named by the leading ``KIND``).
    """
    names = [name] if name else [
        n for n, spec in EVENT_LISTS.items() if spec.kinds is not None
    ]
    forms = " or ".join(event_syntax(n) for n in names)

    def parse(text: str):
        try:
            return parse_event(text, name)
        except (TypeError, ValueError):
            raise argparse.ArgumentTypeError(
                f"{what} must be {forms}, got {text!r}"
            ) from None

    return parse


def _fault_help() -> str:
    """``--fault``'s help: every kinded event list's text form and kinds."""
    return "inject a fault: " + "; ".join(
        f"{spec.what} {event_syntax(name)} (KIND: "
        + ", ".join(kind.value for kind in spec.kinds) + ")"
        for name, spec in EVENT_LISTS.items() if spec.kinds is not None
    ) + "; RECOVERY counts crash-triggered recoveries from 0"


def _fault_plan_schema() -> str:
    """The ``--fault-plan`` JSON schema, for error messages."""
    lists = ", ".join(
        f'"{name}": [{{' + ", ".join(
            f'"{f.name}"' + ("" if f.default is MISSING else "?")
            for f in fields(spec.event)
        ) + "}]"
        for name, spec in EVENT_LISTS.items()
    )
    return f'{{"max_failures": N?, {lists}}}'


def _load_fault_plan(path: str, events):
    """Build a FaultPlan from CLI events plus an optional JSON file.

    *events* are ``(list name, event)`` pairs, as ``--crash`` and
    ``--fault`` parse them. The JSON schema is
    :meth:`~repro.runtime.failures.FaultPlan.to_json_dict`'s: one list
    per event family, each event an object of its fields.
    """
    lists = {name: [] for name in EVENT_LISTS}
    for name, event in events:
        lists[name].append(event)
    max_failures = None
    if path:
        try:
            data = json.loads(Path(path).read_text())
            loaded = FaultPlan.from_json_dict(data)
        except SimulationError as exc:
            raise SimulationError(
                f"bad fault plan {path!r}: {exc} — expected "
                f"{_fault_plan_schema()}"
            ) from exc
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise SimulationError(
                f"bad fault plan {path!r}: {exc!r} — expected "
                f"{_fault_plan_schema()}"
            ) from exc
        for name, found in lists.items():
            found.extend(getattr(loaded, name))
        max_failures = loaded.max_failures
    return FaultPlan(max_failures=max_failures, **lists)


#: The run knobs the CLI exposes: :class:`RunConfig` field ->
#: (metavar or choices, help). Defaults come from the dataclass.
_RUN_FLAGS: dict[str, tuple] = {
    "seed": ("SEED", "simulator seed (inputs, latencies)"),
    "storage_replicas": ("N", "replicate stable storage N-way with "
                              "majority-quorum reads"),
    "retain_k": ("K", "bounded-storage retention: keep at most K "
                      "checkpoints per rank, GC-protecting the recovery "
                      "line and its degraded fallbacks"),
    "backend": (BACKENDS, "process-execution backend: the closure "
                          "compiler or the tree-walking interpreter; "
                          "runs are byte-identical for both"),
    "checkpoint_mode": (CHECKPOINT_MODES,
                        "checkpoint content policy: full snapshots, or "
                        "liveness-pruned snapshots stored as deltas; "
                        "recovery is byte-identical for both, only "
                        "stored payload bytes differ"),
}


def _add_run_flags(
    parser: argparse.ArgumentParser,
    *names: str,
    override: bool = False,
    flags: dict[str, str] | None = None,
) -> None:
    """Add the *names* fields of :class:`RunConfig` as flags.

    Values land in the namespace under the field name. *flags* renames
    a flag; the *override* form defaults every flag to ``None`` ("keep
    each cell's own value").
    """
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for name in names:
        shape, text = _RUN_FLAGS[name]
        flag = (flags or {}).get(name, "--" + name.replace("_", "-"))
        if isinstance(shape, tuple):
            kind = {"choices": shape}
        else:
            kind = {"type": int, "metavar": shape}
        if override:
            text += " (overrides every cell's own value; default: keep it)"
        parser.add_argument(
            flag, dest=name, help=text,
            default=None if override else defaults[name], **kind,
        )


def _run_knobs(args: argparse.Namespace, *names: str) -> dict:
    """The *names* run knobs of *args* that were given a value."""
    return {
        name: getattr(args, name) for name in names
        if getattr(args, name) is not None
    }


def _add_executor_flags(
    parser: argparse.ArgumentParser, jobs: int
) -> None:
    """Add ``--jobs/--resume/--timeout/--retries`` (*jobs* = default)."""
    parser.add_argument("-j", "--jobs", type=int, default=jobs, metavar="N",
                        help="worker processes (0 = all cores; default "
                             f"{jobs}); results are byte-identical for "
                             "any N")
    parser.add_argument("--resume", metavar="JOURNAL",
                        help="fsync'd JSONL journal of finished cells "
                             "keyed by label and content hash; an "
                             "existing journal is resumed (finished "
                             "cells are skipped), a missing one is "
                             "created — a SIGKILL'd run restarts where "
                             "it stopped and its artifact stays "
                             "byte-identical to a clean run")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-cell wall-clock budget in seconds "
                             "(enforced with --jobs >= 2); over-budget "
                             "cells are killed, retried, and finally "
                             "quarantined")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="executor re-attempts per cell before it "
                             "is quarantined into a structured error "
                             "outcome (default 2)")


_SIMULATE_KNOBS = ("seed", "storage_replicas", "retain_k", "backend",
                   "checkpoint_mode")
_CHAOS_KNOBS = ("seed", "retain_k", "backend", "checkpoint_mode")
_CAMPAIGN_KNOBS = ("backend", "checkpoint_mode")


def _cmd_simulate(args: argparse.Namespace) -> int:
    """One judged campaign cell; every output is a view of its outcome."""
    from repro.campaign import ScenarioSpec, run_campaign
    from repro.runtime import chaos
    from repro.runtime.hooks import NullProtocol

    source = _source(args.program)
    plan = _load_fault_plan(args.fault_plan, args.crash + args.fault)
    spec = ScenarioSpec(
        label="simulate",
        program=source,
        n_processes=args.n,
        params={"steps": args.steps} if args.steps else {},
        protocol=args.protocol,
        period=args.period,
        fault_plan=plan,
        observe=bool(args.trace_out or args.metrics_out or args.spacetime),
        **_run_knobs(args, *_SIMULATE_KNOBS),
    )
    outcome = run_campaign([spec], judge=chaos.judge).cells[spec.label]
    stats = outcome.stats
    if stats is None:
        print(f"error: {outcome.error}", file=sys.stderr)
        return 2
    verdict = "unrecoverable" if stats["unrecoverable"] else "completed"
    print(f"completed         : {stats['completed']}")
    print(f"verdict           : {verdict}")
    print(f"completion time   : {outcome.completion_time:.3f}")
    print(f"app messages      : {stats['app_messages']}")
    print(f"control messages  : {stats['control_messages']}")
    print(f"checkpoints       : {stats['checkpoints']} "
          f"(forced: {stats['forced_checkpoints']})")
    print(f"failures/rollbacks: {stats['failures']}/{stats['rollbacks']}")
    print(f"lost work         : {stats['lost_work']:.3f}")
    if plan.storage_faults or args.storage_replicas > 1:
        print(f"storage faults    : "
              f"write-failures={stats['storage_write_failures']} "
              f"torn={stats['torn_writes']} "
              f"retries={stats['storage_retries']} "
              f"bit-rot={stats['bit_rot_injected']} "
              f"corrupt-detected={stats['corrupt_checkpoints']}")
        print(f"degraded recovery : {stats['recovery_fallbacks']} "
              f"(max fallback depth: {stats['max_fallback_depth']})")
    if plan.recovery_faults or stats["recovery_retries"]:
        print(f"recovery superv.  : attempts={stats['recovery_attempts']} "
              f"retries={stats['recovery_retries']} "
              f"backoff={stats['recovery_backoff_time']:.3f} "
              f"nested-crashes={stats['nested_crashes']} "
              f"control-lost={stats['recovery_control_lost']} "
              f"read-faults={stats['recovery_read_faults']}")
    if args.retain_k is not None:
        print(f"retention (k={args.retain_k})   : "
              f"stored={stats['stored_checkpoints']} "
              f"({stats['stored_bytes']} bytes), "
              f"gc-collected={stats['gc_collected']} "
              f"({stats['gc_reclaimed_bytes']} bytes reclaimed)")
    if plan.network_faults:
        print(f"network faults    : dropped={stats['dropped_frames']} "
              f"corrupt={stats['corrupt_frames']} "
              f"delayed={stats['delayed_frames']} "
              f"duplicated={stats['duplicate_frames']} "
              f"(dups suppressed: {stats['dups_suppressed']})")
        print(f"transport         : frames={stats['frames_sent']} "
              f"retransmits={stats['retransmits']} "
              f"acks={stats['ack_frames']} acks-lost={stats['acks_lost']}")
    # The judge checks the family of cuts the protocol claims, if any.
    family = (PROTOCOL_CLASSES[args.protocol] or NullProtocol).recovery_lines
    if family is None:
        cuts = f"not claimed by {args.protocol}"
    else:
        cuts = outcome.error != chaos.CUT_BROKEN
    kind = "tagged" if family == "tag" else "straight"
    print(f"{kind} cuts are recovery lines: {cuts}")
    if outcome.error not in (None, chaos.CUT_BROKEN):
        print(f"judge             : {outcome.error}")
    if args.spacetime:
        from repro.obs import read_event_log, trace_from_events
        from repro.viz import render_spacetime

        print()
        trace = trace_from_events(read_event_log(outcome.events_jsonl))
        print(render_spacetime(trace), end="")
    if args.trace_out:
        _write(args.trace_out, outcome.events_jsonl, "event log")
    if args.metrics_out:
        from repro.obs.rollup import cell_metrics

        _write(args.metrics_out, _json(cell_metrics(outcome)), "metrics")
    if args.stats_json:
        _write(args.stats_json, _json(stats), "stats")
    return 0 if stats["completed"] and outcome.error is None else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis.comparison import figure8_series, figure9_series
    from repro.bench.figures import figure8_table, figure9_table

    if args.figure in ("8", "both"):
        print("Figure 8: overhead ratio vs number of processes")
        print(figure8_table())
        if args.chart:
            from repro.viz import curves_chart

            print()
            print(curves_chart(figure8_series(), log_y=True, y_label="r"))
    if args.figure == "both":
        print()
    if args.figure in ("9", "both"):
        print("Figure 9: overhead ratio vs message setup time")
        print(figure9_table())
        if args.chart:
            from repro.viz import curves_chart

            print()
            print(curves_chart(figure9_series(), log_y=True, y_label="r"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.workloads import (
        comparison_table,
        protocol_cells,
        standard_workloads,
    )
    from repro.campaign import run_campaign

    workloads = {w.label: w for w in standard_workloads(steps=args.steps)}
    if args.workload not in workloads:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"known: {', '.join(sorted(workloads))}",
            file=sys.stderr,
        )
        return 2
    cells = protocol_cells(
        workloads[args.workload],
        period=args.period,
        fault_plan=FaultPlan(crashes=[crash for _, crash in args.crash]),
    )
    result = run_campaign(cells, jobs=1)
    print(comparison_table(cells, result), end="")
    return 1 if result.failures else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.causality.cuts import cut_is_consistent, orphan_messages
    from repro.causality.rollback_graph import max_consistent_cut
    from repro.obs import read_event_log, trace_from_events

    trace = trace_from_events(read_event_log(args.log))
    print(f"processes        : {trace.n_processes}")
    print(f"events           : {len(trace.events)}")
    print(f"messages         : {trace.message_count()}")
    print(f"completion time  : {trace.completion_time():.3f}")
    cuts = trace.all_straight_cuts()
    print(f"straight cuts    : R_1 .. R_{len(cuts)}")
    inconsistent = [
        index for index, cut in enumerate(cuts, 1)
        if not cut_is_consistent(cut)
    ]
    if inconsistent:
        print(f"NOT recovery lines: {inconsistent}")
        first = cuts[inconsistent[0] - 1]
        for send, recv in orphan_messages(trace.events, first)[:3]:
            print(f"  orphan witness in R_{inconsistent[0]}: "
                  f"{send!r} -> {recv!r}")
    else:
        print("every straight cut is a recovery line")
    analysis = max_consistent_cut(
        trace.events, list(range(trace.n_processes))
    )
    print(f"max consistent cut: rollbacks {analysis.rollbacks}, "
          f"domino steps {analysis.domino_steps}")
    from repro.causality.zigzag import ZigzagAnalysis

    useless = ZigzagAnalysis(trace.events).useless_checkpoints()
    if useless:
        print(f"useless checkpoints (zigzag cycles): {useless}")
    else:
        print("no useless checkpoints (no zigzag cycles)")
    return 1 if inconsistent else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        chrome_trace_json,
        events_to_jsonl,
        read_event_log,
        summarize_events,
        trace_from_events,
    )
    from repro.obs.query import filter_events, format_events

    query_mode = args.log == "query"
    if query_mode and args.query_log is None:
        print("error: repro trace query needs a LOG argument",
              file=sys.stderr)
        return 2
    filters = [
        name for name in ("rank", "category", "kind", "since", "until", "span")
        if getattr(args, name) is not None
    ]
    if filters and args.format == "spacetime" and not query_mode:
        # The recovery-line markers are cuts of the whole run.
        print(f"error: --format spacetime draws the whole run; drop "
              f"--{', --'.join(filters)}", file=sys.stderr)
        return 2
    events = read_event_log(args.query_log if query_mode else args.log)
    if query_mode or filters:
        events = filter_events(
            events,
            ranks=args.rank,
            categories=args.category,
            kinds=args.kind,
            since=args.since,
            until=args.until,
            span=args.span,
        )
    if query_mode:
        text = format_events(events)
    elif args.format == "summary":
        text = summarize_events(events)
    elif args.format == "chrome":
        text = chrome_trace_json(events, indent=2) + "\n"
    elif args.format == "jsonl":
        text = events_to_jsonl(events)
    else:  # spacetime
        from repro.viz import render_spacetime

        trace = trace_from_events(events)
        text = render_spacetime(trace, cuts=trace.all_straight_cuts())
    _write(args.output or "-", text)
    return 0


def _cmd_metrics_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import (
        Threshold,
        diff_metrics,
        format_diff,
        load_metrics,
        parse_threshold_rule,
    )

    try:
        rules = [parse_threshold_rule(text) for text in args.threshold]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    default = Threshold(
        min_ratio=args.default_min, max_ratio=args.default_max
    )
    report = diff_metrics(
        load_metrics(args.before),
        load_metrics(args.after),
        rules=rules,
        default=default,
    )
    print(format_diff(report, verbose=args.verbose), end="")
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.campaign import ExecutorPolicy
    from repro.protocols import RECOVERING_PROTOCOLS
    from repro.runtime.chaos import (
        ChaosConfig,
        cell_label,
        chaos_sweep,
        describe,
        draw_schedule,
        unrecoverable,
    )

    config = ChaosConfig(
        recovery_fault_probability=args.recovery_faults,
        **_run_knobs(args, *_CHAOS_KNOBS),
    )
    protocols = tuple(args.protocol or RECOVERING_PROTOCOLS)
    result = chaos_sweep(
        range(args.seeds),
        protocols=protocols,
        config=config,
        artifacts_dir=args.artifacts,
        jobs=args.jobs,
        policy=ExecutorPolicy(timeout=args.timeout, max_retries=args.retries),
        journal_path=args.resume,
    )
    failures = unrecoverable_runs = 0
    for protocol in sorted(set(protocols)):
        for seed in range(args.seeds):
            outcome = result.cells[cell_label(seed, protocol)]
            verdict = describe(outcome, draw_schedule(seed, config))
            print(f"{protocol:>14s} seed {seed:>3d}: {verdict}")
            failures += outcome.error is not None
            unrecoverable_runs += unrecoverable(outcome)
    summary = f"{len(result.cells)} cell(s), {failures} failure(s)"
    if unrecoverable_runs:
        summary += f", {unrecoverable_runs} clean unrecoverable verdict(s)"
    print(summary)
    if any(result.executor.as_dict().values()):
        print(f"resilience: {result.executor.describe()}")
    if args.metrics_out:
        from repro.obs.rollup import campaign_rollup, rollup_to_json

        _write(args.metrics_out, rollup_to_json(campaign_rollup(result)),
               "metrics rollup")
    if failures and args.artifacts:
        print(f"# diagnostics under {args.artifacts}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        ExecutorPolicy,
        load_campaign,
        quick_campaign,
        run_campaign,
    )

    if args.campaign == "@quick":
        specs = quick_campaign()
    elif args.campaign.startswith("@"):
        print(
            f"error: unknown built-in campaign {args.campaign!r}; "
            "available: @quick",
            file=sys.stderr,
        )
        return 2
    else:
        specs = load_campaign(Path(args.campaign).read_text())
    overrides = _run_knobs(args, *_CAMPAIGN_KNOBS)
    specs = [replace(spec, **overrides) for spec in specs]
    progress = None
    if args.progress:
        from repro.obs.progress import ProgressReporter

        progress = ProgressReporter()
    tracker = None
    if args.spans_out:
        from repro.obs.spans import SpanTracker

        tracker = SpanTracker()
    result = run_campaign(
        specs,
        jobs=args.jobs,
        policy=ExecutorPolicy(
            timeout=args.timeout, max_retries=args.retries
        ),
        journal_path=args.resume,
        progress=progress,
        tracker=tracker,
    )
    width = max((len(cell.label) for cell in result.cells.values()),
                default=5)
    print(f"{'cell':<{width}s} {'ok':>4s} {'ckpts':>6s} {'msgs':>6s} "
          f"{'sim-time':>9s} {'wall-ms':>8s}")
    for label, cell in result.cells.items():
        wall = result.timings[label] * 1e3
        if cell.error is not None:
            print(f"{label:<{width}s} {'ERR':>4s} {cell.error}")
            continue
        stats = cell.stats or {}
        print(f"{label:<{width}s} {'yes' if cell.ok else 'NO':>4s} "
              f"{stats.get('checkpoints', 0):>6d} "
              f"{stats.get('app_messages', 0):>6d} "
              f"{cell.completion_time:>9.3f} {wall:>8.1f}")
    failures = len(result.failures)
    print(f"{len(result.cells)} cell(s), {failures} failure(s), "
          f"jobs={result.jobs}")
    print(f"resilience: {result.executor.describe()}")
    if args.results_json:
        _write(args.results_json, result.to_json() + "\n", "results")
        _write_event_logs(result, args.results_json)
    if args.metrics_out:
        from repro.obs.rollup import campaign_rollup, rollup_to_json

        _write(args.metrics_out, rollup_to_json(campaign_rollup(result)),
               "metrics rollup")
    if tracker is not None:
        _write(args.spans_out, tracker.chrome_trace_json(indent=2) + "\n",
               "span trace")
    return 1 if failures else 0


def _write_event_logs(result, results_path: str) -> None:
    """Store each distinct cell event log once, as ``PATH.logs/SHA.jsonl``.

    The artifact at *results_path* indexes every log by its
    ``event_sha256``; the file of that name holds the log's text as the
    cell produced it. A ``.jsonl`` file of an earlier run that this
    artifact does not index is removed, so the directory matches the
    artifact beside it. Stdout has no sidecar directory.
    """
    logs = {
        cell.event_sha256: cell.events_jsonl
        for cell in result.cells.values() if cell.events_jsonl is not None
    }
    if results_path == "-":
        if logs:
            print(f"# {len(logs)} event log(s) not written: --results-json "
                  f"- has no PATH.logs directory", file=sys.stderr)
        return
    directory = Path(f"{results_path}.logs")
    if directory.is_dir():
        for stale in directory.glob("*.jsonl"):
            if stale.stem not in logs:
                stale.unlink()
    if not logs:
        return
    directory.mkdir(exist_ok=True)
    for digest, text in sorted(logs.items()):
        (directory / f"{digest}.jsonl").write_text(
            text, encoding="utf-8", newline=""
        )
    print(f"# wrote {len(logs)} event log(s) to {directory}", file=sys.stderr)


def _cmd_optimal(args: argparse.Namespace) -> int:
    from repro.analysis.parameters import ModelParameters
    from repro.analysis.sensitivity import optimal_table

    counts = tuple(args.n) if args.n else (16, 64, 256, 512)
    print("Per-protocol optimal checkpoint intervals (T*) and ratios (r*)")
    print(optimal_table(ModelParameters(), counts))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Application-driven coordination-free checkpointing",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    programs = commands.add_parser("programs", help="list shipped programs")
    programs.set_defaults(func=_cmd_programs)

    verify = commands.add_parser("verify", help="check Condition 1")
    _add_program_argument(verify)
    verify.add_argument("--loop-optimization", action="store_true")
    verify.add_argument("--max-violations", type=int, default=5)
    verify.set_defaults(func=_cmd_verify)

    lint = commands.add_parser("lint", help="static program validation")
    _add_program_argument(lint)
    lint.add_argument("--param", action="append", metavar="NAME",
                      help="declare a run-time parameter (default: steps)")
    lint.set_defaults(func=_cmd_lint)

    transform = commands.add_parser("transform", help="run Phases I-III")
    _add_program_argument(transform)
    transform.add_argument("-o", "--output", help="write result here")
    transform.add_argument("--loop-optimization", action="store_true")
    transform.add_argument("--force-insertion", action="store_true")
    transform.add_argument("--checkpoint-overhead", type=float, default=10.0)
    transform.add_argument("--failure-rate", type=float, default=0.002)
    transform.add_argument("--steps", type=int, default=0,
                           help="value of the 'steps' parameter for costing")
    transform.add_argument("--cache", metavar="DIR",
                           help="content-addressed transform cache "
                                "directory; repeated transforms of the "
                                "same program are served from it")
    transform.add_argument("--spans-out", metavar="PATH",
                           help="write the per-phase spans (Phase I-IV "
                                "wall timings) as Chrome trace-event JSON")
    transform.set_defaults(func=_cmd_transform)

    cfg = commands.add_parser("cfg", help="dump the CFG as DOT")
    _add_program_argument(cfg)
    cfg.add_argument("--extended", action="store_true",
                     help="include Phase II message edges")
    cfg.set_defaults(func=_cmd_cfg)

    simulate = commands.add_parser("simulate", help="run on the simulator")
    _add_program_argument(simulate)
    simulate.add_argument("-n", type=int, default=4, help="process count")
    simulate.add_argument("--steps", type=int, default=5)
    simulate.add_argument("--crash", type=_event_parser("crashes", "crash"),
                          action="append", default=[], metavar="TIME:RANK")
    simulate.add_argument("--fault", type=_event_parser(None, "fault"),
                          action="append", default=[], metavar="KIND:...",
                          help=_fault_help())
    simulate.add_argument("--fault-plan", metavar="PATH",
                          help="JSON file with crashes, storage_faults, "
                               "network_faults, and recovery_faults")
    simulate.add_argument("--protocol", choices=protocol_names(),
                          default="appl-driven")
    _add_run_flags(simulate, *_SIMULATE_KNOBS)
    simulate.add_argument("--period", type=float, default=10.0,
                          help="checkpoint period for timer protocols")
    simulate.add_argument("--spacetime", action="store_true",
                          help="print an ASCII space-time diagram")
    simulate.add_argument("--trace-out", metavar="PATH",
                          help="record the run's observability event log "
                               "(vector-clock-stamped JSONL; see "
                               "'repro trace')")
    simulate.add_argument("--metrics-out", metavar="PATH",
                          help="write the run's metrics registry as JSON: "
                               "the derived counters, gauges and "
                               "histograms plus the run's stats as "
                               "stats.* rows (the per-cell entry of a "
                               "campaign rollup)")
    simulate.add_argument("--stats-json", metavar="PATH",
                          help="write SimulationStats as JSON ('-' for "
                               "stdout)")
    simulate.set_defaults(func=_cmd_simulate)

    figures = commands.add_parser("figures", help="print Figure 8/9 tables")
    figures.add_argument("--figure", choices=("8", "9", "both"),
                         default="both")
    figures.add_argument("--chart", action="store_true",
                         help="also draw ASCII charts (log-scale y)")
    figures.set_defaults(func=_cmd_figures)

    compare = commands.add_parser(
        "compare", help="run every protocol on one workload"
    )
    compare.add_argument("workload", help="a standard workload name")
    compare.add_argument("--steps", type=int, default=12)
    compare.add_argument("--period", type=float, default=6.0)
    compare.add_argument("--crash", type=_event_parser("crashes", "crash"),
                         action="append", default=[], metavar="TIME:RANK")
    compare.set_defaults(func=_cmd_compare)

    analyze = commands.add_parser(
        "analyze", help="consistency analysis of a recorded run"
    )
    analyze.add_argument("log", help="path to a JSONL event log "
                                     "(simulate --trace-out)")
    analyze.set_defaults(func=_cmd_analyze)

    trace = commands.add_parser(
        "trace", help="inspect, filter, or convert a recorded JSONL "
                      "event log"
    )
    trace.add_argument("log", help="path to a JSONL event log "
                                   "(--trace-out or a flight-recorder "
                                   "dump), or the word 'query' followed "
                                   "by the log path to list matching "
                                   "events")
    trace.add_argument("query_log", nargs="?", help=argparse.SUPPRESS)
    trace.add_argument("--format", choices=("summary", "chrome", "jsonl",
                                            "spacetime"),
                       default="summary",
                       help="summary digest, Chrome trace-event JSON "
                            "(load in chrome://tracing or Perfetto), "
                            "normalised JSONL, or an ASCII space-time "
                            "diagram with recovery lines")
    trace.add_argument("--rank", type=int, action="append", metavar="R",
                       help="keep only events published by rank R "
                            "(repeatable)")
    trace.add_argument("--category", action="append", metavar="CAT",
                       help="keep only events of this category "
                            "(engine, transport, storage, protocol, "
                            "span; repeatable)")
    trace.add_argument("--kind", action="append", metavar="NAME",
                       help="keep only events with this name "
                            "(e.g. checkpoint, retransmit; repeatable)")
    trace.add_argument("--since", type=float, default=None, metavar="T",
                       help="keep only events at simulated time >= T")
    trace.add_argument("--until", type=float, default=None, metavar="T",
                       help="keep only events at simulated time <= T")
    trace.add_argument("--span", metavar="NAME",
                       help="keep only events inside a recorded span "
                            "of this name (e.g. recovery.attempt)")
    trace.add_argument("-o", "--output", metavar="PATH",
                       help="write here instead of stdout")
    trace.set_defaults(func=_cmd_trace)

    metrics = commands.add_parser(
        "metrics", help="work with metric JSON artifacts"
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command",
                                         required=True)
    metrics_diff = metrics_sub.add_parser(
        "diff", help="compare two metrics/rollup JSON files "
                     "with per-metric ratio thresholds"
    )
    metrics_diff.add_argument("before", help="baseline metrics JSON "
                                             "(registry dump or campaign "
                                             "rollup)")
    metrics_diff.add_argument("after", help="current metrics JSON of "
                                            "either schema")
    metrics_diff.add_argument("--threshold", action="append", default=[],
                              metavar="PATTERN:min=X[,max=Y]",
                              help="ratio bound for metrics matching "
                                   "the fnmatch PATTERN, e.g. "
                                   "'*retransmits:max=2' (repeatable; "
                                   "first match wins)")
    metrics_diff.add_argument("--default-min", type=float, default=None,
                              metavar="R",
                              help="floor on after/before for metrics "
                                   "no --threshold matches")
    metrics_diff.add_argument("--default-max", type=float, default=None,
                              metavar="R",
                              help="ceiling on after/before for metrics "
                                   "no --threshold matches")
    metrics_diff.add_argument("-v", "--verbose", action="store_true",
                              help="also print passing and added/"
                                   "removed metrics")
    metrics_diff.set_defaults(func=_cmd_metrics_diff)

    chaos = commands.add_parser(
        "chaos", help="run the chaos sweep; dump diagnostics on failure"
    )
    chaos.add_argument("--seeds", type=int, default=10,
                       help="number of schedule seeds per protocol")
    chaos.add_argument("--protocol", action="append", metavar="NAME",
                       help="protocol(s) to sweep (default: all that recover)")
    _add_run_flags(chaos, *_CHAOS_KNOBS, flags={"seed": "--sim-seed"})
    chaos.add_argument("--recovery-faults", type=float, default=0.0,
                       metavar="P",
                       help="per-slot probability of drawing a "
                            "recovery-time fault (nested crash, "
                            "restore-read failure, lost control traffic) "
                            "alongside each crash")
    chaos.add_argument("--artifacts", metavar="DIR",
                       help="on failure (or a clean unrecoverable "
                            "verdict), write flight-recorder dump, "
                            "schedule, and ddmin-shrunk counterexample here")
    _add_executor_flags(chaos, jobs=1)
    chaos.add_argument("--metrics-out", metavar="PATH",
                       help="write the sweep's metric rollup "
                            "(deterministic aggregate + per-cell "
                            "verdict counters) as JSON")
    chaos.set_defaults(func=_cmd_chaos)

    campaign = commands.add_parser(
        "campaign", help="run a declarative scenario campaign in parallel"
    )
    campaign.add_argument("campaign",
                          help="path to a campaign JSON file "
                               '({"cells": [...]} of scenario specs), '
                               "or @quick for the built-in demo matrix")
    _add_executor_flags(campaign, jobs=0)
    campaign.add_argument("--results-json", metavar="PATH",
                          help="write the deterministic campaign result "
                               "as JSON; each cell's event log goes to "
                               "PATH.logs/SHA256.jsonl ('-': the result "
                               "to stdout, no event logs)")
    campaign.add_argument("--metrics-out", metavar="PATH",
                          help="write the campaign metric rollup "
                               "(campaign_metrics.json: deterministic "
                               "aggregate + per-cell metrics, wall-clock "
                               "diagnostics separate) here")
    campaign.add_argument("--progress", action="store_true",
                          help="stream line-oriented progress to stderr "
                               "as cells finish (never part of any "
                               "artifact)")
    campaign.add_argument("--spans-out", metavar="PATH",
                          help="write the executor's cell-lifecycle "
                               "spans as Chrome trace-event JSON "
                               "(wall-clock; diagnostic only)")
    _add_run_flags(campaign, *_CAMPAIGN_KNOBS, override=True)
    campaign.set_defaults(func=_cmd_campaign)

    optimal = commands.add_parser(
        "optimal", help="per-protocol optimal checkpoint intervals"
    )
    optimal.add_argument("-n", type=int, action="append",
                         help="system size(s) to tabulate")
    optimal.set_defaults(func=_cmd_optimal)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, UnicodeDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
