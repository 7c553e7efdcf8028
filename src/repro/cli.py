"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``run``      — run one workload on one predictor, print the metrics.
- ``sweep``    — run a set of workloads across a set of predictors.
- ``trace``    — capture a branch trace to npz (replay it with
  ``run --backend replay --workload FILE.npz``).
- ``area``     — area breakdown of a predictor (Fig. 8 style).
- ``storage``  — Table-I style storage summary of the three presets.
- ``topology`` — parse and describe a topology string (sanity check).
- ``golden``   — check or regenerate the committed golden-stats snapshot.
- ``check``    — static analysis: topology, component contracts, lints.
- ``fuzz``     — differential fuzzing: run a campaign or replay a
  minimized reproducer artifact (see ``docs/fuzzing.md``).
- ``serve``    — run the long-lived evaluation service (asyncio HTTP job
  server over the parallel engine; see ``docs/service.md``).
- ``submit``   — submit evaluation jobs to a running service and report
  per-job results, warm-hit and dedup counts.
- ``explore``  — budgeted evolutionary search over the topology grammar:
  Pareto front of MPKI vs area vs predict latency, resumable via the
  result cache (see ``docs/explore.md``).

``run`` and ``sweep`` take ``--backend {cycle,trace,replay}`` to pick the
execution methodology (see ``docs/backends.md``); workloads are named
through :mod:`repro.workloads.registry`, so a stored-trace ``.npz`` path
is a valid workload spelling for the ``replay`` backend.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import presets
from repro.core import compose
from repro.eval import harmonic_mean, run_suite, run_workload
from repro.eval.metrics import arithmetic_mean
from repro.eval.parallel import build_predictor
from repro.frontend import CoreConfig
from repro.fuzz.oracles import ORACLES as FUZZ_ORACLES
from repro.synthesis import AreaModel, EnergyModel, format_breakdown
from repro.synthesis.report import format_matrix
from repro.workloads import SPECINT_NAMES
from repro.workloads.registry import resolve_workload

BACKEND_NAMES = ("cycle", "trace", "replay")

#: What ``sweep --workloads all`` expands to: the benchmark suite (micro
#: kernels stay opt-in by name).
BENCH_WORKLOADS = tuple(SPECINT_NAMES) + ("dhrystone", "coremark")


def _cmd_run(args) -> int:
    source = resolve_workload(args.workload, args.scale)
    predictor = build_predictor(args.predictor)
    config = CoreConfig(sfb_enabled=args.sfb)
    result = run_workload(
        predictor,
        source,
        config,
        max_instructions=args.max_instructions,
        system_name=args.predictor,
        telemetry=args.telemetry or args.trace is not None,
        trace_path=args.trace,
        backend=args.backend,
    )
    print(f"backend: {result.backend}")
    print(result.row())
    print(
        f"  branches={result.branches} mispredicts={result.branch_mispredicts} "
        f"indirect-misses={result.target_mispredicts} flushes={result.flushes}"
    )
    if args.energy:
        epi = EnergyModel().energy_per_instruction(predictor, result.instructions)
        print(f"  predictor energy: {epi:.1f} pJ/instruction")
    if result.telemetry is not None:
        from repro.eval.profiler import format_attribution
        from repro.telemetry import format_summary

        print()
        print(format_summary(result.telemetry))
        if source.program is not None:
            print()
            print(format_attribution(result.telemetry, source.program))
    if args.trace is not None:
        print(f"\nevent trace written to {args.trace}")
    return 0


def _cmd_sweep(args) -> int:
    names = (
        list(BENCH_WORKLOADS)
        if args.workloads == ["all"]
        else args.workloads
    )
    programs = {}
    for name in names:
        source = resolve_workload(name, args.scale)
        programs[source.name] = (
            source.program if source.program is not None else source.trace_path
        )
    results = run_suite(
        args.predictors,
        programs,
        jobs=args.jobs,
        cache=args.cache,
        telemetry=args.telemetry,
        backend=args.backend,
    )
    mpki = {s: {w: r.mpki for w, r in rows.items()} for s, rows in results.items()}
    for system in results:
        mpki[system]["MEAN"] = arithmetic_mean(list(mpki[system].values()))
    print(f"backend: {args.backend}")
    print("MPKI:")
    print(format_matrix(mpki, value_format="{:7.1f}", col_width=10))
    if args.backend == "cycle":
        # Trace-driven backends carry no timing, so IPC is cycle-only.
        ipc = {
            s: {w: r.ipc for w, r in rows.items()} for s, rows in results.items()
        }
        for system in results:
            ipc[system]["HMEAN"] = harmonic_mean(list(ipc[system].values()))
        print("\nIPC:")
        print(format_matrix(ipc, value_format="{:7.2f}", col_width=10))
    if args.telemetry:
        from repro.telemetry import format_component_table

        for system, rows in results.items():
            for workload, result in rows.items():
                if result.telemetry is None:
                    continue
                print(f"\n{system} / {workload}:")
                print(format_component_table(result.telemetry))
    return 0


def _cmd_golden(args) -> int:
    from repro.eval import golden

    path = args.path or golden.DEFAULT_GOLDEN_PATH

    def progress(preset: str, workload: str) -> None:
        print(f"  running {preset} / {workload} ...", flush=True)

    if args.update:
        print(f"regenerating golden snapshot at {path}")
        golden.update_goldens(path, progress=progress)
        print("done")
        return 0
    print(f"checking fresh runs against {path}")
    ok, messages = golden.check_goldens(path, progress=progress)
    if ok:
        print("golden stats match")
        return 0
    print(f"GOLDEN STATS MISMATCH ({len(messages)} differences):")
    for message in messages:
        print(f"  {message}")
    print(
        "if the change is intentional, regenerate with "
        "`repro golden --update` and commit the diff"
    )
    return 1


def _cmd_trace(args) -> int:
    source = resolve_workload(args.workload, args.scale)
    if source.program is None:
        print(f"{args.workload} is already a stored trace", file=sys.stderr)
        return 2
    trace = source.branch_trace(args.max_instructions)
    trace.save(args.out)
    print(
        f"captured {source.name}: {trace.instruction_count} instructions, "
        f"{len(trace)} branch records -> {args.out}"
    )
    return 0


def _cmd_area(args) -> int:
    predictor = build_predictor(args.predictor)
    model = AreaModel()
    print(f"{predictor.describe()}")
    print(f"direction storage: {predictor.direction_storage_kib():.1f} KiB")
    print(format_breakdown(model.predictor_breakdown(predictor)))
    print(f"share of core area: {model.predictor_fraction(predictor) * 100:.1f}%")
    return 0


def _cmd_storage(args) -> int:
    for name in presets.PRESET_NAMES:
        predictor = presets.build(name)
        print(
            f"{name:10s} {predictor.describe():44s} "
            f"direction={predictor.direction_storage_kib():6.1f} KiB  "
            f"total={predictor.total_storage_kib():6.1f} KiB"
        )
    return 0


def _cmd_topology(args) -> int:
    predictor = compose(args.spec)
    print(f"parsed:    {predictor.describe()}")
    print(f"depth:     {predictor.depth} cycles")
    print(f"components ({len(predictor.components)}):")
    for component in predictor.components:
        flags = []
        if component.uses_global_history:
            flags.append("ghist")
        if component.uses_local_history:
            flags.append("lhist")
        if getattr(component, "uses_path_history", False):
            flags.append("phist")
        if component.provides_targets:
            flags.append("targets")
        print(
            f"  {component.name:10s} latency={component.latency} "
            f"meta_bits={component.meta_bits:3d} "
            f"[{', '.join(flags) if flags else 'pc-only'}]"
        )
    return 0


def _cmd_check(args) -> int:
    from repro.analysis import diagnostics as diag_mod
    from repro.analysis.contracts import check_library
    from repro.analysis.lints import lint_paths
    from repro.analysis.topology_check import (
        DEFAULT_META_BUDGET,
        check_spec,
        check_topology,
    )
    from repro.core.composer import ComposerConfig

    run_topologies = list(args.topology or [])
    run_components = args.components
    run_lint = args.lint
    run_spec = args.spec
    if args.all:
        run_components = True
        run_lint = True
        run_spec = True
    if not (run_topologies or run_components or run_lint or run_spec):
        print(
            "nothing to check: pass --topology SPEC, --components, --lint, "
            "--spec, or --all",
            file=sys.stderr,
        )
        return 2

    # A typo'd --ignore code would otherwise silently suppress nothing and
    # let the intended diagnostic keep failing (or worse, a stale code
    # would read as if it were still being enforced).
    unknown_ignores = sorted(
        {code.strip().upper() for code in (args.ignore or []) if code.strip()}
        - set(diag_mod.RULES)
    )
    if unknown_ignores:
        known = ", ".join(sorted(diag_mod.RULES))
        print(
            f"unknown rule code(s) in --ignore: {', '.join(unknown_ignores)} "
            f"(known codes: {known})",
            file=sys.stderr,
        )
        return 2

    config_kwargs = {}
    if args.ghist_bits is not None:
        config_kwargs["global_history_bits"] = args.ghist_bits
    if args.lhist_bits is not None:
        config_kwargs["local_history_bits"] = args.lhist_bits
    config = ComposerConfig(**config_kwargs) if config_kwargs else None
    meta_budget = args.meta_budget or DEFAULT_META_BUDGET

    diags: List[diag_mod.Diagnostic] = []
    for spec in run_topologies:
        key = presets.preset_name(spec)
        if key is not None:
            predictor = presets.build(key)
            diags.extend(
                check_topology(
                    predictor.topology,
                    config or predictor.config,
                    meta_budget,
                    subject=key,
                )
            )
        else:
            diags.extend(check_spec(spec, config=config, meta_budget=meta_budget))
    if args.all:
        # Every shipped preset, analyzed against its own composed config.
        for name in presets.PRESET_NAMES:
            predictor = presets.build(name)
            diags.extend(
                check_topology(
                    predictor.topology,
                    predictor.config,
                    meta_budget,
                    subject=name,
                )
            )
    if run_components:
        diags.extend(check_library())
    if run_spec:
        from repro.analysis.spec_check import check_library_specs

        diags.extend(check_library_specs())
    if run_lint:
        diags.extend(lint_paths(args.lint_path or None))

    diags = diag_mod.filter_ignored(diags, args.ignore or [])
    code = diag_mod.exit_code(diags, strict=args.strict)
    if args.json:
        print(diag_mod.to_json(diags))
        return code
    for d in diags:
        print(d.format())
    errors = diag_mod.count_errors(diags)
    warnings = diag_mod.count_warnings(diags)
    print(f"repro check: {errors} error(s), {warnings} warning(s)")
    return code


def _cmd_fuzz(args) -> int:
    from repro.fuzz import FuzzConfig, run_campaign

    if args.action == "repro":
        from repro.fuzz import replay_reproducer

        outcome = replay_reproducer(args.reproducer)
        repro = outcome.reproducer
        print(f"reproducer: {args.reproducer}")
        print(f"oracle:     {repro.oracle}")
        print(f"case:       {repro.case.describe()}")
        if repro.generator_drift:
            print(
                "note: generators no longer rebuild this program from its "
                "spec; replaying the stored instruction columns"
            )
        if outcome.status == "clean":
            print("CLEAN: the recorded failure no longer reproduces")
        elif outcome.status == "reproduced":
            print(
                f"REPRODUCED: same {len(outcome.mismatches)} mismatch(es) "
                "as recorded"
            )
        else:
            print("DIVERGED: still failing, but differently than recorded")
        for mismatch in outcome.mismatches:
            print(mismatch.format())
        return outcome.exit_code

    # run
    oracles = args.oracles or list(FUZZ_ORACLES)
    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        oracles=tuple(oracles),
        max_instructions=args.max_instructions,
        include_presets=not args.no_presets,
        topologies=args.topology or None,
        out_dir=None if args.no_artifacts else Path(args.out_dir),
        minimize=not args.no_minimize,
        time_budget=args.budget,
        stop_after=args.stop_after,
    )
    progress = None if args.quiet else lambda line: print(line, flush=True)
    report = run_campaign(config, progress=progress)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_explore(args) -> int:
    from repro.explore import (
        ExploreConfig,
        check_explore_golden,
        explore,
        format_report,
        save_artifact,
        update_explore_golden,
    )
    from repro.explore.report import DEFAULT_GOLDEN_PATH, GOLDEN_EXPLORE_CONFIG

    golden_path = Path(args.golden_path or DEFAULT_GOLDEN_PATH)
    progress = None if args.quiet else lambda line: print(line, flush=True)

    if args.golden_update or args.golden_check:
        result = explore(GOLDEN_EXPLORE_CONFIG, progress=progress)
        if args.golden_update:
            path = update_explore_golden(golden_path, result=result)
            print(f"explore golden snapshot written to {path}")
            return 0
        ok, messages = check_explore_golden(golden_path, result=result)
        if ok:
            print("explore golden matches")
            return 0
        print(f"EXPLORE GOLDEN MISMATCH ({len(messages)} differences):")
        for message in messages:
            print(f"  {message}")
        print(
            "if the optimizer change is intentional, regenerate with "
            "`repro explore --golden-update` and commit the diff"
        )
        return 1

    config = ExploreConfig(
        seed=args.seed,
        generations=args.generations,
        population_size=args.population,
        budget_kib=args.budget_kib,
        workloads=tuple(args.workloads),
        scale=args.scale,
        max_instructions=args.max_instructions,
        backend=args.backend,
        jobs=args.jobs,
        cache=args.cache,
        eta=args.eta,
        rungs=args.rungs,
    )
    result = explore(config, progress=progress)
    print(format_report(result))
    if args.out is not None:
        save_artifact(Path(args.out), result)
        print(f"\nPareto artifact written to {args.out}")
    if args.require_improvement and not result.provenance["dominated_seeds"]:
        print(
            "FAIL: the front does not strictly dominate any seeded preset "
            "on MPKI-vs-area (--require-improvement)",
            file=sys.stderr,
        )
        return 1
    if not result.front:
        print("FAIL: empty Pareto front", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache,
        high_water=args.high_water,
        max_retries=args.retries,
        port_file=args.port_file,
        quiet=args.quiet,
    )
    if config.cache_dir is None and not args.no_cache:
        # Warm-cache hits are the point of running a service; default to a
        # private cache directory rather than silently recomputing.
        import tempfile

        config.cache_dir = tempfile.mkdtemp(prefix="repro-service-cache-")
        if not args.quiet:
            print(f"result cache: {config.cache_dir} (pass --cache DIR to pin)")
    return asyncio.run(serve(config))


def _cmd_submit(args) -> int:
    import asyncio
    import json

    from repro.service.client import ServiceClient, ServiceClientError

    port = args.port
    if args.port_file is not None:
        port = int(Path(args.port_file).read_text().strip())

    specs = []
    for predictor in args.predictors:
        for workload in args.workloads:
            spec = {
                "predictor": predictor,
                "workload": workload,
                "backend": args.backend,
                "scale": args.scale,
            }
            if args.max_instructions is not None:
                spec["max_instructions"] = args.max_instructions
            specs.extend([dict(spec)] * args.copies)

    async def drive():
        client = ServiceClient(host=args.host, port=port, timeout=args.timeout)
        response = await client.submit_batch(specs)
        views = response["jobs"]
        if args.wait:
            views = [
                await client.wait_job(v["id"], timeout=args.timeout)
                if v.get("state") not in ("done", "failed", "shed")
                else v
                for v in views
            ]
        return views, await client.metrics()

    try:
        views, metrics = asyncio.run(drive())
    except ServiceClientError as error:
        print(f"submit failed: {error}", file=sys.stderr)
        if error.retry_after is not None:
            print(f"retry after {error.retry_after:g}s", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as error:
        print(f"cannot reach service at {args.host}:{port}: {error}",
              file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps({"jobs": views, "metrics": metrics}, indent=2,
                         sort_keys=True))
    else:
        for view in views:
            spec = view.get("spec", {})
            tags = [t for t, on in (("cache-hit", view.get("cache_hit")),
                                    ("coalesced", view.get("coalesced")))
                    if on]
            line = (
                f"{view.get('id', '-'):>12s} {view['state']:7s} "
                f"{spec.get('predictor', '?'):12s} {spec.get('workload', '?'):14s}"
            )
            result = view.get("result")
            if result is not None:
                line += f" mpki={result['mpki']:7.2f}"
            if view.get("latency_seconds") is not None:
                line += f" {view['latency_seconds'] * 1000.0:8.1f}ms"
            if tags:
                line += f"  [{', '.join(tags)}]"
            if view.get("error"):
                line += f"  error: {view['error']}"
            print(line)
        print(
            f"submitted={len(views)} "
            f"cache_hits={sum(1 for v in views if v.get('cache_hit'))} "
            f"coalesced={sum(1 for v in views if v.get('coalesced'))} "
            f"shed={sum(1 for v in views if v['state'] == 'shed')} "
            f"(server: executions={metrics['executions']} "
            f"hit_rate={metrics['cache_hit_rate']})"
        )
    failed = [v for v in views if v["state"] in ("failed", "shed")]
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COBRA branch-predictor composition framework (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload on one predictor")
    run.add_argument("--predictor", default="tage_l",
                     help="preset name or topology string")
    run.add_argument("--workload", default="xz",
                     help="registered workload name or stored-trace .npz "
                          "path (replay backend)")
    run.add_argument("--scale", type=float, default=0.5)
    run.add_argument("--backend", default="cycle", choices=BACKEND_NAMES,
                     help="execution backend (see docs/backends.md)")
    run.add_argument("--max-instructions", type=int, default=None,
                     help="bound the run's architectural instruction count")
    run.add_argument("--sfb", action="store_true",
                     help="enable short-forwards-branch predication")
    run.add_argument("--energy", action="store_true",
                     help="also report predictor energy per instruction")
    run.add_argument("--telemetry", action="store_true",
                     help="attach the telemetry collector and print the "
                          "per-component attribution summary")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="write a bounded JSONL event trace to PATH "
                          "(implies --telemetry)")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="workloads x predictors matrix")
    sweep.add_argument("--predictors", nargs="+",
                       default=["tourney", "b2", "tage_l"],
                       help="preset names or topology strings")
    sweep.add_argument("--workloads", nargs="+", default=["all"])
    sweep.add_argument("--scale", type=float, default=0.3)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the (predictor, workload) "
                            "matrix (1 = serial)")
    sweep.add_argument("--cache", default=None, metavar="DIR",
                       help="directory for the deterministic result cache "
                            "(off when omitted)")
    sweep.add_argument("--telemetry", action="store_true",
                       help="attach telemetry collectors and print "
                            "per-component tables for every cell")
    sweep.add_argument("--backend", default="cycle", choices=BACKEND_NAMES,
                       help="execution backend for every cell (IPC table "
                            "is cycle-only)")
    sweep.set_defaults(func=_cmd_sweep)

    trace = sub.add_parser("trace", help="capture a branch trace to npz")
    trace_sub = trace.add_subparsers(dest="action", required=True)
    capture = trace_sub.add_parser(
        "capture", help="run a workload and store its branch trace"
    )
    capture.add_argument("--workload", default="xz",
                         help="registered workload name")
    capture.add_argument("--scale", type=float, default=0.5)
    capture.add_argument("--out", required=True, metavar="PATH",
                         help="output .npz path")
    capture.add_argument("--max-instructions", type=int, default=None,
                         help="capture budget (default: the trace backends' "
                              "shared 1M-instruction default)")
    capture.set_defaults(func=_cmd_trace)

    area = sub.add_parser("area", help="area breakdown of a predictor")
    area.add_argument("--predictor", default="tage_l",
                      help="preset name or topology string")
    area.set_defaults(func=_cmd_area)

    storage = sub.add_parser("storage", help="Table-I storage summary")
    storage.set_defaults(func=_cmd_storage)

    topology = sub.add_parser("topology", help="parse a topology string")
    topology.add_argument("spec")
    topology.set_defaults(func=_cmd_topology)

    golden = sub.add_parser(
        "golden", help="check or regenerate the golden-stats snapshot"
    )
    golden.add_argument("--check", action="store_true",
                        help="compare fresh runs against the snapshot "
                             "(the default action)")
    golden.add_argument("--update", action="store_true",
                        help="regenerate the snapshot from fresh runs")
    golden.add_argument("--path", default=None,
                        help="snapshot location (default: goldens/"
                             "golden_stats.json)")
    golden.set_defaults(func=_cmd_golden)

    check = sub.add_parser(
        "check",
        help="static analysis: topology structure, component contracts, "
             "source lints",
    )
    check.add_argument("--topology", action="append", metavar="SPEC",
                       help="analyze a topology string or preset name "
                            "(repeatable)")
    check.add_argument("--components", action="store_true",
                       help="drive every library component through the "
                            "interface-contract harness (CON rules)")
    check.add_argument("--lint", action="store_true",
                       help="run the reproducibility lints (RPR rules)")
    check.add_argument("--spec", action="store_true",
                       help="verify every library component against its "
                            "declarative ComponentSpec (SPEC rules)")
    check.add_argument("--all", action="store_true",
                       help="components + lints + specs + every shipped "
                            "preset topology")
    check.add_argument("--json", action="store_true",
                       help="emit the machine-readable diagnostics document "
                            "(see docs/static_analysis.md for the schema)")
    check.add_argument("--strict", action="store_true",
                       help="exit non-zero on warnings, not just errors")
    check.add_argument("--ignore", nargs="+", default=None, metavar="CODE",
                       help="suppress diagnostics by rule code")
    check.add_argument("--lint-path", action="append", default=None,
                       metavar="PATH",
                       help="lint these files/directories instead of "
                            "src/repro (repeatable)")
    check.add_argument("--ghist-bits", type=int, default=None,
                       help="analyze topologies against this global-history "
                            "length instead of the default config")
    check.add_argument("--lhist-bits", type=int, default=None,
                       help="analyze topologies against this local-history "
                            "length instead of the default config")
    check.add_argument("--meta-budget", type=int, default=None, metavar="BITS",
                       help="per-entry metadata budget for TOP007 "
                            "(default 256)")
    check.set_defaults(func=_cmd_check)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random (topology, workload) cases "
             "through the oracle battery",
    )
    fuzz_sub = fuzz.add_subparsers(dest="action", required=True)
    fuzz_run = fuzz_sub.add_parser(
        "run", help="run a seeded fuzz campaign"
    )
    fuzz_run.add_argument("--seed", type=int, default=0,
                          help="campaign seed; (seed, iteration) fully "
                               "determines every case")
    fuzz_run.add_argument("--iterations", type=int, default=50,
                          help="number of cases to draw")
    fuzz_run.add_argument("--oracles", nargs="+", default=None,
                          choices=sorted(FUZZ_ORACLES),
                          help="oracle subset (default: all)")
    fuzz_run.add_argument("--max-instructions", type=int, default=4000,
                          help="per-case instruction budget")
    fuzz_run.add_argument("--budget", type=float, default=None,
                          metavar="SECONDS",
                          help="wall-clock budget; stop drawing new cases "
                               "once exceeded")
    fuzz_run.add_argument("--stop-after", type=int, default=None,
                          metavar="N",
                          help="stop the campaign after N failing cases")
    fuzz_run.add_argument("--out-dir", default="fuzz-reproducers",
                          help="directory for minimized reproducer "
                               "artifacts")
    fuzz_run.add_argument("--no-artifacts", action="store_true",
                          help="report failures without writing artifacts")
    fuzz_run.add_argument("--no-minimize", action="store_true",
                          help="keep failing cases unshrunk")
    fuzz_run.add_argument("--no-presets", action="store_true",
                          help="draw only random topologies (skip the "
                               "shipped-preset cases)")
    fuzz_run.add_argument("--topology", action="append", metavar="SPEC",
                          help="fuzz this fixed topology instead of random "
                               "draws (repeatable)")
    fuzz_run.add_argument("--quiet", action="store_true",
                          help="suppress per-case progress lines")
    fuzz_run.set_defaults(func=_cmd_fuzz)
    fuzz_repro = fuzz_sub.add_parser(
        "repro", help="replay a stored reproducer artifact"
    )
    fuzz_repro.add_argument("reproducer", help="reproducer .npz path")
    fuzz_repro.set_defaults(func=_cmd_fuzz)

    explore = sub.add_parser(
        "explore",
        help="budgeted Pareto search over the topology design space",
    )
    explore.add_argument("--seed", type=int, default=0,
                         help="search seed; fully determines the run")
    explore.add_argument("--generations", type=int, default=3)
    explore.add_argument("--population", type=int, default=12,
                         help="candidates per generation")
    explore.add_argument("--budget-kib", type=float, default=96.0,
                         help="per-candidate total storage budget (KiB)")
    explore.add_argument("--workloads", nargs="+",
                         default=["biased", "dispatch", "pattern_short",
                                  "counted_loops", "pattern_long"],
                         help="workload suite, cheap first (halving "
                              "prefixes follow this order)")
    explore.add_argument("--scale", type=float, default=0.2)
    explore.add_argument("--max-instructions", type=int, default=4000,
                         help="per-evaluation instruction budget")
    explore.add_argument("--backend", default="trace", choices=BACKEND_NAMES,
                         help="fitness backend (trace is the cheap default)")
    explore.add_argument("--jobs", type=int, default=1,
                         help="worker processes per evaluation batch")
    explore.add_argument("--cache", default=None, metavar="DIR",
                         help="result-cache directory; reruns with the "
                              "same seed replay from it with zero cold "
                              "evaluations")
    explore.add_argument("--eta", type=int, default=2,
                         help="halving promotion factor (keep best 1/eta)")
    explore.add_argument("--rungs", type=int, default=3,
                         help="halving rungs over the workload suite")
    explore.add_argument("--out", default=None, metavar="PATH",
                         help="write the Pareto artifact (JSON) here")
    explore.add_argument("--require-improvement", action="store_true",
                         help="exit non-zero unless the front strictly "
                              "dominates a seeded preset on MPKI-vs-area")
    explore.add_argument("--golden-check", action="store_true",
                         help="re-run the frozen tiny search and compare "
                              "against the committed snapshot")
    explore.add_argument("--golden-update", action="store_true",
                         help="regenerate the committed snapshot")
    explore.add_argument("--golden-path", default=None, metavar="PATH",
                         help="snapshot location (default: goldens/"
                              "golden_explore.json)")
    explore.add_argument("--quiet", action="store_true",
                         help="suppress per-generation progress lines")
    explore.set_defaults(func=_cmd_explore)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived evaluation service (HTTP job server)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 = pick a free port; see "
                            "--port-file)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes for cold jobs")
    serve.add_argument("--cache", default=None, metavar="DIR",
                       help="result-cache directory (default: a fresh "
                            "private temp dir)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely")
    serve.add_argument("--high-water", type=int, default=64,
                       help="backlog bound before submissions are shed "
                            "with 429")
    serve.add_argument("--retries", type=int, default=2,
                       help="per-job requeues after a worker death")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port here once listening "
                            "(for --port 0 orchestration)")
    serve.add_argument("--quiet", action="store_true")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit evaluation jobs to a running service"
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8765)
    submit.add_argument("--port-file", default=None, metavar="PATH",
                        help="read the port from this file (written by "
                             "`repro serve --port-file`)")
    submit.add_argument("--predictors", nargs="+", default=["tourney"],
                        help="preset names or topology strings")
    submit.add_argument("--workloads", nargs="+", default=["biased"],
                        help="registered workload names or .npz paths")
    submit.add_argument("--backend", default="cycle", choices=BACKEND_NAMES)
    submit.add_argument("--scale", type=float, default=0.5)
    submit.add_argument("--max-instructions", type=int, default=None)
    submit.add_argument("--copies", type=int, default=1,
                        help="submit each job N times in one batch "
                             "(duplicates coalesce server-side)")
    submit.add_argument("--no-wait", dest="wait", action="store_false",
                        help="return job ids immediately instead of "
                             "long-polling for results")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="overall wait budget per job (seconds)")
    submit.add_argument("--json", action="store_true",
                        help="emit machine-readable job views + a metrics "
                             "snapshot")
    submit.set_defaults(func=_cmd_submit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
