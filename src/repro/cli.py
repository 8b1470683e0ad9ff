"""Command-line interface.

Mirrors how the paper's tool is driven: a binary (here: a MiniC program or
the built-in WFS case study) plus the three tQUAD options — time slice
interval, stack-area inclusion, and library exclusion.

Examples::

    tquad profile app.mc --tool tquad --interval 5000
    tquad profile app.mc --tool gprof
    tquad wfs --preset tiny --phases
    tquad disasm app.mc

Capture once, analyze many (see ``docs/capture.md``)::

    tquad capture run app.mc --out app.capture --interval 500
    tquad profile app.mc --from-capture app.capture --interval 4000
    tquad profile app.mc --tool gprof --from-capture app.capture
    tquad capture info app.capture

Batched sweeps — one capture pass, a whole config grid::

    tquad sweep app.mc --intervals 500,1000,4000 \\
        --stacks both,exclude --libs include,exclude --json grid.json
    tquad sweep app.mc --intervals 1000,2000 --from-capture app.capture
"""

from __future__ import annotations

import argparse
import sys

from .analysis import bandwidth_strips, cluster_kernels
from .apps.wfs import PRESETS, build_wfs_program, make_workspace
from .core import (TQuadOptions, cluster_kernel_phases, detect_phases,
                   run_tquad)
from .gprofsim import run_gprof
from .isa import disassemble
from .minic import build_program
from .pin import PinEngine
from .quad import QuadTool, run_quad
from .vm import run_program


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    if path.endswith(".s"):
        from .asmkit import assemble

        return assemble(source)
    return build_program(source)


def _bad_usage(message: str) -> int:
    """Uniform operand-validation failure: message on stderr, exit code 2
    (matching argparse's own usage-error convention)."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _validate_profile_args(args: argparse.Namespace) -> int | None:
    if getattr(args, "interval", 1) <= 0:
        return _bad_usage("--interval must be a positive instruction count")
    if (getattr(args, "stats", False)
            and getattr(args, "tool", "") != "quad"
            and not getattr(args, "from_capture", None)):
        return _bad_usage("--stats requires --tool quad or --from-capture")
    from_capture = getattr(args, "from_capture", None)
    capture_out = getattr(args, "capture_out", None)
    if from_capture and capture_out:
        return _bad_usage("--from-capture and --capture-out are mutually "
                          "exclusive (one reads a capture, one records it)")
    if from_capture:
        if getattr(args, "cache", False) or getattr(args, "imix", False):
            return _bad_usage("--cache/--imix re-execute the guest and "
                              "cannot be combined with --from-capture")
        if getattr(args, "report", None):
            return _bad_usage("--report re-executes the guest and cannot "
                              "be combined with --from-capture")
    if capture_out and getattr(args, "report", None):
        return _bad_usage("--report cannot be combined with --capture-out")
    err = _parse_replay_args(args)
    if err is not None:
        return err
    if args.mem_limit_bytes is not None and not (from_capture
                                                 or capture_out):
        return _bad_usage("--mem-limit bounds capture replay; combine it "
                          "with --from-capture or --capture-out")
    if args.approx is not None:
        if getattr(args, "tool", "tquad") != "tquad":
            return _bad_usage("--approx is a sampled tQUAD replay; it "
                              "requires --tool tquad")
        if not (from_capture or capture_out):
            return _bad_usage("--approx replays from a capture; combine "
                              "it with --from-capture or --capture-out")
    return None


def _parse_replay_args(args: argparse.Namespace) -> int | None:
    """Resolve the :func:`replay_flags` a command has: ``--mem-limit``
    into ``args.mem_limit_bytes`` and a checked ``--approx`` rate
    (exit-2 on a malformed value); absent flags read as ``None``."""
    text = getattr(args, "mem_limit", None)
    args.mem_limit_bytes = None
    args.approx = getattr(args, "approx", None)
    if text is not None:
        from .capture.streaming import parse_mem_limit

        try:
            args.mem_limit_bytes = parse_mem_limit(text)
        except ValueError as exc:
            return _bad_usage(f"--mem-limit: {exc}")
    if args.approx is not None and not (0.0 < args.approx < 1.0):
        return _bad_usage("--approx takes a sampling rate strictly "
                          "between 0 and 1 (e.g. 0.05)")
    return None


def _open_capture(path: str, program, label: str = "",
                  page_cache: bool = True):
    """Open + validate a capture for replaying ``program``; raises
    :class:`repro.capture.CaptureError` with an operator-facing message.

    ``label`` is the expected workload identity (``"<app>-<preset>"``):
    presets differing only in workspace data share a binary, so the
    digest check alone would replay the wrong preset's capture silently.
    """
    from .capture import CaptureReader, check_label, check_program

    reader = CaptureReader(path, page_cache=page_cache)
    check_program(reader.manifest, program)
    check_label(reader.manifest, label)
    return reader


def _captured_report(args: argparse.Namespace, program, options, *,
                     fs=None, label: str = ""):
    """Resolve the report when ``--from-capture``/``--capture-out`` is in
    play.  Returns the tool's report object, or an ``int`` exit code.

    ``--capture-out`` records the run and then *replays the freshly
    written file* for printing — one execution, and the printed output
    exercises the same path a later ``--from-capture`` will take.
    """
    from .capture import (CaptureError, CaptureReader, capture_run,
                          replay_gprof, replay_quad, replay_tquad)

    tool = getattr(args, "tool", "tquad")
    if getattr(args, "capture_out", None):
        capture_run(program, args.capture_out, fs=fs, options=options,
                    tools=(tool,), label=label,
                    max_instructions=getattr(args, "budget", None))
        print(f"wrote {args.capture_out}", file=sys.stderr)
        source = args.capture_out
    else:
        source = args.from_capture
    page_cache = not getattr(args, "no_page_cache", False)
    try:
        if getattr(args, "capture_out", None):
            # fresh file: digest matches
            reader = CaptureReader(source, page_cache=page_cache)
        else:
            reader = _open_capture(source, program, label,
                                   page_cache=page_cache)
        mem_limit = args.mem_limit_bytes
        with reader:
            if tool == "tquad" and args.approx is not None:
                from .capture import approx_replay_tquad

                result = approx_replay_tquad(
                    reader, options, rate=args.approx,
                    seed=args.approx_seed, mem_limit=mem_limit)
            elif tool == "tquad":
                result = replay_tquad(reader, options,
                                      mem_limit=mem_limit)
            elif tool == "quad":
                result = replay_quad(reader, mem_limit=mem_limit)
            else:
                result = replay_gprof(reader, mem_limit=mem_limit)
            if getattr(args, "stats", False) and getattr(
                    args, "from_capture", None):
                print(reader.format_stats(), file=sys.stderr)
            return result
    except CaptureError as err:
        return _bad_usage(str(err))


def _start_trace(args: argparse.Namespace):
    """If ``--trace-out`` was given, switch span tracing on and open a
    top-level span covering the whole command; returns it (or ``None``)."""
    if not getattr(args, "trace_out", None):
        return None
    from . import obs

    obs.reset()
    obs.enable()
    span = obs.TELEMETRY.span(args.command, cat="cli")
    span.__enter__()
    return span


def _finish_trace(args: argparse.Namespace, span) -> None:
    """Close the command span, write the Chrome trace JSON and print the
    timing summary to stderr (stdout stays byte-identical to an untraced
    run — reports only)."""
    if span is None:
        return
    from . import obs

    span.__exit__(None, None, None)
    obs.disable()
    obs.write_chrome_trace(obs.TELEMETRY, args.trace_out)
    print(f"wrote {args.trace_out}", file=sys.stderr)
    print(obs.summary_table(obs.TELEMETRY), file=sys.stderr)


def _cmd_profile(args: argparse.Namespace) -> int:
    err = _validate_profile_args(args)
    if err is not None:
        return err
    program = _load_program(args.file)
    trace = _start_trace(args)
    try:
        return _profile_body(args, program)
    finally:
        _finish_trace(args, trace)


def _profile_body(args: argparse.Namespace, program) -> int:
    options = TQuadOptions(slice_interval=args.interval,
                           exclude_libraries=args.exclude_libs)
    captured = None
    if args.from_capture or args.capture_out:
        captured = _captured_report(args, program, options)
        if isinstance(captured, int):
            return captured
    if args.tool == "tquad":
        report = (captured if captured is not None else
                  run_tquad(program, options=options,
                            max_instructions=args.budget))
        approx_result = None
        if captured is not None:
            from .capture.approx import ApproxTQuadReplay

            if isinstance(captured, ApproxTQuadReplay):
                approx_result = captured
                report = captured.report
        if args.json:
            if approx_result is not None:
                from .serialize import approx_to_json as _to_json

                payload = _to_json(approx_result)
            else:
                from .serialize import tquad_to_json

                payload = tquad_to_json(report)
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload)
            print(f"wrote {args.json}", file=sys.stderr)
        print(report.format_table(top=args.top))
        if approx_result is not None:
            print()
            print("\n".join(approx_result.summary_lines()))
        if args.figure:
            kernels = report.top_kernels(args.top or 10)
            names, mat = report.bandwidth_matrix(
                kernels, write=args.writes,
                include_stack=not args.exclude_stack)
            print()
            print(bandwidth_strips(names, mat, interval=report.interval))
        if args.phases:
            print()
            print(cluster_kernel_phases(report).format_table())
        if args.cache:
            from .tools import run_dcache

            tool = run_dcache(_load_program(args.file),
                              max_instructions=args.budget)
            print()
            print(tool.format_table(top=args.top))
        if args.imix:
            from .tools import run_imix

            tool = run_imix(_load_program(args.file),
                            max_instructions=args.budget)
            print()
            print(tool.format_table(top=args.top))
    elif args.tool == "quad":
        report = (captured if captured is not None else
                  run_quad(program, max_instructions=args.budget))
        if args.json:
            from .serialize import quad_to_json

            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(quad_to_json(report))
            print(f"wrote {args.json}", file=sys.stderr)
        print(report.format_table())
        if args.stats:
            print()
            print(report.format_stats())
    elif args.tool == "gprof":
        flat = (captured if captured is not None else
                run_gprof(program, max_instructions=args.budget))
        if args.json:
            from .serialize import flat_to_json

            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(flat_to_json(flat))
            print(f"wrote {args.json}", file=sys.stderr)
        print(flat.format_table(top=args.top))
        if args.callgraph:
            print()
            print(flat.format_call_graph(top=args.top))
    else:  # pragma: no cover
        raise AssertionError(args.tool)
    return 0


def _cmd_wfs(args: argparse.Namespace) -> int:
    err = _validate_profile_args(args)
    if err is not None:
        return err
    cfg = PRESETS[args.preset]
    if cfg.name == "paper":
        print("the 'paper' preset documents the published scale and is not "
              "runnable on the Python VM; use tiny/small/demo",
              file=sys.stderr)
        return 2
    program = build_wfs_program(cfg)
    trace = _start_trace(args)
    try:
        return _wfs_body(args, cfg, program)
    finally:
        _finish_trace(args, trace)


def _wfs_body(args: argparse.Namespace, cfg, program) -> int:
    if args.report:
        from .analysis import case_study_report

        result = case_study_report(
            program, fs_factory=lambda: make_workspace(cfg),
            title=f"hArtes-wfs case study ({cfg.name} preset)",
            slice_interval=args.interval)
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(result.markdown)
        print(f"wrote {args.report}")
        return 0
    options = TQuadOptions(slice_interval=args.interval)
    if args.from_capture or args.capture_out:
        outcome = _captured_report(
            args, program, options,
            fs=None if args.from_capture else make_workspace(cfg),
            label=f"wfs-{cfg.name}")
        if isinstance(outcome, int):
            return outcome
        report = outcome
    else:
        report = run_tquad(program, fs=make_workspace(cfg),
                           options=options)
    print(f"# WFS case study, preset {cfg.name!r}: "
          f"{report.total_instructions} instructions, "
          f"{report.n_slices} slices of {report.interval}")
    print(report.format_table(top=args.top))
    if args.figure:
        kernels = report.top_kernels(args.top or 10)
        names, mat = report.bandwidth_matrix(kernels, write=args.writes,
                                             include_stack=not
                                             args.exclude_stack)
        print()
        print(bandwidth_strips(names, mat, interval=report.interval))
    if args.phases:
        print()
        print(cluster_kernel_phases(report, max_phases=5).format_table())
    return 0


def _cmd_guest(args: argparse.Namespace) -> int:
    from .apps.registry import GUEST_APPS, guest_label

    app = GUEST_APPS[args.app]
    if args.interval is None:
        args.interval = app.default_interval
    err = _validate_profile_args(args)
    if err is not None:
        return err
    try:
        cfg = app.config(args.preset)
    except KeyError as exc:
        return _bad_usage(exc.args[0])
    if cfg.name in app.unrunnable:
        return _bad_usage(
            f"preset {cfg.name!r} of guest {app.name!r} documents the "
            f"published scale and is not runnable on the Python VM")
    program = app.build_program(cfg)
    trace = _start_trace(args)
    try:
        return _guest_body(args, app, cfg, program,
                           guest_label(app.name, cfg))
    finally:
        _finish_trace(args, trace)


def _guest_body(args: argparse.Namespace, app, cfg, program,
                label: str) -> int:
    options = TQuadOptions(slice_interval=args.interval)
    if args.from_capture or args.capture_out:
        outcome = _captured_report(
            args, program, options,
            fs=None if args.from_capture else app.make_workspace(cfg),
            label=label)
        if isinstance(outcome, int):
            return outcome
        report = outcome
    else:
        report = run_tquad(program, fs=app.make_workspace(cfg),
                           options=options)
    print(f"# guest {app.name!r} ({app.description}), preset "
          f"{cfg.name!r}: {report.total_instructions} instructions, "
          f"{report.n_slices} slices of {report.interval}")
    print(report.format_table(top=args.top))
    if args.figure:
        kernels = report.top_kernels(args.top or 10)
        names, mat = report.bandwidth_matrix(kernels, write=args.writes,
                                             include_stack=not
                                             args.exclude_stack)
        print()
        print(bandwidth_strips(names, mat, interval=report.interval))
    if args.phases:
        print()
        print(cluster_kernel_phases(report, max_phases=5).format_table())
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .corpus import (CaptureStore, run_fleet, update_fleet,
                         verify_fleet)

    if args.jobs < 1:
        return _bad_usage("--jobs must be >= 1")
    if args.deadline <= 0:
        return _bad_usage("--deadline must be a positive number of seconds")
    err = _parse_replay_args(args)
    if err is not None:
        return err
    try:
        store = CaptureStore(args.store,
                             page_cache=not args.no_page_cache)
        kwargs = dict(store=store, nightly=args.nightly or None,
                      only=args.only, jobs=args.jobs,
                      deadline=args.deadline,
                      mem_limit=args.mem_limit_bytes)
        trace = _start_trace(args)
        try:
            if args.corpus_command == "run":
                sample = ((args.approx, args.approx_seed)
                          if args.approx is not None else None)
                report = run_fleet(out_dir=args.out_dir, approx=sample,
                                   **kwargs)
            elif args.corpus_command == "verify":
                report = verify_fleet(golden_root=args.golden, **kwargs)
            else:
                report = update_fleet(golden_root=args.golden, **kwargs)
        finally:
            _finish_trace(args, trace)
    except KeyError as exc:
        return _bad_usage(exc.args[0])
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.report}", file=sys.stderr)
    print(report.summary())
    for entry in report.entries:
        if entry.status == "ok":
            continue
        detail = (", ".join(entry.drifted + entry.missing)
                  or entry.error)
        print(f"  {entry.status}: {entry.name} ({detail})",
              file=sys.stderr)
    return report.exit_code


def _cmd_disasm(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    print(disassemble(program.instrs, pc_base=0x1000))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    trace = _start_trace(args)
    try:
        machine = run_program(program, max_instructions=args.budget)
    finally:
        _finish_trace(args, trace)
    sys.stdout.write(machine.stdout_text())
    print(f"[exit {machine.exit_code}, {machine.icount} instructions]",
          file=sys.stderr)
    return machine.exit_code or 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    quad = run_quad(program, max_instructions=args.budget)
    result = cluster_kernels(quad, n_clusters=args.clusters)
    print(f"intra-cluster communication: {100 * result.intra_fraction:.1f}% "
          f"({result.total_bytes - result.cut_bytes}/{result.total_bytes} "
          f"bytes)")
    for i, c in enumerate(result.clusters):
        members = ", ".join(sorted(c.members))
        print(f"  cluster {i}: [{members}] internal={c.internal_bytes}B")
    return 0


def _cmd_wcet(args: argparse.Namespace) -> int:
    from .static import WCETAnalyzer, WCETError

    program = _load_program(args.file)
    bounds: dict[str, list[int]] = {}
    for spec in args.bounds:
        routine, _, values = spec.partition(":")
        bounds[routine] = [int(v) for v in values.split(",") if v]
    analyzer = WCETAnalyzer(program, loop_bounds=bounds)
    try:
        result = analyzer.analyze(args.routine)
    except WCETError as err:
        headers = []
        try:
            headers = analyzer.loops_of(args.routine)
        except Exception:
            pass
        print(f"error: {err}", file=sys.stderr)
        if headers:
            print(f"loops of {args.routine} (source order, header "
                  f"instruction indices): {headers}", file=sys.stderr)
        return 1
    print(f"WCET({args.routine}) = {result.bound:.0f} instructions")
    for li in result.loops:
        print(f"  loop #{li.ordinal} @ {li.header_index}: bound {li.bound}, "
              f"body {li.body_cost:.0f} instructions/iter")
    for callee, bound in sorted(result.callees.items()):
        print(f"  callee {callee}: {bound:.0f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .core.options import StackPolicy
    from .sweep import SweepGrid

    if args.from_capture and args.capture_out:
        return _bad_usage("--from-capture and --capture-out are mutually "
                          "exclusive (one reads a capture, one records it)")
    try:
        intervals = tuple(int(t) for t in args.intervals.split(",")
                          if t.strip())
    except ValueError:
        return _bad_usage("--intervals takes a comma-separated list of "
                          "positive instruction counts")
    stacks = [t.strip() for t in args.stacks.split(",") if t.strip()]
    if not stacks or any(s not in ("both", "include", "exclude")
                         for s in stacks):
        return _bad_usage("--stacks takes a comma-separated subset of "
                          "both,include,exclude")
    libs = [t.strip() for t in args.libs.split(",") if t.strip()]
    if not libs or any(m not in ("include", "exclude") for m in libs):
        return _bad_usage("--libs takes a comma-separated subset of "
                          "include,exclude")
    try:
        grid = SweepGrid(intervals=intervals,
                         stacks=tuple(StackPolicy(s) for s in stacks),
                         library_modes=tuple(m == "exclude" for m in libs))
    except ValueError as err:
        return _bad_usage(str(err))
    err = _parse_replay_args(args)
    if err is not None:
        return err
    program = _load_program(args.file)
    trace = _start_trace(args)
    try:
        return _sweep_body(args, program, grid)
    finally:
        _finish_trace(args, trace)


def _sweep_body(args: argparse.Namespace, program, grid) -> int:
    import io
    import math
    from functools import reduce

    from .capture import CaptureError, CaptureReader, capture_run
    from .sweep import sweep_tquad

    page_cache = not args.no_page_cache
    try:
        if args.from_capture:
            reader = _open_capture(args.from_capture, program,
                                   page_cache=page_cache)
        else:
            # one instrumented run at the gcd grain, recorded both-sided
            # with library markers — serves the entire grid
            grain = reduce(math.gcd, grid.intervals)
            options = TQuadOptions(slice_interval=grain)
            target = args.capture_out or io.BytesIO()
            capture_run(program, target, options=options, tools=("tquad",),
                        label=args.label, max_instructions=args.budget)
            if args.capture_out:
                print(f"wrote {args.capture_out}", file=sys.stderr)
                reader = CaptureReader(args.capture_out,
                                       page_cache=page_cache)
            else:
                target.seek(0)
                reader = CaptureReader(target)
        sample = ((args.approx, args.approx_seed)
                  if args.approx is not None else None)
        with reader:
            result = sweep_tquad(reader, grid,
                                 mem_limit=args.mem_limit_bytes,
                                 sample=sample)
            if args.stats:
                print(reader.format_stats(), file=sys.stderr)
    except CaptureError as err:
        return _bad_usage(str(err))
    if args.json:
        from .serialize import sweep_to_json

        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(sweep_to_json(result))
        print(f"wrote {args.json}", file=sys.stderr)
    print(f"sweep: {len(result)} cells from one capture pass "
          f"(grain {result.grain}, "
          f"{result.stats['pages_walked']} pages walked)")
    if args.mem_limit_bytes is not None:
        print(f"  streaming: peak resident "
              f"{result.stats['peak_resident_bytes']:,} B under "
              f"{args.mem_limit_bytes:,} B ceiling, spilled "
              f"{result.stats['spilled_bytes']:,} B in "
              f"{result.stats['spill_runs']} runs")
    if sample is not None:
        print(f"  sampled: rate={result.stats['sample_rate']:g} "
              f"seed={result.stats['sample_seed']} kept "
              f"{result.stats['sampled_rows']:,} of "
              f"{result.stats['rows_walked']:,} rows "
              f"(±{100 * result.stats['rel_err_95']:.2f}% @95% on "
              f"sampled bytes)")
    for cell, report in result:
        lib_mode = "exclude" if cell.exclude_libraries else "include"
        print(f"  interval={cell.interval} stack={cell.stack.value} "
              f"libs={lib_mode}: {len(report.kernels())} kernels, "
              f"{report.n_slices} slices")
    return 0


def _cmd_capture_run(args: argparse.Namespace) -> int:
    from .capture import capture_run
    from .capture.record import CAPTURE_TOOLS

    if args.interval <= 0:
        return _bad_usage("--interval must be a positive instruction count")
    tools = tuple(t.strip() for t in args.tools.split(",") if t.strip())
    if not tools or any(t not in CAPTURE_TOOLS for t in tools):
        return _bad_usage("--tools takes a comma-separated subset of "
                          + ",".join(CAPTURE_TOOLS))
    program = _load_program(args.file)
    options = TQuadOptions(slice_interval=args.interval,
                           exclude_libraries=args.exclude_libs)
    trace = _start_trace(args)
    try:
        manifest = capture_run(program, args.out, options=options,
                               tools=tools, label=args.label,
                               max_instructions=args.budget)
    finally:
        _finish_trace(args, trace)
    streams = manifest["streams"]
    rows = sum(s["rows"] for s in streams.values())
    print(f"wrote {args.out}: {manifest['total_instructions']} "
          f"instructions, {rows} rows in {len(streams)} streams "
          f"(grain {manifest['options']['grain']}, "
          f"tools {','.join(manifest['tools'])})")
    return 0


def _cmd_capture_info(args: argparse.Namespace) -> int:
    from .capture import CaptureError, CaptureReader

    stats = getattr(args, "stats", False)
    page_cache = stats and not getattr(args, "no_page_cache", False)
    try:
        reader = CaptureReader(args.file, page_cache=page_cache)
    except CaptureError as err:
        return _bad_usage(str(err))
    with reader:
        man = reader.manifest
        opt = man["options"]
        print(f"capture v{man['format']}  "
              f"program {man['program_sha256'][:12]}")
        if man.get("label"):
            print(f"label: {man['label']}")
        print(f"tools: {', '.join(man['tools']) or 'none'}")
        print(f"options: grain={opt['grain']} stack={opt['stack']} "
              f"exclude_libraries={opt['exclude_libraries']}")
        print(f"run: {man['total_instructions']} instructions, "
              f"exit {man['exit_code']}, {len(man['kernels'])} kernels, "
              f"{len(man['routines'])} routines")
        for name, s in sorted(man["streams"].items()):
            print(f"stream {name}: {s['rows']} rows in {s['pages']} pages")
        if getattr(args, "estimate", False):
            print(_estimate_lines(man))
        if stats:
            # touch every page so the counters reflect a full replay pass
            try:
                for name, s in sorted(man["streams"].items()):
                    for index in range(s["pages"]):
                        reader.page(name, index, s["stride"])
            except CaptureError as err:
                return _bad_usage(str(err))
            print(reader.format_stats())
    return 0


def _fmt_bytes(n: int) -> str:
    for unit, scale in (("G", 1 << 30), ("M", 1 << 20), ("K", 1 << 10)):
        if n >= scale:
            return f"{n / scale:.1f}{unit}"
    return f"{n}B"


def _estimate_lines(man: dict) -> str:
    """The ``capture info --estimate`` block: decoded footprint and the
    projected peak replay memory of both replay tiers.

    Pages decode to int64 columns, so a stream's uncompressed size is
    ``rows * stride * 8``; the in-memory replay peak is the sum over all
    streams (the unbounded page cache retains every decoded page), while
    the streaming tier only ever holds a handful of pages plus carry
    state, so its floor is a small multiple of the largest single page.
    """
    total = 0
    largest_page = 0
    lines = []
    for name, s in sorted(man["streams"].items()):
        rows, pages, stride = s["rows"], s["pages"], s["stride"]
        nbytes = rows * stride * 8
        total += nbytes
        if pages:
            largest_page = max(largest_page,
                               -(-rows // pages) * stride * 8)
        lines.append(f"  stream {name}: {nbytes:,} B decoded")
    floor = 4 * largest_page
    suggested = max(floor, 1 << 20)
    lines.insert(0, "estimate:")
    lines.append(f"  uncompressed pages: {total:,} B total, largest "
                 f"page ≈ {largest_page:,} B")
    lines.append(f"  projected peak replay memory: in-memory ≈ "
                 f"{total:,} B ({_fmt_bytes(total)}); streaming ≥ "
                 f"{floor:,} B ({_fmt_bytes(floor)})")
    lines.append(f"  suggested: --mem-limit {_fmt_bytes(suggested)}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tquad",
        description="tQUAD reproduction: temporal memory bandwidth analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", type=int, default=200_000_000,
                       help="instruction budget (runaway guard)")

    def observability(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace-out", metavar="PATH",
                       help="write a Chrome trace-event JSON of the run "
                            "(open in Perfetto or chrome://tracing) and "
                            "print a timing summary to stderr")

    def replay_flags(p: argparse.ArgumentParser, *, bounded: bool = False,
                     sampled: bool = False) -> None:
        p.add_argument("--no-page-cache", action="store_true",
                       help="skip the capture's decoded-page sidecar "
                            "(replays re-inflate every page)")
        if bounded:
            p.add_argument("--mem-limit", metavar="BYTES", default=None,
                           help="hard ceiling on replay working memory "
                                "(accepts K/M/G suffixes); carry state "
                                "spills to disk and merges back exactly")
        if sampled:
            p.add_argument("--approx", type=float, default=None,
                           metavar="RATE",
                           help="sampled tQUAD replay keeping RATE of the "
                                "records (0 < RATE < 1): counters are "
                                "1/RATE-scaled estimates with reported "
                                "95%% error bounds")
            p.add_argument("--approx-seed", type=int, default=0,
                           metavar="N",
                           help="deterministic sampling seed for --approx "
                                "(default: 0)")

    p = sub.add_parser("profile", help="profile a MiniC (.mc) or asm (.s) "
                                       "program")
    p.add_argument("file")
    p.add_argument("--tool", choices=("tquad", "quad", "gprof"),
                   default="tquad")
    p.add_argument("--interval", type=int, default=5000,
                   help="time slice interval in instructions")
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--exclude-stack", action="store_true",
                   help="show the stack-excluded view in figures")
    p.add_argument("--exclude-libs", action="store_true",
                   help="drop accesses made inside library routines")
    p.add_argument("--writes", action="store_true",
                   help="figures show writes instead of reads")
    p.add_argument("--figure", action="store_true",
                   help="render temporal bandwidth strips")
    p.add_argument("--phases", action="store_true")
    p.add_argument("--callgraph", action="store_true",
                   help="with --tool gprof: print the call-graph section")
    p.add_argument("--json", metavar="PATH",
                   help="also write the report as JSON")
    p.add_argument("--stats", action="store_true",
                   help="with --tool quad: print shadow footprint stats")
    p.add_argument("--cache", action="store_true",
                   help="with --tool tquad: also simulate the data cache")
    p.add_argument("--imix", action="store_true",
                   help="with --tool tquad: also print the instruction mix")
    p.add_argument("--capture-out", metavar="PATH",
                   help="record a replayable capture of this run (the "
                        "printed report is itself replayed from it)")
    p.add_argument("--from-capture", metavar="PATH",
                   help="replay the report from a capture file instead "
                        "of executing the program")
    replay_flags(p, bounded=True, sampled=True)
    common(p)
    observability(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("wcet", help="static WCET bound of a routine")
    p.add_argument("file")
    p.add_argument("routine")
    p.add_argument("--bounds", metavar="R:N,N,...", action="append",
                   default=[],
                   help="loop bounds per routine, source order "
                        "(repeatable), e.g. --bounds main:10,20")
    p.set_defaults(fn=_cmd_wcet)

    p = sub.add_parser("wfs", help="run the hArtes-wfs case study")
    p.add_argument("--preset", choices=sorted(PRESETS), default="tiny")
    p.add_argument("--interval", type=int, default=5000)
    p.add_argument("--top", type=int, default=12)
    p.add_argument("--exclude-stack", action="store_true")
    p.add_argument("--writes", action="store_true")
    p.add_argument("--figure", action="store_true")
    p.add_argument("--phases", action="store_true")
    p.add_argument("--report", metavar="PATH",
                   help="write the full case-study report as markdown")
    p.add_argument("--capture-out", metavar="PATH",
                   help="record a replayable capture of the case study")
    p.add_argument("--from-capture", metavar="PATH",
                   help="replay the case study from a capture file")
    replay_flags(p)
    observability(p)
    p.set_defaults(fn=_cmd_wfs)

    from .apps.registry import GUEST_APPS

    p = sub.add_parser("guest",
                       help="profile a registered guest workload "
                            "(hash join, BFS, stencil, codec, wfs)")
    p.add_argument("app", choices=sorted(GUEST_APPS),
                   help="which registered guest to run")
    p.add_argument("--preset", default="tiny",
                   help="guest preset name (default: tiny)")
    p.add_argument("--interval", type=int, default=None,
                   help="time slice interval in instructions "
                        "(default: the guest's registered interval)")
    p.add_argument("--top", type=int, default=12)
    p.add_argument("--exclude-stack", action="store_true")
    p.add_argument("--writes", action="store_true")
    p.add_argument("--figure", action="store_true")
    p.add_argument("--phases", action="store_true")
    p.add_argument("--capture-out", metavar="PATH",
                   help="record a replayable capture of this guest run")
    p.add_argument("--from-capture", metavar="PATH",
                   help="replay the guest from a capture file (the "
                        "manifest label must match this app and preset)")
    replay_flags(p)
    observability(p)
    p.set_defaults(fn=_cmd_guest)

    p = sub.add_parser("sweep",
                       help="batched re-analysis: one capture pass fills "
                            "an interval × stack × library config grid")
    p.add_argument("file")
    p.add_argument("--intervals", required=True, metavar="N,N,...",
                   help="comma-separated slice intervals (the grid's first "
                        "axis); the capture grain is their gcd")
    p.add_argument("--stacks", default="both",
                   metavar="{both,include,exclude},...",
                   help="stack policies to sweep (default: both)")
    p.add_argument("--libs", default="include",
                   metavar="{include,exclude},...",
                   help="library-accounting modes to sweep "
                        "(default: include)")
    p.add_argument("--json", metavar="PATH",
                   help="write the whole grid as one JSON artifact")
    p.add_argument("--capture-out", metavar="PATH",
                   help="also persist the capture the sweep ran from")
    p.add_argument("--from-capture", metavar="PATH",
                   help="sweep an existing capture instead of executing "
                        "the program")
    p.add_argument("--label", default="sweep",
                   help="free-form label stored in the capture manifest")
    p.add_argument("--stats", action="store_true",
                   help="print capture-reader decode/cache counters to "
                        "stderr")
    replay_flags(p, bounded=True, sampled=True)
    common(p)
    observability(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("capture",
                       help="record or inspect execution captures "
                            "(capture once, analyze many)")
    csub = p.add_subparsers(dest="capture_command", required=True)
    cp = csub.add_parser("run", help="execute a program once, recording "
                                     "replayable capture streams")
    cp.add_argument("file")
    cp.add_argument("--out", required=True, metavar="PATH",
                    help="capture file to write")
    cp.add_argument("--interval", type=int, default=5000,
                    help="capture grain in instructions; tQUAD replays "
                         "accept any multiple of it")
    cp.add_argument("--tools", default="tquad,gprof,quad",
                    help="comma-separated streams to record "
                         "(default: tquad,gprof,quad)")
    cp.add_argument("--exclude-libs", action="store_true",
                    help="drop accesses made inside library routines")
    cp.add_argument("--label", default="",
                    help="free-form label stored in the manifest")
    common(cp)
    observability(cp)
    cp.set_defaults(fn=_cmd_capture_run)
    cp = csub.add_parser("info", help="print a capture's manifest summary")
    cp.add_argument("file")
    cp.add_argument("--estimate", action="store_true",
                    help="also print uncompressed page bytes and the "
                         "projected peak replay memory of the in-memory "
                         "and streaming (--mem-limit) tiers")
    cp.add_argument("--stats", action="store_true",
                    help="decode every page and print the reader's "
                         "decode/cache counters (builds or reuses the "
                         "page-cache sidecar)")
    replay_flags(cp)
    cp.set_defaults(fn=_cmd_capture_info)

    p = sub.add_parser("corpus",
                       help="the capture-corpus regression fleet: capture "
                            "every roster guest once, replay all tools, "
                            "diff against golden fixtures")
    csub = p.add_subparsers(dest="corpus_command", required=True)

    def corpus_common(cp: argparse.ArgumentParser, *,
                      sampled: bool = False) -> None:
        cp.add_argument("--store", default=".tquad-corpus", metavar="DIR",
                        help="content-addressed capture store (safe to "
                             "delete; default: .tquad-corpus)")
        cp.add_argument("--nightly", action="store_true",
                        help="include the nightly tier (also enabled by "
                             "TQUAD_NIGHTLY=1)")
        cp.add_argument("--only", metavar="ENTRY", default=None,
                        help="restrict to one roster entry by name")
        cp.add_argument("--report", metavar="PATH", default=None,
                        help="write the machine-readable fleet report "
                             "JSON")
        cp.add_argument("--jobs", type=int, default=1,
                        help="fan roster entries onto N supervised worker "
                             "processes (crash/hang recovery included); "
                             "artifacts and the canonical report are "
                             "byte-identical to --jobs 1")
        cp.add_argument("--deadline", type=float, default=30.0,
                        metavar="SECONDS",
                        help="with --jobs N: seconds a worker may go "
                             "without progress before it is declared hung "
                             "and its entry is retried elsewhere "
                             "(default: 30)")
        replay_flags(cp, bounded=True, sampled=sampled)
        observability(cp)

    cp = csub.add_parser("run", help="capture + replay the fleet, no "
                                     "golden comparison")
    cp.add_argument("--out-dir", metavar="DIR", default=None,
                    help="also write each entry's artifact tree here")
    corpus_common(cp, sampled=True)
    cp.set_defaults(fn=_cmd_corpus)
    cp = csub.add_parser("verify", help="byte-diff fleet artifacts "
                                        "against the golden tree "
                                        "(exit 1 on any drift)")
    cp.add_argument("--golden", default="tests/golden/corpus",
                    metavar="DIR", help="golden fixture tree")
    corpus_common(cp)
    cp.set_defaults(fn=_cmd_corpus)
    cp = csub.add_parser("update", help="rewrite the golden tree and "
                                        "prune stale fixtures")
    cp.add_argument("--golden", default="tests/golden/corpus",
                    metavar="DIR", help="golden fixture tree")
    corpus_common(cp)
    cp.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("disasm", help="disassemble a program")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_disasm)

    p = sub.add_parser("run", help="run a program uninstrumented")
    p.add_argument("file")
    common(p)
    observability(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("cluster", help="QDU-based task clustering")
    p.add_argument("file")
    p.add_argument("--clusters", type=int, default=4)
    common(p)
    p.set_defaults(fn=_cmd_cluster)
    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse exits via SystemExit (code 2 on usage errors); normalize to a
    # returned int so every failure mode reaches callers the same way.
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
