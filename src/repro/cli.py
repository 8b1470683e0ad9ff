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

Each flag is declared once, in the group that owns it; operands are
checked by ``type=`` converters and cross-flag rules by :data:`_RULES`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
from functools import partial, reduce

from . import obs
from .analysis import bandwidth_strips, cluster_kernels
from .apps.wfs import PRESETS
from .asmkit import AsmError, assemble
from .core import TQuadOptions, cluster_kernel_phases, run_tquad
from .core.options import StackPolicy
from .gprofsim import run_gprof
from .isa import disassemble
from .minic import MiniCError, build_program
from .quad import run_quad
from .vm import Machine, VMError


class _UsageError(Exception):
    """An operand the parser cannot check on its own (exit 2)."""


def _input_errors() -> tuple[type[Exception], ...]:
    """The errors bad input raises (exit 2).  Only a command that loaded
    the capture package can raise its ``CaptureError``."""
    errors = (_UsageError, OSError, MiniCError, AsmError)
    capture = sys.modules.get(f"{__package__}.capture")
    return errors + ((capture.CaptureError,) if capture else ())


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


#: Cross-flag rules, checked in this order once every operand parsed:
#: (commands, broken when, message).
_RULES = (
    (("profile",),
     lambda a: a.stats and a.tool != "quad" and not a.from_capture,
     "--stats requires --tool quad or --from-capture"),
    (("profile", "wfs", "guest", "sweep"),
     lambda a: a.from_capture and a.capture_out,
     "--from-capture and --capture-out are mutually exclusive (one reads a "
     "capture, one records it)"),
    (("profile",), lambda a: a.from_capture and (a.cache or a.imix),
     "--cache/--imix re-execute the guest and cannot be combined with "
     "--from-capture"),
    (("wfs",), lambda a: a.from_capture and a.report,
     "--report re-executes the guest and cannot be combined with "
     "--from-capture"),
    (("wfs",), lambda a: a.capture_out and a.report,
     "--report cannot be combined with --capture-out"),
    (("profile",),
     lambda a: a.mem_limit is not None and not (a.from_capture
                                                or a.capture_out),
     "--mem-limit bounds capture replay; combine it with --from-capture or "
     "--capture-out"),
    (("profile",), lambda a: a.approx is not None and a.tool != "tquad",
     "--approx is a sampled tQUAD replay; it requires --tool tquad"),
    (("profile",),
     lambda a: a.approx is not None and not (a.from_capture
                                             or a.capture_out),
     "--approx replays from a capture; combine it with --from-capture or "
     "--capture-out"),
)


def _operand(convert):
    """``convert`` as a ``type=``: the message of a ValueError or KeyError
    it raises becomes the parser's usage error for the flag (exit 2)."""
    def parse(text: str):
        try:
            return convert(text)
        except (ValueError, KeyError) as exc:
            raise argparse.ArgumentTypeError(exc.args[0]) from None
    return parse


def _at_least(low: int, what: str):
    @_operand
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be {what}")
        return value
    return convert


_positive = _at_least(1, "a positive count")
#: Budgets are exact, so 0 is one (it stops before the first instruction).
_budget = _at_least(0, "a non-negative instruction count")


def _subset(*choices: str):
    @_operand
    def convert(text: str) -> tuple[str, ...]:
        items = tuple(t.strip() for t in text.split(",") if t.strip())
        if not items or not set(items) <= set(choices):
            raise ValueError("must be a comma-separated subset of "
                             + ",".join(choices))
        return items
    return convert


@_operand
def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise ValueError("must be a positive number of seconds")
    return value


@_operand
def _rate(text: str) -> float:
    rate = float(text)
    if not 0.0 < rate < 1.0:
        raise ValueError("must be a sampling rate strictly between 0 and 1 "
                         "(e.g. 0.05)")
    return rate


@_operand
def _mem_limit(text: str) -> int:
    from .capture.streaming import parse_mem_limit

    return parse_mem_limit(text)


@_operand
def _intervals(text: str) -> tuple[int, ...]:
    from .sweep import validate_intervals

    return validate_intervals(int(t) for t in text.split(",") if t.strip())


def _tools(text: str) -> tuple[str, ...]:
    from .capture.record import CAPTURE_TOOLS

    return _subset(*CAPTURE_TOOLS)(text)


@_operand
def _loop_bounds(spec: str) -> tuple[str, list[int]]:
    routine, _, values = spec.partition(":")
    return routine, [int(v) for v in values.split(",") if v]


@_operand
def _corpus_entry(name: str) -> str:
    from .corpus.entries import fleet_entries

    fleet_entries(only=name)  # KeyError for a name not on the roster
    return name


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return assemble(source) if path.endswith(".s") else build_program(source)


def _write(path: str, text: str, *, stdout: bool = False) -> None:
    """Write a report file and name it on stderr (or stdout)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}", file=sys.stdout if stdout else sys.stderr)


@contextlib.contextmanager
def _capture(args: argparse.Namespace, program, *, expect: str = "",
             workspace=None, **record):
    """The capture a replay reads, open for the ``with`` block: the
    ``--from-capture`` file, checked to hold ``program``'s run of the
    workload labelled ``expect``; else one ``capture_run(**record)`` of
    ``program`` (guest files from ``workspace()``) into the
    ``--capture-out`` file, or into memory."""
    from .capture import (CaptureReader, capture_run, check_label,
                          check_program)

    page_cache = not args.no_page_cache
    if args.from_capture:
        reader = CaptureReader(args.from_capture, page_cache=page_cache)
    else:
        target = args.capture_out or io.BytesIO()
        capture_run(program, target, fs=workspace() if workspace else None,
                    **record)
        if args.capture_out:
            print(f"wrote {target}", file=sys.stderr)
            reader = CaptureReader(target, page_cache=page_cache)
        else:
            target.seek(0)
            reader = CaptureReader(target)
    with reader:
        if args.from_capture:
            check_program(reader.manifest, program)
            check_label(reader.manifest, expect)
        yield reader


def _report(args: argparse.Namespace, program, options, *,
            tool: str = "tquad", budget: int | None = None, workspace=None,
            label: str = "", stats: bool = False):
    """``tool``'s report of ``program``: replayed when ``--from-capture``
    or ``--capture-out`` is given (an ``ApproxTQuadReplay`` under
    ``--approx``), else from one live run."""
    if not (args.from_capture or args.capture_out):
        fs = workspace() if workspace else None
        if tool == "tquad":
            return run_tquad(program, fs=fs, options=options,
                             max_instructions=budget)
        run = run_quad if tool == "quad" else run_gprof
        return run(program, fs=fs, max_instructions=budget)
    from .capture import (approx_replay_tquad, replay_gprof, replay_quad,
                          replay_tquad)

    with _capture(args, program, expect=label, workspace=workspace,
                  options=options, tools=(tool,), label=label,
                  max_instructions=budget) as reader:
        if tool != "tquad":
            replay = replay_quad if tool == "quad" else replay_gprof
            result = replay(reader, mem_limit=args.mem_limit)
        elif args.approx is not None:
            result = approx_replay_tquad(reader, options, rate=args.approx,
                                         seed=args.approx_seed,
                                         mem_limit=args.mem_limit)
        else:
            result = replay_tquad(reader, options, mem_limit=args.mem_limit)
        if stats and args.from_capture:
            print(reader.format_stats(), file=sys.stderr)
    return result


def _print_views(args: argparse.Namespace, report, max_phases) -> None:
    """The ``--figure`` strips and the ``--phases`` table of a tQUAD
    report."""
    if args.figure:
        names, mat = report.bandwidth_matrix(
            report.top_kernels(args.top or 10), write=args.writes,
            include_stack=not args.exclude_stack)
        print(f"\n{bandwidth_strips(names, mat, interval=report.interval)}")
    if args.phases:
        phases = cluster_kernel_phases(report, max_phases=max_phases)
        print(f"\n{phases.format_table()}")


def _cmd_profile(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    options = TQuadOptions(slice_interval=args.interval,
                           exclude_libraries=args.exclude_libs)
    report = _report(args, program, options, tool=args.tool,
                     budget=args.budget, stats=args.stats)
    approx = None
    if args.approx is not None:  # _RULES admit it only on a tQUAD replay
        approx, report = report, report.report
    if args.json:
        from . import serialize

        to_json = {"tquad": serialize.tquad_to_json,
                   "quad": serialize.quad_to_json,
                   "gprof": serialize.flat_to_json}[args.tool]
        _write(args.json, serialize.approx_to_json(approx) if approx
               else to_json(report))
    if args.tool == "quad":
        print(report.format_table())
        if args.stats:
            print(f"\n{report.format_stats()}")
        return 0
    print(report.format_table(top=args.top))
    if args.tool == "gprof":
        if args.callgraph:
            print(f"\n{report.format_call_graph(top=args.top)}")
        return 0
    if approx is not None:
        print("\n" + "\n".join(approx.summary_lines()))
    _print_views(args, report, max_phases=None)
    if args.cache:
        from .tools import run_dcache

        tool = run_dcache(program, max_instructions=args.budget)
        print(f"\n{tool.format_table(top=args.top)}")
    if args.imix:
        from .tools import run_imix

        tool = run_imix(program, max_instructions=args.budget)
        print(f"\n{tool.format_table(top=args.top)}")
    return 0


def _cmd_guest(args: argparse.Namespace) -> int:
    """``tquad guest APP``, and ``tquad wfs`` (``guest wfs`` with its own
    header line and ``--report``)."""
    from .apps.registry import GUEST_APPS, guest_label

    app = GUEST_APPS[args.app]
    try:
        cfg = app.config(args.preset)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None
    if cfg.name in app.unrunnable:
        raise _UsageError(
            f"preset {cfg.name!r} of guest {app.name!r} documents the "
            f"published scale and is not runnable on the Python VM")
    interval = args.interval or app.default_interval
    program = app.build_program(cfg)
    workspace = partial(app.make_workspace, cfg)
    wfs = args.command == "wfs"
    if wfs and args.report:
        from .analysis import case_study_report

        result = case_study_report(
            program, fs_factory=workspace,
            title=f"hArtes-wfs case study ({cfg.name} preset)",
            slice_interval=interval)
        _write(args.report, result.markdown, stdout=True)
        return 0
    report = _report(args, program, TQuadOptions(slice_interval=interval),
                     workspace=workspace,
                     label=guest_label(app.name, cfg))
    title = ("WFS case study" if wfs
             else f"guest {app.name!r} ({app.description})")
    print(f"# {title}, preset {cfg.name!r}: "
          f"{report.total_instructions} instructions, "
          f"{report.n_slices} slices of {report.interval}")
    print(report.format_table(top=args.top))
    _print_views(args, report, max_phases=5)
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .corpus import (CaptureStore, run_fleet, update_fleet,
                         verify_fleet)

    kwargs = dict(store=CaptureStore(args.store,
                                     page_cache=not args.no_page_cache),
                  nightly=args.nightly or None, only=args.only,
                  jobs=args.jobs, deadline=args.deadline,
                  mem_limit=args.mem_limit)
    if args.corpus_command == "run":
        sample = ((args.approx, args.approx_seed)
                  if args.approx is not None else None)
        report = run_fleet(out_dir=args.out_dir, approx=sample, **kwargs)
    elif args.corpus_command == "verify":
        report = verify_fleet(golden_root=args.golden, **kwargs)
    else:
        report = update_fleet(golden_root=args.golden, **kwargs)
    if args.report:
        _write(args.report, report.to_json())
    print(report.summary())
    for entry in report.entries:
        if entry.status != "ok":
            detail = ", ".join(entry.drifted + entry.missing) or entry.error
            print(f"  {entry.status}: {entry.name} ({detail})",
                  file=sys.stderr)
    return report.exit_code


def _cmd_disasm(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    print(disassemble(program.instrs, pc_base=0x1000))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    machine = Machine(_load_program(args.file))
    try:
        machine.run(max_instructions=args.budget)
    finally:
        # what the guest printed before a fault or an exhausted budget
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
    analyzer = WCETAnalyzer(program, loop_bounds=dict(args.bounds))
    try:
        result = analyzer.analyze(args.routine)
    except WCETError as err:
        headers = []
        with contextlib.suppress(Exception):
            headers = analyzer.loops_of(args.routine)
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
    from .sweep import SweepGrid, sweep_tquad

    grid = SweepGrid(intervals=args.intervals,
                     stacks=tuple(StackPolicy(s) for s in args.stacks),
                     library_modes=tuple(m == "exclude" for m in args.libs))
    program = _load_program(args.file)
    # a recording runs once at the gcd grain, both-sided with library
    # markers, and serves the entire grid
    options = TQuadOptions(slice_interval=reduce(math.gcd, grid.intervals))
    sample = ((args.approx, args.approx_seed)
              if args.approx is not None else None)
    with _capture(args, program, options=options, tools=("tquad",),
                  label=args.label, max_instructions=args.budget) as reader:
        result = sweep_tquad(reader, grid, mem_limit=args.mem_limit,
                             sample=sample)
        if args.stats:
            print(reader.format_stats(), file=sys.stderr)
    if args.json:
        from .serialize import sweep_to_json

        _write(args.json, sweep_to_json(result))
    print(f"sweep: {len(result)} cells from one capture pass "
          f"(grain {result.grain}, "
          f"{result.stats['pages_walked']} pages walked)")
    if args.mem_limit is not None:
        print(f"  streaming: peak resident "
              f"{result.stats['peak_resident_bytes']:,} B under "
              f"{args.mem_limit:,} B ceiling, spilled "
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

    program = _load_program(args.file)
    options = TQuadOptions(slice_interval=args.interval,
                           exclude_libraries=args.exclude_libs)
    manifest = capture_run(program, args.out, options=options,
                           tools=args.tools, label=args.label,
                           max_instructions=args.budget)
    streams = manifest["streams"]
    rows = sum(s["rows"] for s in streams.values())
    print(f"wrote {args.out}: {manifest['total_instructions']} "
          f"instructions, {rows} rows in {len(streams)} streams "
          f"(grain {manifest['options']['grain']}, "
          f"tools {','.join(manifest['tools'])})")
    return 0


def _cmd_capture_info(args: argparse.Namespace) -> int:
    from .capture import CaptureReader

    page_cache = args.stats and not args.no_page_cache
    with CaptureReader(args.file, page_cache=page_cache) as reader:
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
        if args.estimate:
            print(_estimate_lines(man))
        if args.stats:
            # touch every page so the counters reflect a full replay pass
            for name, s in sorted(man["streams"].items()):
                for index in range(s["pages"]):
                    reader.page(name, index, s["stride"])
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


def _views(p: argparse.ArgumentParser, *, top: int | None) -> None:
    p.add_argument("--top", type=_positive, default=top)
    p.add_argument("--exclude-stack", action="store_true",
                   help="show the stack-excluded view in figures")
    p.add_argument("--writes", action="store_true",
                   help="figures show writes instead of reads")
    p.add_argument("--figure", action="store_true",
                   help="render temporal bandwidth strips")
    p.add_argument("--phases", action="store_true")


def _capture_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--capture-out", metavar="PATH",
                   help="record a replayable capture of this run and "
                        "replay the output from it")
    p.add_argument("--from-capture", metavar="PATH",
                   help="replay from a capture file instead of executing "
                        "the program")


def _replay(p: argparse.ArgumentParser, *, bounded: bool = False,
            sampled: bool = False) -> None:
    """Replay flags; a command without ``--mem-limit`` or ``--approx``
    replays unbounded and exact."""
    p.set_defaults(mem_limit=None, approx=None, approx_seed=0)
    p.add_argument("--no-page-cache", action="store_true",
                   help="skip the capture's decoded-page sidecar "
                        "(replays re-inflate every page)")
    if bounded:
        p.add_argument("--mem-limit", metavar="BYTES", type=_mem_limit,
                       help="hard ceiling on replay working memory "
                            "(accepts K/M/G suffixes); carry state "
                            "spills to disk and merges back exactly")
    if sampled:
        p.add_argument("--approx", type=_rate, metavar="RATE",
                       help="sampled tQUAD replay keeping RATE of the "
                            "records (0 < RATE < 1): counters are "
                            "1/RATE-scaled estimates with reported "
                            "95%% error bounds")
        p.add_argument("--approx-seed", type=int, metavar="N",
                       help="deterministic sampling seed for --approx "
                            "(default: 0)")


def _budget_and_trace(p: argparse.ArgumentParser, *,
                      budget: bool = True) -> None:
    if budget:
        p.add_argument("--budget", type=_budget, default=200_000_000,
                       help="instruction budget (runaway guard)")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write a Chrome trace-event JSON of the run "
                        "(open in Perfetto or chrome://tracing) and "
                        "print a timing summary to stderr")


def build_parser() -> argparse.ArgumentParser:
    from .apps.registry import GUEST_APPS

    parser = argparse.ArgumentParser(
        prog="tquad",
        description="tQUAD reproduction: temporal memory bandwidth analysis")
    parser.set_defaults(trace_out=None)  # disasm has no --trace-out
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="profile a MiniC (.mc) or asm (.s) "
                                       "program")
    p.add_argument("file")
    p.add_argument("--tool", choices=("tquad", "quad", "gprof"),
                   default="tquad")
    p.add_argument("--interval", type=_positive, default=5000,
                   help="time slice interval in instructions")
    _views(p, top=None)
    p.add_argument("--exclude-libs", action="store_true",
                   help="drop accesses made inside library routines")
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
    _capture_io(p)
    _replay(p, bounded=True, sampled=True)
    _budget_and_trace(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("wcet", help="static WCET bound of a routine")
    p.add_argument("file")
    p.add_argument("routine")
    p.add_argument("--bounds", metavar="R:N,N,...", action="append",
                   type=_loop_bounds, default=[],
                   help="loop bounds per routine, source order "
                        "(repeatable), e.g. --bounds main:10,20")
    _budget_and_trace(p, budget=False)
    p.set_defaults(fn=_cmd_wcet)

    # `tquad wfs` is `tquad guest wfs` with its own presets, header line
    # and --report
    wfs = sub.add_parser("wfs", help="run the hArtes-wfs case study")
    wfs.add_argument("--preset", choices=sorted(PRESETS), default="tiny")
    wfs.add_argument("--interval", type=_positive, default=5000,
                     help="time slice interval in instructions")
    wfs.add_argument("--report", metavar="PATH",
                     help="write the full case-study report as markdown")
    wfs.set_defaults(app="wfs")
    guest = sub.add_parser("guest",
                           help="profile a registered guest workload "
                                "(hash join, BFS, stencil, codec, wfs)")
    guest.add_argument("app", choices=sorted(GUEST_APPS),
                       help="which registered guest to run")
    guest.add_argument("--preset", default="tiny",
                       help="guest preset name (default: tiny)")
    guest.add_argument("--interval", type=_positive, default=None,
                       help="time slice interval in instructions "
                            "(default: the guest's registered interval)")
    for p in (wfs, guest):
        _views(p, top=12)
        _capture_io(p)
        _replay(p)
        _budget_and_trace(p, budget=False)
        p.set_defaults(fn=_cmd_guest)

    p = sub.add_parser("sweep",
                       help="batched re-analysis: one capture pass fills "
                            "an interval × stack × library config grid")
    p.add_argument("file")
    p.add_argument("--intervals", required=True, metavar="N,N,...",
                   type=_intervals,
                   help="comma-separated slice intervals (the grid's first "
                        "axis); the capture grain is their gcd")
    p.add_argument("--stacks", default="both",
                   metavar="{both,include,exclude},...",
                   type=_subset("both", "include", "exclude"),
                   help="stack policies to sweep (default: both)")
    p.add_argument("--libs", default="include",
                   metavar="{include,exclude},...",
                   type=_subset("include", "exclude"),
                   help="library-accounting modes to sweep "
                        "(default: include)")
    p.add_argument("--json", metavar="PATH",
                   help="write the whole grid as one JSON artifact")
    _capture_io(p)
    p.add_argument("--label", default="sweep",
                   help="free-form label stored in the capture manifest")
    p.add_argument("--stats", action="store_true",
                   help="print capture-reader decode/cache counters to "
                        "stderr")
    _replay(p, bounded=True, sampled=True)
    _budget_and_trace(p)
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
    cp.add_argument("--interval", type=_positive, default=5000,
                    help="capture grain in instructions; tQUAD replays "
                         "accept any multiple of it")
    cp.add_argument("--tools", default="tquad,gprof,quad", type=_tools,
                    help="comma-separated streams to record "
                         "(default: tquad,gprof,quad)")
    cp.add_argument("--exclude-libs", action="store_true",
                    help="drop accesses made inside library routines")
    cp.add_argument("--label", default="",
                    help="free-form label stored in the manifest")
    _budget_and_trace(cp)
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
    _replay(cp)
    _budget_and_trace(cp, budget=False)
    cp.set_defaults(fn=_cmd_capture_info)

    p = sub.add_parser("corpus",
                       help="the capture-corpus regression fleet: capture "
                            "every roster guest once, replay all tools, "
                            "diff against golden fixtures")
    csub = p.add_subparsers(dest="corpus_command", required=True)
    run = csub.add_parser("run", help="capture + replay the fleet, no "
                                      "golden comparison")
    run.add_argument("--out-dir", metavar="DIR", default=None,
                     help="also write each entry's artifact tree here")
    verify = csub.add_parser("verify", help="byte-diff fleet artifacts "
                                            "against the golden tree "
                                            "(exit 1 on any drift)")
    update = csub.add_parser("update", help="rewrite the golden tree and "
                                            "prune stale fixtures")
    for cp in (verify, update):
        cp.add_argument("--golden", default="tests/golden/corpus",
                        metavar="DIR", help="golden fixture tree")
    for cp in (run, verify, update):
        cp.add_argument("--store", default=".tquad-corpus", metavar="DIR",
                        help="content-addressed capture store (safe to "
                             "delete; default: .tquad-corpus)")
        cp.add_argument("--nightly", action="store_true",
                        help="include the nightly tier (also enabled by "
                             "TQUAD_NIGHTLY=1)")
        cp.add_argument("--only", metavar="ENTRY", default=None,
                        type=_corpus_entry,
                        help="restrict to one roster entry by name")
        cp.add_argument("--report", metavar="PATH", default=None,
                        help="write the machine-readable fleet report "
                             "JSON")
        cp.add_argument("--jobs", type=_positive, default=1,
                        help="fan roster entries onto N supervised worker "
                             "processes (crash/hang recovery included); "
                             "artifacts and the canonical report are "
                             "byte-identical to --jobs 1")
        cp.add_argument("--deadline", type=_seconds, default=30.0,
                        metavar="SECONDS",
                        help="with --jobs N: seconds a worker may go "
                             "without progress before it is declared hung "
                             "and its entry is retried elsewhere "
                             "(default: 30)")
        _replay(cp, bounded=True, sampled=cp is run)
        _budget_and_trace(cp, budget=False)
        cp.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("disasm", help="disassemble a program")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_disasm)

    p = sub.add_parser("run", help="run a program uninstrumented")
    p.add_argument("file")
    _budget_and_trace(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("cluster", help="QDU-based task clustering")
    p.add_argument("file")
    p.add_argument("--clusters", type=_positive, default=4)
    _budget_and_trace(p)
    p.set_defaults(fn=_cmd_cluster)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one ``tquad`` command; returns its exit code.  Usage errors and
    bad input exit 2 with one ``error:`` line, a guest fault exits 1 with
    one line naming the fault, its pc and its icount; neither raises."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage errors, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    for commands, broken, message in _RULES:
        if args.command in commands and broken(args):
            return _fail(message, 2)
    span = obs.NULL_SPAN
    if args.trace_out:
        obs.reset()
        obs.enable()
        span = obs.TELEMETRY.span(args.command, cat="cli")
    try:
        with span:
            return args.fn(args)
    except VMError as exc:
        return _fail(f"{type(exc).__name__}: {exc}", 1)
    # evaluated only once an exception arrives (see _input_errors)
    except _input_errors() as exc:
        return _fail(str(exc), 2)
    finally:
        if args.trace_out:
            obs.disable()
            obs.write_chrome_trace(obs.TELEMETRY, args.trace_out)
            print(f"wrote {args.trace_out}", file=sys.stderr)
            print(obs.summary_table(obs.TELEMETRY), file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
