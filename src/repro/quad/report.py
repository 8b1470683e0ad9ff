"""QUAD results: Table II rows, bindings, and the QDU graph."""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from ..vm.program import MAIN_IMAGE


@dataclass
class KernelIO:
    """One kernel's QUAD counters; the UnMA fields are cardinalities."""

    in_bytes_incl: int = 0
    in_bytes_excl: int = 0
    out_bytes_incl: int = 0          #: consumed bytes of this kernel's output
    out_bytes_excl: int = 0
    in_unma_incl: int = 0
    in_unma_excl: int = 0
    out_unma_incl: int = 0
    out_unma_excl: int = 0
    reads: int = 0                   #: dynamic read accesses (not bytes)
    writes: int = 0
    reads_nonstack: int = 0
    writes_nonstack: int = 0


@dataclass
class Table2Row:
    """One kernel's Table II entry (both stack views)."""

    kernel: str
    in_excl: int
    in_unma_excl: int
    out_excl: int
    out_unma_excl: int
    in_incl: int
    in_unma_incl: int
    out_incl: int
    out_unma_incl: int

    @property
    def stack_in_ratio(self) -> float:
        """IN bytes incl/excl ratio — the quantity §V-B reasons about
        (e.g. ≈2 for wav_store, ≈10 for fft1d, >300 for zeroRealVec)."""
        if self.in_excl == 0:
            return float("inf") if self.in_incl else 1.0
        return self.in_incl / self.in_excl


@dataclass
class QuadReport:
    """Results of one QUAD run."""

    kernels: dict[str, KernelIO]
    bindings: dict[tuple[str, str], list[int]]
    images: dict[str, str] = field(default_factory=dict)
    total_instructions: int = 0
    #: Shadow-memory footprint of the run's sink (absent on merged and
    #: deserialized reports): pages allocated, resident shadow bytes,
    #: interned-kernel count.  Observability only — never part of the
    #: serialized report or the rendered tables.
    shadow_stats: dict[str, int] | None = None

    def kernel_names(self, *, main_image_only: bool = True) -> list[str]:
        names = sorted(self.kernels)
        if main_image_only:
            names = [n for n in names
                     if self.images.get(n, MAIN_IMAGE) == MAIN_IMAGE]
        return names

    def row(self, name: str) -> Table2Row:
        io = self.kernels[name]
        return Table2Row(
            kernel=name,
            in_excl=io.in_bytes_excl,
            in_unma_excl=io.in_unma_excl,
            out_excl=io.out_bytes_excl,
            out_unma_excl=io.out_unma_excl,
            in_incl=io.in_bytes_incl,
            in_unma_incl=io.in_unma_incl,
            out_incl=io.out_bytes_incl,
            out_unma_incl=io.out_unma_incl,
        )

    def rows(self, *, main_image_only: bool = True) -> list[Table2Row]:
        return [self.row(n)
                for n in self.kernel_names(main_image_only=main_image_only)]

    # ------------------------------------------------------------ QDU graph
    def qdu_graph(self, *, include_stack: bool = True,
                  main_image_only: bool = True) -> nx.DiGraph:
        """The Quantitative Data Usage graph: producer→consumer edges
        weighted by communicated bytes."""
        g = nx.DiGraph()
        idx = 0 if include_stack else 1
        for name in self.kernel_names(main_image_only=main_image_only):
            row = self.row(name)
            g.add_node(name,
                       in_bytes=row.in_incl if include_stack else row.in_excl,
                       out_unma=(row.out_unma_incl if include_stack
                                 else row.out_unma_excl))
        for (producer, consumer), counts in self.bindings.items():
            if counts[idx] == 0:
                continue
            if main_image_only and (
                    self.images.get(producer, MAIN_IMAGE) != MAIN_IMAGE
                    or self.images.get(consumer, MAIN_IMAGE) != MAIN_IMAGE):
                continue
            g.add_edge(producer, consumer, bytes=counts[idx])
        return g

    def qdu_to_dot(self, *, include_stack: bool = False,
                   main_image_only: bool = True,
                   min_bytes: int = 1) -> str:
        """Graphviz DOT rendering of the QDU graph.

        The paper's QDU graph figure "was not possible to include … due to
        space limitations"; this produces it.  Edge width scales with the
        log of communicated bytes; node labels carry IN bytes / OUT UnMA.
        """
        import math

        g = self.qdu_graph(include_stack=include_stack,
                           main_image_only=main_image_only)
        lines = ["digraph QDU {", '  rankdir=LR;',
                 '  node [shape=box, fontsize=10];']
        for node, data in g.nodes(data=True):
            label = (f"{node}\\nIN {data.get('in_bytes', 0)} B\\n"
                     f"OUT UnMA {data.get('out_unma', 0)}")
            lines.append(f'  "{node}" [label="{label}"];')
        for u, v, data in sorted(g.edges(data=True)):
            b = data["bytes"]
            if b < min_bytes:
                continue
            width = max(1.0, math.log10(max(b, 10)))
            lines.append(f'  "{u}" -> "{v}" [label="{b} B", '
                         f'penwidth={width:.1f}];')
        lines.append("}")
        return "\n".join(lines)

    def communication(self, producer: str, consumer: str, *,
                      include_stack: bool = True) -> int:
        """Bytes flowing from ``producer`` to ``consumer``."""
        counts = self.bindings.get((producer, consumer))
        if counts is None:
            return 0
        return counts[0 if include_stack else 1]

    def access_counts(self, name: str) -> tuple[int, int, int, int]:
        """(reads, writes, non-stack reads, non-stack writes) — dynamic
        access counts, used by the instrumentation-overhead model."""
        io = self.kernels[name]
        return (io.reads, io.writes, io.reads_nonstack, io.writes_nonstack)

    # ------------------------------------------------------------- rendering
    def format_table(self, *, main_image_only: bool = True) -> str:
        """Table-II-style rendering."""
        head = (f"{'kernel':<26}"
                f"{'IN(x)':>12}{'InUnMA(x)':>11}{'OUT(x)':>12}"
                f"{'OutUnMA(x)':>11}"
                f"{'IN(i)':>12}{'InUnMA(i)':>11}{'OUT(i)':>12}"
                f"{'OutUnMA(i)':>11}")
        lines = [head, "-" * len(head)]
        for r in self.rows(main_image_only=main_image_only):
            lines.append(
                f"{r.kernel:<26}"
                f"{r.in_excl:>12}{r.in_unma_excl:>11}{r.out_excl:>12}"
                f"{r.out_unma_excl:>11}"
                f"{r.in_incl:>12}{r.in_unma_incl:>11}{r.out_incl:>12}"
                f"{r.out_unma_incl:>11}")
        return "\n".join(lines)

    def format_stats(self) -> str:
        """Shadow footprint rendering for ``--stats``."""
        s = self.shadow_stats
        if s is None:
            return "shadow stats unavailable (merged or deserialized report)"
        lines = ["QUAD shadow memory:"]
        lines.append(f"  page size            {s['page_size']:>12}")
        lines.append(f"  shadow pages         {s['shadow_pages']:>12}")
        lines.append(f"  UnMA bitmap pages    {s['unma_pages']:>12}")
        lines.append(f"  resident shadow bytes{s['resident_bytes']:>12}")
        lines.append(f"  interned kernels     {s['interned_kernels']:>12}")
        return "\n".join(lines)
