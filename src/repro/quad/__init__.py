"""QUAD: memory access pattern analyser (producer/consumer bindings)."""

from .overhead import (InstrumentationCostModel, RankShift,
                       instrumented_profile, rank_shifts)
from .report import KernelIO, QuadReport, Table2Row
from .tracker import QuadTool, run_quad

__all__ = [
    "QuadTool", "run_quad", "QuadReport", "Table2Row", "KernelIO",
    "InstrumentationCostModel", "instrumented_profile", "rank_shifts",
    "RankShift",
]
