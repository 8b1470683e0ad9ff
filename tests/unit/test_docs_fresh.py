"""Documentation freshness: the reference docs must track the code.

These tests keep docs/isa.md and docs/minic.md honest: every opcode the ISA
defines appears in the ISA reference, every runtime function appears in the
language reference, every telemetry counter and gauge appears in the
observability reference, and the README's package table names real modules.
"""

import importlib
import pathlib
import re

from repro.isa import OPCODES
from repro.minic.runtime import RUNTIME_SIGNATURES

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs"
ROOT = DOCS.parent


class TestIsaDoc:
    def test_every_opcode_documented(self):
        text = (DOCS / "isa.md").read_text()
        for info in OPCODES:
            assert re.search(rf"\b{re.escape(info.name)}\b", text), \
                f"opcode {info.name} missing from docs/isa.md"

    def test_syscall_numbers_documented(self):
        from repro.vm import syscalls

        text = (DOCS / "isa.md").read_text()
        numbers = [getattr(syscalls, n) for n in dir(syscalls)
                   if n.startswith("SYS_")]
        assert len(numbers) == len(set(numbers)) >= 12
        # every syscall number appears in the table
        for n in numbers:
            assert re.search(rf"\|\s*{n}\s*\|", text), \
                f"syscall {n} missing from docs/isa.md"


class TestMinicDoc:
    def test_every_runtime_function_documented(self):
        text = (DOCS / "minic.md").read_text()
        for name in RUNTIME_SIGNATURES:
            assert name in text, f"{name} missing from docs/minic.md"

    def test_intrinsics_documented(self):
        from repro.minic.codegen import _FLOAT_INTRINSICS

        text = (DOCS / "minic.md").read_text()
        for name in _FLOAT_INTRINSICS:
            assert name in text
        assert "__prefetch" in text


class TestGuestsDoc:
    def test_every_registered_app_documented(self):
        from repro.apps.registry import GUEST_APPS

        text = (DOCS / "guests.md").read_text()
        for name, app in GUEST_APPS.items():
            assert f"`{name}`" in text, \
                f"guest app {name} missing from docs/guests.md"
            for preset in app.presets:
                assert preset in text, \
                    f"preset {preset} of {name} missing from docs/guests.md"

    def test_every_shape_documented(self):
        from repro.testing.workloads import SHAPES

        text = (DOCS / "guests.md").read_text()
        for shape in SHAPES:
            assert f"`{shape}`" in text

    def test_corpus_commands_and_artifacts_documented(self):
        from repro.corpus import ARTIFACTS

        text = (DOCS / "guests.md").read_text()
        for command in ("corpus run", "corpus verify", "corpus update"):
            assert f"tquad {command}" in text
        for artifact in ARTIFACTS:
            stem, _, ext = artifact.partition(".")
            assert stem in text, \
                f"artifact {artifact} missing from docs/guests.md"

    def test_referenced_modules_and_tests_exist(self):
        text = (DOCS / "guests.md").read_text()
        for module in re.findall(r"`(repro(?:\.\w+)+)`", text):
            name = module.rsplit(".", 1)
            mod = importlib.import_module(
                name[0] if len(name) == 2 else module)
            if len(name) == 2 and not hasattr(mod, name[1]):
                importlib.import_module(module)
        for path in re.findall(r"`(tests/[\w/]+\.py)`", text):
            assert (ROOT / path).exists(), path


class TestReadme:
    def test_package_table_modules_exist(self):
        text = (ROOT / "README.md").read_text()
        for module in re.findall(r"`(repro(?:\.\w+)+)`", text):
            importlib.import_module(module)

    def test_experiment_benchmarks_exist(self):
        text = (ROOT / "README.md").read_text()
        for bench in re.findall(r"`benchmarks/(bench_\w+\.py)`", text):
            assert (ROOT / "benchmarks" / bench).exists(), bench

    def test_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        for example in re.findall(r"`(\w+\.py)`", text):
            if (ROOT / "examples" / example).exists():
                continue
            # names in the README that aren't examples are fine, but the
            # ones under an examples/ reference must exist
        for example in ("quickstart.py", "wfs_case_study.py",
                        "custom_pintool.py", "phase_partitioning.py",
                        "advanced_analysis.py", "locality_and_timing.py"):
            assert (ROOT / "examples" / example).exists()
            assert example in text


class TestDesignDoc:
    def test_experiment_index_matches_benchmarks(self):
        text = (ROOT / "DESIGN.md").read_text()
        for bench in re.findall(r"`benchmarks/(bench_\w+\.py)`", text):
            assert (ROOT / "benchmarks" / bench).exists(), bench

    def test_inventory_modules_exist(self):
        text = (ROOT / "DESIGN.md").read_text()
        for path in re.findall(r"`src/(repro/[\w/]+)/`", text):
            assert (ROOT / "src" / path).is_dir(), path


def _span_rows(text: str) -> set[tuple[str, str]]:
    """The (name, category) pairs of the span table in
    ``docs/observability.md``: every backticked name of a row's first
    cell with every backticked category of its second."""
    table = text.split("### Spans recorded by the pipeline")[1]
    table = table.split("\n### ")[0]
    pairs = set()
    for row in re.findall(r"^\|(.*?)\|(.*?)\|", table, re.M):
        names = re.findall(r"`([^`]+)`", row[0])
        cats = re.findall(r"`([^`]+)`", row[1])
        pairs.update((n, c) for n in names for c in cats)
    return pairs


class TestObservabilityDoc:
    def test_every_span_documented(self):
        """Every ``.span(name, cat="…")`` under ``src/`` is a documented
        (name, category) pair.  An f-string name matches a row whose
        name has a ``<placeholder>`` in place of each ``{…}``; a name
        held in a variable matches a row whose whole name is one."""
        documented = _span_rows((DOCS / "observability.md").read_text())
        emitted = set()
        for path in (ROOT / "src").rglob("*.py"):
            text = path.read_text()
            found = re.findall(
                r'\.span\(\s*(f?"[^"]*"|[\w.]+)\s*,\s*cat="(\w+)"', text)
            # a call this pattern cannot read must not slip through
            assert len(found) == text.count(".span("), path
            emitted.update(found)
        assert ('"sweep.fold"', "sweep") in emitted
        missing = []
        for name, cat in sorted(emitted):
            if name.startswith('"'):
                pattern = re.escape(name[1:-1])
            elif name.startswith('f"'):
                pattern = "<[\\w-]+>".join(
                    re.escape(part)
                    for part in re.split(r"\{[^}]*\}", name[2:-1]))
            else:
                pattern = "<[\\w-]+>"
            if not any(c == cat and re.fullmatch(pattern, n)
                       for n, c in documented):
                missing.append(f"{name} ({cat})")
        assert not missing, \
            f"spans undocumented in docs/observability.md: {missing}"

    def test_every_counter_and_gauge_documented(self):
        """Every literal ``.count("…")``/``.gauge("…")`` name under
        ``src/`` and every ``quad/<key>`` gauge the QUAD tool publishes
        from ``PagedQuadSink.stats()`` is in the docs' table."""
        from repro.core.callstack import CallStack
        from repro.quad.shadow import PagedQuadSink

        names = set()
        for path in (ROOT / "src").rglob("*.py"):
            names.update(re.findall(r'\.(?:count|gauge)\(\s*"(\w+/[\w/]+)"',
                                    path.read_text()))
        stats = PagedQuadSink(CallStack(), mem_size=1 << 16).stats()
        names.update(f"quad/{key}" for key in stats)
        assert "sweep/runs" in names and "quad/page_size" in names
        text = (DOCS / "observability.md").read_text()
        missing = sorted(n for n in names if f"`{n}`" not in text)
        assert not missing, \
            f"undocumented in docs/observability.md: {missing}"
