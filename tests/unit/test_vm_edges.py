"""VM edge cases: syscall failures, sbrk exhaustion, guard pages, bursts."""

import pytest

from repro.asmkit import assemble
from repro.core.ledger import BandwidthLedger
from repro.minic import run_minic
from repro.vm import (GuestFS, Machine, MemoryFault, SyscallError,
                      HEAP_BASE)


def run_asm(src, fs=None, **kw):
    m = Machine(assemble(".text\n" + src), fs=fs)
    m.run(**kw)
    return m


class TestSyscallEdges:
    def test_unknown_syscall_faults(self):
        with pytest.raises(SyscallError):
            run_asm("li a0, 999\necall\nhalt\n")

    def test_read_into_bad_buffer_faults(self):
        fs = GuestFS()
        fs.put("f", b"abc")
        with pytest.raises(MemoryFault):
            run_asm("""
                li a0, 3
                li a1, 3
                li a2, 0
                li a3, 8
                ecall
                halt
            """, fs=fs)

    def test_open_missing_file_returns_minus_one(self):
        m = run_minic("""
        int main() { return open("ghost.bin", 0); }
        """)
        assert m.exit_code == -1

    def test_write_to_unopened_fd(self):
        m = run_minic("""
        char b[4];
        int main() { return write(77, b, 4); }
        """)
        assert m.exit_code == -1

    def test_unterminated_path_string_faults(self):
        # a path pointer into a memory region with no NUL in reach
        src = """
        int main() {
            char* p = (char*)malloc(8192);
            memset(p, 65, 8192);           // 'A' everywhere, no terminator
            return open(p, 0);
        }
        """
        with pytest.raises(SyscallError):
            run_minic(src)


class TestSbrk:
    def test_sbrk_growth_and_query(self):
        m = run_minic("""
        int main() {
            char* a = malloc(100);
            char* b = malloc(100);
            return (int)(b - a);
        }
        """)
        assert m.exit_code >= 100  # rounded to 16

    def test_sbrk_exhaustion_returns_minus_one(self):
        m = run_asm(f"""
            li a0, 5
            li a1, {1 << 40}
            ecall
            mv t6, a0
            halt
        """)
        assert m.x[19] == -1
        assert m.brk == HEAP_BASE  # unchanged

    def test_negative_sbrk_below_heap_base_fails(self):
        m = run_asm("""
            li a0, 5
            li a1, -4096
            ecall
            mv t6, a0
            halt
        """)
        assert m.x[19] == -1


class TestGuardPages:
    def test_null_write_faults(self):
        with pytest.raises(MemoryFault):
            run_minic("int main() { int* p = (int*)0; *p = 1; return 0; }")

    def test_null_read_faults(self):
        with pytest.raises(MemoryFault):
            run_minic("int main() { int* p = (int*)8; return *p; }")

    def test_fault_reports_location(self):
        with pytest.raises(MemoryFault) as err:
            run_minic("int main() { int* p = (int*)0; return *p; }")
        assert "pc=" in str(err.value)


class TestBursts:
    def _series(self, slices):
        led = BandwidthLedger(10)
        for s in slices:
            led.accumulate("k", s, 1, 0, 0, 0)
        return led.series("k")

    def test_contiguous_single_burst(self):
        assert self._series([0, 1, 2, 3]).bursts() == [(0, 3)]

    def test_gap_splits(self):
        assert self._series([0, 1, 5, 6]).bursts() == [(0, 1), (5, 6)]

    def test_max_gap_merges(self):
        s = self._series([0, 1, 3, 4])
        assert s.bursts() == [(0, 1), (3, 4)]
        assert s.bursts(max_gap=1) == [(0, 4)]

    def test_empty(self):
        led = BandwidthLedger(10)
        assert led.series("none").bursts() == []

    def test_single_slice(self):
        assert self._series([7]).bursts() == [(7, 7)]

    def test_bursts_cover_activity_span(self):
        s = self._series([2, 3, 9, 15, 16])
        bursts = s.bursts()
        first, last, count = s.activity_span()
        assert bursts[0][0] == first
        assert bursts[-1][1] == last
        assert sum(b - a + 1 for a, b in bursts) == count
