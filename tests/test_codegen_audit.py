"""The static codegen auditor (A001-A003, A005, A006, A008): every contract
gets a clean case and at least one seeded mutation it must catch.

The synthetic-module tests feed hand-written sources shaped like the
record-mode emitter's output through :func:`audit_module_source`, so
each contract is exercised in isolation; the integration tests then
audit real compiled output (and tampered copies of it) end to end.
"""

from repro.isa.builder import ProgramBuilder
from repro.jit.blocks import (block_spans, compile_blocks_source,
                              compile_suffix_source)
from repro.jit.cache import get_compiled
from repro.lint.codegen_audit import (audit_compiled, audit_module_source,
                                      audit_suite)
from repro.sim.config import SimConfig


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


# a minimal module in the emitter's shape: one 2-instruction block that
# flushes the full exit state, appends its exit code and is declared in
# the dispatch table
CLEAN_BLOCK = """\
def _bind(_load, _store, _EE, _q):
    def _b0(st, m):
        st[0] = st[0] + 3
        st[1] = 7
        st[7] = 2
        _q.append(0)
        return 2
    _table = [None] * 4
    _table[0] = (_b0, 2)
    return _table
"""


class TestExitStateContract:
    """A001: every exit flushes st[0]/st[1]/st[7]; indices stay 0..8."""

    def test_clean_module(self):
        assert audit_module_source(CLEAN_BLOCK, "t") == []

    def test_missing_slot_flush(self):
        bad = CLEAN_BLOCK.replace("        st[1] = 7\n", "")
        findings = audit_module_source(bad, "t")
        assert rules_of(findings) == {"A001"}
        assert "st[1]" in findings[0].message

    def test_out_of_range_slot(self):
        bad = CLEAN_BLOCK.replace("st[7] = 2", "st[7] = 2\n        st[9] = 0")
        assert "A001" in rules_of(audit_module_source(bad, "t"))

    def test_fault_path_must_flush_too(self):
        bad = CLEAN_BLOCK.replace(
            "    _table = [None] * 4",
            "        raise _EE\n    _table = [None] * 4")
        # the raise is unreachable after return, but the auditor checks
        # shape, not reachability: its dominators do flush, so the only
        # acceptable outcome is a clean A001 and an A002 retire check
        findings = audit_module_source(bad, "t")
        assert "A001" not in rules_of(findings)


class TestRetireCountContract:
    """A002: st[7] at each exit matches the declared block length."""

    def test_block_exit_must_retire_declared(self):
        bad = CLEAN_BLOCK.replace("st[7] = 2", "st[7] = 3")
        findings = audit_module_source(bad, "t")
        assert rules_of(findings) == {"A002"}
        assert "declares length 2" in findings[0].message

    def test_fault_retires_at_least_one(self):
        src = """\
def _bind(_EE):
    def _b0(st, m):
        st[0] = 1
        st[1] = 0
        st[7] = 0
        raise _EE
    _table = [None]
    _table[0] = (_b0, 2)
    return _table
"""
        assert rules_of(audit_module_source(src, "t")) == {"A002"}


class TestRecordExitCodes:
    """A003: every module appends exactly one valid code per return."""

    def test_clean_record_module(self):
        assert audit_module_source(CLEAN_BLOCK, "t") == []

    def test_missing_append(self):
        bad = CLEAN_BLOCK.replace("        _q.append(0)\n", "")
        findings = audit_module_source(bad, "t")
        assert rules_of(findings) == {"A003"}
        assert "0 exit codes" in findings[0].message

    def test_doubled_append(self):
        bad = CLEAN_BLOCK.replace("_q.append(0)",
                                  "_q.append(0)\n        _q.append(0)")
        assert rules_of(audit_module_source(bad, "t")) == {"A003"}

    def test_wrong_code(self):
        # block 0 may only emit 0 (fallthrough) or 1 (taken)
        bad = CLEAN_BLOCK.replace("_q.append(0)", "_q.append(5)")
        findings = audit_module_source(bad, "t")
        assert rules_of(findings) == {"A003"}
        assert "2*0" in findings[0].message


class TestAmbientState:
    """A006: no imports, no globals, no unbound free names."""

    def test_import_flagged(self):
        bad = "import os\n" + CLEAN_BLOCK
        assert "A006" in rules_of(audit_module_source(bad, "t"))

    def test_global_flagged(self):
        bad = CLEAN_BLOCK.replace("        return 2",
                                  "        global _x\n        return 2")
        assert "A006" in rules_of(audit_module_source(bad, "t"))

    def test_unbound_name_flagged(self):
        bad = CLEAN_BLOCK.replace("st[1] = 7", "st[1] = time()")
        findings = audit_module_source(bad, "t")
        assert rules_of(findings) == {"A006"}
        assert "'time'" in findings[0].message

    def test_allowlisted_builtins_ok(self):
        src = CLEAN_BLOCK.replace("st[1] = 7", "st[1] = len(m)")
        assert audit_module_source(src, "t") == []


def tiny_program(name="auditprobe"):
    b = ProgramBuilder(name)
    buf = b.space_words(4, "buf")
    t0, t1 = b.regs("t0", "t1")
    b.li(t0, buf)
    b.li(t1, 5)
    b.sw(t1, t0, 0)
    b.lw(t1, t0, 0)
    with b.if_(t1, "!=", 0):
        b.addi(t1, t1, 1)
    b.halt()
    return b.build()


class TestRealCodegen:
    """The actual emitters satisfy their own contracts."""

    def test_block_module_clean(self):
        prog = tiny_program()
        src, _meta = compile_blocks_source(prog, SimConfig().costs)
        assert audit_module_source(src, "t") == []

    def test_record_module_clean(self):
        # the module a real recording binds, under the recorder's own
        # cost model, audited after the run has compiled it
        from repro.batch.record import record_run, recording_costs
        prog = tiny_program("auditprobe5")
        costs = SimConfig().costs
        codes, n_retired, _cycles, _regs, _ops = record_run(prog, costs,
                                                            1000)
        assert codes and n_retired > 0
        compiled = get_compiled(prog, recording_costs(costs))
        assert compiled.module_code is not None
        assert audit_compiled(compiled) == []

    def test_suffix_module_clean(self):
        # the tail of a block, as the recorder compiles it when an
        # indirect jalr resumes mid-block
        prog = tiny_program()
        start, end = next((s, e) for s, e in block_spans(prog) if e - s > 1)
        src = compile_suffix_source(prog, SimConfig().costs, start + 1, end)
        assert audit_module_source(src, "t") == []

    def test_audit_compiled_clean(self):
        compiled = get_compiled(tiny_program(), SimConfig().costs)
        # nothing has bound it yet, so no block module is compiled; the
        # audit reads the block source either way
        assert compiled.module_code is None
        assert audit_compiled(compiled) == []

    def test_tampered_source_fails_keying_check(self):
        compiled = get_compiled(tiny_program("auditprobe2"),
                                SimConfig().costs)
        original = compiled.source
        try:
            compiled.source = original + "\n# out-of-key constant\n"
            assert "A005" in rules_of(audit_compiled(compiled))
        finally:
            compiled.source = original

    def test_tampered_suffix_fails_keying_check(self):
        compiled = get_compiled(tiny_program("auditprobe3"),
                                SimConfig().costs)
        try:
            compiled.suffix_sources[1] = "def _bind():\n    return None\n"
            assert "A005" in rules_of(audit_compiled(compiled))
        finally:
            compiled.suffix_sources.clear()


class TestLiveSystems:
    """The suite driver over a live sweep."""

    def test_audit_suite_smoke(self):
        results = audit_suite(["sha"], scale=0.2)
        assert set(results) == {"sha", "lockstep:engines"}
        assert {k: [f.render() for f in v]
                for k, v in results.items() if v} == {}


class TestLockstepEngineContract:
    """A008 (+ A005/A006) over the generated lockstep engines: a clean
    case per audited property and a seeded mutation each."""

    #: a traced WL-Cache point: inline probes, inline stores, the
    #: capacitor accounting block and both lifecycle calls
    SIG = ("wl", 1, 1, 4, 15, 3)

    def _findings(self, mangle=None):
        from repro.lint.codegen_audit import audit_lockstep_engine
        from repro.lockstep.codegen import render_engine_source
        src = render_engine_source(self.SIG)
        if mangle:
            src = mangle(src)
        return audit_lockstep_engine(self.SIG, src, "t")

    def _mutated(self, old, new):
        """Findings for the source with ``old`` replaced by ``new``
        (``old`` must occur, so a rendering change cannot turn the
        mutation into a no-op)."""
        def mangle(src):
            assert old in src
            return src.replace(old, new)
        return self._findings(mangle)

    def test_rendered_engine_clean(self):
        assert self._findings() == []

    def test_outage_without_position_write(self):
        findings = self._mutated(
            "            _core.instret = _p\n"
            "            _core.cycle = _cy\n"
            "            (_t, _per, _np, _lc,\n",
            "            _core.cycle = _cy\n"
            "            (_t, _per, _np, _lc,\n")
        assert "A008" in rules_of(findings)
        assert any("_sys._outage_reboot" in f.message for f in findings)

    def test_halt_without_energy_write(self):
        findings = self._mutated(
            "        if _p == _ntot:\n"
            "            _cap._e_nj = _en\n",
            "        if _p == _ntot:\n")
        assert "A008" in rules_of(findings)
        assert any("_sys._halt_finalize" in f.message for f in findings)

    def test_injected_yield(self):
        header = "def _run(_sys, res, bd, po, evf, cnt):\n"
        findings = self._mutated(header, header + "    yield None\n")
        assert "A008" in rules_of(findings)
        assert any("yields" in f.message for f in findings)

    def test_ambient_name_flagged(self):
        findings = self._mutated("    _np = 0\n", "    _np = _rng\n")
        assert "A006" in rules_of(findings)

    def test_stale_retained_source(self):
        findings = self._findings(lambda s: s + "\n# drifted\n")
        assert "A005" in rules_of(findings)

    def test_real_run_engines_clean(self):
        from repro.batch import clear_streams
        from repro.lint.codegen_audit import audit_lockstep_engines
        from repro.lockstep.codegen import engine_sources
        from repro.sim.sweep import run_grid
        clear_streams()
        run_grid(("sha",), ("WL-Cache", "NVSRAM(ideal)", "WT+Buffer"),
                 "trace1", jobs=1, scale=0.2, engine="fast")
        assert engine_sources(), "lockstep run retained no engines"
        assert audit_lockstep_engines() == []
