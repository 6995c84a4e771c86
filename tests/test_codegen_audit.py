"""The static codegen auditor (A001-A007): every contract gets a clean
case and at least one seeded mutation it must catch.

The synthetic-module tests feed hand-written sources shaped like the
JIT emitter's output through :func:`audit_module_source`, so each
contract is exercised in isolation; the integration tests then audit
real compiled output (and tampered copies of it) end to end.
"""

import pathlib

from repro.isa.builder import ProgramBuilder
from repro.jit.blocks import compile_blocks_source
from repro.jit.cache import get_compiled
from repro.lint.codegen_audit import (_audit_handler_source, audit_compiled,
                                      audit_memfast_design,
                                      audit_module_source,
                                      audit_replay_module, audit_suite)
from repro.sim.config import DESIGNS, SimConfig
from repro.sim.factory import build_system
from repro.workloads import build_workload


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


# a minimal module in the emitter's shape: one 2-instruction block that
# flushes the full exit state and is declared in the dispatch table
CLEAN_BLOCK = """\
def _bind(_load, _store, _EE):
    def _b0(st, m):
        st[0] = st[0] + 3
        st[1] = 7
        st[7] = 2
        return 2
    _table = [None] * 4
    _table[0] = (_b0, 2)
    return _table
"""

CLEAN_RECORD = CLEAN_BLOCK.replace(
    "def _bind(_load, _store, _EE):",
    "def _bind(_load, _store, _EE, _q):").replace(
    "        return 2", "        _q.append(0)\n        return 2")


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

    def test_trace_side_exits_may_retire_partially(self):
        src = """\
def _bind(_EE):
    def _t0(st, m):
        st[0] = 1
        st[1] = 0
        if m:
            st[7] = 1
            return 9
        st[7] = 4
        return None
    return (_t0, 4)
"""
        assert audit_module_source(src, "t") == []
        over = src.replace("st[7] = 4", "st[7] = 5")
        assert rules_of(audit_module_source(over, "t")) == {"A002"}

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
    """A003: record modules append exactly one valid code per return."""

    def test_clean_record_module(self):
        assert audit_module_source(CLEAN_RECORD, "t", record=True) == []

    def test_missing_append(self):
        bad = CLEAN_RECORD.replace("        _q.append(0)\n", "")
        findings = audit_module_source(bad, "t", record=True)
        assert rules_of(findings) == {"A003"}
        assert "0 exit codes" in findings[0].message

    def test_doubled_append(self):
        bad = CLEAN_RECORD.replace("_q.append(0)",
                                   "_q.append(0)\n        _q.append(0)")
        assert rules_of(audit_module_source(bad, "t", record=True)) == \
            {"A003"}

    def test_wrong_code(self):
        # block 0 may only emit 0 (fallthrough) or 1 (taken)
        bad = CLEAN_RECORD.replace("_q.append(0)", "_q.append(5)")
        findings = audit_module_source(bad, "t", record=True)
        assert rules_of(findings) == {"A003"}
        assert "2*0" in findings[0].message

    def test_non_record_module_must_not_touch_queue(self):
        bad = CLEAN_BLOCK.replace("return 2", "_q.append(0)\n        return 2")
        findings = audit_module_source(bad, "t", record=False)
        assert "A003" in rules_of(findings)


class TestBailBeforeMutate:
    """A004: both halves - JIT tag guards and handler bail ordering."""

    JIT = """\
def _bind(_acc):
    def _b0(st, line, lineno):
        st[0] = 1
        st[1] = 0
        st[7] = 1
        if line.tag == lineno:
            _acc[0] += 1
        return 1
    _table = [None]
    _table[0] = (_b0, 1)
    return _table
"""

    def test_guarded_accumulator_ok(self):
        assert audit_module_source(self.JIT, "t") == []

    def test_unguarded_accumulator_flagged(self):
        bad = self.JIT.replace(
            "        if line.tag == lineno:\n            _acc[0] += 1",
            "        _acc[0] += 1")
        findings = audit_module_source(bad, "t")
        assert rules_of(findings) == {"A004"}
        assert "_acc" in findings[0].message

    HANDLER = """\
def _make(_mru, _acc, _slow):
    def load(addr, now, _mru=_mru, _acc=_acc, _slow=_slow):
        line = _mru[0]
        if line.tag != addr:
            _mru[0] = line
            return _slow(addr, now)
        _acc[0] += 1
        return 1
    return load
"""

    def test_mru_hint_may_precede_bail(self):
        assert _audit_handler_source(self.HANDLER, "t") == []

    def test_mutate_then_bail_flagged(self):
        bad = self.HANDLER.replace(
            "            _mru[0] = line\n",
            "            _acc[0] += 1\n")
        findings = _audit_handler_source(bad, "t")
        assert rules_of(findings) == {"A004"}
        assert "_acc" in findings[0].message

    def test_loop_body_mutation_reaches_later_bail(self):
        src = """\
def _make(_sets, _acc, _slow):
    def load(addr, now, _sets=_sets, _acc=_acc, _slow=_slow):
        for line in _sets:
            _acc[2] += 1
        return _slow(addr, now)
    return load
"""
        assert rules_of(_audit_handler_source(src, "t")) == {"A004"}


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
        src, _meta = compile_blocks_source(prog, SimConfig().costs,
                                           False, False)
        assert audit_module_source(src, "t") == []

    def test_record_module_clean(self):
        prog = tiny_program()
        src, _meta = compile_blocks_source(prog, SimConfig().costs,
                                           False, True)
        assert audit_module_source(src, "t", record=True) == []

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


class TestReplayContract:
    """A007 over the hand-written batch walker."""

    def test_real_module_clean(self):
        assert audit_replay_module() == []

    def tampered(self, monkeypatch, tmp_path, mangle):
        import repro.batch.replay as replay_mod
        src = pathlib.Path(replay_mod.__file__).read_text(encoding="utf-8")
        fake = tmp_path / "replay.py"
        fake.write_text(mangle(src), encoding="utf-8")
        monkeypatch.setattr(replay_mod, "__file__", str(fake))
        return audit_replay_module()

    def test_wrong_now_formula(self, monkeypatch, tmp_path):
        findings = self.tampered(
            monkeypatch, tmp_path,
            lambda s: s.replace("cum[i] - c_mem + dyn + offset",
                                "cum[i] + dyn + offset"))
        assert rules_of(findings) == {"A007"}
        assert any("now=" in f.message for f in findings)

    def test_stray_import(self, monkeypatch, tmp_path):
        findings = self.tampered(
            monkeypatch, tmp_path,
            lambda s: s.replace("from __future__ import annotations",
                                "from __future__ import annotations\n"
                                "import time"))
        assert rules_of(findings) == {"A007"}
        assert any("'time'" in f.message for f in findings)


class TestLiveSystems:
    """Handlers installed on live designs, and the suite driver."""

    def test_memfast_handlers_clean_on_every_design(self):
        prog = build_workload("sha", 0.2)
        for design in DESIGNS:
            system = build_system(prog, design, None,
                                  SimConfig(jit=True, memfast=True))
            system.run()
            assert audit_memfast_design(system.design) == [], design

    def test_tampered_handler_fails_keying_check(self):
        prog = build_workload("sha", 0.2)
        system = build_system(prog, DESIGNS[0], None,
                              SimConfig(jit=True, memfast=True))
        system.run()
        m = system.design
        if getattr(m, "_memfast_state", None) is None:
            return  # design has no fast path installed
        handler = m.load
        original = handler._memfast_source
        try:
            handler._memfast_source = original.replace(
                "def _make", "def  _make")
            assert "A005" in rules_of(audit_memfast_design(m))
        finally:
            handler._memfast_source = original

    def test_audit_suite_smoke(self):
        results = audit_suite(["sha"], scale=0.2)
        assert set(results) == {"batch:replay", "sha",
                                "lockstep:engines", "store:loads"}
        assert {k: [f.render() for f in v]
                for k, v in results.items() if v} == {}

    def test_audit_suite_skips_a_core_that_compiled_nothing(
            self, monkeypatch):
        # with no chunk reaching the trace threshold the live cores run
        # on the interpreter and never fetch a compiled program; the
        # suite still audits the kernel's record module
        import repro.jit.dispatch as dispatch
        monkeypatch.setattr(dispatch, "TRACE_CAP", 1 << 30)
        system = build_system(tiny_program("auditprobe4"), "WL-Cache",
                              None, SimConfig(jit=True, memfast=True))
        system.run()
        assert system.core._jit_state.compiled is None
        results = audit_suite(["sha"], designs=["WL-Cache"], scale=0.2)
        assert results["sha"] == []


class TestLockstepEngineContract:
    """A008 (+ A005/A006) over the generated lockstep column engines:
    a clean case per audited property and a seeded mutation each."""

    #: a mixed column: wl fast stores, base fast loads, call fallback
    SIG = (("wl", 1, 1, 4, 15, 3), ("base", 0, 0, 4, 15, 3),
           ("call", 0, 1, 0, 0, 0))

    def _findings(self, mangle=None):
        from repro.lint.codegen_audit import audit_lockstep_engine
        from repro.lockstep.codegen import render_engine_source
        src = render_engine_source(self.SIG)
        if mangle:
            src = mangle(src)
        return audit_lockstep_engine(self.SIG, src, "t")

    def test_rendered_engine_clean(self):
        assert self._findings() == []

    def test_unknown_episode_tag(self):
        findings = self._findings(lambda s: s.replace(
            "_ep.append(('bail',))", "_ep.append(('oops',))"))
        assert "A008" in rules_of(findings)

    def test_wrong_episode_arity(self):
        findings = self._findings(lambda s: s.replace(
            "_ep.append(('bail',))", "_ep.append(('bail', 0))"))
        assert "A008" in rules_of(findings)

    def test_missing_cursor_publication(self):
        findings = self._findings(lambda s: s.replace(
            "cell[2] = _cur", "pass"))
        assert "A008" in rules_of(findings)
        assert any("cell[2]" in f.message for f in findings)

    def test_missing_instance_writeback(self):
        # drop instance 1's mirror slice writeback (the slice *store*,
        # not the matching unpack read at round entry)
        findings = self._findings(lambda s: s.replace(
            "            _s1[20:38] = ", "            _y = "))
        assert "A008" in rules_of(findings)
        assert any("instances [1]" in f.message for f in findings)

    def test_ambient_name_flagged(self):
        findings = self._findings(lambda s: s.replace(
            "_ep.append(('bail',))",
            "_ep.append(('bail',)) if _rng else None"))
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
                 "trace1", jobs=1, scale=0.2, jit=True, memfast=True,
                 batch=True, lockstep=True)
        assert engine_sources(), "lockstep run retained no engines"
        assert audit_lockstep_engines() == []
