"""The static codegen auditor (A005, A006, A008) over the generated
lockstep engines: every contract gets a clean case and at least one
seeded mutation it must catch.

Each mutation edits a freshly rendered engine's source and audits the
result, so the keying check (A005) fires alongside whatever the
mutation breaks; the live tests then audit the engines real sweeps
render.
"""

from repro.lint.codegen_audit import audit_lockstep_engine, audit_suite
from repro.lockstep.codegen import render_engine_source


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


class _EngineHarness:
    """Audit a rendered engine, optionally mutated."""

    #: a traced WL-Cache point: inline probes, inline stores, the
    #: capacitor accounting block and both lifecycle calls
    SIG = ("wl", 1, 1, 4, 15, 3)

    def _findings(self, mangle=None):
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


class TestAmbientState(_EngineHarness):
    """A006: no imports, no globals, no unbound free names."""

    def test_import_flagged(self):
        findings = self._findings(lambda src: "import os\n" + src)
        assert "A006" in rules_of(findings)
        assert any("import" in f.message for f in findings)

    def test_global_flagged(self):
        header = "def _run(_sys, res, bd, evf, cnt):\n"
        findings = self._mutated(header, header + "    global _x\n")
        assert "A006" in rules_of(findings)
        assert any("global" in f.message for f in findings)

    def test_unbound_name_flagged(self):
        findings = self._mutated("    _np = 0\n", "    _np = time()\n")
        assert rules_of(findings) == {"A005", "A006"}
        assert any("'time'" in f.message for f in findings
                   if f.rule == "A006")

    def test_allowlisted_builtins_ok(self):
        # len is in the engine's bound names: only the keying check sees
        # the edit
        findings = self._mutated("    _np = 0\n", "    _np = len(())\n")
        assert rules_of(findings) == {"A005"}


class TestLiveSystems:
    """The suite driver over a live sweep."""

    def test_audit_suite_smoke(self):
        results = audit_suite(scale=0.2)
        assert set(results) == {"lockstep:engines"}
        assert {k: [f.render() for f in v]
                for k, v in results.items() if v} == {}


class TestLockstepEngineContract(_EngineHarness):
    """A008 (+ A005/A006) over the generated lockstep engines: a clean
    case per audited property and a seeded mutation each."""

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
        # the chunk epilogue's write is the only one the halt follows
        findings = self._mutated(
            "        _cap._e_nj = _en\n"
            "        if _p == _ntot:\n",
            "        if _p == _ntot:\n")
        assert "A008" in rules_of(findings)
        assert any("_sys._halt_finalize" in f.message for f in findings)

    def test_energy_write_before_the_harvest(self):
        # a write the harvest then changes is stale for both calls
        def mangle(src):
            late = "        _cap._e_nj = _en\n        if _p == _ntot:\n"
            assert late in src and "        _en += _hv\n" in src
            src = src.replace(late, "        if _p == _ntot:\n")
            return src.replace("        _en += _hv\n",
                               "        _cap._e_nj = _en\n"
                               "        _en += _hv\n")
        findings = self._findings(mangle)
        assert {f.message.split()[0] for f in findings
                if f.rule == "A008"} == {"_sys._halt_finalize",
                                         "_sys._outage_reboot"}

    def test_injected_yield(self):
        header = "def _run(_sys, res, bd, evf, cnt):\n"
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
