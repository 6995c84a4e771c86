"""The command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "sha" in out and "WL-Cache" in out and "trace1" in out


def test_run_no_failure(capsys):
    assert main(["run", "sha", "--scale", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "WL-Cache" in out
    assert "crash consistency: verified" in out


def test_run_with_trace_and_overrides(capsys):
    assert main(["run", "qsort", "--scale", "0.5", "--trace", "trace2",
                 "--maxline", "4", "--static", "--dq-policy", "lru"]) == 0
    out = capsys.readouterr().out
    assert "outages" in out


def test_run_no_verify(capsys):
    assert main(["run", "sha", "--scale", "0.2", "--no-verify"]) == 0
    out = capsys.readouterr().out
    assert "verified" not in out


def test_compare(capsys):
    assert main(["compare", "sha", "--scale", "0.3", "--trace", "trace1",
                 "--designs", "NVSRAM(ideal)", "WL-Cache"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out and "NVSRAM(ideal)" in out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "doom3"])


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("flag", ["--batch", "--lockstep", "--engine=fast"])
def test_lone_runs_reject_sweep_flags(command, flag, capsys):
    # run/compare build lone systems on the interpreter: the engine only
    # picks how sweep points run, and the old per-tier flags are gone
    with pytest.raises(SystemExit) as exc:
        main([command, "sha", "--scale", "0.2", flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--batch"], ["sweep", "--lockstep"],
    ["campaign", "--batch"], ["campaign", "--lockstep"],
    ["campaign", "--stream-cache", "cache"],
    ["sweep", "--engine", "turbo"]])
def test_removed_tier_flags_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_sweep_engine_flag_runs_columns(capsys):
    from repro.batch import batch_stats, clear_streams
    clear_streams()
    try:
        assert main(["sweep", "--apps", "sha", "--designs", "WL-Cache",
                     "NVSRAM(ideal)", "--scale", "0.2", "--trace",
                     "trace1", "--quiet", "--engine", "fast"]) == 0
        assert batch_stats()["lockstep"] == 2
    finally:
        clear_streams()
    assert "sweep under trace1" in capsys.readouterr().out


def test_campaign_engine_flag_runs_columns(tmp_path, capsys):
    from repro.batch import clear_streams
    clear_streams()
    try:
        assert main(["campaign", "--apps", "sha", "--designs", "WL-Cache",
                     "--families", "mc-rf-home", "--seeds", "2",
                     "--scale", "0.1", "--engine", "fast", "--quiet",
                     "--no-svg", "--out", str(tmp_path / "c")]) == 0
    finally:
        clear_streams()
    assert "lockstep=2" in capsys.readouterr().out


def test_dynamic_flag(capsys):
    assert main(["run", "sha", "--scale", "0.2", "--trace", "solar",
                 "--dynamic", "--static"]) == 0


def test_capacitor_override(capsys):
    assert main(["run", "sha", "--scale", "0.2", "--trace", "trace1",
                 "--capacitor-uf", "10"]) == 0


def test_lint_text(capsys):
    assert main(["lint", "--apps", "sha", "qsort", "--scale", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "2 programs linted, 2 clean" in out


def test_audit_has_no_apps_flag(capsys):
    # an engine's source names no kernel, so there is no subset to pick
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--apps", "sha"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_audit_text_counts_units(capsys, monkeypatch):
    # the summary names audit units, not the program linter's programs
    from repro.lint import codegen_audit
    from repro.lint.findings import ERROR, Finding

    units = {"batch:replay": [], "sha": [],
             "lockstep:engines": [Finding("A008", ERROR, "lockstep:engines",
                                          "generated code raised")]}
    monkeypatch.setattr(codegen_audit, "audit_suite",
                        lambda designs, scale: units)
    assert main(["audit"]) == 2
    out = capsys.readouterr().out
    assert out.rstrip().endswith(
        "3 units audited, 2 clean; 1 errors, 0 warnings")
    assert "linted" not in out


def test_audit_json_names_units(capsys, monkeypatch):
    # the JSON report files audit units under "units", not "programs"
    from repro.lint import codegen_audit
    from repro.lint.findings import ERROR, Finding

    units = {"batch:replay": [], "sha": [],
             "lockstep:engines": [Finding("A008", ERROR, "lockstep:engines",
                                          "generated code raised")]}
    monkeypatch.setattr(codegen_audit, "audit_suite",
                        lambda designs, scale: units)
    assert main(["audit", "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert "programs" not in payload
    assert [u["unit"] for u in payload["units"]] == list(units)
    assert payload["units"][2]["counts"]["error"] == 1
    assert payload["exit_code"] == 2


def test_lint_json(capsys):
    assert main(["lint", "--apps", "sha", "--scale", "0.2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["programs"][0]["program"] == "sha"
    assert payload["exit_code"] == 0


def test_lint_empty_selection_rejected(capsys):
    assert main(["lint", "--apps"]) == 2
    assert "no workloads" in capsys.readouterr().err


def test_lint_unknown_app_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["lint", "--apps", "doom3"])


def test_lint_bad_format_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["lint", "--format", "yaml"])


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
