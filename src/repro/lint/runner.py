"""Lint driver: run the rule passes over workloads and format the results.

The CLI's ``repro lint`` subcommand is a thin shell over this module, and
the CI ``lint-programs`` job consumes :func:`format_findings_json` output
as its findings artifact (``format_findings_sarif`` feeds the
code-scanning upload).

Waivers: a program may carry ``meta["lint_waivers"]`` entries
(``ProgramBuilder.waive_lint`` / the assembler's ``.waive``), each a
rule ID plus a justification. :func:`apply_waivers` marks matching
findings instead of dropping them - every report format still shows the
finding with its justification, but waived findings no longer drive the
exit code. An unjustified suppression is therefore impossible and a
stale waiver (rule no longer fires) is visible as such.
"""

from __future__ import annotations

import json

from repro.isa.program import Program
from repro.lint.findings import (ERROR, SEVERITIES, WARNING, Finding,
                                 count_by_severity, format_findings_sarif)
from repro.lint.intermittent import WAIVERS_KEY, run_intermittent_rules
from repro.lint.rules import run_rules
from repro.workloads import ALL_WORKLOADS, build_workload

#: ``repro lint`` exit codes: clean / warnings only / error findings.
EXIT_CLEAN = 0
EXIT_WARNINGS = 1
EXIT_ERRORS = 2


def program_waivers(program: Program) -> list[dict[str, str]]:
    """The program's well-formed waiver entries."""
    out = []
    for w in program.meta.get(WAIVERS_KEY, ()):
        if isinstance(w, dict) and w.get("rule") and w.get("reason"):
            out.append({"rule": str(w["rule"]), "reason": str(w["reason"])})
    return out


def apply_waivers(program: Program,
                  findings: list[Finding]) -> list[Finding]:
    """Mark findings matched by the program's waivers (never drops)."""
    waivers = program_waivers(program)
    if not waivers:
        return findings
    by_rule = {w["rule"]: w["reason"] for w in waivers}
    out = []
    for f in findings:
        reason = by_rule.get(f.rule)
        if reason is not None and f.waived is None:
            f = Finding(f.rule, f.severity, f.location, f.message,
                        waived=reason)
        out.append(f)
    return out


def lint_program(program: Program, intermittent: bool = False,
                 budget_cycles: int | None = None) -> list[Finding]:
    """Run the lint passes over one assembled program.

    ``intermittent`` additionally runs the checkpoint-region rules
    L009-L014 (:mod:`repro.lint.intermittent`); ``budget_cycles``
    overrides the derived capacitor budget for L011. Waivers carried in
    ``program.meta`` are applied either way.
    """
    findings = run_rules(program)
    if intermittent:
        findings = findings + run_intermittent_rules(
            program, budget_cycles=budget_cycles)
    return apply_waivers(program, findings)


def lint_workloads(names=None, scale: float = 1.0,
                   intermittent: bool = False,
                   budget_cycles: int | None = None
                   ) -> dict[str, list[Finding]]:
    """Build and lint the named suite workloads (default: all 23).

    Returns ``{workload name: findings}`` in request order; unknown names
    raise ``KeyError`` via the workload registry.
    """
    names = list(names) if names else list(ALL_WORKLOADS)
    return {name: lint_program(build_workload(name, scale),
                               intermittent=intermittent,
                               budget_cycles=budget_cycles)
            for name in names}


def exit_code(results: dict[str, list[Finding]],
              errors_only: bool = False) -> int:
    """Map lint results onto the CLI exit-code contract.

    Waived findings never gate, and neither do info-level notes. With
    ``errors_only`` the warning tier stops gating too: warnings-only
    results exit 0, matching what the ``--errors-only`` report shows.
    """
    severities = {f.severity for findings in results.values()
                  for f in findings if f.waived is None}
    if ERROR in severities:
        return EXIT_ERRORS
    if WARNING in severities and not errors_only:
        return EXIT_WARNINGS
    return EXIT_CLEAN


def _totals(results: dict[str, list[Finding]]) -> dict[str, int]:
    totals = dict.fromkeys(SEVERITIES, 0)
    for findings in results.values():
        for sev, n in count_by_severity(findings).items():
            totals[sev] += n
    return totals


def filter_errors_only(results: dict[str, list[Finding]]
                       ) -> dict[str, list[Finding]]:
    """Keep only error-severity findings (waived ones included, so a
    waived error stays visible next to its justification)."""
    return {name: [f for f in findings if f.severity == ERROR]
            for name, findings in results.items()}


def format_findings_text(results: dict[str, list[Finding]], *,
                         counted: str = "programs linted") -> str:
    """Human-readable report: one line per finding plus a summary that
    names the entries of ``results`` as ``counted``."""
    lines = []
    waived = 0
    for findings in results.values():
        lines.extend(f.render() for f in findings)
        waived += sum(1 for f in findings if f.waived is not None)
    totals = _totals(results)
    clean = sum(1 for findings in results.values()
                if not any(f.waived is None for f in findings))
    tail = f", {waived} waived" if waived else ""
    lines.append(f"{len(results)} {counted}, {clean} clean; "
                 f"{totals[ERROR]} errors, {totals[WARNING]} warnings"
                 f"{tail}")
    return "\n".join(lines)


def format_findings_json(results: dict[str, list[Finding]], *,
                         names: tuple[str, str] = ("programs", "program")
                         ) -> str:
    """Machine-readable report (the CI findings artifact); ``names`` are
    the keys of the entry list and of each entry's name."""
    listed, item = names
    payload = {
        listed: [
            {
                item: name,
                "findings": [f.as_dict() for f in findings],
                "counts": count_by_severity(findings),
            }
            for name, findings in results.items()
        ],
        "totals": _totals(results),
        "exit_code": exit_code(results),
    }
    return json.dumps(payload, indent=2)


def format_findings(results: dict[str, list[Finding]],
                    fmt: str = "text") -> str:
    """Dispatch over the report formats the CLI exposes."""
    if fmt == "json":
        return format_findings_json(results)
    if fmt == "sarif":
        return format_findings_sarif(results, tool_name="repro-lint")
    return format_findings_text(results)
