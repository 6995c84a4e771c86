"""Structured lint findings and the rule registry.

Every pass reports :class:`Finding` instances; new passes slot in by
registering a :class:`Rule` here and emitting findings that name it. The
CLI and CI layers only consume the dataclasses, so rule additions never
touch the reporting plumbing.

Two rule families share the registry:

* ``L0xx`` - program lint rules over guest kernels (``repro lint``);
  L009-L014 are the intermittency-safety rules and only run under
  ``--intermittent`` (see :mod:`repro.lint.intermittent`).
* ``A0xx`` - static audit contracts over the lockstep engines'
  *generated* Python (``repro audit``, see
  :mod:`repro.lint.codegen_audit`).

:func:`sarif_log` renders either family (or a mix) as a SARIF 2.1.0 log
for GitHub code-scanning upload; waived findings become SARIF
suppressions rather than disappearing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

ERROR = "error"
WARNING = "warning"
INFO = "info"
SEVERITIES = (ERROR, WARNING, INFO)

#: severity -> SARIF result level
_SARIF_LEVELS = {ERROR: "error", WARNING: "warning", INFO: "note"}


@dataclass(frozen=True)
class Rule:
    """One lint rule: a stable ID, its default severity, and a summary."""

    id: str
    name: str
    severity: str
    summary: str


#: The rule registry, keyed by stable rule ID (see docs/lint.md).
RULES: dict[str, Rule] = {r.id: r for r in [
    Rule("L001", "uninit-read", ERROR,
         "read of a register no write ever reaches"),
    Rule("L002", "dead-store", WARNING,
         "register write that no instruction can ever read"),
    Rule("L003", "unreachable", WARNING,
         "basic block unreachable from the program entry"),
    Rule("L004", "bad-target", ERROR,
         "branch/jump target outside the program"),
    Rule("L005", "misaligned-access", ERROR,
         "statically-known memory address violates access alignment"),
    Rule("L006", "out-of-bounds", ERROR,
         "statically-known memory address outside the data address space"),
    Rule("L007", "fall-off-end", ERROR,
         "reachable execution path falls off the end of the program"),
    Rule("L008", "zero-page-access", WARNING,
         "statically-known memory address below the data segment base"),
    # intermittency-safety rules (checkpoint-region dataflow; opt-in via
    # repro lint --intermittent, see docs/lint.md)
    Rule("L009", "war-hazard", WARNING,
         "write-after-read of a non-volatile word inside one checkpoint "
         "region (re-execution after an outage reads the updated value)"),
    Rule("L010", "non-idempotent-rmw", WARNING,
         "read-modify-write of a non-volatile word with no checkpoint "
         "between the read and the dependent write"),
    Rule("L011", "region-budget", WARNING,
         "checkpoint region unbounded (checkpoint-free cycle) or longer "
         "than the worst-case capacitor budget in folded cycles"),
    Rule("L012", "torn-masked-store", WARNING,
         "subword store to a word exposed-read in the same region (a "
         "partial commit before an outage tears the read-back value)"),
    Rule("L013", "dead-checkpoint", INFO,
         "checkpoint no store reaches since the previous boundary (it "
         "persists nothing new)"),
    Rule("L014", "ckpt-unreachable-store", WARNING,
         "store from which no checkpoint or halt is reachable (the "
         "write can never be made durable)"),
]}

RULES_BY_NAME: dict[str, Rule] = {r.name: r for r in RULES.values()}

#: Static codegen-audit contracts (``repro audit``); registered apart
#: from the program-lint rules so each CLI reports its own catalogue.
AUDIT_RULES: dict[str, Rule] = {r.id: r for r in [
    Rule("A005", "baked-key-mismatch", ERROR,
         "baked-in constants disagree with the engine cache's keying "
         "tuple (a fresh render of the same signature yields different "
         "source)"),
    Rule("A006", "ambient-state", ERROR,
         "generated code reaches outside its bound arguments (imports, "
         "wall-clock, or global mutable state)"),
    Rule("A008", "lockstep-engine-protocol", ERROR,
         "a generated lockstep engine breaks the lifecycle contract "
         "(not one plain function _run, or an _outage_reboot / "
         "_halt_finalize call not preceded, in its block or an "
         "enclosing if block, by current writes of the capacitor "
         "energy, instret and cycle)"),
]}

#: Every registered rule, both families, for SARIF/driver lookups.
ALL_REGISTERED_RULES: dict[str, Rule] = {**RULES, **AUDIT_RULES}


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic.

    Attributes:
        rule: The rule ID (e.g. ``"L001"``).
        severity: One of :data:`SEVERITIES`.
        location: ``"<program>@<instruction index>"`` (or ``"<program>"``
            for whole-program findings).
        message: Human-readable diagnostic.
        waived: The justification string of a matching waiver, when one
            suppressed this finding (waived findings never affect the
            exit code but stay visible in every report format).
    """

    rule: str
    severity: str
    location: str
    message: str
    waived: str | None = field(default=None, compare=False)

    def as_dict(self) -> dict[str, str]:
        rule = ALL_REGISTERED_RULES.get(self.rule)
        d = {
            "rule": self.rule,
            "name": rule.name if rule else "",
            "severity": self.severity,
            "location": self.location,
            "message": self.message,
        }
        if self.waived is not None:
            d["waived"] = self.waived
        return d

    def render(self) -> str:
        rule = ALL_REGISTERED_RULES.get(self.rule)
        name = rule.name if rule else "?"
        tail = f" [waived: {self.waived}]" if self.waived is not None else ""
        return (f"{self.location}: {self.severity}: "
                f"[{self.rule} {name}] {self.message}{tail}")


def make_finding(rule_id: str, location: str, message: str,
                 severity: str | None = None) -> Finding:
    """Build a finding for a registered rule (default severity unless
    overridden)."""
    rule = ALL_REGISTERED_RULES[rule_id]
    return Finding(rule_id, severity or rule.severity, location, message)


def count_by_severity(findings, include_waived: bool = False
                      ) -> dict[str, int]:
    """Histogram findings over :data:`SEVERITIES` (all keys present).
    Waived findings are excluded unless ``include_waived``."""
    counts = dict.fromkeys(SEVERITIES, 0)
    for f in findings:
        if f.waived is not None and not include_waived:
            continue
        counts[f.severity] = counts.get(f.severity, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# SARIF 2.1.0 export (GitHub code-scanning upload format)
# ---------------------------------------------------------------------------

def sarif_log(results: dict[str, list[Finding]], tool_name: str,
              artifact_uris: dict[str, str] | None = None) -> dict:
    """Render ``{unit name: findings}`` as a SARIF 2.1.0 log ``dict``.

    ``artifact_uris`` optionally maps a unit name (the key in
    ``results``) to a repo-relative source path; findings from that unit
    then carry a physical location (GitHub annotates the file inline)
    in addition to the logical ``<unit>@<index>`` location. Waived
    findings are emitted with a SARIF ``suppressions`` entry carrying
    the justification, so code scanning shows them as suppressed rather
    than open.
    """
    artifact_uris = artifact_uris or {}
    used_rules: list[str] = []
    seen: set[str] = set()
    sarif_results = []
    for unit, findings in results.items():
        for f in findings:
            if f.rule not in seen:
                seen.add(f.rule)
                used_rules.append(f.rule)
            location: dict = {
                "logicalLocations": [{"fullyQualifiedName": f.location}],
            }
            uri = artifact_uris.get(unit)
            if uri:
                location["physicalLocation"] = {
                    "artifactLocation": {"uri": uri},
                    "region": {"startLine": 1},
                }
            result: dict = {
                "ruleId": f.rule,
                "level": _SARIF_LEVELS.get(f.severity, "warning"),
                "message": {"text": f"{f.location}: {f.message}"},
                "locations": [location],
            }
            if f.waived is not None:
                result["suppressions"] = [{
                    "kind": "inSource",
                    "justification": f.waived,
                }]
            sarif_results.append(result)
    driver_rules = []
    for rid in sorted(used_rules):
        rule = ALL_REGISTERED_RULES.get(rid)
        if rule is None:
            continue
        driver_rules.append({
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "defaultConfiguration": {
                "level": _SARIF_LEVELS.get(rule.severity, "warning"),
            },
        })
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": tool_name,
                "informationUri":
                    "https://github.com/example/repro/blob/main/docs/lint.md",
                "rules": driver_rules,
            }},
            "results": sarif_results,
        }],
    }


def format_findings_sarif(results: dict[str, list[Finding]],
                          tool_name: str = "repro-lint",
                          artifact_uris: dict[str, str] | None = None) -> str:
    """SARIF 2.1.0 report string (the CI code-scanning artifact)."""
    return json.dumps(sarif_log(results, tool_name, artifact_uris), indent=2)
