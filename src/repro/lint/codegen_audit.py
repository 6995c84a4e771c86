"""Static auditor for the generated Python of the lockstep tier.

The lockstep tier's per-point engine (:mod:`repro.lockstep.codegen`) is
the one piece of this codebase that *generates* Python source and
runs it with ``exec``. Its correctness contract is exercised dynamically by
differential tests, but dynamic tests only sample: a lifecycle call
that reads a stale energy is invisible until a point happens to reach
it. This module re-states the contracts *structurally* and verifies
them over the ``ast`` of the actual generated source - every lifecycle
call, every free name, every baked constant - so a codegen regression
is caught by shape, not by luck.

The contracts (registered as ``A0xx`` in :mod:`repro.lint.findings`):

* **A005 baked-key-mismatch** - a fresh render of the engine's point
  signature reproduces the retained source byte for byte. This pins the
  engine cache's keying tuple to the baked constants: if codegen starts
  baking a value the signature does not cover, the first sweep that
  varies it gets stale code - and this check fails loudly instead.
* **A006 ambient-state** - an engine imports nothing, declares nothing
  global/nonlocal, and resolves every free name to a bound parameter, a
  local, or the exec namespace :func:`repro.lockstep.codegen.get_engine`
  binds (the error types, a few helpers, ``int`` and ``len``). No
  wall-clock, no RNG, no module-global mutable state: one compiled
  engine is shared by every point of its signature, and determinism
  (and record/replay bit-equality) depends on it.
* **A008 lockstep-engine-protocol** - an engine is one plain function
  ``_run`` (no ``yield``), and every ``_sys._outage_reboot(...)`` and
  ``_sys._halt_finalize(...)`` call follows writes of ``_cap._e_nj``,
  ``_core.instret`` and ``_core.cycle`` in its own block or an
  enclosing ``if`` block of the same loop body, and no local a write
  read is reassigned in between. The engine keeps energy, position and
  cycle in locals, and the lifecycle blocks read them from the
  capacitor and the point's core, so a missing or stale write silently
  forks the lifecycle's state from the engine's. The energy write is
  the chunk epilogue's, after the harvest: a design may also read the
  capacitor from inside a memory call of the next chunk (WL-Cache's
  dynamic maxline policy).

Entry points: :func:`audit_lockstep_engine` (one engine source),
:func:`audit_lockstep_engines` (every retained engine source), and
:func:`audit_suite` (the CLI's ``repro audit``: the engines a small
lockstep sweep materializes). An engine's source is a pure function of
its point signature, which names no kernel and no scale, so one kernel
covers every engine a sweep of the requested designs renders.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding, make_finding

#: names an engine may resolve beyond its locals: the exec namespace
#: :func:`repro.lockstep.codegen.get_engine` binds, plus the builtins
#: the rendered source uses. Pinned here on purpose - a new bind in
#: codegen must be reviewed against this list, not silently allowed.
_ENGINE_BINDS = frozenset({"EnergyError", "ExecutionError", "_ILS",
                           "_DQE", "_bis", "int", "len"})


# ---------------------------------------------------------------------------
# A006: ambient-state / free-variable purity
# ---------------------------------------------------------------------------

def _scope_findings(tree: ast.Module, loc: str) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            findings.append(make_finding(
                "A006", f"{loc} line {node.lineno}",
                "generated code must not import anything"))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            findings.append(make_finding(
                "A006", f"{loc} line {node.lineno}",
                "generated code must not declare global/nonlocal"))

    def shallow_nodes(fn: ast.FunctionDef):
        """Nodes of ``fn``'s own scope: nested FunctionDefs are yielded
        (their name binds here) but never entered."""
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, ast.FunctionDef):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def local_names(fn: ast.FunctionDef) -> set[str]:
        args = fn.args
        names = {a.arg for a in (args.posonlyargs + args.args
                                 + args.kwonlyargs)}
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        for stmt in shallow_nodes(fn):
            if isinstance(stmt, ast.FunctionDef):
                names.add(stmt.name)
            elif isinstance(stmt, ast.ExceptHandler) and stmt.name:
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.For)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            names.add(n.id)
        return names

    def check(fn: ast.FunctionDef, env: set[str]) -> None:
        # default expressions evaluate in the *enclosing* scope
        for d in fn.args.defaults + [d for d in fn.args.kw_defaults if d]:
            for n in ast.walk(d):
                if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                        and n.id not in env
                        and n.id not in _ENGINE_BINDS):
                    findings.append(make_finding(
                        "A006", f"{loc} line {n.lineno}",
                        f"default for {fn.name} references unbound "
                        f"name {n.id!r}"))
        inner_env = env | local_names(fn)
        nested = []
        for node in shallow_nodes(fn):
            if isinstance(node, ast.FunctionDef):
                nested.append(node)
            elif (isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id not in inner_env
                    and node.id not in _ENGINE_BINDS):
                findings.append(make_finding(
                    "A006", f"{loc} line {node.lineno}",
                    f"{fn.name} reaches outside its bindings for "
                    f"{node.id!r}"))
        for sub in nested:
            check(sub, inner_env)

    module_env = {n.name for n in tree.body
                  if isinstance(n, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            check(node, module_env)
    return findings


# ---------------------------------------------------------------------------
# engine audits (A005/A006/A008)
# ---------------------------------------------------------------------------

def _lifecycle_findings(engine: ast.FunctionDef,
                        unit: str) -> list[Finding]:
    """A008: every ``System`` lifecycle call the engine makes sits in a
    plain statement that follows current writes of the capacitor
    energy, the position and the cycle. A write counts in its own block
    and in the ``if`` blocks after it (a loop body starts afresh: it
    also runs after its own later statements), until a statement
    reassigns a local the written value read."""
    calls = {"_sys._outage_reboot", "_sys._halt_finalize"}
    sync = {"_cap._e_nj", "_core.instret", "_core.cycle"}
    synced: set[int] = set()

    def visit(suite: list, written: dict) -> None:
        written = dict(written)  # target -> the locals its value read
        for stmt in suite:
            if not hasattr(stmt, "body"):
                if sync <= written.keys():
                    synced.update(id(n) for n in ast.walk(stmt))
            else:
                inherit = written if isinstance(stmt, ast.If) else {}
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(stmt, field, []), inherit)
                for handler in getattr(stmt, "handlers", []):
                    visit(handler.body, {})
            stored = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)}
            written = {t: read for t, read in written.items()
                       if not read & stored}
            if isinstance(stmt, ast.Assign):
                read = {n.id for n in ast.walk(stmt.value)
                        if isinstance(n, ast.Name)}
                written.update((ast.unparse(t), read) for t in stmt.targets)

    visit(engine.body, {})
    return [make_finding(
        "A008", f"{unit} line {node.lineno}",
        f"{ast.unparse(node.func)} does not follow current writes of "
        f"{', '.join(sorted(sync))} (the lifecycle would read a stale "
        f"energy, position or cycle)")
        for node in ast.walk(engine)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in calls
        and id(node) not in synced]


def audit_lockstep_engine(sig: tuple, source: str,
                          unit: str) -> list[Finding]:
    """A005/A006/A008 over one generated engine's source."""
    from repro.lockstep.codegen import render_engine_source

    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - compile() ran first
        return [make_finding("A006", unit,
                             f"engine source does not parse: {exc}")]
    findings: list[Finding] = []

    # A008: one plain function _run that drives its own lifecycle
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if [d.name for d in defs] != ["_run"]:
        findings.append(make_finding(
            "A008", unit,
            f"engine module defines {[d.name for d in defs]} (expected "
            f"exactly one _run)"))
        return findings
    engine = defs[0]
    findings.extend(make_finding(
        "A008", f"{unit} line {n.lineno}",
        "_run yields: the engine must be a plain function that returns "
        "its RunResult")
        for n in ast.walk(engine) if isinstance(n, (ast.Yield,
                                                    ast.YieldFrom)))
    findings.extend(_lifecycle_findings(engine, unit))

    # A006 with the engine's exec-namespace allowlist
    findings.extend(_scope_findings(tree, unit))

    # A005: the retained source matches a fresh render of the signature
    if source != render_engine_source(sig):
        findings.append(make_finding(
            "A005", unit,
            "retained engine source diverges from a fresh render of "
            "the same point signature - a baked constant escapes the "
            "signature"))
    return findings


def audit_lockstep_engines() -> list[Finding]:
    """Audit every engine source the lockstep tier has retained (run a
    lockstep sweep first to materialize them)."""
    from repro.lockstep.codegen import engine_sources

    findings: list[Finding] = []
    for i, (sig, src) in enumerate(sorted(engine_sources().items())):
        unit = f"lockstep:engine#{i}[{sig[0]}]"
        findings.extend(audit_lockstep_engine(sig, src, unit))
    return findings


# ---------------------------------------------------------------------------
# suite driver (the repro audit CLI)
# ---------------------------------------------------------------------------

def audit_suite(designs=None,
                scale: float = 1.0) -> dict[str, list[Finding]]:
    """Statically audit the engines a sweep over the requested designs
    runs: a small lockstep sweep (one kernel, every requested design,
    traced and untraced) materializes them. Returns ``{unit:
    findings}``."""
    from repro.sim.config import DESIGNS
    from repro.sim.sweep import run_grid
    from repro.workloads import ALL_WORKLOADS

    designs = list(designs) if designs else list(DESIGNS)
    for trace in (None, "trace1"):
        run_grid(ALL_WORKLOADS[:1], designs, trace, jobs=1, scale=scale,
                 verify=False, engine="fast")
    return {"lockstep:engines": audit_lockstep_engines()}
