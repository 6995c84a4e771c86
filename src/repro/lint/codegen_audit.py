"""Static auditor for the generated Python of the record-mode and
lockstep tiers.

Two subsystems in this codebase *generate* Python source and ``exec``
it: the batch recorder's record-mode block codegen
(:mod:`repro.jit.blocks`) and the lockstep tier's per-point engine
(:mod:`repro.lockstep.codegen`). Their correctness contracts are
exercised dynamically by differential tests, but dynamic tests only
sample: an exit that forgets to flush one ``st`` slot is invisible
until a recording happens to leave through that exact exit. This
module re-states the contracts *structurally* and verifies them over
the ``ast`` of the actual generated source - every exit path, every
lifecycle call, every baked constant - so a codegen regression is
caught by shape, not by luck.

The contracts (registered as ``A0xx`` in :mod:`repro.lint.findings`):

* **A001 exit-state-incomplete** - every exit path of a generated
  function (each ``return`` and each fault ``raise _EE``) is dominated
  by assignments to ``st[0]`` (cycle), ``st[1]`` (fetch line) and
  ``st[7]`` (retired count); every constant ``st`` index is in 0..8.
  This is the "9-slot state list travels whole" contract the recorder
  relies on.
* **A002 retire-count-mismatch** - the ``st[7]`` constant each exit
  flushes is consistent with the block length the dispatch table
  declares: block/suffix returns retire exactly the declared length,
  fault paths retire ``1..length``.
* **A003 record-exit-codes** - every return is dominated by *exactly
  one* ``_q.append(code)`` with ``code`` in ``{2*start, 2*start + 1}``;
  fault paths append nothing. The batch engine replays streams
  positionally, so a missing, doubled, or mislabeled exit code silently
  corrupts every replay of the recording.
* **A005 baked-key-mismatch** - regenerating the source from the keying
  inputs (program content and frozen costs; for lockstep engines, the
  point signature) reproduces the audited source byte for byte. This
  pins the code cache's keying tuple to the baked constants: if codegen
  starts baking a value the key does not cover, the first sweep that
  varies it gets stale code - and this check fails loudly instead.
* **A006 ambient-state** - generated modules import nothing, declare
  nothing global/nonlocal, and resolve every free name to a bound
  parameter, a local, or an allowlisted builtin (``len``/``hex``). No
  wall-clock, no RNG, no module-global mutable state: a compiled module
  may be shared across cores and sweep points, and determinism (and
  record/replay bit-equality) depends on it.
* **A008 lockstep-engine-protocol** - a generated engine
  (:mod:`repro.lockstep.codegen`) is one plain function ``_run`` (no
  ``yield``), and every ``_sys._outage_reboot(...)`` and
  ``_sys._halt_finalize(...)`` call follows writes of ``_cap._e_nj``,
  ``_core.instret`` and ``_core.cycle`` in its own block. The engine
  keeps energy, position and cycle in locals, and the lifecycle blocks
  read them from the capacitor and the point's core, so a missing
  write silently forks the lifecycle's state from the engine's.
  Engines are also held to A005 (the retained source must match a
  fresh render of the same point signature) and A006 (free names
  resolve only to the engine's exec namespace: the error types and the
  few helpers ``get_engine`` binds).

Drivers: :func:`audit_compiled` (one
:class:`~repro.jit.cache.CompiledProgram`, including any suffix modules
it has materialized), :func:`audit_lockstep_engines` (every retained
engine source), and :func:`audit_suite` (the CLI's ``repro audit``:
each requested kernel's record modules and the engines a small
lockstep sweep materializes).
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding, make_finding

#: builtins generated code may reference (A006)
_ALLOWED_BUILTINS = frozenset({"len", "hex"})

#: names a lockstep engine may resolve beyond its locals: the exec
#: namespace :func:`repro.lockstep.codegen.get_engine` binds, plus the
#: builtins the rendered source uses. Pinned here on purpose - a new
#: bind in codegen must be reviewed against this list, not silently
#: allowed.
_ENGINE_BINDS = frozenset({"EnergyError", "ExecutionError", "_ILS",
                           "_DQE", "_bis", "int"})


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------

def _exit_paths(fn: ast.FunctionDef):
    """Every ``return``/``raise`` in ``fn`` with its *dominating*
    statements: the statements guaranteed to have executed on any path
    reaching the exit (the prefixes along its nesting chain). Nested
    suites contribute their containing compound statement, never their
    inner statements."""
    out: list[tuple[ast.stmt, list[ast.stmt]]] = []

    def walk(suite, prefix):
        for idx, stmt in enumerate(suite):
            here = prefix + suite[:idx]
            if isinstance(stmt, (ast.Return, ast.Raise)):
                out.append((stmt, here))
            elif isinstance(stmt, (ast.If, ast.For, ast.While)):
                walk(stmt.body, here)
                walk(stmt.orelse, here)

    walk(fn.body, [])
    return out


def _st_const_assigns(stmts) -> dict[int, object]:
    """``{slot: value node}`` for plain ``st[<const>] = ...`` assignments
    among ``stmts`` (last assignment wins, like execution would)."""
    slots: dict[int, object] = {}
    for stmt in stmts:
        if not isinstance(stmt, ast.Assign):
            continue
        for tgt in stmt.targets:
            idx = _st_subscript_index(tgt)
            if idx is not None:
                slots[idx] = stmt.value
    return slots


def _st_subscript_index(node) -> int | None:
    if (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "st"
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, int)):
        return node.slice.value
    return None


def _q_appends(stmts) -> list[object]:
    """The argument nodes of top-level ``_q.append(...)`` calls."""
    out = []
    for stmt in stmts:
        if (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr == "append"
                and isinstance(stmt.value.func.value, ast.Name)
                and stmt.value.func.value.id == "_q"):
            out.append(stmt.value.args[0] if stmt.value.args else None)
    return out


# ---------------------------------------------------------------------------
# per-function contracts (A001/A002/A003)
# ---------------------------------------------------------------------------

def _fn_kind(name: str) -> str | None:
    """'block' / 'suffix' from the generated naming scheme."""
    if name.startswith("_b"):
        return "block"
    if name.startswith("_s") and name != "_state_flush":
        return "suffix"
    return None


def _audit_generated_fn(fn: ast.FunctionDef, declared: int | None,
                        loc: str) -> list[Finding]:
    findings: list[Finding] = []
    start = int(fn.name[2:]) if _fn_kind(fn.name) else None

    # A001 (range half): every constant st index the function touches
    for node in ast.walk(fn):
        idx = _st_subscript_index(node)
        if idx is not None and not 0 <= idx <= 8:
            findings.append(make_finding(
                "A001", loc,
                f"st[{idx}] is outside the 9-slot state list"))

    for exit_node, doms in _exit_paths(fn):
        is_raise = isinstance(exit_node, ast.Raise)
        line = getattr(exit_node, "lineno", 0)
        where = f"{loc} line {line}"
        slots = _st_const_assigns(doms)

        # A001: the cycle/line/retired slots flush on every exit
        missing = [k for k in (0, 1, 7) if k not in slots]
        if missing:
            kind_s = "fault path" if is_raise else "exit"
            findings.append(make_finding(
                "A001", where,
                f"{kind_s} leaves st{missing} unwritten (every exit "
                f"must flush st[0]/st[1]/st[7])"))

        # A002: the retired count is consistent with the declared length
        retired = slots.get(7)
        if (declared is not None and retired is not None
                and isinstance(retired, ast.Constant)
                and isinstance(retired.value, int)):
            k = retired.value
            if is_raise:
                ok = 1 <= k <= declared
                want = f"1..{declared}"
            else:
                ok = k == declared
                want = str(declared)
            if not ok:
                findings.append(make_finding(
                    "A002", where,
                    f"exit flushes st[7] = {k}, but the dispatch table "
                    f"declares length {declared} (expected {want})"))

        # A003: exit codes
        appends = _q_appends(doms)
        if is_raise:
            if appends:
                findings.append(make_finding(
                    "A003", where,
                    "fault path appends an exit code (faults retire "
                    "no block; the replay stream must not see one)"))
        elif len(appends) != 1:
            findings.append(make_finding(
                "A003", where,
                f"exit appends {len(appends)} exit codes (exactly "
                f"one per return)"))
        elif start is not None:
            arg = appends[0]
            ok = (isinstance(arg, ast.Constant)
                  and arg.value in (2 * start, 2 * start + 1))
            if not ok:
                got = ast.unparse(arg) if arg is not None else "<none>"
                findings.append(make_finding(
                    "A003", where,
                    f"exit code {got} is not 2*{start} or "
                    f"2*{start}+1"))
    return findings


def _declared_lengths(bind: ast.FunctionDef) -> dict[str, int]:
    """``{fn name: length}`` from ``_table[N] = (_bN, L)`` assignments
    and the suffix ``return (_sN, L)`` form."""
    out: dict[str, int] = {}

    def from_tuple(node):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and isinstance(node.elts[0], ast.Name)
                and isinstance(node.elts[1], ast.Constant)
                and isinstance(node.elts[1].value, int)):
            out[node.elts[0].id] = node.elts[1].value

    for stmt in bind.body:
        if isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                if (isinstance(tgt, ast.Subscript)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "_table"):
                    from_tuple(stmt.value)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            from_tuple(stmt.value)
    return out


# ---------------------------------------------------------------------------
# A006: ambient-state / free-variable purity
# ---------------------------------------------------------------------------

def _scope_findings(tree: ast.Module, loc: str,
                    extra: frozenset = frozenset()) -> list[Finding]:
    allowed = _ALLOWED_BUILTINS | extra
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
                        and n.id not in allowed):
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
                    and node.id not in allowed):
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
# module-level audits
# ---------------------------------------------------------------------------

def audit_module_source(source: str, unit: str) -> list[Finding]:
    """A001-A003 + A006 over one generated record-mode module's source."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - compile() ran first
        return [make_finding("A006", unit,
                             f"generated module does not parse: {exc}")]
    findings: list[Finding] = []
    bind = next((n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name == "_bind"),
                None)
    if bind is None:
        return [make_finding("A006", unit,
                             "generated module defines no _bind")]
    declared = _declared_lengths(bind)
    for fn in bind.body:
        if not isinstance(fn, ast.FunctionDef) or _fn_kind(fn.name) is None:
            continue
        findings.extend(_audit_generated_fn(
            fn, declared.get(fn.name), f"{unit}:{fn.name}"))
    findings.extend(_scope_findings(tree, unit))
    return findings


def audit_compiled(compiled) -> list[Finding]:
    """Audit one :class:`~repro.jit.cache.CompiledProgram`: the block
    source (whether or not :meth:`bind` has compiled it into a module),
    every materialized suffix module, and the A005 recompile check that
    ties the source to the cache keying tuple."""
    from repro.jit.blocks import compile_blocks_source, compile_suffix_source

    program, costs = compiled.program, compiled.costs
    unit = f"jit:{program.name}"
    findings = audit_module_source(compiled.source, unit)

    fresh, _meta = compile_blocks_source(program, costs)
    if fresh != compiled.source:
        findings.append(make_finding(
            "A005", unit,
            "recompiling from the cache key (program content, costs) "
            "does not reproduce the cached source - a baked constant "
            "escapes the keying tuple"))

    starts = sorted(s for s, _l in compiled.block_meta.items())
    n = compiled.n
    for pc, src in sorted(compiled.suffix_sources.items()):
        sunit = f"{unit}+{pc}"
        findings.extend(audit_module_source(src, sunit))
        end = next((s for s in starts if s > pc), n)
        if src != compile_suffix_source(program, costs, pc, end):
            findings.append(make_finding(
                "A005", sunit,
                f"suffix module @{pc} diverges from a fresh compile of "
                f"the same key"))
    return findings


def _lifecycle_findings(engine: ast.FunctionDef,
                        unit: str) -> list[Finding]:
    """A008: every ``System`` lifecycle call the engine makes sits in a
    plain statement of a block that writes the capacitor energy, the
    position and the cycle before it."""
    calls = {"_sys._outage_reboot", "_sys._halt_finalize"}
    sync = {"_cap._e_nj", "_core.instret", "_core.cycle"}
    synced: set[int] = set()
    for node in ast.walk(engine):
        for field in ("body", "orelse", "finalbody"):
            suite = getattr(node, field, None)
            if not isinstance(suite, list):
                continue
            written: set[str] = set()
            for stmt in suite:
                if (sync <= written and not isinstance(
                        stmt, (ast.If, ast.For, ast.While, ast.Try))):
                    synced.update(id(n) for n in ast.walk(stmt))
                if isinstance(stmt, ast.Assign):
                    written.update(ast.unparse(t) for t in stmt.targets)
    return [make_finding(
        "A008", f"{unit} line {node.lineno}",
        f"{ast.unparse(node.func)} does not follow writes of "
        f"{', '.join(sorted(sync))} in its own block (the "
        f"lifecycle would read a stale energy, position or cycle)")
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
    findings.extend(_scope_findings(tree, unit, extra=_ENGINE_BINDS))

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

def audit_suite(apps=None, designs=None,
                scale: float = 1.0) -> dict[str, list[Finding]]:
    """Statically audit the generated code a sweep over the requested
    kernels and designs runs: the engines a small lockstep sweep (first
    kernel, every requested design, traced and untraced) materializes,
    and each kernel's record modules once
    per cost family of the requested designs (with any suffix modules
    the sweep's recording materialized). Returns ``{unit: findings}``."""
    from repro.batch.record import recording_costs
    from repro.jit.cache import get_compiled
    from repro.sim.config import DESIGNS, SimConfig
    from repro.sim.factory import effective_costs
    from repro.sim.sweep import run_grid
    from repro.workloads import ALL_WORKLOADS, build_workload

    apps = list(apps) if apps else list(ALL_WORKLOADS)
    designs = list(designs) if designs else list(DESIGNS)
    config = SimConfig()
    for trace in (None, "trace1"):
        run_grid(apps[:1], designs, trace, jobs=1, scale=scale,
                 verify=False, engine="fast")
    results: dict[str, list[Finding]] = {}
    families = dict.fromkeys(recording_costs(effective_costs(d, config))
                             for d in designs)
    for app in apps:
        program = build_workload(app, scale)
        results[app] = [f for costs in families
                        for f in audit_compiled(get_compiled(program, costs))]
    results["lockstep:engines"] = audit_lockstep_engines()
    return results
