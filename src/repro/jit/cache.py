"""Never-called names kept for the benchmark's span tracer.

Kernels record on the reference interpreter (:mod:`repro.batch.record`),
so nothing in the package generates record-mode code any more.
``perfbench/spans.py`` still wraps these names where its table says they
live - this module, :mod:`repro.jit.dispatch` and
:mod:`repro.batch.record` - and raises when one is missing, so they stay
until the tracer skips missing names (ROADMAP housekeeping item H1).
Each raises :class:`NotImplementedError`.
"""


def _gone(*_args, **_kwargs):
    raise NotImplementedError("record-mode code generation is deleted")


compile_blocks_source = compile_suffix_source = compile_trace_source = _gone
get_compiled = _gone


class CompiledProgram:
    suffix_entry = trace_entry = _gone
