"""Shared helpers for the program-specialized codegen dispatch tier.

Both simulators' ``dispatch="codegen"`` backends
(:mod:`repro.interp.codegen`, :mod:`repro.machine.codegen`) generate
straight-line Python source per (program, layer) — operands, register
indices and constants inlined as literals — and ``exec``-compile it once,
one bounded unit at a time.  This package holds the layer-independent
pieces:

* :class:`~repro.simgen.emit.SourceBuilder` — indented source assembly;
* :func:`~repro.simgen.units.compile_units` — partitions a chunk
  sequence into units of bounded size and emits, compiles and drops
  each unit's function in turn;
* :func:`~repro.simgen.cache.compile_generated` — bytecode compilation
  with an optional on-disk cache (``REPRO_CODEGEN_CACHE``) that raises
  :class:`~repro.errors.CodegenCacheError` instead of silently falling
  back when the cache directory is unusable.
"""

from .cache import codegen_cache_dir, compile_generated
from .emit import SourceBuilder
from .units import compile_units

__all__ = ["SourceBuilder", "compile_generated", "codegen_cache_dir",
           "compile_units"]
