"""Compile units: generated code emitted, compiled and dropped in
bounded pieces.

``compile()`` of one generated function peaks at a few kilobytes per
source line, so a whole program emitted as one function costs memory in
proportion to the program: building the 2,911-line asm executor of
stringsearch/small dup-100 peaked at 15.1 MB of Python allocations,
against 2.6 MB in units of at most 100 uops (at most 498 lines).  Both
codegen backends therefore split
their chunk sequence into *units* — contiguous chunk ranges holding at
most a fixed number of instructions — and give each unit its own
generated function and its own ``compile()`` call.  A transfer to a
chunk of another unit returns to the layer's run loop, which re-enters
the unit that holds the target.  No whole-program source string is
ever built: each unit's source is dropped once it is compiled.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from .cache import compile_generated
from .emit import SourceBuilder

__all__ = ["compile_units"]


def _partition(sizes: Sequence[int], budget: int) -> List[Tuple[int, int]]:
    """Greedy contiguous ``[lo, hi)`` ranges over items of ``sizes``,
    each range totalling at most ``budget`` (every item must fit)."""
    spans: List[Tuple[int, int]] = []
    lo = total = 0
    for i, size in enumerate(sizes):
        if size > budget:
            raise ValueError(f"item {i} of size {size} exceeds the unit "
                             f"budget {budget}")
        if total + size > budget and i > lo:
            spans.append((lo, i))
            lo, total = i, 0
        total += size
    if lo < len(sizes):
        spans.append((lo, len(sizes)))
    return spans


def compile_units(
    sizes: Sequence[int],
    budget: int,
    emit: Callable[[SourceBuilder, int, int], str],
    env: dict,
    filename: str,
) -> Tuple[List[Callable], Tuple[int, ...]]:
    """Partition chunks of instruction counts ``sizes`` into units of at
    most ``budget`` instructions and build each unit in turn:
    ``emit(sb, lo, hi)`` writes the unit's function for chunks
    ``[lo, hi)`` and returns its name, which is compiled and executed
    into ``env`` (the globals every unit shares) and taken out again.

    Returns, per chunk, the function of the unit that holds it, and the
    instruction count of every unit.
    """
    spans = _partition(sizes, budget)
    per_chunk: List[Callable] = []
    for u, (lo, hi) in enumerate(spans):
        sb = SourceBuilder()
        name = emit(sb, lo, hi)
        exec(compile_generated(sb.source(), f"{filename}#{u}"), env)
        per_chunk.extend([env.pop(name)] * (hi - lo))
    return per_chunk, tuple(sum(sizes[lo:hi]) for lo, hi in spans)
