"""Indented Python source assembly for the codegen backends."""

from __future__ import annotations

from typing import List

__all__ = ["SourceBuilder"]


class SourceBuilder:
    """Accumulates generated source lines with explicit indentation.

    The emitters build one string per compile unit, so plain string
    lists (joined once) beat repeated concatenation; this class just
    keeps the indentation bookkeeping out of the emitters.
    """

    __slots__ = ("_lines", "_depth")

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._depth = 0

    def line(self, text: str) -> None:
        self._lines.append("    " * self._depth + text)

    def indent(self) -> None:
        self._depth += 1

    def dedent(self) -> None:
        if self._depth == 0:
            raise ValueError("unbalanced dedent in generated source")
        self._depth -= 1

    def block(self, header: str) -> "_Block":
        """``with sb.block("if x:"):`` — emit header, indent the body."""
        self.line(header)
        return _Block(self)

    def dispatch(self, lo: int, hi: int, leaf) -> None:
        """Balanced dispatch on the local ``bb`` over chunk ids
        ``[lo, hi)``: O(log n) compares per transfer instead of a linear
        if/elif scan; ``leaf(k)`` emits chunk ``k``'s body.  Chunk ids
        are internal, produced only by generated transfers and validated
        lookups, so every leaf is exact."""
        if hi - lo == 1:
            leaf(lo)
        elif hi - lo == 2:
            with self.block(f"if bb == {lo}:"):
                leaf(lo)
            with self.block("else:"):
                leaf(lo + 1)
        else:
            mid = (lo + hi) // 2
            with self.block(f"if bb < {mid}:"):
                self.dispatch(lo, mid, leaf)
            with self.block("else:"):
                self.dispatch(mid, hi, leaf)

    @property
    def next_lineno(self) -> int:
        """1-based line number the next :meth:`line` call will occupy
        in the compiled source (for raise-site fixup tables)."""
        return len(self._lines) + 1

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"


class _Block:
    __slots__ = ("_sb",)

    def __init__(self, sb: SourceBuilder):
        self._sb = sb

    def __enter__(self) -> SourceBuilder:
        self._sb.indent()
        return self._sb

    def __exit__(self, *exc) -> None:
        self._sb.dedent()
