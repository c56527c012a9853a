"""Exception hierarchy for the repro package.

Every error raised by the toolchain derives from :class:`ReproError` so
callers can catch toolchain problems without swallowing genuine Python
bugs.  Simulated-program failures (traps) are *not* exceptions of the
host toolchain: they are represented by :class:`SimTrap`, which the
interpreters raise internally and convert into a
:class:`repro.fi.outcomes.Outcome`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all toolchain errors."""


class IRError(ReproError):
    """Malformed IR detected while building or verifying a module."""


class IRTypeError(IRError):
    """An IR operation was applied to values of the wrong type."""


class VerifierError(IRError):
    """Module failed structural verification."""


class ParseError(ReproError):
    """MiniC source (or IR text) failed to parse."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class SemanticError(ParseError):
    """MiniC source is syntactically valid but semantically ill-formed."""


class LoweringError(ReproError):
    """The backend could not lower an IR construct to assembly."""


class PlanError(ReproError):
    """The protection planner received inconsistent inputs."""


class CampaignError(ReproError):
    """A fault-injection campaign was misconfigured."""


class StoreLockTimeout(CampaignError):
    """Advisory-lock acquisition on a shared store exhausted its budget.

    Raised *loudly* by :class:`repro.fi.journal.FileLock` after bounded
    exponential backoff, naming the lock path and the wait budget.
    The shared-store layer (DESIGN §16) catches it at coordination
    points and degrades to private-store mode rather than aborting a
    campaign; anything else propagating it is a genuine failure.
    """


class CodegenCacheError(ReproError):
    """The on-disk codegen cache (``REPRO_CODEGEN_CACHE``) is unusable.

    Raised *loudly* instead of silently falling back to the decoded
    dispatch tier: a benchmark that believes it measured generated code
    but actually measured closures would report a fictitious speedup.
    """


class SimTrap(Exception):
    """A simulated program trapped (the DUE class of outcomes).

    ``kind`` is a short machine-readable string; the taxonomy (see
    DESIGN §11) is ``"segfault"``, ``"div-by-zero"``, ``"bad-jump"``,
    ``"stack-overflow"``, ``"unreachable"``, ``"overflow"``, the
    resource budgets ``"step-budget"`` (formerly ``"timeout"``),
    ``"mem-budget"``, ``"output-budget"``, and ``"host-escape"`` (a
    host exception converted at the containment boundary).
    """

    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail}" if detail else kind)


class FaultDetected(Exception):
    """Raised by a checker in a simulated program upon detecting a fault."""

    def __init__(self, where: str = ""):
        self.where = where
        super().__init__(where)


class CheckpointsDone(Exception):
    """Internal control-flow signal, not an error: a checkpointing run
    has delivered its last requested snapshot and may stop early.

    Raised by the decoded simulator drivers and caught by their
    ``run()`` wrappers, which report the partial run as an OK result
    flagged with ``extra["early_stop"]``.
    """
