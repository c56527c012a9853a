"""Mutation testing of the protection passes: do the validators validate?

A differential oracle and an FI campaign are only trustworthy if they
*fail* when the protection they exercise is broken.  This harness
applies a catalog of systematic weakenings — **mutants** — to the
duplication pass, the Flowery patches, the knapsack planner and the
control-flow-checking pass, and asserts that every one of them is
*killed* by at least one oracle:

* **golden oracle** — the mutated pipeline mis-executes a fault-free
  run (a checker fires spuriously, or output diverges from the
  unprotected reference);
* **coverage oracle** — an exhaustive deterministic fault-injection
  sweep (one bit per dynamic index, via :mod:`repro.fi.engine`) shows
  a detection-rate drop or an SDC-rate rise beyond thresholds against
  the un-mutated baseline;
* **invariant oracle** — :func:`repro.protection.planner.validate_plan`
  rejects a corrupted protection plan;
* **codegen oracle** — a bit-identity check of the exec-compiled
  codegen dispatch tier against the naive ladders (golden runs,
  injection sweeps, and in-place module mutation), which must fail
  when the generator or its cache is weakened;
* **bitlive oracle** — an exhaustive flip of every (site, bit) pair the
  campaign pruner (:mod:`repro.analysis.bitlive`) classifies Benign on
  two witness builds, both layers, both value fault models: any status
  or output change kills the analysis weakening (DESIGN §17).

*Identity* pseudo-mutants rebuild each baseline from scratch and demand
bit-exact agreement of the sweep outcome counts — proving both that the
whole pipeline is deterministic and that the kill criteria have **zero
false positives** (an un-mutated pipeline always survives).

All sweeps are exhaustive over the dynamic injectable indices with a
fixed bit schedule, so every reported rate is an exact number, not a
sample: the kill thresholds below are calibrated against measured
mutant effect sizes (smallest real effect ~= +0.007 SDC for the
Flowery branch-patch mutant), not against sampling noise.

The default witness program was chosen so that every mutant family has
measurable effect: a loop over a global array, a helper function with
non-commutative arithmetic (shift/sub/rem), data-dependent branches,
and stores through computed addresses.  ``MutationConfig.source`` may
point at any MiniC program (e.g. from :mod:`repro.testgen.minic`).
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis import bitlive as _bitlive
from ..backend.lower import lower_module
from ..execresult import RunStatus
from ..faultmodel import fault_bit_range
from ..fi.engine import run_injection_suite
from ..fi.outcomes import Outcome, classify_outcome
from ..frontend.codegen import compile_source
from ..interp.interpreter import IRInterpreter
from ..interp.layout import GlobalLayout
from ..interp import codegen as _ircodegen
from ..ir.instructions import Br, CondBr, Instruction, Store
from ..ir.module import Module
from ..ir.values import Constant
from ..ir.verifier import verify_module
from ..machine.machine import AsmMachine, compile_program
from ..protection.cfc import apply_cfc
from ..protection.duplication import (
    DuplicationInfo,
    duplicable_instructions,
    duplicate_module,
    sync_kind,
)
from ..protection.flowery import apply_flowery
from ..protection.planner import (
    ProtectionPlan,
    plan_protection,
    profile_module,
    validate_plan,
)
from ..trace.tap import IRCountTap

__all__ = [
    "WITNESS_SOURCE",
    "BITLIVE_WITNESS_SOURCE",
    "MUTANTS",
    "SMOKE_MUTANTS",
    "Mutant",
    "MutantResult",
    "MutationConfig",
    "MutationReport",
    "run_mutation_suite",
]

#: default witness program for the mutation suite (see module docstring)
WITNESS_SOURCE = """\
const int N = 8;
int acc = 0;
int data[8] = {12, -7, 33, 5, -21, 14, 9, -2};

int mix(int a, int b) {
    int t = (a ^ (b << 3)) + (b >> 1);
    if (t < 0) { t = 0 - t; }
    return ((t * 3) ^ (t >> 2)) % 8191;
}

int main() {
    int s = 1;
    for (int i = 0; i < N; i++) {
        int v = data[i & 7];
        s = mix(s, v + i);
        if ((s & 1) == 0) { s = s + (v * 3); } else { s = s - (v >> 2); }
        data[i & 7] = s & 255;
        acc += s;
        print(s);
    }
    print(acc);
    for (int j = 0; j < N; j++) { print(data[j & 7]); }
    return 0;
}
"""

#: second witness for the bitlive-pruner mutants: add/mul results that
#: feed *only* high-bit masks as SSA temps, so the carry-closure rule
#: is load-bearing.  Deliberately unprotected — under dup-100 every
#: value is observed fully by its checker compare, which hides the
#: masked-high-dead weakening (DESIGN §17).
BITLIVE_WITNESS_SOURCE = """\
const int N = 8;

int main() {
    int s = 5;
    int acc = 0;
    for (int i = 0; i < N; i++) {
        acc = acc + ((s + (i * 9)) & 64);
        acc = acc + ((s * (i + 3)) & 192);
        s = (s * 7 + 13) % 509;
        print(acc);
    }
    print(s);
    return 0;
}
"""


@dataclass(frozen=True)
class MutationConfig:
    """Shape of one mutation-suite run."""

    source: str = WITNESS_SOURCE
    #: coverage kill: baseline detected-rate minus mutant detected-rate
    det_drop_threshold: float = 0.015
    #: coverage kill: mutant sdc-rate minus baseline sdc-rate
    sdc_rise_threshold: float = 0.005
    #: profiling campaign feeding the knapsack planner baselines
    profile_campaigns: int = 150
    profile_seed: int = 1
    #: step budget = max(floor, golden dyn_total x factor)
    max_steps_floor: int = 20_000
    max_steps_factor: int = 4
    #: how many of the hottest instructions the skip-chain mutant drops
    hot_chain_len: int = 5

    def thresholds_doc(self) -> dict:
        return {
            "det_drop": self.det_drop_threshold,
            "sdc_rise": self.sdc_rise_threshold,
        }


@dataclass(frozen=True)
class Mutant:
    """One catalogued weakening of the protection pipeline."""

    name: str
    kind: str           # checker | shadow | selection | flowery | plan | codegen | cfc | pruner | identity
    oracle: str         # golden | coverage | invariant | codegen | bitlive | identity
    baseline: str       # dup-ir | flowery-asm | plan-ir | cfc-ir | none
    description: str
    build: Callable[["_Context"], object]
    #: identity pseudo-mutants must *survive*; everything else must die
    expect_killed: bool = True
    #: fault model the coverage/identity sweep injects under — CFC
    #: weakenings only show up under control-flow faults
    fault_model: str = "seu"


@dataclass
class MutantResult:
    """Verdict for one mutant."""

    name: str
    kind: str
    oracle: str
    baseline: str
    expect_killed: bool
    killed: bool
    killed_by: str      # which oracle actually fired ('' if survived)
    detail: str
    fault_model: str = "seu"
    metrics: Dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.killed == self.expect_killed

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "oracle": self.oracle,
            "baseline": self.baseline,
            "expect_killed": self.expect_killed,
            "killed": self.killed,
            "killed_by": self.killed_by,
            "ok": self.ok,
            "fault_model": self.fault_model,
            "detail": self.detail,
            "metrics": {k: round(v, 6) for k, v in self.metrics.items()},
            "elapsed_s": round(self.elapsed_s, 3),
        }


@dataclass
class MutationReport:
    """Aggregate kill matrix for one suite run."""

    results: List[MutantResult]
    witness_sha256: str
    config: MutationConfig
    elapsed_s: float = 0.0

    @property
    def survivors(self) -> List[str]:
        return [r.name for r in self.results if r.expect_killed and not r.killed]

    @property
    def false_kills(self) -> List[str]:
        return [r.name for r in self.results if not r.expect_killed and r.killed]

    @property
    def ok(self) -> bool:
        return not self.survivors and not self.false_kills

    def to_doc(self) -> dict:
        return {
            "schema": "mutate/1",
            "witness_sha256": self.witness_sha256,
            "thresholds": self.config.thresholds_doc(),
            "mutants": [r.to_doc() for r in self.results],
            "summary": {
                "total": len(self.results),
                "expected_killed": sum(r.expect_killed for r in self.results),
                "killed": sum(r.killed for r in self.results),
                "survivors": self.survivors,
                "false_kills": self.false_kills,
                "ok": self.ok,
                "elapsed_s": round(self.elapsed_s, 2),
            },
        }

    def render(self) -> str:
        lines = [
            f"{'mutant':30s} {'oracle':9s} {'verdict':9s} detail",
            "-" * 100,
        ]
        for r in self.results:
            verdict = ("killed" if r.killed else "SURVIVED") if r.expect_killed \
                else ("FALSE-KILL" if r.killed else "survived")
            lines.append(
                f"{r.name:30s} {r.killed_by or r.oracle:9s} {verdict:9s} {r.detail}"
            )
        lines.append("-" * 100)
        lines.append(
            f"{len(self.results)} mutants: "
            f"{sum(r.expect_killed and r.killed for r in self.results)} killed, "
            f"{len(self.survivors)} survivors, "
            f"{len(self.false_kills)} false kills "
            f"({self.elapsed_s:.1f}s)"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# build helpers


class _Context:
    """Caches the expensive shared state of one suite run: the reference
    execution, the profiling campaign, the plan-70 selection and the
    per-baseline exhaustive sweeps."""

    def __init__(self, config: MutationConfig):
        self.config = config
        self.ref_module = compile_source(config.source, "witness")
        self.ref_layout = GlobalLayout(self.ref_module)
        tap = IRCountTap()
        golden = IRInterpreter(self.ref_module, layout=self.ref_layout,
                               trace=tap).run()
        if golden.status is not RunStatus.OK:
            raise ValueError(
                f"witness program does not run clean: {golden.status}"
            )
        self.reference_output = golden.output
        self.dyn_counts: Dict[int, int] = tap.counts
        self.full: Set[int] = {
            i.iid for i in duplicable_instructions(self.ref_module)
        }
        self._profile = None
        self._plan70: Optional[ProtectionPlan] = None
        self._baselines: Dict[Tuple[str, str],
                              Tuple[Dict[str, int], object]] = {}
        self._bitlive_builds: Optional[Tuple] = None

    def fresh_module(self) -> Module:
        return compile_source(self.config.source, "witness")

    @property
    def profile(self):
        if self._profile is None:
            self._profile = profile_module(
                self.ref_module,
                n_campaigns=self.config.profile_campaigns,
                seed=self.config.profile_seed,
                layout=self.ref_layout,
            )
        return self._profile

    @property
    def plan70(self) -> ProtectionPlan:
        if self._plan70 is None:
            self._plan70 = plan_protection(self.ref_module, self.profile, 70)
        return self._plan70

    @property
    def bitlive_builds(self) -> Tuple:
        """Witness builds for the bitlive-pruner oracle: the dup-100
        default witness (checker shadowing matters) plus the unprotected
        carry witness (carry closure matters)."""
        if self._bitlive_builds is None:
            carry_module = compile_source(
                BITLIVE_WITNESS_SOURCE, "bitlive-witness")
            verify_module(carry_module)
            carry_layout = GlobalLayout(carry_module)
            carry_compiled = compile_program(
                lower_module(carry_module, carry_layout).flatten())
            self._bitlive_builds = (
                ("dup",) + _build(self),
                ("carry", carry_module, carry_layout, carry_compiled),
            )
        return self._bitlive_builds

    def hottest(self, n: int) -> Set[int]:
        ranked = sorted(self.full, key=lambda i: (-self.dyn_counts.get(i, 0), i))
        return set(ranked[:n])

    def baseline(self, name: str, fault_model: str = "seu"):
        key = (name, fault_model)
        if key not in self._baselines:
            built = _BASELINE_BUILDERS[name](self)
            layer = name.rsplit("-", 1)[1]
            counts, golden = _sweep(self, built, layer,
                                    fault_model=fault_model)
            if counts is None:
                raise ValueError(
                    f"baseline {name} failed its own golden run: "
                    f"{golden.status}"
                )
            self._baselines[key] = (counts, golden)
        return self._baselines[key]


def _build(
    ctx: _Context,
    *,
    selected: Optional[Set[int]] = None,
    store_mode: str = "lazy",
    flowery: bool = False,
    branch_patch: bool = True,
    cmp_patch: bool = True,
    surgery: Optional[Callable[[Module, DuplicationInfo], None]] = None,
):
    """One protected pipeline build: duplicate (+Flowery) (+surgery),
    verify, lay out, lower, assemble."""
    module = ctx.fresh_module()
    info = duplicate_module(module, protected=selected, store_mode=store_mode)
    if flowery:
        apply_flowery(module, info, branch_patch=branch_patch,
                      cmp_patch=cmp_patch)
    if surgery is not None:
        surgery(module, info)
    verify_module(module)
    layout = GlobalLayout(module)
    compiled = compile_program(lower_module(module, layout).flatten())
    return module, layout, compiled


def _build_cfc(ctx: _Context, weakness: Optional[str] = None):
    """A CFC-only pipeline build (no duplication): apply the signature
    pass (optionally weakened), verify, lay out, lower, assemble."""
    module = ctx.fresh_module()
    apply_cfc(module, weakness=weakness)
    verify_module(module)
    layout = GlobalLayout(module)
    compiled = compile_program(lower_module(module, layout).flatten())
    return module, layout, compiled


_BASELINE_BUILDERS: Dict[str, Callable[[_Context], object]] = {
    "dup-ir": lambda ctx: _build(ctx),
    "flowery-asm": lambda ctx: _build(ctx, flowery=True, store_mode="eager"),
    "plan-ir": lambda ctx: _build(ctx, selected=set(ctx.plan70.selected)),
    "cfc-ir": lambda ctx: _build_cfc(ctx),
}


def _sweep(ctx: _Context, built, layer: str, fault_model: str = "seu"):
    """Exhaustive deterministic sweep: one injection per dynamic index,
    bit schedule ``(idx*13 + 7) % fault_bit_range``.  Returns ``(outcome
    counts, golden)`` — counts is None when the golden run itself
    fails."""
    module, layout, compiled = built
    if layer == "ir":
        golden = IRInterpreter(module, layout=layout).run()
        kwargs = dict(module=module, layout=layout)
    else:
        golden = AsmMachine(compiled, layout).run()
        kwargs = dict(program=compiled, layout=layout)
    if golden.status is not RunStatus.OK or golden.output != ctx.reference_output:
        return None, golden
    max_steps = max(
        ctx.config.max_steps_floor,
        golden.dyn_total * ctx.config.max_steps_factor,
    )
    counts = {o.value: 0 for o in Outcome}

    def emit(tag, res):
        counts[classify_outcome(res, golden.output).value] += 1

    bit_range = fault_bit_range(fault_model)
    samples = [
        (k, idx, (idx * 13 + 7) % bit_range)
        for k, idx in enumerate(range(golden.dyn_injectable))
    ]
    run_injection_suite(layer, samples, max_steps, emit=emit,
                        fault_model=fault_model, **kwargs)
    return counts, golden


def _rates(counts: Dict[str, int]) -> Dict[str, float]:
    n = sum(counts.values()) or 1
    return {k: v / n for k, v in counts.items()}


# ---------------------------------------------------------------------------
# surgeries (mutations applied after duplication)


def _drop_checkers(module: Module, info: DuplicationInfo, pred) -> int:
    """Remove every checker (comparison + conditional branch) whose
    ``(CheckerInfo, sync instruction)`` satisfies ``pred``; control falls
    straight through to the continuation block."""
    dropped = 0
    for cid, cinfo in info.checkers.items():
        sync = module.instruction_by_iid(cinfo.sync_iid)
        if not pred(cinfo, sync):
            continue
        checker = module.instruction_by_iid(cid)
        block = checker.parent
        term = block.terminator
        if not (isinstance(term, CondBr) and term.condition is checker):
            continue
        cont = term.then_block
        del block.instructions[block.index_of(checker):]
        br = Br(cont)
        br.attrs["checker"] = True
        module.assign_iid(br)
        block.append(br)
        dropped += 1
    if not dropped:
        raise ValueError("surgery matched no checkers — mutant is vacuous")
    return dropped


def _drop_sync_kind(kind: str):
    return lambda m, i: _drop_checkers(
        m, i, lambda ci, sync: sync_kind(sync) == kind
    )


def _drop_store_address_checkers(module: Module, info: DuplicationInfo):
    _drop_checkers(
        module, info,
        lambda ci, sync: isinstance(sync, Store)
        and isinstance(sync.pointer, Instruction)
        and sync.pointer.iid == ci.value_iid,
    )


def _unwire_checker_branches(module: Module, info: DuplicationInfo):
    """Keep every checker comparison but replace its conditional branch
    with a plain fall-through: detection computed, never acted on."""
    for cid in info.checkers:
        checker = module.instruction_by_iid(cid)
        block = checker.parent
        term = block.terminator
        if not (isinstance(term, CondBr) and term.condition is checker):
            continue
        block.instructions.pop()
        br = Br(term.then_block)
        br.attrs["checker"] = True
        module.assign_iid(br)
        block.append(br)


def _checker_compares_master(module: Module, info: DuplicationInfo):
    """Compare the master value against *itself* instead of its shadow —
    the checker is tautologically true."""
    for cid in info.checkers:
        checker = module.instruction_by_iid(cid)
        checker.operands[1] = checker.operands[0]


def _invert_checkers(module: Module, info: DuplicationInfo):
    """Swap each checker's branch targets: equality now jumps to the
    detect handler, so a fault-free run dies on the first checker."""
    for cid in info.checkers:
        checker = module.instruction_by_iid(cid)
        term = checker.parent.terminator
        if isinstance(term, CondBr) and term.condition is checker:
            term.then_block, term.else_block = term.else_block, term.then_block


_NONCOMMUTATIVE = frozenset(
    ["sub", "sdiv", "srem", "shl", "ashr", "lshr", "fsub", "fdiv"]
)


def _swap_shadow_operands(module: Module, info: DuplicationInfo):
    """Swap the operands of every non-commutative shadow: the shadow
    computes a different value, so checkers fire on fault-free runs."""
    swapped = 0
    for siid in info.shadow_of:
        shadow = module.instruction_by_iid(siid)
        if shadow.opcode in _NONCOMMUTATIVE and len(shadow.operands) == 2:
            shadow.operands[0], shadow.operands[1] = (
                shadow.operands[1], shadow.operands[0])
            swapped += 1
    if not swapped:
        raise ValueError("witness has no non-commutative shadows")


def _silence_detect_blocks(module: Module, info: DuplicationInfo):
    """Strip the DETECT intrinsic call out of every detect handler —
    detections degrade to hangs/DUEs instead of clean reports."""
    for fname, label in info.detect_blocks.items():
        block = module.functions[fname].block_by_label(label)
        block.instructions = [
            i for i in block.instructions if i.opcode != "call"
        ]


# ---------------------------------------------------------------------------
# plan mutants


def _anti_greedy_selection(ctx: _Context) -> Set[int]:
    """Fill the plan-70 budget with the *worst* benefit/cost items."""
    profile, plan = ctx.profile, ctx.plan70
    items = [
        (iid, float(profile.sdc_counts.get(iid, 0)),
         profile.dyn_counts.get(iid, 0))
        for iid in sorted(ctx.full)
    ]
    ranked = sorted(
        items,
        key=lambda it: ((it[1] / it[2]) if it[2] else float("inf"),
                        -it[2], it[0]),
    )
    chosen: Set[int] = set()
    remaining = plan.budget
    for iid, _benefit, cost in ranked:
        if 0 < cost <= remaining:
            chosen.add(iid)
            remaining -= cost
    return chosen


def _busted_budget_plan(ctx: _Context) -> ProtectionPlan:
    """A fabricated plan whose bookkeeping lies: claims less spend than
    its selection costs and smuggles in a non-duplicable iid."""
    plan = ctx.plan70
    bogus_iid = max(
        (i.iid for f in ctx.ref_module.functions.values()
         if not f.is_declaration for b in f.blocks for i in b.instructions),
        default=0,
    ) + 1000
    return ProtectionPlan(
        level=plan.level,
        selected=set(plan.selected) | {bogus_iid},
        budget=plan.budget,
        spent=max(0, plan.spent - 1),
        total_cost=plan.total_cost,
    )


# ---------------------------------------------------------------------------
# codegen-tier weakenings (simulator mutants, not pipeline surgeries)
#
# These patch the IR codegen subsystem itself and are judged by the
# codegen oracle: the generated-code tier must stay bit-identical to
# the naive ladders on golden runs, under injection, and across
# in-place module mutation.  A weakened generator/cache that survives
# all three comparisons would mean the equivalence suite tests nothing.


@contextlib.contextmanager
def _patched(obj, name, value):
    orig = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, orig)


def _stale_cache_patch(ctx: _Context):
    """Break fingerprint-based invalidation: the codegen cache keeps
    serving stale generated code after in-place module mutation."""
    return _patched(_ircodegen, "_fingerprint", lambda module: ("stale",))


def _wrong_operand_patch(ctx: _Context):
    """Inline the wrong literal for integer constants (low bit flipped):
    the classic specializer bug of baking in a stale/mistranscribed
    operand value."""
    orig = _ircodegen._Emitter.operand

    def wrong(self, v):
        if isinstance(v, Constant) and type(v.value) is int and v.value:
            return f"({v.value ^ 1})"
        return orig(self, v)

    return _patched(_ircodegen._Emitter, "operand", wrong)


def _dropped_flip_patch(ctx: _Context):
    """Emit injection sites without the flip hook: golden runs are
    unaffected, but armed injections silently never land in generated
    code."""

    def no_flip(self, sb, inst, expr):
        iid = inst.iid
        sb.line(f"t{iid} = {expr}")
        sb.line("inj += 1")
        self.local.add(iid)
        if iid in self.escaping:
            sb.line(f"t[{iid}] = t{iid}")

    return _patched(_ircodegen._Emitter, "emit_value", no_flip)


def _sig_codegen(res) -> tuple:
    return (res.status.value, res.output, res.dyn_total,
            res.dyn_injectable, res.trap_kind, res.injected,
            res.injected_iid)


def _eval_codegen(ctx: _Context, mutant: Mutant):
    """Bit-identity check of the codegen tier against naive, run with
    the mutant's patch applied: golden run, a spread injection sweep,
    and a mutate-in-place/rerun cycle (stale-cache detector)."""
    with mutant.build(ctx):
        def run(module, layout, dispatch, **kw):
            return IRInterpreter(module, layout=layout,
                                 max_steps=kw.pop("max_steps", 100_000),
                                 dispatch=dispatch).run(**kw)

        module = ctx.fresh_module()
        layout = GlobalLayout(module)
        naive = run(module, layout, "naive")
        codegen = run(module, layout, "codegen")
        if _sig_codegen(naive) != _sig_codegen(codegen):
            return True, "codegen", (
                f"golden run diverged from naive: "
                f"status {codegen.status.value} vs {naive.status.value}, "
                f"output[:40] {codegen.output[:40]!r} vs "
                f"{naive.output[:40]!r}, dyn_total {codegen.dyn_total} vs "
                f"{naive.dyn_total}"), {}
        n_inj = naive.dyn_injectable
        ms = max(20_000, naive.dyn_total * 4)
        sites = sorted({0, 1, n_inj // 4, n_inj // 2,
                        3 * n_inj // 4, n_inj - 1})
        mismatches = runs = 0
        first = ""
        for idx in sites:
            for bit in (0, 17, 63):
                a = run(module, layout, "naive", inject_index=idx,
                        inject_bit=bit, max_steps=ms)
                b = run(module, layout, "codegen", inject_index=idx,
                        inject_bit=bit, max_steps=ms)
                runs += 1
                if _sig_codegen(a) != _sig_codegen(b):
                    mismatches += 1
                    if not first:
                        first = f"idx={idx} bit={bit}"
        metrics = {"injection_runs": float(runs),
                   "injection_mismatches": float(mismatches)}
        if mismatches:
            return True, "codegen", (
                f"{mismatches}/{runs} injections diverged from naive "
                f"(first at {first})"), metrics
        # in-place mutation: the cache must regenerate, not serve stale
        m2 = ctx.fresh_module()
        l2 = GlobalLayout(m2)
        run(m2, l2, "codegen")
        duplicate_module(m2)
        after_cg = run(m2, l2, "codegen")
        after_naive = run(m2, l2, "naive")
        if _sig_codegen(after_cg) != _sig_codegen(after_naive):
            return True, "codegen", (
                "stale generated code served after in-place module "
                f"mutation: dyn_total {after_cg.dyn_total} != naive "
                f"{after_naive.dyn_total}"), metrics
        return False, "codegen", (
            f"bit-identical to naive: golden + {runs} injections + "
            "mutate/rerun cycle"), metrics


# ---------------------------------------------------------------------------
# bitlive-pruner weakenings (analysis mutants, not pipeline surgeries)
#
# These patch the transfer hooks of the bit-liveness analysis
# (repro.analysis.bitlive) and are judged by the bitlive oracle: every
# (site, bit) pair the weakened analysis classifies Benign is actually
# flipped on the witness builds, and any status or output change is a
# kill.  A weakening that survives would mean the campaign pruner can
# silently drop non-benign faults (DESIGN §17).


def _masked_high_patch(ctx: _Context):
    """Drop the carry closure: operand bits above the highest observed
    result bit of an add/sub/mul are treated as dead, ignoring that a
    low-bit flip can carry into an observed high bit."""
    return _patched(_bitlive, "_carry_close", lambda m: m)


def _ignore_call_clobbers_patch(ctx: _Context):
    """Calls and returns stop being all-live boundaries: values live
    across a call are classified by local uses only."""
    return _patched(_bitlive, "_call_boundary", lambda: 0)


def _flags_always_dead_patch(ctx: _Context):
    """Condition codes read no flags: every compare's flag production
    looks unobserved, so compared values go dead."""
    return _patched(_bitlive, "_cc_reads", lambda cc: 0)


def _skip_checker_shadow_patch(ctx: _Context):
    """Checker compares observe nothing: checker-shadowed bits are
    classified Benign even though flipping them raises a detection."""
    return _patched(_bitlive, "_checker_observes", lambda user: False)


def _eval_bitlive(ctx: _Context, mutant: Mutant):
    """Exhaustive benign-flip oracle over both witness builds, both
    layers and both value fault models, with the mutant's analysis
    patch applied.  Kill = any Benign-classified pair whose injected
    run is not status-OK with golden-identical output.  Killed mutants
    stop at the first combination with violations; the identity row
    scans everything."""
    from ..fi.prune import verify_benign

    pairs = violations = 0
    first = ""
    with mutant.build(ctx):
        for tag, module, layout, compiled in ctx.bitlive_builds:
            for layer in ("ir", "asm"):
                kwargs = (dict(module=module, layout=layout)
                          if layer == "ir"
                          else dict(program=compiled, layout=layout))
                for fm in ("seu", "set"):
                    rep = verify_benign(layer, fault_model=fm, **kwargs)
                    pairs += rep["pairs"]
                    bad = rep["violations"]
                    violations += len(bad)
                    if bad and not first:
                        dyn, bit, status, trap = bad[0]
                        first = (f"{tag}/{layer}/{fm} dyn={dyn} "
                                 f"bit={bit} -> {status}"
                                 + (f"/{trap}" if trap else ""))
                if violations:
                    break
            if violations:
                break
    metrics = {"pairs": float(pairs), "violations": float(violations)}
    if violations:
        return True, "bitlive", (
            f"{violations} benign-classified flips changed execution "
            f"over {pairs} pairs (first: {first})"), metrics
    return False, "bitlive", (
        f"all {pairs} benign-classified flips ran status-OK with "
        "golden-identical output"), metrics


# ---------------------------------------------------------------------------
# the catalog

MUTANTS: Tuple[Mutant, ...] = (
    # -- checker placement ---------------------------------------------------
    Mutant("dup-drop-store-checkers", "checker", "coverage", "dup-ir",
           "remove every checker guarding a store",
           lambda ctx: _build(ctx, surgery=_drop_sync_kind("store"))),
    Mutant("dup-drop-branch-checkers", "checker", "coverage", "dup-ir",
           "remove every checker guarding a conditional branch",
           lambda ctx: _build(ctx, surgery=_drop_sync_kind("branch"))),
    Mutant("dup-drop-call-checkers", "checker", "coverage", "dup-ir",
           "remove every checker guarding a call argument",
           lambda ctx: _build(ctx, surgery=_drop_sync_kind("call"))),
    Mutant("dup-drop-ret-checkers", "checker", "coverage", "dup-ir",
           "remove every checker guarding a return value",
           lambda ctx: _build(ctx, surgery=_drop_sync_kind("ret"))),
    Mutant("dup-drop-store-addr-checkers", "checker", "coverage", "dup-ir",
           "remove checkers on store *addresses* (keep value checkers)",
           lambda ctx: _build(ctx, surgery=_drop_store_address_checkers)),
    # -- checker semantics ---------------------------------------------------
    Mutant("dup-checker-branch-unwired", "checker", "coverage", "dup-ir",
           "compute every checker comparison but never branch on it",
           lambda ctx: _build(ctx, surgery=_unwire_checker_branches)),
    Mutant("dup-checker-compares-master", "checker", "coverage", "dup-ir",
           "compare each checked value against itself, not its shadow",
           lambda ctx: _build(ctx, surgery=_checker_compares_master)),
    Mutant("dup-checker-inverted", "checker", "golden", "none",
           "swap checker branch targets (equal goes to detect)",
           lambda ctx: _build(ctx, surgery=_invert_checkers)),
    Mutant("dup-detect-silent", "checker", "coverage", "dup-ir",
           "strip the DETECT call out of every detect handler",
           lambda ctx: _build(ctx, surgery=_silence_detect_blocks)),
    # -- shadow computation --------------------------------------------------
    Mutant("dup-shadow-operands-swapped", "shadow", "golden", "none",
           "swap operands of every non-commutative shadow instruction",
           lambda ctx: _build(ctx, surgery=_swap_shadow_operands)),
    # -- protection selection ------------------------------------------------
    Mutant("dup-skip-hot-chain", "selection", "coverage", "dup-ir",
           "leave the hottest instruction chain unprotected",
           lambda ctx: _build(
               ctx,
               selected=ctx.full - ctx.hottest(ctx.config.hot_chain_len))),
    Mutant("dup-shadow-skips-loads", "selection", "coverage", "dup-ir",
           "never shadow loads (memory traffic unprotected)",
           lambda ctx: _build(
               ctx,
               selected={iid for iid in ctx.full
                         if ctx.ref_module.instruction_by_iid(iid).opcode
                         != "load"})),
    # -- Flowery patches -----------------------------------------------------
    Mutant("flowery-no-branch-patch", "flowery", "coverage", "flowery-asm",
           "disable the postponed-branch-check patch (§6.2)",
           lambda ctx: _build(ctx, flowery=True, store_mode="eager",
                              branch_patch=False)),
    Mutant("flowery-no-anticmp", "flowery", "coverage", "flowery-asm",
           "disable the anti-comparison-duplication patch (§6.3)",
           lambda ctx: _build(ctx, flowery=True, store_mode="eager",
                              cmp_patch=False)),
    Mutant("flowery-lazy-store", "flowery", "coverage", "flowery-asm",
           "revert eager stores to lazy check-then-store (§6.1)",
           lambda ctx: _build(ctx, flowery=True, store_mode="lazy")),
    # -- knapsack planner ----------------------------------------------------
    Mutant("plan-empty-selection", "plan", "coverage", "plan-ir",
           "planner returns the empty selection",
           lambda ctx: _build(ctx, selected=set())),
    Mutant("plan-anti-greedy", "plan", "coverage", "plan-ir",
           "fill the budget with the worst benefit/cost items",
           lambda ctx: _build(ctx, selected=_anti_greedy_selection(ctx))),
    Mutant("plan-busted-budget", "plan", "invariant", "none",
           "plan bookkeeping lies about spend and selects a bogus iid",
           _busted_budget_plan),
    # -- codegen dispatch tier -----------------------------------------------
    Mutant("codegen-stale-cache", "codegen", "codegen", "none",
           "codegen cache serves stale code after in-place mutation",
           _stale_cache_patch),
    Mutant("codegen-wrong-operand-literal", "codegen", "codegen", "none",
           "generator inlines the wrong operand literal (low bit flip)",
           _wrong_operand_patch),
    Mutant("codegen-dropped-flip-hook", "codegen", "codegen", "none",
           "generated source omits the injection flip hook",
           _dropped_flip_patch),
    # -- control-flow checking -----------------------------------------------
    Mutant("cfc-dropped-update", "cfc", "golden", "none",
           "signature checks kept but no signature updates: every "
           "fault-free run false-detects at the first check",
           lambda ctx: _build_cfc(ctx, weakness="dropped-update")),
    Mutant("cfc-unchecked-backedge", "cfc", "coverage", "cfc-ir",
           "loop back-edge targets get no entry check (wrong-iteration "
           "redirects go unnoticed)",
           lambda ctx: _build_cfc(ctx, weakness="unchecked-backedge"),
           fault_model="cf"),
    Mutant("cfc-constant-signature", "cfc", "coverage", "cfc-ir",
           "every block shares signature 1: checks are vacuously true "
           "for any control-flow corruption",
           lambda ctx: _build_cfc(ctx, weakness="constant-signature"),
           fault_model="cf"),
    # -- bitlive pruner (campaign pre-pruning analysis) ----------------------
    Mutant("bitlive-masked-high-dead", "pruner", "bitlive", "none",
           "drop carry closure: masked-high operand bits of add/sub/mul "
           "classified dead", _masked_high_patch),
    Mutant("bitlive-ignore-call-clobbers", "pruner", "bitlive", "none",
           "calls/returns no longer all-live boundaries",
           _ignore_call_clobbers_patch),
    Mutant("bitlive-flags-always-dead", "pruner", "bitlive", "none",
           "condition codes read no flags: compared values go dead",
           _flags_always_dead_patch),
    Mutant("bitlive-skip-checker-shadow", "pruner", "bitlive", "none",
           "checker compares observe nothing: shadowed bits Benign",
           _skip_checker_shadow_patch),
    # -- identity pseudo-mutants (must survive) ------------------------------
    Mutant("identity-dup", "identity", "identity", "dup-ir",
           "rebuild the dup-100 baseline unchanged (zero-false-kill proof)",
           lambda ctx: _build(ctx), expect_killed=False),
    Mutant("identity-flowery", "identity", "identity", "flowery-asm",
           "rebuild the Flowery baseline unchanged (zero-false-kill proof)",
           lambda ctx: _build(ctx, flowery=True, store_mode="eager"),
           expect_killed=False),
    Mutant("identity-plan70", "identity", "identity", "plan-ir",
           "rebuild the plan-70 baseline unchanged (zero-false-kill proof)",
           lambda ctx: _build(ctx, selected=set(ctx.plan70.selected)),
           expect_killed=False),
    Mutant("identity-codegen", "identity", "codegen", "none",
           "run the codegen oracle unpatched (zero-false-kill proof)",
           lambda ctx: contextlib.nullcontext(), expect_killed=False),
    Mutant("identity-cfc", "identity", "identity", "cfc-ir",
           "rebuild the CFC baseline unchanged, swept under cf faults "
           "(zero-false-kill proof)",
           lambda ctx: _build_cfc(ctx), expect_killed=False,
           fault_model="cf"),
    Mutant("identity-bitlive", "identity", "bitlive", "none",
           "run the exhaustive benign-flip oracle unpatched "
           "(zero-false-kill proof: the sound analysis has no violations)",
           lambda ctx: contextlib.nullcontext(), expect_killed=False),
)

#: fast subset for CI smoke runs: one golden kill, one structural kill,
#: one coverage kill, one invariant kill, one identity row
SMOKE_MUTANTS: Tuple[str, ...] = (
    "dup-checker-inverted",
    "dup-shadow-operands-swapped",
    "dup-drop-store-checkers",
    "dup-checker-branch-unwired",
    "plan-busted-budget",
    "codegen-dropped-flip-hook",
    "cfc-dropped-update",
    "bitlive-skip-checker-shadow",
    "identity-dup",
)


# ---------------------------------------------------------------------------
# evaluation


def _eval_golden(ctx: _Context, mutant: Mutant) -> Tuple[bool, str, Dict]:
    module, layout, compiled = mutant.build(ctx)
    res = IRInterpreter(module, layout=layout).run()
    if res.status is not RunStatus.OK:
        return True, (f"fault-free run died: {res.status.value}"
                      f"/{res.trap_kind}"), {}
    if res.output != ctx.reference_output:
        return True, "fault-free output diverged from reference", {}
    return False, "fault-free run survived the golden oracle", {}


def _eval_coverage(ctx: _Context, mutant: Mutant):
    base_counts, _ = ctx.baseline(mutant.baseline, mutant.fault_model)
    layer = mutant.baseline.rsplit("-", 1)[1]
    built = mutant.build(ctx)
    counts, golden = _sweep(ctx, built, layer,
                            fault_model=mutant.fault_model)
    if counts is None:
        # the weakening broke fault-free semantics outright — that is a
        # kill too, credited to the golden oracle
        return True, "golden", (
            f"mutant build failed its golden run: {golden.status.value}"
        ), {}
    base, mut = _rates(base_counts), _rates(counts)
    det_drop = base["detected"] - mut["detected"]
    sdc_rise = mut["sdc"] - base["sdc"]
    metrics = {
        "detected_base": base["detected"], "detected_mut": mut["detected"],
        "sdc_base": base["sdc"], "sdc_mut": mut["sdc"],
        "det_drop": det_drop, "sdc_rise": sdc_rise,
        "samples": float(sum(counts.values())),
    }
    killed = (det_drop > ctx.config.det_drop_threshold
              or sdc_rise > ctx.config.sdc_rise_threshold)
    detail = (f"detected {base['detected']:.3f}->{mut['detected']:.3f} "
              f"({-det_drop:+.3f}), sdc {base['sdc']:.3f}->{mut['sdc']:.3f} "
              f"({sdc_rise:+.3f})")
    return killed, "coverage", detail, metrics


def _eval_invariant(ctx: _Context, mutant: Mutant):
    plan = mutant.build(ctx)
    violations = validate_plan(plan, ctx.ref_module, ctx.profile)
    if violations:
        return True, "; ".join(violations), {
            "violations": float(len(violations))}
    return False, "validate_plan reported no violations", {}


def _eval_identity(ctx: _Context, mutant: Mutant):
    """Exact-equality re-run of a baseline: any difference at all — one
    flipped outcome, a golden mismatch, a plan violation — is a (false)
    kill."""
    base_counts, _ = ctx.baseline(mutant.baseline, mutant.fault_model)
    layer = mutant.baseline.rsplit("-", 1)[1]
    built = mutant.build(ctx)
    counts, golden = _sweep(ctx, built, layer,
                            fault_model=mutant.fault_model)
    if counts is None:
        return True, "golden", (
            f"identity rebuild failed golden: {golden.status.value}"), {}
    if mutant.baseline == "plan-ir":
        violations = validate_plan(ctx.plan70, ctx.ref_module, ctx.profile)
        if violations:
            return True, "invariant", "; ".join(violations), {}
    if counts != base_counts:
        diff = {k: counts[k] - base_counts.get(k, 0)
                for k in counts if counts[k] != base_counts.get(k, 0)}
        return True, "coverage", f"outcome counts drifted: {diff}", {}
    return False, "identity", (
        f"bit-exact: {sum(counts.values())} outcomes identical to baseline"
    ), {"samples": float(sum(counts.values()))}


def run_mutation_suite(
    config: MutationConfig = MutationConfig(),
    names: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> MutationReport:
    """Run the catalog (or the ``names`` subset) and build the kill
    matrix.  Deterministic end to end: same config -> same report."""
    known = {m.name for m in MUTANTS}
    if names is not None:
        unknown = set(names) - known
        if unknown:
            raise ValueError(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if names is None or m.name in set(names)]
    ctx = _Context(config)
    t_suite = time.monotonic()
    results: List[MutantResult] = []
    for mutant in chosen:
        t0 = time.monotonic()
        if mutant.oracle == "golden":
            killed, detail, metrics = _eval_golden(ctx, mutant)
            killed_by = "golden" if killed else ""
        elif mutant.oracle == "coverage":
            killed, killed_by, detail, metrics = _eval_coverage(ctx, mutant)
            killed_by = killed_by if killed else ""
        elif mutant.oracle == "invariant":
            killed, detail, metrics = _eval_invariant(ctx, mutant)
            killed_by = "invariant" if killed else ""
        elif mutant.oracle == "codegen":
            killed, killed_by, detail, metrics = _eval_codegen(ctx, mutant)
            killed_by = killed_by if killed else ""
        elif mutant.oracle == "bitlive":
            killed, killed_by, detail, metrics = _eval_bitlive(ctx, mutant)
            killed_by = killed_by if killed else ""
        elif mutant.oracle == "identity":
            killed, killed_by, detail, metrics = _eval_identity(ctx, mutant)
            killed_by = killed_by if killed else ""
        else:  # pragma: no cover - catalog is static
            raise ValueError(f"unknown oracle {mutant.oracle!r}")
        result = MutantResult(
            name=mutant.name, kind=mutant.kind, oracle=mutant.oracle,
            baseline=mutant.baseline, expect_killed=mutant.expect_killed,
            killed=killed, killed_by=killed_by, detail=detail,
            fault_model=mutant.fault_model,
            metrics=metrics, elapsed_s=time.monotonic() - t0,
        )
        results.append(result)
        if progress is not None:
            verdict = "killed" if killed else "survived"
            progress(f"{mutant.name}: {verdict} ({result.detail})")
    return MutationReport(
        results=results,
        witness_sha256=hashlib.sha256(config.source.encode()).hexdigest(),
        config=config,
        elapsed_s=time.monotonic() - t_suite,
    )
