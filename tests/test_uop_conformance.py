"""Per-uop conformance table for the two fast asm tiers.

Both fast tiers run the same per-uop bodies (the decoder's templates and
the codegen emitter's literal rendering of them), so neither checks the
other; the naive ladder is the oracle for both.  Program-level oracles
compare outputs and counters only, which can hide a body that, say,
forgets a flag write-back the next compare overwrites anyway.  Here
every non-control micro-op runs alone, in every operand form lowering
can produce, over edge values, inside a probe program that

1. sets registers, XMM registers and flags,
2. runs the uop,
3. stores every GPR, every XMM register and every condition code
   (SETCC, then a store) to memory,
4. executes ``UD2``,

and the memory image, status, trap kind, outputs and step count of the
decoded and codegen tiers must equal naive's.
"""

import math

import pytest

from repro.machine import machine as asm
from repro.machine.machine import AsmMachine, CompiledProgram
from repro.pipeline import build_from_source

G = asm._GPR_INDEX
RAX, RCX, RDX, RBX, RSI, RDI = (G[r] for r in
                                ("rax", "rcx", "rdx", "rbx", "rsi", "rdi"))
RSP = G["rsp"]
# r14/r15 and xmm14/xmm15 only feed the flag-setting prelude
FLAG_A, FLAG_B = G["r14"], G["r15"]

INTS = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]
FLOATS = [-0.0, math.nan, math.inf, -math.inf, 1e300, 1.5]
SIZES = (1, 2, 4, 8)
#: flag states before the uop: a CMP of two integers, or a UCOMISD of
#: two floats (the unordered one sets uf)
FLAG_STATES = [
    ("cmp", 5, 5),                      # zf
    ("cmp", 0, 1),                      # sf cf
    ("cmp", 2**63, 1),                  # of
    ("cmp", 2**63 - 1, 2**64 - 1),      # sf of cf
    ("cmp", 2, 1),                      # none
    ("ucomisd", math.nan, 0.0),         # uf cf zf
    ("ucomisd", 1.0, 2.0),              # cf
]
#: the flags every other probe starts from: no uop may disturb them
#: unless it writes them
DEFAULT_FLAGS = FLAG_STATES[3]

CONTROL = ["JMP", "JCC", "CALL", "RET", "UD2"]
NON_CONTROL = [
    "MOV_RR", "MOV_RI", "MOV_RM", "MOV_MR", "MOV_MI",
    "MOVSD_XX", "MOVSD_XI", "MOVSD_XM", "MOVSD_MX", "LEA",
    "ADD_RR", "ADD_RI", "SUB_RR", "SUB_RI", "IMUL_RR", "IMUL_RI",
    "AND_RR", "AND_RI", "OR_RR", "OR_RI", "XOR_RR", "XOR_RI",
    "SHL_RC", "SHL_RI", "SAR_RC", "SAR_RI", "SHR_RC", "SHR_RI",
    "IDIV", "CMP_RR", "CMP_RI", "TEST_RR", "SETCC", "CMOV",
    "CALLRT", "PUSH", "POP",
    "ADDSD", "SUBSD", "MULSD", "DIVSD", "UCOMISD",
    "CVTSI2SD", "CVTTSD2SI",
]


@pytest.fixture(scope="module")
def layout():
    return build_from_source("int main() { return 0; }", name="conf").layout


@pytest.fixture(scope="module")
def geo(layout):
    mem = AsmMachine(CompiledProgram(None, [(asm.UD2,)], [0], 0, []),
                     layout).memory
    heap = mem.heap_base + 4096
    return {"lo": mem.global_base, "hi": mem.size, "in": heap,
            "out": heap + 4096, "stack": mem.stack_limit}


def _flags(state):
    kind, a, b = state
    if kind == "cmp":
        return [(asm.MOV_RI, FLAG_A, a), (asm.MOV_RI, FLAG_B, b),
                (asm.CMP_RR, FLAG_A, FLAG_B)]
    return [(asm.MOVSD_XI, 14, a), (asm.MOVSD_XI, 15, b),
            (asm.UCOMISD, 14, 15)]


def _program(geo, uop, regs=(), xmm=(), mem=(), flags=DEFAULT_FLAGS):
    """A probe program: sentinel registers, the case's registers, XMM
    registers, memory words and flags, the uop, then every GPR, XMM
    register and condition code stored at ``geo["out"]``, then UD2."""
    out = geo["out"]
    uops = [(asm.MOV_RI, r, 0x0101010101010101 * (r + 1))
            for r in range(16) if r != RSP]
    uops += [(asm.MOVSD_XI, x, x + 0.25) for x in range(16)]
    uops += [(asm.MOV_MI, -1, addr, v, 8) for addr, v in mem]
    uops += _flags(flags)
    uops += [(asm.MOV_RI, r, v) for r, v in regs]
    uops += [(asm.MOVSD_XI, x, v) for x, v in xmm]
    uops.append(uop)
    uops += [(asm.MOV_MR, -1, out + 8 * r, r, 8) for r in range(16)]
    uops += [(asm.MOVSD_MX, -1, out + 128 + 8 * x, x) for x in range(16)]
    for cc in range(16):
        uops += [(asm.SETCC, RAX, cc),
                 (asm.MOV_MR, -1, out + 256 + 8 * cc, RAX, 8)]
    uops.append((asm.UD2,))
    return CompiledProgram(None, uops, [0] * len(uops), 0, [])


def _pairs(values):
    return [(a, b) for a in values for b in values]


def _mem_forms(geo, size):
    """(base register value or None for a constant address, disp) per
    addressing form: in bounds with a positive, a negative and a
    wrapping displacement; below the image, straddling its end, and
    wrapping past 2**64 out of it; the constant forms in and out of
    bounds."""
    at, lo, hi = geo["in"], geo["lo"], geo["hi"]
    return [
        (at - 16, 16), (at + 8, -8), (2**64 - 16, at + 16),
        (0, 8), (hi - size + 1, 0), (2**64 - 8, 16), (2**64 - 1, 0),
        (None, at), (None, lo - 8), (None, hi - size + 1), (None, -8),
    ]


def _mem_cases(geo, make, size):
    """Cases for one memory uop shape: ``make(base, disp)`` builds the
    uop; the words around the target hold a byte pattern."""
    pattern = [(geo["in"] + off, 0x8877665544332211 ^ (off & 0xFF))
               for off in (-16, -8, 0, 8)]
    cases = []
    for base_val, disp in _mem_forms(geo, size):
        base = -1 if base_val is None else RSI
        regs = () if base_val is None else ((RSI, base_val),)
        cases.append(dict(uop=make(base, disp), regs=regs, mem=pattern))
    return cases


def _cases(geo, name):
    """Every operand form of opcode ``name`` over the edge values."""
    code = getattr(asm, name)
    c = []
    if name == "MOV_RR":
        c += [dict(uop=(code, RBX, RCX), regs=((RCX, v),)) for v in INTS]
        c.append(dict(uop=(code, RBX, RBX), regs=((RBX, 2**63),)))
    elif name == "MOV_RI":
        c += [dict(uop=(code, RBX, v)) for v in INTS]
    elif name in ("MOV_RM", "MOV_MR", "MOV_MI"):
        for size in SIZES:
            if name == "MOV_RM":
                c += _mem_cases(geo, lambda b, d: (code, RBX, b, d, size),
                                size)
            elif name == "MOV_MR":
                for v in (2**64 - 1, 2**63 + 0x1234):
                    for case in _mem_cases(
                            geo, lambda b, d: (code, b, d, RBX, size), size):
                        case["regs"] = tuple(case["regs"]) + ((RBX, v),)
                        c.append(case)
            else:
                for v in (2**64 - 1, 2**63 + 0x1234):
                    c += _mem_cases(geo, lambda b, d: (code, b, d, v, size),
                                    size)
    elif name == "MOVSD_XX":
        c += [dict(uop=(code, 3, 5), xmm=((5, v),)) for v in FLOATS]
    elif name == "MOVSD_XI":
        c += [dict(uop=(code, 3, v)) for v in FLOATS + [0.0, 0.1]]
    elif name == "MOVSD_XM":
        c += _mem_cases(geo, lambda b, d: (code, 3, b, d), 8)
    elif name == "MOVSD_MX":
        for v in FLOATS:
            for case in _mem_cases(geo, lambda b, d: (code, b, d, 5), 8):
                case["xmm"] = ((5, v),)
                c.append(case)
    elif name == "LEA":
        for v in INTS:
            c += [dict(uop=(code, RBX, RSI, d), regs=((RSI, v),))
                  for d in (0, 16, -16)]
        c += [dict(uop=(code, RBX, -1, d)) for d in (0, 4096, -8)]
    elif name in ("ADD_RR", "SUB_RR", "IMUL_RR", "AND_RR", "OR_RR",
                  "XOR_RR", "CMP_RR", "TEST_RR"):
        c += [dict(uop=(code, RBX, RCX), regs=((RBX, a), (RCX, b)))
              for a, b in _pairs(INTS)]
        c += [dict(uop=(code, RBX, RBX), regs=((RBX, a),)) for a in INTS]
    elif name in ("ADD_RI", "SUB_RI", "IMUL_RI", "AND_RI", "OR_RI",
                  "XOR_RI", "CMP_RI"):
        c += [dict(uop=(code, RBX, b), regs=((RBX, a),))
              for a, b in _pairs(INTS)]
    elif name in ("SHL_RC", "SAR_RC", "SHR_RC"):
        c += [dict(uop=(code, RBX), regs=((RBX, a), (RCX, n)))
              for a in INTS for n in (0, 1, 63, 64, 2**64 - 1)]
        c += [dict(uop=(code, RCX), regs=((RCX, a),)) for a in INTS]
    elif name in ("SHL_RI", "SAR_RI", "SHR_RI"):
        c += [dict(uop=(code, RBX, n), regs=((RBX, a),))
              for a in INTS for n in (0, 1, 31, 63)]
    elif name == "IDIV":
        c += [dict(uop=(code, RBX), regs=((RAX, a), (RBX, b), (RDX, 7)))
              for a, b in _pairs(INTS + [2**64 - 7])]
        c.append(dict(uop=(code, RAX), regs=((RAX, 2**64 - 9),)))
    elif name in ("SETCC", "CMOV"):
        for cc in range(16):
            for state in FLAG_STATES:
                uop = ((code, RBX, cc) if name == "SETCC"
                       else (code, RBX, RCX, cc))
                c.append(dict(uop=uop, regs=((RCX, 2**63 + 5),),
                              flags=state))
    elif name == "CALLRT":
        c += [dict(uop=(code, asm._RT_PRINT_I64, None), regs=((RDI, v),))
              for v in INTS]
        c += [dict(uop=(code, asm._RT_PRINT_CHAR, None), regs=((RDI, v),))
              for v in INTS + [65, 10]]
        c += [dict(uop=(code, asm._RT_PRINT_F64, None), xmm=((0, v),))
              for v in FLOATS]
        c.append(dict(uop=(code, asm._RT_DETECT, None)))
        for fn in ("sqrt_f64", "exp_f64", "floor_f64"):
            kind, payload = asm._runtime_id(fn)
            c += [dict(uop=(code, kind, payload), xmm=((0, v),))
                  for v in FLOATS]
        kind, payload = asm._runtime_id("pow_f64")
        c += [dict(uop=(code, kind, payload), xmm=((0, a), (1, b)))
              for a, b in _pairs(FLOATS)]
    elif name == "PUSH":
        sp_ok = geo["stack"] + 4096
        c += [dict(uop=(code, RBX), regs=((RSP, sp), (RBX, v)))
              for sp in (sp_ok, geo["stack"] + 8, geo["stack"] + 7,
                         geo["hi"] + 8, 0)
              for v in (2**64 - 1, 2**63)]
        c.append(dict(uop=(code, RSP)))
    elif name == "POP":
        c += [dict(uop=(code, RBX), regs=((RSP, sp),),
                   mem=((geo["in"], 2**64 - 3),))
              for sp in (geo["in"], geo["hi"] - 8, geo["hi"] - 7, 0,
                         geo["lo"] - 1, 2**64 - 8)]
        c.append(dict(uop=(code, RSP), regs=((RSP, geo["in"]),),
                      mem=((geo["in"], geo["in"] + 64),)))
    elif name in ("ADDSD", "SUBSD", "MULSD", "DIVSD", "UCOMISD"):
        values = FLOATS + [0.0, -2.5]
        c += [dict(uop=(code, 3, 5), xmm=((3, a), (5, b)))
              for a, b in _pairs(values)]
        c += [dict(uop=(code, 3, 3), xmm=((3, a),)) for a in values]
    elif name == "CVTSI2SD":
        c += [dict(uop=(code, 3, RBX), regs=((RBX, v),)) for v in INTS]
    elif name == "CVTTSD2SI":
        c += [dict(uop=(code, RBX, 5), xmm=((5, v),))
              for v in FLOATS + [-2.5, 2.0**63, -2.0**63, 1e19]]
    return c


def _signature(machine):
    res = machine.run()
    return (res.status.value, res.trap_kind, res.output, res.dyn_total,
            machine.memory.data)


def test_table_covers_every_non_control_uop(geo):
    codes = [getattr(asm, name) for name in NON_CONTROL + CONTROL]
    assert sorted(codes) == list(range(asm.UD2 + 1))
    for name in NON_CONTROL:
        assert _cases(geo, name), name


@pytest.mark.parametrize("tier", ["decoded", "codegen"])
@pytest.mark.parametrize("name", NON_CONTROL)
def test_uop_matches_naive(layout, geo, name, tier):
    failures = []
    for case in _cases(geo, name):
        program = _program(geo, **case)
        want = _signature(AsmMachine(program, layout, dispatch="naive"))
        got = _signature(AsmMachine(program, layout, dispatch=tier))
        if got != want:
            failures.append((case["uop"], want[:4], got[:4],
                             got[4] == want[4]))
    assert not failures, failures[:5]
