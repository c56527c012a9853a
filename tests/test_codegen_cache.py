"""The on-disk codegen cache (``REPRO_CODEGEN_CACHE``, DESIGN §13.3).

A codegen run writes one compiled entry per generated function; a fresh
build of the same source finds them all and adds none, and the code
loaded from them runs bit-identical to the naive tiers.  An unusable
cache is a hard :class:`CodegenCacheError`, never a silent fallback.
"""

import os

import pytest

from repro.errors import CodegenCacheError
from repro.interp.interpreter import IRInterpreter
from repro.machine.machine import AsmMachine
from repro.pipeline import build_from_source

SRC = """
int data[8] = {4, 2, 7, 1, 9, 3, 8, 6};

int weigh(int x) {
    if (x > 4) { return x * 3; }
    return x - 1;
}

int main() {
    int acc = 0;
    float f = 0.5;
    for (int i = 0; i < 8; i++) {
        acc = acc + weigh(data[i]);
        f = f * 1.5;
    }
    print(acc);
    print(f);
    return 0;
}
"""

#: (injection index, bit) pairs, a few per layer
DRAWS = [(0, 0), (3, 17), (11, 63), (25, 2), (40, 33)]


def _sim(built, layer, dispatch):
    if layer == "ir":
        return IRInterpreter(built.module, layout=built.layout,
                             dispatch=dispatch)
    return AsmMachine(built.compiled, built.layout, dispatch=dispatch)


def _sig(res):
    return (res.status.value, res.output, res.dyn_total,
            res.dyn_injectable, res.trap_kind, res.injected)


def _entries(path):
    return sorted(n for n in os.listdir(path) if n.endswith(".marshal"))


def _codegen_golden(built):
    for layer in ("ir", "asm"):
        _sim(built, layer, "codegen").run()


def test_fresh_build_reuses_entries_and_matches_naive(tmp_path,
                                                      monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    _codegen_golden(build_from_source(SRC, name="cache"))
    written = _entries(tmp_path)
    assert written

    built = build_from_source(SRC, name="cache")
    for layer in ("ir", "asm"):
        runs = [{}] + [dict(inject_index=i, inject_bit=b) for i, b in DRAWS]
        for kw in runs:
            want = _sig(_sim(built, layer, "naive").run(**kw))
            assert _sig(_sim(built, layer, "codegen").run(**kw)) == want
    assert _entries(tmp_path) == written


def test_cache_path_that_is_a_file_raises(tmp_path, monkeypatch):
    path = tmp_path / "not-a-dir"
    path.write_text("")
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(path))
    with pytest.raises(CodegenCacheError):
        _codegen_golden(build_from_source(SRC, name="cache"))


def test_truncated_entry_raises(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    _codegen_golden(build_from_source(SRC, name="cache"))
    for name in _entries(tmp_path):
        entry = tmp_path / name
        entry.write_bytes(entry.read_bytes()[:16])
    with pytest.raises(CodegenCacheError, match="unreadable"):
        _codegen_golden(build_from_source(SRC, name="cache"))
