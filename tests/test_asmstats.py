"""Tests for assembly statistics."""

from repro.analysis.asmstats import (
    dynamic_role_histogram,
    static_stats,
)
from repro.backend.isa import Role
from repro.machine.machine import run_asm
from repro.pipeline import build
from repro.trace.tap import MachineCountTap


class TestStaticStats:
    def test_totals_consistent(self):
        built = build("crc32", scale="tiny")
        stats = static_stats(built.asm)
        assert stats.total == built.asm.static_count()
        assert sum(stats.by_opcode.values()) == stats.total
        assert sum(stats.by_role.values()) == stats.total
        assert 0 < stats.injectable < stats.total
        assert 0 < stats.injectable_fraction < 1

    def test_frame_code_unmapped(self):
        built = build("crc32", scale="tiny")
        stats = static_stats(built.asm)
        assert stats.unmapped >= 2  # at least prologue push/mov per fn

    def test_penetration_surface_appears_under_protection(self):
        plain = static_stats(build("pathfinder", scale="tiny").asm)
        protected = static_stats(
            build("pathfinder", scale="tiny", level=100).asm
        )
        plain_surface = plain.penetration_surface()
        prot_surface = protected.penetration_surface()
        # protection *creates* store and branch penetration surface
        assert prot_surface["store"] > plain_surface["store"]
        assert prot_surface["branch"] > plain_surface["branch"]

    def test_role_fraction(self):
        built = build("quicksort", scale="tiny")
        stats = static_stats(built.asm)
        assert stats.role_fraction(Role.CALL_ARG) > 0  # call-dense kernel


class TestDynamicHistogram:
    def test_histogram_matches_profile(self):
        built = build("crc32", scale="tiny")
        tap = MachineCountTap()
        res = run_asm(built.compiled, built.layout, trace=tap)
        hist = dynamic_role_histogram(built.compiled, tap.counts)
        assert sum(hist.values()) == res.dyn_total
        assert Role.MAIN in hist
