"""The run contract both simulated layers share (:mod:`repro.simulator`)."""

import pytest

from repro.errors import ReproError
from repro.fi.campaign import _Layer
from repro.pipeline import build
from repro.simulator import SNAPSHOT_TIERS, TIERS, Snapshot
from repro.trace.tap import IRCountTap, MachineCountTap

INDEX = 5
BIT = 3
COUNTERS = {"ir": IRCountTap, "asm": MachineCountTap}


@pytest.fixture(scope="module")
def built():
    return build("crc32", scale="tiny")


#: tier, what the run asks of it, and what must happen: the constructor
#: refuses the tier, the run refuses the request, or the run serves it
ROUTES = [
    ("codgen", None, "unknown"),
    ("naive", "checkpoints", "refused"),
    ("naive", "resume_from", "refused"),
    ("decoded", "checkpoints", "served"),
    ("decoded", "resume_from", "served"),
    ("codegen", "checkpoints", "served"),
    ("codegen", "resume_from", "served"),
    ("codegen", "tap", "served"),
]


@pytest.mark.parametrize("layer", ["ir", "asm"])
@pytest.mark.parametrize("tier,request_,expected", ROUTES)
def test_routing_rule(built, layer, tier, request_, expected):
    adapter = _Layer.of(built, layer)
    if expected == "unknown":
        assert tier not in TIERS
        with pytest.raises(ReproError, match="unknown dispatch mode"):
            adapter.simulator(tier)
        return

    snaps = []

    def keep(idx, snap):
        snaps.append(snap)

    options = {}
    if request_ == "checkpoints":
        kwargs = {"checkpoints": [INDEX], "checkpoint_cb": keep}
    elif request_ == "tap":
        kwargs = {"inject_index": INDEX, "inject_bit": BIT}
        options["trace"] = COUNTERS[layer]()
    else:
        adapter.simulator("decoded").run(checkpoints=[INDEX],
                                         checkpoint_cb=keep)
        kwargs = {"resume_from": snaps.pop(), "inject_index": INDEX,
                  "inject_bit": BIT}
    sim = adapter.simulator(tier, **options)
    if expected == "refused":
        # one message for both requests, naming both snapshot tiers
        with pytest.raises(ReproError, match="needs a snapshot tier") as exc:
            sim.run(**kwargs)
        assert all(repr(t) in str(exc.value) for t in SNAPSHOT_TIERS)
        return

    res = sim.run(**kwargs)
    if request_ == "checkpoints":
        # the run stops right before the step that allocates INDEX, and
        # its snapshot carries the counters at that point
        (snap,) = snaps
        assert isinstance(snap, Snapshot)
        assert res.extra["early_stop"] is True
        assert (snap.dyn_total, snap.dyn_injectable) == \
            (res.dyn_total, INDEX)
        return
    counter = COUNTERS[layer]()
    full = adapter.simulator("naive", trace=counter).run(
        inject_index=INDEX, inject_bit=BIT)
    assert (res.status, res.output, res.dyn_total, res.dyn_injectable,
            res.injected_iid) == (full.status, full.output, full.dyn_total,
                                  full.dyn_injectable, full.injected_iid)
    if request_ == "tap":
        # generated code calls no hook: naive's counts show that the
        # decoded core served the tapped codegen run
        assert sim.tracer.counts == counter.counts
