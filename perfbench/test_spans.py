"""Tests of the benchmark's tracing: run with `python3 -m pytest perfbench`."""

import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import spans as sp  # noqa: E402


def _rec(name, start, end, parent, op=None):
    return [name, start, end, parent, op, None]


def test_self_time_is_span_minus_children_cover():
    spans = [
        _rec("root", 0.0, 10.0, -1),
        _rec("a", 1.0, 3.0, 0),
        _rec("b", 2.0, 4.0, 0),      # overlaps a: the cover is [1, 4]
        _rec("c", 6.0, 7.0, 0),
        _rec("a.x", 1.5, 2.5, 1),    # grandchild: counts against a, not root
        _rec("d", 9.5, 12.0, 0),     # runs past the parent: clipped to [9.5, 10]
    ]
    assert sp.self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0 - 0.5, 1.0, 2.0, 1.0, 1.0, 2.5])


def test_wrapped_calls_record_parent_and_op():
    tracer = sp.Tracer("unit")
    leaf = tracer.wrap(lambda x: x + 1, sp.fixed("leaf"))
    outer = tracer.wrap(lambda x: leaf(x) * 2, lambda a, k: ("outer", a[0]))
    tracer.op = 7
    assert outer(3) == 8
    with tracer.span("bench"):
        leaf(0)
    names = [(r[sp.NAME], r[sp.PARENT], r[sp.OP], r[sp.ATTRS]) for r in tracer.spans]
    assert names == [("outer", -1, 7, 3), ("leaf", 0, 7, None),
                     ("bench", -1, 7, None), ("leaf", 2, 7, None)]
    assert all(r[sp.END] >= r[sp.START] for r in tracer.spans)


def test_instrument_restores_attributes_even_on_error():
    mod = types.ModuleType("fake")
    mod.f = lambda: 1
    mod.g = lambda: 2
    originals = (mod.f, mod.g)
    tracer = sp.Tracer("unit")
    targets = [sp.Target(mod, "f", sp.fixed("f")), sp.Target(mod, "g", sp.fixed("g")),
               sp.Target(mod, "absent", sp.fixed("absent"))]
    with pytest.raises(RuntimeError):
        with sp.instrument(tracer, targets) as missing:
            assert missing == ["fake.absent"]
            assert mod.f is not originals[0] and mod.f() == 1
            raise RuntimeError("boom")
    assert (mod.f, mod.g) == originals
    assert not hasattr(mod, "absent")
    assert [r[sp.NAME] for r in tracer.spans] == ["f"]


def test_package_targets_are_restored():
    import workloads as wl

    targets = wl.trace_targets()
    before = [getattr(t.module, t.attr) for t in targets]
    with sp.instrument(sp.Tracer("unit"), targets) as missing:
        assert missing == []
        assert all(getattr(t.module, t.attr) is not b for t, b in zip(targets, before))
    assert all(getattr(t.module, t.attr) is b for t, b in zip(targets, before))
