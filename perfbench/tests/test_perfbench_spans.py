"""Self time with nested spans, and wrapping each shared object once."""

import types

import pytest

from spans import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    root = tracer.begin("root")          # 0 .. 10
    clock.now = 1.0
    a = tracer.begin("child")            # 1 .. 4
    clock.now = 2.0
    leaf = tracer.begin("leaf")          # 2 .. 3
    clock.now = 3.0
    tracer.end(leaf)
    clock.now = 4.0
    tracer.end(a)
    clock.now = 6.0
    b = tracer.begin("child")            # 6 .. 9
    clock.now = 9.0
    tracer.end(b)
    clock.now = 10.0
    tracer.end(root)
    summary = tracer.summary()
    assert summary["root"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert summary["child"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert summary["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    # Self times add up to the root's duration.
    assert sum(e["self_s"] for e in summary.values()) == 10.0
    assert tracer.inside("leaf", "root") == 1.0
    assert tracer.inside("root", "leaf") == 0.0


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    # Two children that overlap in time (as asynchronous work can).
    tracer.names += ["parent", "c1", "c2"]
    tracer.starts += [0.0, 1.0, 2.0]
    tracer.ends += [10.0, 5.0, 7.0]
    tracer.parents += [-1, 0, 0]
    assert tracer.self_times() == [4.0, 4.0, 5.0]


def test_spans_closed_out_of_order_are_an_error():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


class Shared:
    def act(self, x):
        return x + 1


class Controller:
    def __init__(self, policy):
        self.policy = policy

    def decide(self, x):
        return self.policy.act(x)


def test_shared_object_is_wrapped_once_and_counted_once():
    policy = Shared()
    controllers = [Controller(policy) for _ in range(3)]
    tracer = Tracer()
    tracer.wrap(Shared, "act", "policy.act")
    # A second wrap of the same attribute, as a per-controller loop would
    # attempt, is refused instead of nesting the wrapper.
    with pytest.raises(RuntimeError):
        tracer.wrap(Shared, "act", "policy.act")
    for c in controllers:
        assert c.decide(1) == 2
    tracer.close()
    assert tracer.summary()["policy.act"]["calls"] == 3
    assert "act" in Shared.__dict__ and Shared.act.__name__ == "act"
    assert not hasattr(Shared.act, "_perfbench_span")


def test_close_restores_modules_and_inherited_methods():
    module = types.ModuleType("m")
    module.f = lambda: 1
    original = module.f

    class Base:
        def g(self):
            return 2

    class Sub(Base):
        pass

    tracer = Tracer()
    tracer.wrap(module, "f", "m.f")
    tracer.wrap(Sub, "g", "sub.g", on_call=lambda t, a, k: t.count("g"))
    assert module.f() == 1 and Sub().g() == 2 and Base().g() == 2
    tracer.close()
    assert module.f is original
    assert "g" not in Sub.__dict__
    assert tracer.counters == {"g": 1}
    assert [tracer.summary()[n]["calls"] for n in ("m.f", "sub.g")] == [1, 1]
