"""Spans around the public functions of each bsnakes layer.

A traced worker replaces each function below with a wrapper, in every
module that looks the function up at call time (for example
``bsnakes.ring.coefficient``, through which ``cup_basis`` reaches the
normalform layer).  Nothing in the program changes.  Each call records a
span (name, start, end, parent); spans are folded into per-name totals as
they close, since a cup-table round makes millions of them:

    self time = span duration - time covered by its direct child spans

A wrapped name that a later version of the program no longer has is
skipped, and the metrics built from it read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable

#: (span name, attribute, modules that look the attribute up at call time)
FUNCTIONS = [
    ("core.enumerate_snakes", "enumerate_snakes", ("bsnakes.ring", "bsnakes.oracle", "bsnakes")),
    ("core.restrict_p", "restrict_p", ("bsnakes.ring", "bsnakes.oracle", "bsnakes")),
    ("relations.h2", "h2", ("bsnakes.normalform",)),
    ("relations.h4", "h4", ("bsnakes.normalform",)),
    ("relations.h5", "h5", ("bsnakes.normalform",)),
    ("normalform.normal_form", "normal_form", ("bsnakes.normalform", "bsnakes")),
    ("normalform.coefficient", "coefficient", ("bsnakes.ring", "bsnakes")),
    ("ring.cup_basis", "cup_basis", ("bsnakes.ring", "bsnakes")),
    ("ring.kappa", "kappa", ("bsnakes.ring", "bsnakes")),
    ("ring.is_restrictable", "is_restrictable", ("bsnakes.ring", "bsnakes")),
    ("oracle.hat_complex", "hat_complex", ("bsnakes.oracle", "bsnakes")),
    ("oracle.chain_of", "chain_of", ("bsnakes.oracle", "bsnakes")),
    ("oracle.solve_in_snake_cycles", "solve_in_snake_cycles", ("bsnakes.oracle", "bsnakes")),
]

#: (span name, module, class, method) for methods looked up on the class.
METHODS = [
    ("linalg.add_row", "bsnakes.linalg", "SparseEchelon", "add_row"),
    ("linalg.reduce_vector", "bsnakes.linalg", "SparseEchelon", "reduce_vector"),
]

#: Modules that construct LinComb through their own global name.
LINCOMB_MODULES = ("bsnakes.relations", "bsnakes.normalform", "bsnakes.ring",
                   "bsnakes.oracle", "bsnakes")


class Tracer:
    """Span stack with per-name call counts and self times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = False
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._observers: dict[str, Callable] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack, calls, self_s, clock = self.stack, self.calls, self.self_s, self.clock
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            observe = tracer._observers.get(name)
            if observe is not None:
                observe(tracer, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def observe(self, name: str, fn: Callable) -> None:
        """Call fn(tracer, result, parent span name) after each name span."""
        self._observers[name] = fn

    def install(self) -> None:
        """Wrap every listed call site of the imported bsnakes package."""
        for name, attr, modules in FUNCTIONS:
            for modname in modules:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr, None)
                if fn is not None:
                    setattr(mod, attr, self.wrap(name, fn))
        for name, modname, clsname, meth in METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is not None:
                setattr(cls, meth, self.wrap(name, fn))
        base = getattr(importlib.import_module("bsnakes.relations"), "LinComb", None)
        if base is not None:
            # A slot-less subclass keeps isinstance checks and immutability;
            # every module must see the same class, or LinComb equality
            # between objects built in different modules would fail.
            traced = type("LinComb", (base,), {
                "__slots__": (),
                "__init__": self.wrap("relations.LinComb", base.__init__)})
            for modname in LINCOMB_MODULES:
                mod = importlib.import_module(modname)
                if getattr(mod, "LinComb", None) is base:
                    mod.LinComb = traced

    def metric(self, name: str, field: str) -> float:
        if field == "calls":
            return self.calls.get(name, 0)
        return self.self_s.get(name, 0.0)


def count_snakes(tracer: Tracer, result, parent) -> None:
    tracer.counts["core.snakes_enumerated"] += len(result)


def count_restrictable(tracer: Tracer, result, parent) -> None:
    # The filter in cup_basis, not the re-check that kappa makes.
    if parent == "ring.cup_basis":
        tracer.counts["ring.restrictable_tested"] += 1
        tracer.counts["ring.restrictable_kept"] += bool(result)


def layer_tracer() -> Tracer:
    tracer = Tracer()
    tracer.observe("core.enumerate_snakes", count_snakes)
    tracer.observe("ring.is_restrictable", count_restrictable)
    return tracer


def layer_metrics(tracer: Tracer, speed: float) -> dict[str, float]:
    """Per-layer metrics of one traced round; times scaled by speed."""
    c, s = tracer.metric, (lambda name: tracer.metric(name, "self_s") * speed)
    tested = tracer.counts["ring.restrictable_tested"]
    return {
        "core.enumerate_snakes.calls": c("core.enumerate_snakes", "calls"),
        "core.enumerate_snakes.self_s": s("core.enumerate_snakes"),
        "core.snakes_enumerated": tracer.counts["core.snakes_enumerated"],
        "core.restrict_p.calls": c("core.restrict_p", "calls"),
        "relations.LinComb.constructed": c("relations.LinComb", "calls"),
        "relations.LinComb.self_s": s("relations.LinComb"),
        "relations.rewrite_instances": sum(c(f"relations.{h}", "calls")
                                           for h in ("h2", "h4", "h5")),
        "linalg.add_row.calls": c("linalg.add_row", "calls"),
        "linalg.add_row.self_s": s("linalg.add_row"),
        "linalg.reduce_vector.calls": c("linalg.reduce_vector", "calls"),
        "linalg.reduce_vector.self_s": s("linalg.reduce_vector"),
        "normalform.normal_form.calls": c("normalform.normal_form", "calls"),
        "normalform.normal_form.self_s": s("normalform.normal_form"),
        "normalform.coefficient.calls": c("normalform.coefficient", "calls"),
        "normalform.coefficient.self_s": s("normalform.coefficient"),
        "ring.cup_basis.calls": c("ring.cup_basis", "calls"),
        "ring.cup_basis.self_s": s("ring.cup_basis"),
        "ring.kappa.calls": c("ring.kappa", "calls"),
        "ring.is_restrictable.calls": c("ring.is_restrictable", "calls"),
        "ring.restrictable_kept_ratio": (tracer.counts["ring.restrictable_kept"] / tested
                                         if tested else 0.0),
        "oracle.hat_complex.self_s": s("oracle.hat_complex"),
        "oracle.chain_of.calls": c("oracle.chain_of", "calls"),
        "oracle.chain_of.self_s": s("oracle.chain_of"),
        "oracle.solve_in_snake_cycles.calls": c("oracle.solve_in_snake_cycles", "calls"),
        "oracle.solve_in_snake_cycles.self_s": s("oracle.solve_in_snake_cycles"),
    }
