"""Outside-in layer tracing: spans around the calls into each layer.

The benchmark may not edit the program, so spans are recorded from here:
before the simulation is built, :meth:`LayerTrace.install` replaces the
public entry points of each layer -- class attributes looked up **by
name** -- with wrappers.  A wrapper opens a span (layer, start, parent =
the enclosing span), and on return books the span's **exclusive self
time** (its duration minus what its child spans covered) and one call.
A 120-second run makes about a million spans, so they are aggregated in
memory per (layer, parent layer) edge rather than kept one by one.

Callbacks handed to the public ``Simulator.call_in`` / ``call_soon`` /
``TimerWheel.every`` are wrapped at registration and attributed to the
layer of the module that owns them.  What no wrapper sees -- the event
loop's inlined queue operations, the timer wheel, traffic-source refill
-- is the ``des.loop`` residual: traced wall time minus all self time.

A target that no longer exists is recorded in :attr:`LayerTrace.missing`
and its layer reports ``null``; a later refactor can rename an entry
point without breaking the benchmark.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: The residual layer, and the parent of every top-level span.
LOOP = "des.loop"

#: (layer, module, class, methods) wrapped from outside.
TARGETS = (
    ("psn.link", "repro.psn.interfaces", "LinkTransmitter",
     ("send", "take_utilization")),
    ("psn.inject", "repro.psn.node", "Psn", ("inject",)),
    ("psn.forward", "repro.psn.node", "Psn", ("forward",)),
    ("psn.control", "repro.psn.node", "Psn",
     ("advertise", "flush_pending_updates")),
    ("routing.spf", "repro.routing.spf", "SpfTree",
     ("recompute", "update_cost", "update_costs")),
    ("routing.spf_cache", "repro.routing.spf_cache", "SpfCache",
     ("forwarding_table", "shared_tree")),
    ("routing.flooding", "repro.routing.flooding", "FloodingState",
     ("originate", "accept", "forward_links",
      "note_received", "note_acked", "note_sent")),
    ("metrics.cost", "repro.metrics.hnspf", "HopNormalizedMetric",
     ("measured_cost", "measured_costs")),
    ("metrics.cost", "repro.metrics.dspf", "DelayMetric",
     ("measured_cost", "measured_costs")),
    ("sim.stats", "repro.sim.stats", "StatsCollector",
     ("packet_offered", "packet_delivered", "packet_dropped",
      "utilization_sample", "update_originated")),
)

#: ``Psn.receive`` spans are named by what arrived.
RECEIVE = ("repro.psn.node", "Psn", "receive")
RECEIVE_LAYERS = {
    "DATA": "psn.receive.data",
    "ROUTING_UPDATE": "psn.receive.update",
    "UPDATE_ACK": "psn.receive.ack",
}
RECEIVE_OTHER = "psn.receive.other"

#: (module, class, method, position of the callback argument after self).
REGISTRATIONS = (
    ("repro.des.engine", "Simulator", "call_in", 1),
    ("repro.des.engine", "Simulator", "call_soon", 0),
    ("repro.des.timers", "TimerWheel", "every", 1),
)

#: Loop callbacks are attributed to the layer of their owner's module
#: (link service chain; measurement close, retransmit tick, deferred
#: transmit).  Callbacks of other modules stay in the residual.
CALLBACK_LAYERS = {
    "repro.psn.interfaces": "psn.link",
    "repro.psn.node": "psn.control",
}

#: Every layer that yields metrics, residual first.
LAYERS = (LOOP,) + tuple(dict.fromkeys(
    [t[0] for t in TARGETS] + list(RECEIVE_LAYERS.values())
))

#: ``des.pending_peak`` is sampled once per this many registrations.
PENDING_SAMPLE_EVERY = 1024

Edges = Dict[Tuple[str, str], List[float]]


class LayerTrace:
    """Span stack plus per-edge totals of calls and exclusive self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: (layer, parent layer) -> [calls, self seconds].
        self.edges: Edges = {}
        #: Open spans, innermost last: [layer, seconds covered by children].
        self._stack: List[list] = []
        #: "module.Class.method" of every target that was not found.
        self.missing: List[str] = []
        #: Layers with at least one missing target: their metrics are null.
        self.incomplete: set = set()
        self._callbacks: Dict[Callable, Callable] = {}
        self._registrations = 0
        self.pending_peak = 0
        self._installed: List[tuple] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        layer: str,
        select: Optional[Callable[[tuple], str]] = None,
    ) -> Callable:
        """``fn`` as a span of ``layer`` (or of ``select(args)``)."""
        stack = self._stack
        edges = self.edges
        clock = self.clock

        def traced(*args, **kwargs):
            name = layer if select is None else select(args)
            span = [name, 0.0]
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (name, parent[0])
                else:
                    key = (name, LOOP)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0]
                edge[0] += 1
                edge[1] += elapsed - span[1]

        traced.__wrapped__ = fn
        return traced

    def callback(self, fn: Callable) -> Callable:
        """``fn`` wrapped for the layer of its owner's module, if any."""
        try:
            return self._callbacks[fn]
        except KeyError:
            pass
        except TypeError:  # unhashable callable: leave it in the residual
            return fn
        owner = getattr(fn, "__self__", None)
        module = (
            type(owner).__module__ if owner is not None
            else getattr(fn, "__module__", None)
        )
        layer = CALLBACK_LAYERS.get(module)
        wrapped = fn if layer is None else self.wrap(fn, layer)
        self._callbacks[fn] = wrapped
        return wrapped

    def _registration(self, original: Callable, position: int) -> Callable:
        """``original`` with its callback argument wrapped on the way in."""
        callback = self.callback

        def register(owner, *args, **kwargs):
            self._registrations += 1
            if self._registrations % PENDING_SAMPLE_EVERY == 0:
                # ``pending`` is public on Simulator; the timer wheel
                # reaches it through its public ``sim``.
                sim = getattr(owner, "sim", owner)
                pending = getattr(sim, "pending", 0)
                if pending > self.pending_peak:
                    self.pending_peak = pending
            if len(args) > position:
                args = (
                    args[:position] + (callback(args[position]),)
                    + args[position + 1:]
                )
            return original(owner, *args, **kwargs)

        register.__wrapped__ = original
        return register

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _lookup(self, module: str, cls: str, method: str):
        """(class, original function), or ``None`` if it is gone."""
        try:
            owner = getattr(importlib.import_module(module), cls)
            return owner, owner.__dict__[method]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{cls}.{method}")
            return None

    def _replace(self, owner, method: str, original, wrapper) -> None:
        setattr(owner, method, wrapper)
        self._installed.append((owner, method, original))

    def install(self, targets=TARGETS, receive=RECEIVE,
                registrations=REGISTRATIONS) -> "LayerTrace":
        """Wrap every target; must run before the simulation is built,
        because construction captures bound methods and callbacks."""
        for layer, module, cls, methods in targets:
            for method in methods:
                found = self._lookup(module, cls, method)
                if found is None:
                    self.incomplete.add(layer)
                    continue
                owner, original = found
                self._replace(
                    owner, method, original, self.wrap(original, layer)
                )
        if receive is not None:
            found = self._lookup(*receive)
            if found is None:
                self.incomplete.update(RECEIVE_LAYERS.values())
            else:
                owner, original = found
                by_kind: Dict[object, str] = {}

                def select(args: tuple) -> str:
                    kind = args[1].kind
                    name = by_kind.get(kind)
                    if name is None:
                        name = by_kind[kind] = RECEIVE_LAYERS.get(
                            getattr(kind, "name", None), RECEIVE_OTHER
                        )
                    return name

                self._replace(
                    owner, receive[2], original,
                    self.wrap(original, RECEIVE_OTHER, select),
                )
        for module, cls, method, position in registrations:
            found = self._lookup(module, cls, method)
            if found is None:
                # Loop callbacks then go unattributed: the layers they
                # feed under-report, so they are no longer comparable.
                self.incomplete.update(CALLBACK_LAYERS.values())
                continue
            owner, original = found
            self._replace(
                owner, method, original,
                self._registration(original, position),
            )
        return self

    def uninstall(self) -> None:
        """Put every replaced attribute back (tests build more than one)."""
        for owner, method, original in reversed(self._installed):
            setattr(owner, method, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> Edges:
        return {key: list(value) for key, value in self.edges.items()}

    def since(self, before: Edges) -> Edges:
        """Edge totals accumulated after ``before`` was taken."""
        delta = {}
        for key, (calls, self_s) in self.edges.items():
            calls0, self0 = before.get(key, (0, 0.0))
            if calls != calls0:
                delta[key] = [calls - calls0, self_s - self0]
        return delta


def layer_totals(rows: List[dict]) -> Dict[str, List[float]]:
    """layer -> [calls, self seconds], summed over parents, from the
    rows of :func:`edges_to_rows`."""
    totals: Dict[str, List[float]] = {}
    for row in rows:
        total = totals.setdefault(row["layer"], [0, 0.0])
        total[0] += row["calls"]
        total[1] += row["self_s"]
    return totals


def edges_to_rows(edges: Edges) -> List[dict]:
    """The JSON form written to ``trace-<workload>.json``."""
    return [
        {"layer": layer, "parent": parent, "calls": calls, "self_s": self_s}
        for (layer, parent), (calls, self_s) in sorted(edges.items())
    ]
