"""Per-layer spans and counters, recorded from outside the program.

:class:`Tracer` wraps public methods of the simulator's layers at class
level, for the traced run only, and :meth:`Tracer.restore` puts every
original function back.  Each wrapper opens a span; a span's *busy* time
is its whole duration and its *self* time that duration minus the spans
nested inside it.  A layer already open on the stack (a ``super()`` call,
a recursive call) does not open a second span, so no time is counted
twice.

``LAYERS`` is the prediction table: for each layer, the calls wrapped and
the end-to-end metric (and workload) a change to that layer should move.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.attack import attacker as _attacker  # noqa: F401 - registers subclasses
from repro.attack import command_spoof as _command_spoof  # noqa: F401
from repro.core.baselines import Planner
from repro.core.csa import CsaPlanner
from repro.detection import auditors as _auditors  # noqa: F401
from repro.detection import countermeasures as _countermeasures  # noqa: F401
from repro.detection.monitors import Detector
from repro.network.network import Network
from repro.network.node import SensorNode
from repro.network.topology import Deployment
from repro.sim import benign as _benign  # noqa: F401
from repro.sim.actions import MissionController
from repro.sim.engine import EventQueue
from repro.sim.wrsn_sim import WrsnSimulation
from repro.twin.detector import TwinDetector
from repro.twin.feed import SimStreamPublisher


@dataclass(frozen=True)
class Layer:
    name: str
    wrapped: str
    moves: str


LAYERS: tuple[Layer, ...] = (
    Layer(
        "network.routing",
        "Network.recompute_consumption",
        "node_days_per_s on churn-n2000 and matrix-n200; flat on fpr-longrun-n200",
    ),
    Layer(
        "network.node",
        "SensorNode.predicted_request_time / predicted_death_time",
        "node_days_per_s on churn-n2000 (about N predictions per death)",
    ),
    Layer(
        "sim.engine",
        "EventQueue.schedule / pop / invalidate / forget",
        "node_days_per_s on churn-n2000 and fpr-longrun-n200",
    ),
    Layer(
        "network.energy_ledger",
        "Network.advance_to",
        "node_days_per_s on fpr-longrun-n200; flat on churn-n2000",
    ),
    Layer(
        "attack.controller",
        "MissionController on_start / on_event / next_action (self time)",
        "node_days_per_s on matrix-n200",
    ),
    Layer("core.planner", "Planner.plan, CsaPlanner.plan", "node_days_per_s on matrix-n200"),
    Layer(
        "network.keynodes",
        "Network.refresh_key_nodes",
        "node_days_per_s on matrix-n200 (controller start-up and replans)",
    ),
    Layer("network.topology", "Deployment.graph", "setup_s on churn-n2000"),
    Layer(
        "twin",
        "TwinDetector.observe_*, SimStreamPublisher.on_trace_event",
        "node_days_per_s on fpr-longrun-n200",
    ),
    Layer(
        "detection",
        "periodic Detector.observe_* / perform_audit",
        "none: under 3% everywhere, listed so it stays visible",
    ),
    Layer(
        "sim.wrsn_sim",
        "WrsnSimulation.run minus every span above",
        "everything; trace_events must not change",
    ),
)

#: Layers reported by self time (their children are other layers).
SELF_TIMED = ("attack.controller", "sim.wrsn_sim")

#: Per-layer metric name -> unit, in report order.
METRIC_UNITS: dict[str, str] = {
    "network.routing.rebuilds": "count",
    "network.routing.busy_s": "s",
    "network.routing.ms_per_rebuild": "ms",
    "network.node.predictions": "count",
    "network.node.busy_s": "s",
    "sim.engine.pushes": "count",
    "sim.engine.live_pops": "count",
    "sim.engine.stale_frac": "fraction",
    "sim.engine.busy_s": "s",
    "network.energy_ledger.advances": "count",
    "network.energy_ledger.busy_s": "s",
    "attack.controller.calls": "count",
    "attack.controller.self_s": "s",
    "core.planner.plans": "count",
    "core.planner.busy_s": "s",
    "network.keynodes.refreshes": "count",
    "network.keynodes.busy_s": "s",
    "network.topology.busy_s": "s",
    "twin.calls": "count",
    "twin.busy_s": "s",
    "detection.calls": "count",
    "detection.busy_s": "s",
    "sim.wrsn_sim.self_s": "s",
    "sim.wrsn_sim.trace_events": "count",
    "sim.runner.busy_s": "s",
    **{f"{layer.name}.share": "fraction" for layer in LAYERS},
    "trace.overhead_frac": "fraction",
}


class _Stat:
    __slots__ = ("calls", "busy", "self_", "open")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_ = 0.0
        self.open = False


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Tracer:
    """Class-level span wrappers for one traced run; see module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._saved: list[tuple[type, str, Callable]] = []
        self._stack: list[float] = []  # child time accumulated per open span
        self.stats = {layer.name: _Stat() for layer in LAYERS}
        self.pushes = 0
        self.live_pops = 0
        self.stale_pops_seen = 0  # heap entries a pop discarded, counted directly
        self.left_in_queue = 0
        self.trace_events = 0
        self.runner_s = 0.0
        self._queues: dict[int, EventQueue] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _span(self, pick: Callable[[Any], _Stat], func: Callable) -> Callable:
        clock, stack = self._clock, self._stack

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stat = pick(args[0])
            if stat.open:
                return func(*args, **kwargs)
            stat.open = True
            stack.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                stat.open = False
                stat.calls += 1
                stat.busy += duration
                stat.self_ += duration - child
                if stack:
                    stack[-1] += duration

        return wrapper

    def _patch(self, owner: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[name]  # only functions a class defines itself
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def _wrap(self, owner: type, name: str, layer: str) -> None:
        stat = self.stats[layer]
        self._patch(owner, name, lambda f: self._span(lambda _self: stat, f))

    def _wrap_tree(self, root: type, names: tuple[str, ...], pick: Callable) -> None:
        """Wrap ``names`` wherever a class under ``root`` defines them."""
        for cls in _subclasses(root):
            for name in names:
                if name in cls.__dict__:
                    self._patch(cls, name, lambda f: self._span(pick, f))

    def install(self) -> "Tracer":
        """Patch every layer's public calls; pair with :meth:`restore`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._wrap(Network, "recompute_consumption", "network.routing")
        self._wrap(SensorNode, "predicted_request_time", "network.node")
        self._wrap(SensorNode, "predicted_death_time", "network.node")
        self._wrap(Network, "advance_to", "network.energy_ledger")
        self._wrap(Network, "refresh_key_nodes", "network.keynodes")
        self._wrap(Deployment, "graph", "network.topology")
        self._wrap(SimStreamPublisher, "on_trace_event", "twin")
        self._wrap(WrsnSimulation, "run", "sim.wrsn_sim")
        self._wrap(EventQueue, "invalidate", "sim.engine")
        self._wrap(EventQueue, "forget", "sim.engine")
        self._patch(EventQueue, "schedule", self._counted_schedule)
        self._patch(EventQueue, "pop", self._counted_pop)

        controller = self.stats["attack.controller"]
        self._wrap_tree(
            MissionController,
            ("on_start", "on_event", "next_action"),
            lambda _self: controller,
        )
        planner = self.stats["core.planner"]
        self._wrap_tree(Planner, ("plan",), lambda _self: planner)
        self._wrap_tree(CsaPlanner, ("plan",), lambda _self: planner)
        twin, detection = self.stats["twin"], self.stats["detection"]
        self._wrap_tree(
            Detector,
            ("observe_request", "observe_service", "observe_death", "perform_audit"),
            lambda det: twin if isinstance(det, TwinDetector) else detection,
        )
        return self

    def restore(self) -> None:
        """Put back every original function, last patch first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Event-queue counters
    # ------------------------------------------------------------------
    def _counted_schedule(self, func: Callable) -> Callable:
        timed = self._span(lambda _q: self.stats["sim.engine"], func)

        @functools.wraps(func)
        def schedule(queue: EventQueue, *args: Any, **kwargs: Any) -> Any:
            self._queues[id(queue)] = queue
            self.pushes += 1
            return timed(queue, *args, **kwargs)

        return schedule

    def _counted_pop(self, func: Callable) -> Callable:
        timed = self._span(lambda _q: self.stats["sim.engine"], func)

        @functools.wraps(func)
        def pop(queue: EventQueue) -> Any:
            before = len(queue)
            event = timed(queue)
            removed = before - len(queue)
            if event is not None:
                self.live_pops += 1
                removed -= 1
            self.stale_pops_seen += removed
            return event

        return pop

    def end_run(self) -> None:
        """Close one simulation: count what its queues still hold."""
        self.left_in_queue += sum(len(q) for q in self._queues.values())
        self._queues.clear()

    def add_result(self, wall_s: float, trace_events: int) -> None:
        """Add one traced ``run_attack`` call's wall-clock and trace length."""
        self.runner_s += wall_s
        self.trace_events += trace_events

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def stale_frac(self) -> float:
        """(pushes - live pops - entries left at the end) / pushes."""
        if not self.pushes:
            return 0.0
        return (self.pushes - self.live_pops - self.left_in_queue) / self.pushes

    def metrics(self, passes: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics, each averaged over ``passes`` workload passes."""
        s = self.stats

        def per(value: float) -> float:
            return value / passes

        def timed(layer: str) -> float:
            stat = s[layer]
            return stat.self_ if layer in SELF_TIMED else stat.busy

        routing = s["network.routing"]
        out = {
            "network.routing.rebuilds": per(routing.calls),
            "network.routing.busy_s": per(routing.busy),
            "network.routing.ms_per_rebuild": (
                1e3 * routing.busy / routing.calls if routing.calls else 0.0
            ),
            "network.node.predictions": per(s["network.node"].calls),
            "network.node.busy_s": per(s["network.node"].busy),
            "sim.engine.pushes": per(self.pushes),
            "sim.engine.live_pops": per(self.live_pops),
            "sim.engine.stale_frac": self.stale_frac(),
            "sim.engine.busy_s": per(s["sim.engine"].busy),
            "network.energy_ledger.advances": per(s["network.energy_ledger"].calls),
            "network.energy_ledger.busy_s": per(s["network.energy_ledger"].busy),
            "attack.controller.calls": per(s["attack.controller"].calls),
            "attack.controller.self_s": per(s["attack.controller"].self_),
            "core.planner.plans": per(s["core.planner"].calls),
            "core.planner.busy_s": per(s["core.planner"].busy),
            "network.keynodes.refreshes": per(s["network.keynodes"].calls),
            "network.keynodes.busy_s": per(s["network.keynodes"].busy),
            "network.topology.busy_s": per(s["network.topology"].busy),
            "twin.calls": per(s["twin"].calls),
            "twin.busy_s": per(s["twin"].busy),
            "detection.calls": per(s["detection"].calls),
            "detection.busy_s": per(s["detection"].busy),
            "sim.wrsn_sim.self_s": per(s["sim.wrsn_sim"].self_),
            "sim.wrsn_sim.trace_events": per(self.trace_events),
            "sim.runner.busy_s": per(self.runner_s),
        }
        for layer in LAYERS:
            share = timed(layer.name) / self.runner_s if self.runner_s else 0.0
            out[f"{layer.name}.share"] = share
        out["trace.overhead_frac"] = overhead_frac
        return out
