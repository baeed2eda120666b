"""Per-layer call ledger for the benchmark's traced runs.

The traced run installs thin timing wrappers around the public functions
of each layer, from outside the program: every module that binds one of
the listed functions gets the wrapper in place of the original, and each
listed method is replaced on its class.  Spans live in memory as
``(name, start, end, parent, run_id)`` and are written out once, when the
run ends.  Untraced runs never import this module.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Work counters (call counts and a few quantities read
from call arguments and results) do not depend on the host, so two
traced runs of the same inputs must produce identical counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Root span names: the benchmark's own operation span and, in the
#: daemon process, one span per served frame.  Coverage is the share of
#: root time that lands inside layer spans directly under a root.
OP_SPAN = "op"
DISPATCH_SPAN = "stream.daemon.dispatch"
ROOT_SPANS = (OP_SPAN, DISPATCH_SPAN)

#: (metric prefix, module, attribute path).  A dotted path names a
#: method, patched on its class; a plain name is a module-level function,
#: patched in every loaded ``repro`` module that binds it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.simulate_mix", "repro.sim.execution", "simulate_mix"),
    ("sim.simulate_layout_batch", "repro.sim.batch", "simulate_layout_batch"),
    ("hardware.SocketPowerModel.freq_at_power", "repro.hardware.cpu",
     "SocketPowerModel.freq_at_power"),
    ("core.Policy.allocate", "repro.core.policy", "Policy.allocate"),
    ("manager.PowerAwareAdmission.decide", "repro.manager.admission",
     "PowerAwareAdmission.decide"),
    ("manager.BatchPlanner.plan", "repro.manager.site_simulation",
     "BatchPlanner.plan"),
    ("characterization.planner_lookup", "repro.manager.site_simulation",
     "BatchPlanner._lookup"),
    ("manager.apply_job_runtime", "repro.manager.power_manager",
     "apply_job_runtime"),
    ("faults.plan_with_degradation", "repro.faults.degradation",
     "plan_with_degradation"),
    ("hierarchy.apportion", "repro.hierarchy.broker", "apportion"),
    ("hierarchy.BudgetBroker.rebalanced", "repro.hierarchy.broker",
     "BudgetBroker.rebalanced"),
    ("parallel.child_seed", "repro.parallel.seeding", "child_seed"),
    ("characterization.characterize_mix",
     "repro.characterization.mix_characterization", "characterize_mix"),
    ("characterization.characterize_mix_batch",
     "repro.characterization.mix_characterization", "characterize_mix_batch"),
    ("stream.SiteStreamEngine.run", "repro.stream.engine",
     "SiteStreamEngine.run"),
    ("stream.encode_message", "repro.stream.messages", "encode_message"),
    ("stream.decode_message", "repro.stream.messages", "decode_message"),
    (DISPATCH_SPAN, "repro.stream.daemon", "StreamDaemon._dispatch"),
    ("experiments.run_grid_cell", "repro.experiments.grid", "run_grid_cell"),
    ("telemetry.span", "repro.telemetry.tracing", "span"),
)

#: Functions whose calls and self time are published as metrics.
TIMED = tuple(
    prefix for prefix, _, _ in TARGETS
    if prefix not in ("characterization.planner_lookup",
                      "hierarchy.BudgetBroker.rebalanced", DISPATCH_SPAN)
)

#: Counters derived from call arguments and results.
COUNTERS = ("sim.host_iters", "manager.admitted", "manager.decided",
            "faults.degraded", "faults.plans")


def _iterations(mix) -> int:
    return int(mix.common_iterations())


def _observe_simulate_mix(counters, args, kwargs, result) -> None:
    mix = args[0] if args else kwargs["mix"]
    caps = args[1] if len(args) > 1 else kwargs["caps_w"]
    counters["sim.host_iters"] += len(caps) * _iterations(mix)


def _observe_layout_batch(counters, args, kwargs, result) -> None:
    mixes = args[0] if args else kwargs["mixes"]
    caps = args[1] if len(args) > 1 else kwargs["caps_sw"]
    rows, hosts = caps.shape
    counters["sim.host_iters"] += rows * hosts * _iterations(mixes[0])


def _observe_decide(counters, args, kwargs, result) -> None:
    counters["manager.admitted"] += len(result.admitted)
    counters["manager.decided"] += len(result.admitted) + len(result.deferred)


def _observe_degradation(counters, args, kwargs, result) -> None:
    # A plan is degraded unless the policy re-plan succeeded first try.
    counters["faults.plans"] += 1
    if result.tier != "replan" or result.attempts > 1:
        counters["faults.degraded"] += 1


OBSERVERS: Dict[str, Callable] = {
    "sim.simulate_mix": _observe_simulate_mix,
    "sim.simulate_layout_batch": _observe_layout_batch,
    "manager.PowerAwareAdmission.decide": _observe_decide,
    "faults.plan_with_degradation": _observe_degradation,
}


def import_all_repro() -> None:
    """Import every ``repro`` module, so each binding exists before the
    wrappers are installed and none is created afterwards."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: (name id, start, end, parent index, run id); parent -1 = none.
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.run_id = 0
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self._installed: List[Tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def op(self, run_id: int) -> Iterator[None]:
        """Record the benchmark's own root span around one operation."""
        self.run_id = run_id
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (self._name_id(OP_SPAN), start, end, -1, run_id)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = OBSERVERS.get(name)
        counters = self.counters

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                index = len(spans)
                spans.append(None)
                stack.append(index)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name_id, start, end, parent, self.run_id)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.run_id)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every target in every module and class that binds it."""
        import_all_repro()
        modules = [m for key, m in list(sys.modules.items())
                   if key == "repro" or key.startswith("repro.")]
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._replace(cls, attr, self._wrap(original, name))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, name)
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"no module binds {module_name}.{path}")

    def _replace(self, owner, key: str, value) -> None:
        self._installed.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # -- output -----------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for record in self.spans:
                if record is None:
                    continue
                name_id, start, end, parent, run_id = record
                out.write(json.dumps([self.names[name_id], start, end,
                                      parent, run_id]) + "\n")
            out.write(json.dumps({"counters": self.counters}) + "\n")


def load(path: Path) -> Tuple[List[tuple], Dict[str, int]]:
    """Read spans and counters written by :meth:`Recorder.write`."""
    spans: List[tuple] = []
    counters: Dict[str, int] = {}
    with path.open(encoding="utf-8") as stream:
        for line in stream:
            record = json.loads(line)
            if isinstance(record, dict):
                counters = record["counters"]
            else:
                spans.append(tuple(record))
    return spans, counters


def summarize(spans: List[tuple], counters: Dict[str, int]) -> Dict[str, float]:
    """Per-function calls and self time, the derived ratios and the
    coverage of root time by layer spans.

    ``spans`` holds ``(name, start, end, parent, run_id)`` tuples whose
    parent is an index into the same list.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls: Dict[str, int] = {}
    total_s: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    root_s = covered_s = 0.0
    misses = 0
    for index, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        total_s[name] = total_s.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + duration - child_s[index]
        if name in ROOT_SPANS and parent < 0:
            root_s += duration
            covered_s += child_s[index]
        if name == "characterization.characterize_mix" and parent >= 0 \
                and spans[parent][0] == "characterization.planner_lookup":
            misses += 1
    out: Dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    decided = counters.get("manager.decided", 0)
    plans = counters.get("faults.plans", 0)
    lookups = calls.get("characterization.planner_lookup", 0)
    out.update({
        "sim.host_iters": counters.get("sim.host_iters", 0),
        "manager.admitted_ratio":
            counters.get("manager.admitted", 0) / decided if decided else 0.0,
        "faults.degraded_ratio":
            counters.get("faults.degraded", 0) / plans if plans else 0.0,
        "hierarchy.rebalances":
            calls.get("hierarchy.BudgetBroker.rebalanced", 0),
        "characterization.lookups": lookups,
        "characterization.hit_ratio":
            1.0 - misses / lookups if lookups else 0.0,
        "stream.daemon.server_s": total_s.get(DISPATCH_SPAN, 0.0),
        "trace.coverage": covered_s / root_s if root_s else 0.0,
    })
    return out


def work_counter_names() -> List[str]:
    """Metrics that count work; they must repeat exactly across traced
    runs of the same inputs."""
    return [f"{name}.calls" for name in TIMED] + [
        "sim.host_iters", "manager.admitted_ratio", "faults.degraded_ratio",
        "hierarchy.rebalances", "characterization.lookups",
        "characterization.hit_ratio",
    ]
