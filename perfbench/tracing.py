"""Traced run: wrap entnet's public functions by layer and record spans.

The wrappers live here, in the benchmark, and are installed only for a
traced iteration; entnet itself is never edited. A span records
(name, start, end, parent index, request id); the request id is the
session id wherever the wrapped call carries one. A layer's self time is
its spans' durations minus the part of each interval its child spans
cover.

Functions that `entnet.engine` imports by name (`encode_frame`,
`decode_frame`, `segment_message`, `validate_scenario`) are patched where
they are looked up, not where they are defined; patching only the
defining module would leave the engine calling the unwrapped original and
the traced run would count zero.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _payload_session(index: int):
    def request_of(args, kwargs):
        payload = args[index] if len(args) > index else kwargs.get("payload")
        return payload.get("session") if isinstance(payload, dict) else None
    return request_of


def _arg(index: int, keyword: str):
    def request_of(args, kwargs):
        return args[index] if len(args) > index else kwargs.get(keyword)
    return request_of


def _record_session(args, kwargs):
    return getattr(args[1], "session_id", None) if len(args) > 1 else None


def _t(name, module, path, request_of=None, calls=True):
    calls_metric = f"{name}.calls" if calls is True else calls or None
    return name, module, path, request_of, calls_metric


# (span name, module, attribute path, request-id extractor, calls metric)
# The calls metric is None for spans reported by self time alone.
TARGETS = (
    _t("scenario.parse", "entnet.scenario", "scenario_from_dict"),
    _t("scenario.validate", "entnet.scenario", "validate_scenario"),
    _t("scenario.validate", "entnet.engine", "validate_scenario"),
    _t("entanglement.make_plate_pair", "entnet.entanglement", "PairPool.make_plate_pair"),
    _t("entanglement.reset_plate_pair", "entnet.entanglement", "PairPool.reset_plate_pair"),
    _t("entanglement.trigger_plate", "entnet.entanglement", "PairPool.trigger_plate"),
    _t("entanglement.observe_plate", "entnet.entanglement", "PairPool.observe_plate"),
    _t("entanglement.plate_fresh", "entnet.entanglement", "PairPool.plate_fresh"),
    _t("codec.encode_frame", "entnet.engine", "encode_frame"),
    _t("codec.decode_frame", "entnet.engine", "decode_frame"),
    _t("codec.segment_message", "entnet.engine", "segment_message"),
    _t("codec.message_push", "entnet.codec", "MessageBuffer.push"),
    _t("engine.schedule", "entnet.engine", "Simulation.schedule",
       _payload_session(4), calls="engine.events"),
    _t("engine.emit", "entnet.engine", "Simulation.emit", _arg(3, "session")),
    _t("engine.cancel", "entnet.engine", "Simulation.cancel"),
    _t("engine.run", "entnet.engine", "Simulation.run_until_idle", calls=False),
    _t("qbs.handle", "entnet.qbs", "QbsNode.handle", _payload_session(3)),
    _t("qbs.circuit_build", "entnet.qbs", "Circuit.build", _arg(5, "owner_session")),
    _t("qbs.provision", "entnet.engine", "Simulation.provision_interqbs_circuit",
       _arg(4, "session_id")),
    _t("qbs.release", "entnet.engine", "Simulation.release_session_circuits",
       _record_session),
    _t("qbs.teardown", "entnet.engine", "Simulation.teardown_session",
       _arg(1, "session_id")),
    _t("node.handle", "entnet.node", "UserNode.handle", _payload_session(3)),
    *(_t(f"invariants.{check}", "entnet.invariants", check, calls=False)
      for check in ("check_trace_state_machine", "check_causality",
                    "check_anti_correlation", "check_circuit_conservation",
                    "check_registry_coherence", "check_active_session_membership",
                    "check_session_circuit_binding")),
)

# counted but not spanned: called a quarter of a million times per set-up
COUNTED = (("entanglement.pairs_created", "entnet.entanglement", "PairPool.create_pair"),)

# spans the benchmark opens itself, around its own phases
SERIALIZE = "trace.serialize"

# layers that must show calls on a workload, or the traced run fails
BUSY = {
    "sessions": ("scenario", "engine", "qbs", "node", "entanglement"),
    "bulk": ("codec", "entanglement", "engine"),
    "fanin": ("codec", "entanglement", "engine", "qbs"),
}


def _resolve(module: str, path: str):
    """(owner, attribute, raw descriptor) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr, inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.present: set[str] = set()

    def wrap(self, name: str, fn, request_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                request = request_of(args, kwargs) if request_of else None
                spans[index] = (name, start, end, parent, request)
        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, None)

    def _patch(self, name: str, module: str, path: str, make) -> None:
        found = _resolve(module, path)
        if found is None:
            return
        owner, attr, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw, attr in vars(owner)))
        setattr(owner, attr, new)
        self.present.add(name)

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        for name, module, path, request_of, _ in TARGETS:
            self._patch(name, module, path,
                        lambda fn, n=name, r=request_of: self.wrap(n, fn, r))
        for name, module, path in COUNTED:
            self._patch(name, module, path, lambda fn, n=name: self.count(n, fn))
        try:
            yield self
        finally:
            for owner, attr, raw, owned in reversed(self._patches):
                if owned:
                    setattr(owner, attr, raw)
                else:
                    delattr(owner, attr)
            self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def write(self, path) -> None:
        """Write the recorded spans as gzip'd JSON lines."""
        with gzip.open(path, "wt") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps([name, start, end, parent, request]) + "\n")


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_totals(spans: list) -> tuple[Counter, dict[str, float]]:
    """Calls and summed self time per span name."""
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    return calls, self_s
