"""Spans recorded from outside the program, and their self-time arithmetic.

During a traced pass the benchmark wraps the public functions of each
layer wherever the program has bound them (the defining module and every
``holonomy`` module that imported the name), so calls between layers are
timed without editing the program.  A span records its name, start, end,
parent span and spec; spans are kept in memory and written once at the end.

A target that is missing, or whose wrapper cannot be installed, is recorded
as absent and the traced run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  Several functions may share a span name;
# ``Class.method`` names a classmethod.
SPAN_TARGETS = (
    ("holonomy.canonical", "pencil_from_json", "canonical.build"),
    ("holonomy.canonical", "build_canonical", "canonical.build"),
    ("holonomy.canonical", "validate_pair", "canonical.build"),
    ("holonomy.liealg", "so_basis", "liealg.so_basis"),
    ("holonomy.liealg", "centralizer_basis", "liealg.centralizer_basis"),
    ("holonomy.berger", "r_formal", "berger.r_formal"),
    ("holonomy.berger", "berger_certificate", "berger.certificate"),
    ("holonomy.berger", "check_bianchi", "berger.bianchi"),
    ("holonomy.berger", "check_sectional", "berger.containment"),
    ("holonomy.realize", "build_B", "realize.build_B"),
    ("holonomy.realize", "lower_B", "realize.lower_B"),
    ("holonomy.realize", "check_nablaL", "realize.nablaL"),
    ("holonomy.realize", "check_gsym", "realize.gsym"),
    ("holonomy.realize", "riemann_at_origin", "realize.riemann"),
    ("holonomy.realize", "verify_realization", "realize.verify"),
    ("holonomy.probe.transport", "FloatMetric.from_exact", "probe.float_metric"),
    ("holonomy.probe.transport", "parallel_transport", "probe.transport"),
    ("holonomy.probe.transport", "holonomy_span", "probe.span"),
)

# The RK4 kernel is counted, not timed: its ``steps`` argument (one entry per
# polyline segment) gives the number of RK4 steps of each loop.
STEP_COUNTER = ("holonomy.probe.kernels", "transport_polyline", "probe.rk4_steps")


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.spans = []     # dicts: id, parent, name, spec, start, end
        self.counters = []  # dicts: name, spec, value
        self.absent = []    # target descriptions that could not be wrapped, once each
        self.spec = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = {"id": None, "parent": stack[-1] if stack else None,
                  "name": name, "spec": self.spec, "start": 0.0, "end": 0.0}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def missing(self, where: str) -> None:
        if where not in self.absent:
            self.absent.append(where)

    def count(self, name: str, value) -> None:
        with self._lock:
            self.counters.append({"name": name, "spec": self.spec, "value": value})


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _step_counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        steps = kwargs["steps"] if "steps" in kwargs else (args[3] if len(args) > 3 else None)
        try:
            tracer.count(name, int(sum(int(s) for s in steps)))
        except (TypeError, ValueError):
            tracer.count(name, None)  # unreadable signature: recorded as absent
        return fn(*args, **kwargs)
    return wrapper


def _rebind_everywhere(original, replacement, undo: list) -> None:
    """Point every holonomy module attribute bound to ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "holonomy" or modname.startswith("holonomy.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def _install(tracer: Tracer, modname: str, attr: str, make, name: str, undo: list) -> None:
    where = f"{modname}.{attr}"
    try:
        module = importlib.import_module(modname)
    except ImportError:
        tracer.missing(where)
        return
    owner_name, _, leaf = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    raw = vars(owner).get(leaf) if owner is not None else None
    if isinstance(raw, classmethod) and callable(raw.__func__):
        setattr(owner, leaf, classmethod(make(tracer, name, raw.__func__)))
        undo.append((owner, leaf, raw))
    elif owner is module and callable(raw):
        _rebind_everywhere(raw, make(tracer, name, raw), undo)
    else:
        tracer.missing(where)


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every span target and the step counter for the duration of the block."""
    undo = []
    try:
        for modname, attr, name in SPAN_TARGETS:
            _install(tracer, modname, attr, _timed, name, undo)
        modname, attr, name = STEP_COUNTER
        _install(tracer, modname, attr, _step_counted, name, undo)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- arithmetic ----------------------------------------------------------------

def self_times(spans: list) -> dict:
    """Span id -> duration minus the durations of its direct children.

    Children of one span run one after another inside it, so the part of the
    interval they cover is the sum of their durations.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_time[s["id"]] for s in spans}


def totals(spans: list) -> tuple:
    """(name -> summed self time in s, name -> number of calls)."""
    own = self_times(spans)
    self_sum = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        self_sum[s["name"]] += own[s["id"]]
        calls[s["name"]] += 1
    return dict(self_sum), dict(calls)
