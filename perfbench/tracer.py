"""Outside-in spans around thermalverify's public functions.

Only traced runs import this module. install() wraps each target function
and rebinds every reference to it across the loaded thermalverify modules
(cli and supremacy hold their own `from .x import y` bindings), so calls
made anywhere inside the package open a span. Spans stay in memory and are
written out once, when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("graphs", "pauli", "thermal", "identities", "sampler", "oracle", "supremacy", "cli")

# (span name, module, attribute path). Two classes share the graphs.neighbors span.
TARGETS = (
    ("graphs.incident_triples", "thermalverify.graphs", "HypergraphSpec.incident_triples"),
    ("graphs.neighbors", "thermalverify.graphs", "GraphSpec.neighbors"),
    ("graphs.neighbors", "thermalverify.graphs", "HypergraphSpec.neighbors"),
    ("graphs.load_hypergraph", "thermalverify.graphs", "load_hypergraph"),
    ("pauli.stabilizer_product", "thermalverify.pauli", "stabilizer_product"),
    ("pauli.generalized_product", "thermalverify.pauli", "generalized_product"),
    ("pauli.try_to_pauli", "thermalverify.pauli", "try_to_pauli"),
    ("thermal.setting_expectation", "thermalverify.thermal", "setting_expectation"),
    ("identities.signed_pattern_count", "thermalverify.identities", "signed_pattern_count"),
    ("sampler.run_protocol", "thermalverify.sampler", "run_protocol"),
    ("supremacy.build_family", "thermalverify.supremacy", "build_family"),
    ("supremacy.optimal_setting", "thermalverify.supremacy", "optimal_setting"),
    ("supremacy.certify", "thermalverify.supremacy", "certify"),
    ("supremacy.exact_outcome_distribution", "thermalverify.supremacy", "exact_outcome_distribution"),
    ("supremacy.iqp_sample", "thermalverify.supremacy", "iqp_sample"),
    ("oracle.hadamard_transform", "thermalverify.oracle", "hadamard_transform"),
    ("oracle.build_pure_state", "thermalverify.oracle", "build_pure_state"),
    ("cli.main", "thermalverify.cli", "main"),
)

JOB = "job"
MEMORY_SPANS = {"sampler.run_protocol"}


class Tracer:
    """Records spans as [name, start, end, parent index, job id]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.errors: Counter = Counter()
        self.absent: list[str] = []
        self.shots = 0
        self.peak_alloc = 0

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call; return values
        and exceptions pass through unchanged."""
        layer = name.split(".", 1)[0]
        watch_memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if watch_memory:
                tracemalloc.start()
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job])
            self.stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = self.clock()
                self.stack.pop()
                self.spans[index][1:3] = [start, end]
                if watch_memory:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if watch_memory:
                self.shots += getattr(result, "n_samples", 0)
            return result

        return traced

    def job_span(self, job_id, fn, *args):
        """Run fn(*args) as the root span of one job."""
        self.job = job_id
        try:
            return self.wrap(JOB, fn)(*args)
        finally:
            self.job = None

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the missing ones as absent."""
        wrapped = {}
        for name, module_name, path in targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}:{path}")
                continue
            wrapper = self.wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            wrapped[id(original)] = (original, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "thermalverify":
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "absent": self.absent, "spans": self.spans}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_profile(spans: list[list]) -> tuple[dict, dict]:
    """Total self time and call count per span name, job spans included."""
    self_s, calls = Counter(), Counter()
    for span, own in zip(spans, self_times(spans)):
        if span[4] is None:
            continue
        self_s[span[0]] += own
        calls[span[0]] += 1
    return dict(self_s), dict(calls)
