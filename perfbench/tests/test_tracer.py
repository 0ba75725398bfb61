"""Self-time arithmetic, pass-through wrappers, and installation on the package.

Run with: python3 -m pytest perfbench/tests
"""
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import JOB, Tracer, layer_profile, self_times  # noqa: E402


def test_self_time_of_synthetic_nested_call():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0
        return "inner"

    traced_inner = tracer.wrap("m.inner", inner)

    def outer():
        now[0] += 1.0
        traced_inner()
        now[0] += 3.0
        traced_inner()
        now[0] += 0.5
        return "outer"

    traced_outer = tracer.wrap("m.outer", outer)

    def job():
        now[0] += 0.25
        return traced_outer()

    assert tracer.job_span(0, job) == "outer"
    self_s, calls = layer_profile(tracer.spans)
    assert self_s == {JOB: 0.25, "m.outer": 4.5, "m.inner": 4.0}
    assert calls == {JOB: 1, "m.outer": 1, "m.inner": 2}
    assert [s[4] for s in tracer.spans] == [0, 0, 0, 0]


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1, 0], ["c", 1.0, 4.0, 0, 0], ["c", 3.0, 6.0, 0, 0],
             ["c", 9.0, 12.0, 0, 0]]
    assert self_times(spans) == [4.0, 3.0, 3.0, 3.0]


def test_spans_outside_jobs_are_not_profiled():
    tracer = Tracer()
    tracer.wrap("m.f", lambda: None)()
    assert layer_profile(tracer.spans) == ({}, {})


def test_wrapper_passes_values_and_exceptions_through():
    tracer = Tracer()
    marker = object()
    assert tracer.wrap("pauli.f", lambda x: x)(marker) is marker
    error = KeyError("original")

    def raises():
        raise error

    with pytest.raises(KeyError) as caught:
        tracer.wrap("pauli.g", raises)()
    assert caught.value is error
    assert tracer.errors == {"pauli": 1}
    assert tracer.stack == []


def test_install_rebinds_every_reference_and_records_absent_targets():
    script = textwrap.dedent(f"""
        import json, sys
        sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]
        import thermalverify
        from thermalverify import cli, graphs, oracle, pauli, supremacy, thermal
        from tracer import TARGETS, Tracer
        tracer = Tracer()
        tracer.install(TARGETS + (("pauli.gone", "thermalverify.pauli", "gone"),
                                  ("nowhere.f", "thermalverify.nowhere", "f")))
        wrapped = [cli.stabilizer_product is pauli.stabilizer_product is thermalverify.stabilizer_product,
                   supremacy.hadamard_transform is oracle.hadamard_transform,
                   thermal.signed_pattern_count.__wrapped__ is not None,
                   graphs.GraphSpec.neighbors.__wrapped__ is not None]
        inst = tracer.job_span(0, supremacy.build_family, 8)
        tracer.job_span(1, supremacy.optimal_setting, inst)
        print(json.dumps({{"wrapped": wrapped, "absent": tracer.absent,
                          "calls": sorted(set(s[0] for s in tracer.spans))}}))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert all(result["wrapped"])
    assert result["absent"] == ["thermalverify.pauli:gone", "thermalverify.nowhere:f"]
    assert {"supremacy.build_family", "supremacy.optimal_setting", "pauli.generalized_product",
            "graphs.incident_triples", "graphs.neighbors", "pauli.try_to_pauli"} <= set(result["calls"])


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
