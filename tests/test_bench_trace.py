"""The benchmark's span tracer still finds every name it wraps.

``bench/spans.py`` replaces names where ``identities`` and ``green`` look
them up.  A refactor that stops ``green`` from calling its own ``sum_series``,
or a verifier from holding its own series span, would empty the per-layer
metrics without any benchmark failing; this runs one point of each workload
that sums a series under the tracer and checks the span tree.  The per-layer
counts of ``green_pairs`` also rest on where the scalar spans sit: the Hostler
bracket's Kummer calls directly under ``hostler_green``, and every direct M of
the partial-wave sum inside that sum's series span.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans"), importlib.import_module("workloads")


def _parents_of(tracer, name: str) -> set:
    """Names of the spans directly holding a span called ``name``."""
    return {tracer.names[tracer.name[tracer.parent[idx]]]
            for idx, nid in enumerate(tracer.name)
            if tracer.names[nid] == name and tracer.parent[idx] >= 0}


def test_series_spans_sit_under_their_callers(bench_modules):
    spans, workloads = bench_modules
    green_point = next(workloads._green_points(11))
    gamma_zero_point = next(workloads._identity_stream(11, "gamma_zero"))
    tracer = spans.Tracer(spans.layer_targets())
    with tracer.installed():
        workloads._green_call(green_point)
        workloads._identity_call(gamma_zero_point)
    parents = _parents_of(tracer, spans.SERIES_SPAN)
    assert "green.partial_wave_green" in parents
    assert "identities.gamma_zero" in parents
    assert tracer.restores_failed == 0


def test_green_scalar_spans_sit_under_their_callers(bench_modules):
    spans, workloads = bench_modules
    point = next(workloads._green_points(11))
    tracer = spans.Tracer(spans.layer_targets())
    with tracer.installed():
        workloads._green_call(point)
    assert "green.hostler_green" in _parents_of(tracer, "special_core.kummer_u")

    def name(idx):
        return tracer.names[tracer.name[idx]]

    m_spans = [idx for idx in range(len(tracer.name))
               if name(idx) == "special_core.whittaker_m"]
    chains = {(name(tracer.parent[idx]), name(tracer.parent[tracer.parent[idx]]))
              for idx in m_spans}
    assert m_spans and chains == {(spans.SERIES_SPAN, "green.partial_wave_green")}
    assert tracer.restores_failed == 0
