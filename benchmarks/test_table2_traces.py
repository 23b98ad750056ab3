"""Table II — characteristics of the traffic traces.

Regenerates the rows of Table II for the scaled traces: number of flows,
average centrality (5-way partition), and the p/q parameters of the
synthetic traces.  The paper reports centralities of 0.85 / 0.85 / 0.72 /
0.61 for Real / Syn-A / Syn-B / Syn-C; the benchmark asserts the ordering
(Real ≈ Syn-A > Syn-B > Syn-C) rather than the absolute values.
"""

from __future__ import annotations

import pytest

from repro.analysis.centrality import trace_centrality
from repro.common.formatting import format_table


def _rows(real_trace, synthetic_traces):
    traces = [real_trace] + list(synthetic_traces)
    parameters = {"Real": ("N/A", "N/A"), "Syn-A": ("90", "10"), "Syn-B": ("70", "20"), "Syn-C": ("70", "30")}
    rows = []
    centralities = {}
    for trace in traces:
        report = trace_centrality(trace, group_count=5, seed=2015)
        centralities[trace.name] = report.weighted_average
        p, q = parameters[trace.name]
        rows.append([trace.name, f"{len(trace):,}", f"{report.weighted_average:.2f}", p, q])
    return rows, centralities


@pytest.mark.benchmark(group="table2")
def test_table2_trace_characteristics(benchmark, real_trace, synthetic_traces):
    rows, centralities = benchmark.pedantic(
        _rows, args=(real_trace, synthetic_traces), rounds=1, iterations=1
    )
    print()
    print(format_table(
        ["Trace", "# of flows", "Avg. centrality", "p (%)", "q (%)"],
        rows,
        title="Table II — characteristics of the traffic traces (scaled reproduction)",
    ))

    # Shape assertions: the real-like and Syn-A traces are the most
    # concentrated; locality decreases from Syn-A to Syn-C as in the paper.
    assert centralities["Syn-A"] > centralities["Syn-B"] > centralities["Syn-C"]
    assert centralities["Real"] > centralities["Syn-C"]
    assert centralities["Real"] > 0.4
    # Syn-B and Syn-C are larger traces than Syn-A (paper: 2720M / 3806M / 5071M).
    sizes = {t.name: len(t) for t in synthetic_traces}
    assert sizes["Syn-C"] > sizes["Syn-B"] > sizes["Syn-A"]
