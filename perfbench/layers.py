"""Per-layer metrics of one traced pass, computed from its spans.

``_ms`` metrics are self times (span duration minus the time its child spans
cover) unless the table below says "total".  A metric whose spans come from
a wrapped name the package no longer has, or whose info could not be read,
is None: the run reports it as absent.  So is a ratio whose base is 0.
"""

from __future__ import annotations

from tracing import Tracer, self_times


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float | None, str]]:
    selfs = self_times(tracer.spans)
    by_name: dict[str, list] = {}
    for span, own in zip(tracer.spans, selfs):
        by_name.setdefault(span.name, []).append((span, own))
    gone = {name for module, attr, name, _ in tracer.wraps
            if f"{module}.{attr}" in tracer.missing}

    def ms(*names, total=False):
        if gone.intersection(names):
            return None
        return 1e3 * sum((s.end - s.start) if total else own
                         for name in names for s, own in by_name.get(name, []))

    def calls(name):
        return None if name in gone else len(by_name.get(name, []))

    def infos(name, key):
        if name in gone:
            return None
        values = [s.info.get(key) if s.info else None for s, _ in by_name.get(name, [])]
        return None if None in values else values

    def info_sum(name, key):
        values = infos(name, key)
        return None if values is None else sum(values)

    def ratio(a, b):
        return None if a is None or not b else a / b

    distinct_k = infos("embedding.hankel", "k")
    return {
        "eigen.solve_ms": (ms("eigen.solve"), "ms"),
        "eigen.solve_calls": (calls("eigen.solve"), "count"),
        "eigen.solve_work_k3": (info_sum("eigen.solve", "k3"), "count"),
        "eigen.negligible_ratio": (ratio(info_sum("eigen.solve", "negligible"),
                                         info_sum("eigen.solve", "k")), "ratio"),
        "eigen.gram_ms": (ms("eigen.gram"), "ms"),
        "eigen.operator_ms": (ms("eigen.operator"), "ms"),
        # total: includes the similarity calls a vectorised clustering would remove
        "modes.cluster_ms": (ms("modes.cluster", total=True), "ms"),
        "modes.similarity_calls": (calls("modes.similarity"), "count"),
        "modes.merge_ratio": (ratio(info_sum("modes.cluster", "absorbed"),
                                    calls("modes.similarity")), "ratio"),
        "modes.decompose_ms": (ms("modes.decompose", total=True), "ms"),
        "modes.decompose_self_ms": (ms("modes.decompose"), "ms"),
        "embedding.diag_avg_ms": (ms("embedding.diag_avg"), "ms"),
        "embedding.diag_avg_calls": (calls("embedding.diag_avg"), "count"),
        "embedding.hankel_ms": (ms("embedding.hankel"), "ms"),
        "embedding.select_k_ms": (ms("embedding.select_k"), "ms"),
        "embedding.distinct_k": (None if distinct_k is None else len(set(distinct_k)),
                                 "count"),
        "signals.csv_read_ms": (ms("signals.csv_read"), "ms"),
        "signals.csv_read_bytes": (info_sum("signals.csv_read", "bytes"), "bytes"),
        "signals.periodogram_ms": (ms("signals.periodogram"), "ms"),
        "signals.periodogram_calls": (calls("signals.periodogram"), "count"),
        "signals.score_ms": (ms("signals.score"), "ms"),
        "signals.noise_ms": (ms("signals.noise"), "ms"),
        "modes.write_ms": (ms("modes.write"), "ms"),
        "modes.write_bytes": (info_sum("modes.write", "bytes"), "bytes"),
        "cli.self_ms": (ms("cli.main"), "ms"),
        "cli.nonzero_exits": (info_sum("cli.main", "nonzero"), "count"),
        # total: bench.match includes the truth periodograms it asks for
        "bench.match_ms": (ms("bench.match", total=True), "ms"),
        "bench.self_ms": (ms("bench.run_experiment"), "ms"),
        "bench.report_write_ms": (ms("bench.write_report"), "ms"),
        "bench.report_bytes": (info_sum("bench.write_report", "bytes"), "bytes"),
        "bench.failed_cells": (info_sum("bench.run_experiment", "failed_cells"), "count"),
        "trace.coverage_pct": (100.0 * sum(selfs) / wall_s, "%"),
    }
