"""Metric assembly: end-to-end figures, per-layer figures, predictions."""

from __future__ import annotations

import statistics

from tracer import MODEL_NAMES, layer_breakdown, span_cost, span_totals
from workloads import Outcome


def end_to_end(out: Outcome, peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics (``op_p50_ms`` is 0 when every operation failed)."""
    latencies = out.op_latencies
    return {
        "setup_s": statistics.median(out.setup_s),
        "peak_rss_mb": peak_rss_mb,
        "f1": out.f1,
        "op_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
    }


def _span_metrics(spans) -> dict[str, float]:
    totals = span_totals(spans)

    def seconds(name: str) -> float:
        return totals.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return totals.get(name, (0.0, 0))[1]

    metrics = {
        "embeddings.fit_s": seconds("embeddings.fit"),
        "embeddings.fit_calls": calls("embeddings.fit"),
        "nn.sgns_step_s": seconds("nn.sgns_step"),
        "nn.sgns_step_calls": calls("nn.sgns_step"),
        "nn.train_s": seconds("nn.train"),
        "nn.score_s": seconds("nn.score"),
        "nn.score_calls": calls("nn.score"),
    }
    for model in MODEL_NAMES:
        metrics[f"features.fit_s.{model}"] = seconds(f"features.fit_through_store.{model}")
    for model in MODEL_NAMES:
        metrics[f"features.transform_s.{model}"] = seconds(f"features.transform_batch.{model}")
    metrics.update({
        "augmentation.learn_policy_s": seconds("augmentation.learn_policy"),
        "augmentation.augment_s": seconds("augmentation.augment"),
        "artifacts.put_s": seconds("artifacts.put"),
        "artifacts.put_calls": calls("artifacts.put"),
        "artifacts.get_s": seconds("artifacts.get"),
        "artifacts.get_calls": calls("artifacts.get"),
        "dataset.apply_edits_s": seconds("dataset.apply_edits"),
        "dataset.fingerprint_s": seconds("dataset.fingerprint"),
        "core.fit_s": seconds("core.fit"),
        "core.predict_s": seconds("core.predict"),
        "core.rescore_s": seconds("core.rescore"),
        "serving.decode_s": seconds("serving.decode"),
        "serving.encode_s": seconds("serving.encode"),
        "serving.report_s": seconds("serving.report"),
        "evaluation.scenario_s": seconds("evaluation.scenario"),
        "evaluation.data_gen_s": seconds("evaluation.data_gen"),
        "evaluation.store_put_s": seconds("evaluation.store_put"),
    })
    return metrics


def per_layer(out: Outcome, tracer) -> dict[str, float]:
    """Every per-layer metric of a traced run (0 where a layer was idle)."""
    counters = tracer.counters
    wall_s = sum(end - start for start, end in tracer.windows)
    metrics = _span_metrics(tracer.spans)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    examples = counters.get("augmentation.examples", 0.0)
    metrics["augmentation.accept_ratio"] = ratio(
        examples,
        examples + counters.get("augmentation.rejected_alpha", 0.0)
        + counters.get("augmentation.identity_draws", 0.0),
    )
    metrics["artifacts.bytes_written"] = counters.get("artifacts.bytes_written", 0.0)
    metrics["artifacts.hit_ratio"] = ratio(
        counters.get("artifacts.get_hits", 0.0), metrics["artifacts.get_calls"]
    )
    metrics["features.cache_hit_ratio"] = ratio(
        out.layer_extras.get("features.cache_hits", 0),
        out.layer_extras.get("features.cache_lookups", 0),
    )
    metrics["serving.batch_wait_ms"] = 1e3 * ratio(
        counters.get("serving.batch_wait_s", 0.0),
        counters.get("serving.batched_requests", 0.0),
    )
    for name in ("core.rescored_per_edit", "serving.coalesced_ratio", "serving.batches",
                 "serving.max_batch_cells", "serving.register_s"):
        metrics[name] = out.layer_extras.get(name, 0.0)
    for layer, figures in layer_breakdown(tracer.spans, wall_s).items():
        metrics[f"{layer}.self_s"] = figures["self_s"]
        metrics[f"{layer}.coverage"] = figures["coverage"]
    metrics["process.cpu_s"] = out.layer_extras.get("process.cpu_s", 0.0)
    metrics["process.wall_s"] = wall_s
    metrics["tracing.overhead"] = ratio(len(tracer.spans) * span_cost(), wall_s)
    return metrics


def check_predictions(predictions: dict, units: dict[str, str], workload: str,
                      metrics: dict[str, float]) -> list[str]:
    """Compare a traced run with the prediction table; one line per claim."""
    wall = metrics.get("process.wall_s", 0.0)
    lines = []
    for name, entry in predictions["metrics"].items():
        role = entry.get(workload)
        if role is None:
            continue
        value = metrics[name]
        if role == "active":
            agree = value > 0
        else:  # "idle": zero, or under 1% of the traced wall time
            agree = value == 0 or (units[name] == "s" and value < 0.01 * wall)
        lines.append(f"{'agree   ' if agree else 'DISAGREE'} {name} = {value:.6g} "
                     f"(predicted {role} on {workload}; moves {entry['moves']})")
    for claim in predictions["claims"].get(workload, []):
        value = metrics[claim["metric"]]
        label = claim["metric"]
        if "over" in claim:
            whole = metrics[claim["over"]]
            value = value / whole if whole else 0.0
            label += f" / {claim['over']}"
        agree = value >= claim.get("at_least", value) and value <= claim.get("at_most", value)
        bound = ", ".join(f"{k} {claim[k]}" for k in ("at_least", "at_most") if k in claim)
        lines.append(f"{'agree   ' if agree else 'DISAGREE'} {label} = {value:.4g} "
                     f"(predicted {bound}: {claim['why']})")
    return lines
