"""Per-layer metrics of the traced run.

:func:`instrument` wraps public entry points of each layer of the
program; :func:`layer_metrics` turns the recorded spans (plus the
program's public counters) into the per-layer metrics of
``BENCHMARK.json``.  A layer a workload never calls reports 0.
"""

from __future__ import annotations

import repro.model.batch_attention as batch_attention_mod
import repro.model.inference as inference_mod
import repro.model.sampler as sampler_mod
import repro.serving.engine as serving_engine_mod
from repro.serving import ContinuousBatchingScheduler

from metrics import percentile, queue_waits_ms, self_times

# name -> (unit, better); the order is the order they are printed in.
PER_LAYER = {
    "predictor.ms_per_call": ("ms", "lower"),
    "predictor.skip_frac": ("frac", "higher"),
    "sparse_mlp.ms_per_call": ("ms", "lower"),
    "sparse_mlp.rows_read_frac": ("frac", "lower"),
    "sparse_mlp.weight_mb_per_token": ("MB/token", "lower"),
    "dense_mlp.ms_per_token": ("ms", "lower"),
    "batch_mlp.ms_per_call": ("ms", "lower"),
    "batch_mlp.isect_skip_frac": ("frac", "higher"),
    "attend.ms_per_call": ("ms", "lower"),
    "batch_attend.ms_per_call": ("ms", "lower"),
    "forward.self_ms_per_token": ("ms", "lower"),
    "sampler.ms_per_call": ("ms", "lower"),
    "engine.decode_ms_per_step": ("ms", "lower"),
    "engine.decode_rows_mean": ("rows", "higher"),
    "engine.prefill_ms_per_token": ("ms", "lower"),
    "engine.prefill_tokens": ("count", "lower"),
    "scheduler.tick_ms_p50": ("ms", "lower"),
    "scheduler.self_ms_per_tick": ("ms", "lower"),
    "scheduler.queue_wait_ms_p50": ("ms", "lower"),
    "scheduler.queue_wait_ms_p90": ("ms", "lower"),
    "scheduler.occupancy_mean": ("rows", "higher"),
    "scheduler.prefill_reuse_frac": ("frac", "higher"),
    "kv.pages_in_use_peak": ("count", "lower"),
    "kv.pages_reserved_peak": ("count", "lower"),
    "kv.revive_hits": ("count", "higher"),
    "kv.evictions": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _rows(xs) -> dict:
    return {"rows": int(xs.shape[0]) if getattr(xs, "ndim", 1) == 2 else 1}


def instrument(rec, engine) -> dict:
    """Wrap every layer entry point the workload's engine reaches.

    Returns the live gauges sampled at tick ends (paged KV reservation).
    """
    gauges = {"pages_reserved_peak": 0}

    def prediction_info(span, result):
        if hasattr(result, "per_sequence_sparsity"):     # BatchPrediction
            span.args["rows"] = result.batch_size
            span.args["skip_frac"] = float(result.per_sequence_sparsity.mean())
            if result.batch_size > 1:
                span.args["isect_skip_frac"] = result.intersection_sparsity
        else:                                            # LayerPrediction
            span.args["rows"] = 1
            span.args["skip_frac"] = result.predicted_sparsity

    for module in (inference_mod, serving_engine_mod, batch_attention_mod):
        rec.wrap(module, "attend_single", "attend")
    rec.wrap(sampler_mod, "greedy", "sampler")

    if hasattr(engine, "decode_step"):                   # BatchedEngine
        predictor = engine.sparse.predictor
        rec.wrap(predictor, "predict_intersection", "predictor",
                 on_result=prediction_info)
        rec.wrap(engine.sparse, "run_batch", "batch_mlp",
                 info=lambda layer, xs: _rows(xs))
        rec.wrap(engine.sparse.single, "run_with_skip", "sparse_mlp")
        rec.wrap(engine.prefill_mlp, "run_tokens", "dense_mlp",
                 info=lambda layer, xs: _rows(xs))
        rec.wrap(engine.sampler, "sample", "sampler")
        rec.wrap(engine, "decode_step", "engine.decode",
                 info=lambda slots, tokens: {"rows": len(slots)})
        ticking = {}              # the scheduler whose tick is running

        def prefill_info(slot, ids):
            sched = ticking.get("sched")
            owners = [seq.request.request_id for seq in
                      (sched.active if sched is not None else ())
                      if seq.slot is slot]
            return {"rows": len(ids),
                    "request": owners[0] if owners else None}

        rec.wrap(engine, "prefill", "engine.prefill", info=prefill_info)

        def wrap_plan(span, plan):
            rec.wrap(plan, "attend_layer", "batch_attend", undo=False)

        rec.wrap(engine.attention, "plan_step", "batch_attend.plan",
                 on_result=wrap_plan)

        def tick_info(sched):
            ticking["sched"] = sched
            return {"tick": sched.step_count + 1, "request": None}

        def tick_end(span, finished):
            cache = engine.cache
            reserved = (cache.n_free_pages + cache.n_cached_pages
                        - cache.n_available_pages)
            gauges["pages_reserved_peak"] = max(
                gauges["pages_reserved_peak"], reserved)

        rec.wrap(ContinuousBatchingScheduler, "step", "scheduler.tick",
                 info=tick_info, on_result=tick_end)
    else:                                                # InferenceModel
        rec.wrap(engine.mlp.predictor, "predict", "predictor",
                 on_result=prediction_info)
        rec.wrap(engine.mlp, "run_with_skip", "sparse_mlp")
        rec.wrap(engine.prefill_mlp, "run", "dense_mlp")
        rec.wrap(engine, "forward_token", "forward")
        rec.wrap(engine, "prefill", "model.prefill")
    return gauges


def _mean_ms(spans) -> float:
    return sum(s.seconds for s in spans) / len(spans) * 1e3 if spans else 0.0


def _ms_per_row(spans) -> float:
    rows = sum(s.args.get("rows", 1) for s in spans)
    return sum(s.seconds for s in spans) / rows * 1e3 if rows else 0.0


def _weighted(spans, key) -> float:
    pairs = [(s.args[key], s.args.get("rows", 1)) for s in spans if key in s.args]
    rows = sum(r for _, r in pairs)
    return sum(v * r for v, r in pairs) / rows if rows else 0.0


def layer_metrics(rec, engine, phase, gauges, overhead_pct: float) -> dict:
    spans = rec.spans
    own = self_times(spans)
    by_name: dict = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def named(name):
        return [spans[i] for i in by_name.get(name, [])]

    def self_ms_per_row(indices) -> float:
        rows = sum(spans[i].args.get("rows", 1) for i in indices)
        return sum(own[i] for i in indices) / rows * 1e3 if rows else 0.0

    out = dict.fromkeys(PER_LAYER, 0.0)
    predictor = named("predictor")
    out["predictor.ms_per_call"] = _mean_ms(predictor)
    out["predictor.skip_frac"] = _weighted(predictor, "skip_frac")
    out["sparse_mlp.ms_per_call"] = _mean_ms(named("sparse_mlp"))
    stats = (engine.sparse.single.stats if hasattr(engine, "decode_step")
             else engine.mlp.stats)
    if stats.rows_total:
        read = (3 * stats.rows_total - stats.rows_skipped_gate
                - stats.rows_skipped_up - stats.rows_skipped_down)
        out["sparse_mlp.rows_read_frac"] = read / (3 * stats.rows_total)
        tokens = stats.calls / engine.config.n_layers
        out["sparse_mlp.weight_mb_per_token"] = (
            read * engine.config.d_model * 4 / 1e6 / tokens)
    # One dense MLP call per layer: a prompt token costs n_layers rows.
    out["dense_mlp.ms_per_token"] = (
        _ms_per_row(named("dense_mlp")) * engine.config.n_layers)
    out["batch_mlp.ms_per_call"] = _mean_ms(named("batch_mlp"))
    out["batch_mlp.isect_skip_frac"] = _weighted(predictor, "isect_skip_frac")
    out["attend.ms_per_call"] = _mean_ms(named("attend"))
    out["batch_attend.ms_per_call"] = _mean_ms(named("batch_attend"))
    out["sampler.ms_per_call"] = _mean_ms(named("sampler"))

    # Decode forwards: the serving engine's decode steps, or the
    # single-sequence forwards that are not part of a prompt prefill.
    prefill_ids = set(by_name.get("model.prefill", []))
    forward_ids = by_name.get("engine.decode", []) + [
        i for i in by_name.get("forward", []) if spans[i].parent not in prefill_ids
    ]
    out["forward.self_ms_per_token"] = self_ms_per_row(forward_ids)

    decode = named("engine.decode")
    out["engine.decode_ms_per_step"] = _mean_ms(decode)
    if decode:
        out["engine.decode_rows_mean"] = (
            sum(s.args["rows"] for s in decode) / len(decode))
    prefill = named("engine.prefill")
    out["engine.prefill_ms_per_token"] = _ms_per_row(prefill)
    out["engine.prefill_tokens"] = sum(s.args["rows"] for s in prefill)

    ticks = by_name.get("scheduler.tick", [])
    if ticks:
        out["scheduler.tick_ms_p50"] = percentile(
            [spans[i].seconds * 1e3 for i in ticks], 50)
        out["scheduler.self_ms_per_tick"] = (
            sum(own[i] for i in ticks) / len(ticks) * 1e3)
        tick_starts = {spans[i].args["tick"]: spans[i].start for i in ticks}
        waits = queue_waits_ms(
            [(s.origin, s.admitted_tick) for s in phase.served], tick_starts)
        out["scheduler.queue_wait_ms_p50"] = percentile(waits, 50)
        if len(waits) >= 100:
            out["scheduler.queue_wait_ms_p90"] = percentile(waits, 90)
    report = phase.report
    if report is not None:
        out["scheduler.occupancy_mean"] = report.mean_batch_occupancy
        out["scheduler.prefill_reuse_frac"] = report.prefill_reuse_fraction
        out["kv.pages_in_use_peak"] = report.peak_pages_in_use
        out["kv.revive_hits"] = report.revived_admissions
        out["kv.evictions"] = report.cache_evictions
    out["kv.pages_reserved_peak"] = gauges["pages_reserved_peak"]
    out["trace.overhead_pct"] = overhead_pct
    return out
