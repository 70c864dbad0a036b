"""Unit tests of the benchmark's own arithmetic, oracles and inputs.

    python3 -m pytest perfbench -q
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    eq2_sign_tie, eq2_skip, mlp_call_error, page_pool_error,
)
from metrics import (  # noqa: E402
    P90_MIN_SAMPLES, itl_gaps_ms, percentile,
    queue_waits_ms, self_times, tpot_ms, ttft_ms, windowed_p90,
)
from spans import Span, SpanRecorder  # noqa: E402


# -- percentiles and the sample-count rule -----------------------------------

def test_percentile_interpolates_like_numpy():
    data = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(data, 50) == 3.0
    assert percentile(data, 90) == pytest.approx(np.percentile(data, 90))
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p90_is_the_median_of_window_p90s_of_100_samples_or_more():
    steady = list(np.tile(np.arange(1.0, 11.0), 10))      # p90 9.1 per window
    spell = [10.0 * v for v in steady]
    assert windowed_p90(steady * 3) == pytest.approx(9.1)
    assert windowed_p90(steady + spell + steady) == pytest.approx(9.1)
    assert percentile(steady + spell + steady, 90) > 50.0
    assert windowed_p90(range(250)) == pytest.approx(np.percentile(range(125), 90) + 62.5)
    assert windowed_p90(range(P90_MIN_SAMPLES)) == pytest.approx(
        np.percentile(range(100), 90))
    with pytest.raises(ValueError):
        windowed_p90(range(P90_MIN_SAMPLES - 1))


# -- request latencies ----------------------------------------------------------

def test_ttft_counts_from_the_origin_given():
    stamps = [10.5, 10.6]
    assert ttft_ms(10.0, stamps) == pytest.approx(500.0)
    assert ttft_ms(10.2, stamps) == pytest.approx(300.0)
    with pytest.raises(ValueError):
        ttft_ms(10.0, [])


def test_tpot_and_itl_from_token_stamps():
    stamps = [1.0, 1.010, 1.030, 1.060]
    assert tpot_ms(stamps) == pytest.approx(20.0)
    assert itl_gaps_ms(stamps) == pytest.approx([10.0, 20.0, 30.0])
    with pytest.raises(ValueError):
        tpot_ms([1.0])


def test_queue_wait_from_tick_start_stamps():
    tick_starts = {3: 3.0, 4: 3.5}
    waits = queue_waits_ms([(1.0, 3), (2.5, 4), (3.2, 3)], tick_starts)
    assert waits == pytest.approx([2000.0, 1000.0, 0.0])


# -- self time ------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("tick", 0.0, 10.0, None, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("b", 3.0, 6.0, 0, None),       # overlaps a: union is 1..6
        Span("inner", 1.5, 2.0, 1, None),   # grandchild: charged to a only
        Span("late", 9.0, 12.0, 0, None),   # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(0.5)


def test_recorder_nests_spans_and_restores_the_original():
    owner = types.SimpleNamespace()
    owner.outer = lambda: owner.inner() + 1
    owner.inner = lambda: 41
    original = owner.outer
    rec = SpanRecorder()
    rec.wrap(owner, "outer", "outer")
    rec.wrap(owner, "inner", "inner", on_result=lambda s, r: s.args.update(r=r))
    assert owner.outer() == 42
    rec.restore()
    assert owner.outer is original
    outer, inner = rec.spans
    assert (outer.name, outer.parent) == ("outer", None)
    assert (inner.name, inner.parent, inner.args) == ("inner", 0, {"r": 41})


# -- the Eq. (2) oracle -----------------------------------------------------------

def test_eq2_oracle_on_hand_built_signs():
    x = np.ones(32, dtype=np.float32)
    x[:8] = -1.0
    same = np.sign(x)                           # 0 negative products
    opposite = -same                            # 32 negative products
    tie = same.copy()
    tie[:16] *= -1                              # 16 vs 16: Eq. (2) keeps
    one_more = same.copy()
    one_more[:17] *= -1                         # 17 vs 15: skip at alpha 1
    w = np.stack([same, opposite, tie, one_more]).astype(np.float32)
    assert eq2_skip(x, w).tolist() == [False, True, False, True]
    # alpha = 1.2 needs Nneg > 1.2 * Npos: 17 > 18 fails, so keep.
    assert eq2_skip(x, w, alpha=1.2).tolist() == [False, True, False, False]


def test_eq2_oracle_counts_negative_zero_and_padding():
    x = np.array([-0.0, 1.0, 1.0, 1.0], dtype=np.float32)   # signbit(-0.0)
    w = np.array([[1.0, -1.0, -1.0, -1.0]], dtype=np.float32)
    # 4 negative products, 28 padding positions count as positive.
    assert not eq2_skip(x, w)[0]
    assert eq2_skip(x, w, alpha=0.1)[0]       # 400 > 10 * 28


def test_eq2_oracle_agrees_with_the_program_predictor():
    from repro.core import SparseInferPredictor

    rng = np.random.default_rng(0)
    w = rng.standard_normal((64, 96)).astype(np.float32)
    predictor = SparseInferPredictor.from_gate_weights([w])
    for _ in range(5):
        x = rng.standard_normal(96).astype(np.float32)
        assert np.array_equal(predictor.predict(0, x).skip, eq2_skip(x, w))


def test_eq2_sign_tie_needs_a_roundoff_sized_entry_at_a_boundary():
    x = np.ones(32, dtype=np.float32)
    x[0] = 1e-9                                 # sign fixed by roundoff only
    boundary = np.ones(32, dtype=np.float32)
    boundary[1:17] = -1.0                       # 16 vs 16: keep; 17 vs 15: skip
    far = -np.ones(32, dtype=np.float32)        # skipped whatever x[0] is
    assert eq2_sign_tie(x, boundary[None, :])
    assert not eq2_sign_tie(x, far[None, :])
    x[0] = 0.5                                  # far above roundoff
    assert not eq2_sign_tie(x, boundary[None, :])


def test_mlp_oracle_accepts_the_executor_and_catches_errors():
    from repro.core import SparseInferMLP
    from repro.model.config import tiny_7b_role
    from repro.model.weights import random_weights

    weights = random_weights(tiny_7b_role(), seed=3)
    mlp = SparseInferMLP(weights=weights)
    lw = weights.layers[1]
    x = np.random.default_rng(1).standard_normal(128).astype(np.float32)
    skip = mlp.predictor.predict(1, x).skip
    out = mlp.run_with_skip(1, x, skip)
    assert mlp_call_error(lw, x, skip, out) is None
    assert "skip mask" in mlp_call_error(lw, x, ~skip, out)
    bad = out.copy()
    bad[3] += 1e-3 * np.abs(out).max()
    assert "MLP output" in mlp_call_error(lw, x, skip, bad)


def test_page_pool_check():
    ok = types.SimpleNamespace(n_pages=10, n_free_pages=7, n_pages_in_use=0,
                               n_cached_pages=3)
    assert page_pool_error(ok) is None
    leaked = types.SimpleNamespace(n_pages=10, n_free_pages=6,
                                   n_pages_in_use=1, n_cached_pages=3)
    assert "still in use" in page_pool_error(leaked)
    lost = types.SimpleNamespace(n_pages=10, n_free_pages=6, n_pages_in_use=0,
                                 n_cached_pages=3)
    assert "!= n_pages" in page_pool_error(lost)


# -- inputs are a pure function of the seed ------------------------------------

@pytest.fixture(scope="module")
def workloads():
    import workloads as wl

    return {name: (cls(5), cls(5), cls(6))
            for name, cls in wl.WORKLOADS.items()}


def _inputs(name, workload):
    if name == "decode_b1":
        return [workload.spec(i) for i in range(4)]
    return workload.round_specs(0) + workload.round_specs(1)


@pytest.mark.parametrize("name", ["decode_b1", "serve_batch", "serve_prefix"])
def test_inputs_are_a_pure_function_of_the_seed(workloads, name):
    first, again, other = workloads[name]
    assert _inputs(name, first) == _inputs(name, again)
    assert _inputs(name, first) != _inputs(name, other)
    assert all(np.array_equal(a.w_gate_rows, b.w_gate_rows)
               for a, b in zip(first.weights.layers, other.weights.layers))


def _families(workload, specs):
    """Each request's prefix group, numbered by first appearance."""
    seen: dict = {}
    return [seen.setdefault(s.prompt[:workload.PREFIX_LEN], len(seen))
            for s in specs]


def test_prefix_rounds_share_one_pattern_across_seeds(workloads):
    first, _, other = workloads["serve_prefix"]
    specs = first.round_specs(0)
    assert len(specs) == first.ROUND
    assert _families(first, specs) == _families(other, other.round_specs(0))
    assert _families(first, specs) == _families(first, first.round_specs(1))
    shared = [s for s in specs if
              sum(t.prompt[:first.PREFIX_LEN] == s.prompt[:first.PREFIX_LEN]
                  for t in specs) > 1]
    assert len(shared) == first.N_SHARED
    assert len(set(_families(first, specs))) == (
        first.N_FAMILIES + first.ROUND - first.N_SHARED)


def test_prefix_round_serves_checks_and_reuses_prefixes(workloads):
    first = workloads["serve_prefix"][0]
    first.min_requests = 1
    engine = first.setup()
    phase = first.measure(engine, 0.0)                 # one round
    assert len(phase.served) == first.ROUND
    assert all(len(rec.stamps) == rec.spec.max_new for rec in phase.served)
    assert phase.report.prefill_reuse_fraction > 0.0
    failed, errors = first.check(engine, phase)
    assert failed == {} and errors == []
    # A wrong first token comes from the dense prefill: never excused.
    from repro.core import build_engine

    rec = phase.served[0]
    rec.tokens = [(rec.tokens[0] + 1) % 512] + rec.tokens[1:]
    reason = first.invariance_error(build_engine(first.weights), rec)
    assert "from token 0" in reason
