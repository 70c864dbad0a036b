"""Correctness oracles computed apart from the program.

None of these call the program's predictor, executors or packing: the
Eq. (2) skip mask is recomputed from float sign bits with plain boolean
arithmetic, and the MLP reference runs in float64.
"""

from __future__ import annotations

import numpy as np

# Float32 tolerance of the sparse MLP against the float64 reference,
# relative to the sum of absolute terms of each output: about 2^10 units
# of float32 roundoff, below the (d + d_ff) u worst case of the three
# chained GEMVs at this size.
MLP_REL_TOL = 1e-4

# An MLP input entry within this share of max|x| of zero has a sign that
# float32 roundoff may decide: batched and single-sequence inputs of the
# same token differ by about 5e-7 (2^-21) of max|x| before any skip
# decision differs, so 2^-16 leaves a 32x margin.
SIGN_TIE_REL = 2.0 ** -16


def eq2_skip(x: np.ndarray, w_gate: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Paper Eq. (2) from the float signs: skip row i iff alpha*Npos < Nneg.

    ``Nneg`` counts the positions where ``x_j`` and ``W_ij`` have
    different sign bits; positions padding ``d`` up to a multiple of 32
    count as positive products, as in the kernel.  ``alpha`` is taken in
    the kernel's x100 fixed point.
    """
    d = x.shape[-1]
    total_bits = -(-d // 32) * 32
    n_neg = (np.signbit(x)[None, :] != np.signbit(w_gate)).sum(axis=1)
    n_pos = total_bits - n_neg
    alpha_pct = int(round(alpha * 100))
    return 100 * n_neg > alpha_pct * n_pos


def eq2_sign_tie(x: np.ndarray, w_gate: np.ndarray, alpha: float = 1.0) -> bool:
    """Whether float32 roundoff of ``x`` could change the Eq. (2) mask.

    True when some entry lies within ``SIGN_TIE_REL * max|x|`` of zero
    and flipping its sign bit changes the skip decision of a row.
    """
    base = eq2_skip(x, w_gate, alpha)
    for j in np.flatnonzero(np.abs(x) <= SIGN_TIE_REL * np.abs(x).max()):
        flipped = x.copy()
        flipped[j] = -flipped[j]
        if not np.array_equal(eq2_skip(flipped, w_gate, alpha), base):
            return True
    return False


def mlp_reference(layer_weights, x: np.ndarray, skip: np.ndarray):
    """Float64 dense ReLU MLP with the ``skip`` rows zeroed.

    Returns ``(out, scale)``: ``scale`` is the per-output sum of
    absolute terms, the yardstick of the float32 tolerance.
    """
    x64 = x.astype(np.float64)
    h1 = np.maximum(layer_weights.w_gate_rows.astype(np.float64) @ x64, 0.0)
    h1[skip] = 0.0
    h3 = h1 * (layer_weights.w_up_rows.astype(np.float64) @ x64)
    down = layer_weights.w_down_rows.astype(np.float64)
    return h3 @ down, np.abs(h3) @ np.abs(down)


def mlp_call_error(layer_weights, x, skip, out, alpha: float = 1.0):
    """Why one captured sparse MLP call is wrong, or None if it is right."""
    expected = eq2_skip(x, layer_weights.w_gate_rows, alpha)
    if not np.array_equal(skip, expected):
        n = int((skip != expected).sum())
        return f"skip mask differs from Eq. (2) in {n} rows"
    ref, scale = mlp_reference(layer_weights, x, expected)
    err = np.abs(out.astype(np.float64) - ref)
    bound = MLP_REL_TOL * scale + 1e-30
    if not np.all(err <= bound):
        return f"MLP output off by {float((err / bound).max()):.2f}x tolerance"
    return None


def page_pool_error(cache):
    """Why a drained paged KV cache is inconsistent, or None."""
    total = cache.n_free_pages + cache.n_pages_in_use + cache.n_cached_pages
    if total != cache.n_pages:
        return f"free + in_use + cached = {total} != n_pages {cache.n_pages}"
    if cache.n_pages_in_use:
        return f"{cache.n_pages_in_use} pages still in use after the drain"
    return None
