"""The two benchmark models, built from the program's public constructors.

* :func:`prosparse_weights` -- a ProSparse-like ReLU model whose MLP
  weights are most of the bytes read per token.  Gate rows come from
  :meth:`repro.model.synthetic.SyntheticActivationModel.gate_rows`
  (90% "usually off" rows aligned against a per-layer sign template);
  each layer's ``mlp_norm`` carries that template, and the residual
  stream is kept mostly positive (token embeddings ``1 + N(0, 0.5^2)``,
  small attention/MLP writes), so the MLP input's sign pattern stays
  close to the template from token to token and the predicted gate skip
  at alpha = 1 lands near the paper's ~85-90%.  The LM head and the
  value projection are made orthogonal to the all-ones direction, so
  the shared positive offset of the residual stream cannot pick the
  next token: greedy outputs follow the token-specific part and the
  MLP/attention writes, which keeps them non-degenerate.
* :func:`random_relu_weights` -- plain :func:`repro.model.weights.
  random_weights` (about 48% predicted skip per sequence and a
  near-empty intersection across a batch).

Weights use a fixed seed, not the workload seed: the cost of a token
must not change with ``--seed``, only the prompts and arrivals do.
"""

from __future__ import annotations

import numpy as np

from repro.model.config import ModelConfig
from repro.model.synthetic import SyntheticActivationModel
from repro.model.weights import LayerWeights, ModelWeights, random_weights

WEIGHT_SEED = 1234
D_MODEL, D_FF, N_LAYERS, N_HEADS, VOCAB = 512, 2048, 4, 8, 512
MAX_SEQ_LEN = 256
OFF_FRACTION = 0.90
RESIDUAL_NOISE = 0.5    # std of the token-specific part of the embeddings
WRITE_SCALE = 0.5       # relative size of attention-out / MLP-down writes


def model_config(name: str) -> ModelConfig:
    return ModelConfig(
        name=name, vocab_size=VOCAB, d_model=D_MODEL, n_layers=N_LAYERS,
        n_heads=N_HEADS, d_ff=D_FF, max_seq_len=MAX_SEQ_LEN,
        activation="relu", dtype_bytes=4,
    )


def prosparse_weights() -> ModelWeights:
    cfg = model_config("bench-prosparse")
    d, k = cfg.d_model, cfg.d_ff
    rng = np.random.default_rng(WEIGHT_SEED)
    synth = SyntheticActivationModel(cfg, seed=WEIGHT_SEED,
                                     off_fraction=OFF_FRACTION)

    def mat(rows, cols, scale):
        return (rng.standard_normal((rows, cols)) * scale).astype(np.float32)

    layers = []
    for layer in range(cfg.n_layers):
        w_gate, _ = synth.gate_rows(layer, k)
        wv = mat(d, d, d ** -0.5)
        wv -= wv.mean(axis=0, keepdims=True)
        layers.append(LayerWeights(
            attn_norm=np.ones(d, dtype=np.float32),
            wq=mat(d, d, d ** -0.5),
            wk=mat(d, d, d ** -0.5),
            wv=wv,
            wo=mat(d, d, WRITE_SCALE * d ** -0.5),
            mlp_norm=synth.sign_template(layer).astype(np.float32),
            w_gate_rows=w_gate,
            w_up_rows=mat(k, d, d ** -0.5),
            w_down_rows=mat(k, d, WRITE_SCALE * k ** -0.5),
        ))
    embed = (1.0 + rng.standard_normal((cfg.vocab_size, d))
             * RESIDUAL_NOISE).astype(np.float32)
    lm_head = mat(d, cfg.vocab_size, d ** -0.5)
    lm_head -= lm_head.mean(axis=0, keepdims=True)
    weights = ModelWeights(
        config=cfg, tok_embed=embed, layers=layers,
        final_norm=np.ones(d, dtype=np.float32), lm_head=lm_head,
    )
    weights.validate()
    return weights


def random_relu_weights() -> ModelWeights:
    return random_weights(model_config("bench-random-relu"), seed=WEIGHT_SEED)
