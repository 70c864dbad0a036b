"""The workloads: seeded inputs, set-up, measured phase, checks.

Inputs are made here with the benchmark's own seeded generators (never
through ``repro.serving.loadgen`` or ``repro.workloads``), so a change to
those modules cannot change a workload.  Every input is a pure function
of ``(seed, request or round index)``; model weights use a fixed seed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import repro.model.sampler as sampler_mod
from repro.core import build_batched_engine, build_engine
from repro.serving import ContinuousBatchingScheduler, Request

import models
from checks import eq2_sign_tie, mlp_call_error, page_pool_error

MIN_REQUESTS = 100        # every run serves at least this many requests
CHECK_REQUESTS = 4        # serving requests re-run through build_engine per run
CHECK_MLP_CALLS = 24      # decode_b1 MLP calls checked against the oracles per run
WARMUP_PROMPT = (1, 2, 3, 4, 5, 6, 7, 8)
_STREAMS = {"decode_b1": 1, "serve_batch": 2, "serve_prefix": 3, "check": 9}


def _rng(seed: int, stream: str, *index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[stream], *index])


@dataclass(frozen=True)
class Spec:
    """One request the benchmark sends."""

    rid: int
    prompt: tuple
    max_new: int


@dataclass
class Served:
    """What came back for one request."""

    spec: Spec
    origin: float = 0.0       # submit stamp
    stamps: list = field(default_factory=list)   # one per delivered token
    tokens: list = field(default_factory=list)
    admitted_tick: int = -1
    completions: int = 0
    completed_ids: Optional[list] = None
    error: Optional[str] = None


@dataclass
class Phase:
    """One measured phase: every request served, and the clock."""

    served: list
    wall_seconds: float
    report: object = None     # ServeReport of the phase's scheduler
    round_seconds: list = field(default_factory=list)
    round_tokens: list = field(default_factory=list)

    @property
    def tokens(self) -> int:
        return sum(len(s.tokens) for s in self.served)

    def add_round(self, served, seconds: float) -> None:
        self.served.extend(served)
        self.round_seconds.append(seconds)
        self.round_tokens.append(sum(len(s.tokens) for s in served))

    @property
    def tok_s(self) -> float:
        """Median over the phase's rounds of round tokens / round seconds.

        The median over rounds keeps a few seconds of a slower shared
        machine from moving the run's figure.
        """
        return statistics.median(
            t / s for t, s in zip(self.round_tokens, self.round_seconds))


class Workload:
    name = ""
    min_requests = MIN_REQUESTS
    recorder = None           # set by the traced run to tag spans by request

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.seed = seed
        self.weights = self.make_weights()
        self._cursor = 0          # next request or round index

    def make_weights(self):
        raise NotImplementedError

    def setup(self):
        """The program's own set-up: build the engine, serve one request."""
        raise NotImplementedError

    def new_phase(self, engine) -> Phase:
        return Phase([], 0.0)

    def serve_round(self, engine) -> list:
        """Serve the next round of requests; returns their ``Served``."""
        raise NotImplementedError

    def measure(self, engine, seconds: float, between_rounds=None) -> Phase:
        """Serve whole rounds for ``seconds`` and at least ``min_requests``.

        ``between_rounds`` is called after each round, outside the
        round's time.
        """
        phase = self.new_phase(engine)
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            served = self.serve_round(engine)
            phase.add_round(served, time.perf_counter() - start)
            if between_rounds is not None:
                between_rounds()
            phase.wall_seconds = time.perf_counter() - t0
            if phase.wall_seconds >= seconds and \
                    len(phase.served) >= self.min_requests:
                return phase

    # -- checks --------------------------------------------------------------

    def check(self, engine, phase: Phase) -> tuple:
        """``(failed request ids -> reason, run-level errors)``."""
        failed = {}
        for rec in phase.served:
            reason = self._request_error(rec)
            if reason is not None:
                failed[rec.spec.rid] = reason
        return failed, []

    @staticmethod
    def _request_error(rec: Served) -> Optional[str]:
        spec = rec.spec
        if rec.error is not None:
            return rec.error
        if len(rec.tokens) != spec.max_new or len(rec.stamps) != spec.max_new:
            return f"{len(rec.tokens)} tokens delivered, {spec.max_new} asked"
        return None

    def _sample(self, population: int, k: int) -> list:
        rng = _rng(self.seed, "check", _STREAMS[self.name])
        return sorted(rng.choice(population, size=min(k, population),
                                 replace=False).tolist())


# ---------------------------------------------------------------------------
# decode_b1: the paper's setting
# ---------------------------------------------------------------------------


class DecodeB1(Workload):
    """Greedy batch-1 decode through ``build_engine``, one request at a time."""

    name = "decode_b1"
    PROMPT_LEN = 4
    MAX_NEW = 24
    ROUND = 10

    def make_weights(self):
        return models.prosparse_weights()

    def spec(self, index: int) -> Spec:
        rng = _rng(self.seed, self.name, index)
        prompt = tuple(rng.integers(0, models.VOCAB, self.PROMPT_LEN).tolist())
        return Spec(index, prompt, self.MAX_NEW)

    def setup(self):
        engine = build_engine(self.weights)
        self.serve(engine, Spec(-1, WARMUP_PROMPT, self.MAX_NEW))
        return engine

    def serve(self, engine, spec: Spec) -> Served:
        if self.recorder is not None:
            self.recorder.request = spec.rid
        rec = Served(spec, origin=time.perf_counter())
        engine.reset()
        logits = engine.prefill(list(spec.prompt))
        while True:
            token = sampler_mod.greedy(logits)
            rec.stamps.append(time.perf_counter())
            rec.tokens.append(token)
            if len(rec.tokens) == spec.max_new:
                return rec
            logits = engine.forward_token(token, engine.cache.length)

    def serve_round(self, engine) -> list:
        specs = [self.spec(self._cursor + i) for i in range(self.ROUND)]
        self._cursor += self.ROUND
        return [self.serve(engine, spec) for spec in specs]

    def check(self, engine, phase: Phase) -> tuple:
        """Re-run a seeded sample of requests, capturing their MLP calls.

        The re-run must repeat the measured tokens; a seeded sample of
        the captured calls must match Eq. (2) and the float64 MLP.
        """
        failed, errors = super().check(engine, phase)
        captured = []          # (rid, layer, x, skip, out)
        mlp = engine.mlp
        run_with_skip = mlp.run_with_skip

        def capture(layer, x, skip):
            out = run_with_skip(layer, x, skip)
            captured.append((rid, layer, x.copy(), skip.copy(), out.copy()))
            return out

        mlp.run_with_skip = capture
        try:
            for index in self._sample(len(phase.served), 3):
                rec = phase.served[index]
                rid = rec.spec.rid
                again = self.serve(engine, rec.spec)
                if again.tokens != rec.tokens:
                    failed[rid] = "re-run tokens differ from the measured run"
        finally:
            del mlp.run_with_skip
        # build_engine's default settings: alpha = 1 on every layer.
        for index in self._sample(len(captured), CHECK_MLP_CALLS):
            rid, layer, x, skip, out = captured[index]
            reason = mlp_call_error(self.weights.layers[layer], x, skip, out)
            if reason is not None:
                failed[rid] = f"layer {layer}: {reason}"
        return failed, errors


# ---------------------------------------------------------------------------
# serving workloads
# ---------------------------------------------------------------------------


class _Serving(Workload):
    """Closed rounds through ``ContinuousBatchingScheduler``, and their checks.

    Each round's requests are submitted at once and drained before the
    next round is submitted; one scheduler serves the whole phase.
    """

    STEP_BUDGET = 0

    def build(self):
        raise NotImplementedError

    def round_specs(self, round_index: int) -> list:
        raise NotImplementedError

    def new_scheduler(self, engine, served: dict) -> ContinuousBatchingScheduler:
        def on_token(rid, token, step):
            rec = served[rid]
            rec.stamps.append(time.perf_counter())
            rec.tokens.append(token)

        return ContinuousBatchingScheduler(
            engine, on_token=on_token, step_budget=self.STEP_BUDGET)

    @staticmethod
    def collect(finished, served: dict) -> None:
        for completion in finished:
            rec = served[completion.request.request_id]
            rec.completions += 1
            rec.admitted_tick = completion.admitted_step
            rec.completed_ids = list(completion.generated_ids)
            if completion.error is not None:
                rec.error = completion.error

    def setup(self):
        engine = self.build()
        served = {-1: Served(Spec(-1, WARMUP_PROMPT, 8))}
        sched = self.new_scheduler(engine, served)
        sched.submit(Request(-1, WARMUP_PROMPT, 8))
        while not sched.idle:
            self.collect(sched.step(), served)
        return engine

    def new_phase(self, engine) -> Phase:
        self._served: dict = {}
        self._sched = self.new_scheduler(engine, self._served)
        return Phase([], 0.0, report=self._sched.report)

    def serve_round(self, engine) -> list:
        specs = self.round_specs(self._cursor)
        self._cursor += 1
        for spec in specs:
            self._served[spec.rid] = Served(spec, origin=time.perf_counter())
            self._sched.submit(Request(spec.rid, spec.prompt, spec.max_new))
        while not self._sched.idle:
            self.collect(self._sched.step(), self._served)
        return [self._served[s.rid] for s in specs]

    def check(self, engine, phase: Phase) -> tuple:
        """Also: a seeded sample of requests is batching-invariant."""
        failed, errors = super().check(engine, phase)
        for rec in phase.served:
            if rec.spec.rid in failed:
                continue
            if rec.completions != 1:
                failed[rec.spec.rid] = f"completed {rec.completions} times"
            elif rec.completed_ids != rec.tokens:
                failed[rec.spec.rid] = "completion tokens differ from on_token"
        pool_error = page_pool_error(engine.cache)
        if pool_error is not None:
            errors.append(pool_error)
        single = build_engine(self.weights)
        for index in self._sample(len(phase.served), CHECK_REQUESTS):
            rec = phase.served[index]
            if rec.spec.rid not in failed:
                reason = self.invariance_error(single, rec)
                if reason is not None:
                    failed[rec.spec.rid] = reason
        return failed, errors

    def invariance_error(self, single, rec: Served) -> Optional[str]:
        """Why batched greedy tokens differ from ``build_engine``'s, or None.

        A divergence is let pass only when it follows an Eq. (2) sign
        tie: a decode-step MLP input of the single-sequence run, before
        the first differing token, with an entry within float32 roundoff
        of zero whose sign flip changes the skip mask (see
        ``checks.eq2_sign_tie``).  The predictor's decision there is not
        fixed by float32 arithmetic, so a batched GEMM's different
        summation order may take the other branch.  A divergence at the
        first token (dense prefill, no predictor) or without such a tie
        fails.
        """
        captured = []
        run_with_skip = single.mlp.run_with_skip

        def capture(layer, x, skip):
            captured.append((layer, x.copy()))
            return run_with_skip(layer, x, skip)

        single.mlp.run_with_skip = capture
        try:
            expected = single.generate(rec.spec.prompt,
                                       rec.spec.max_new).generated_ids
        finally:
            del single.mlp.run_with_skip
        if expected == rec.tokens:
            return None
        first = next(i for i, (a, b) in enumerate(zip(expected, rec.tokens))
                     if a != b)
        # Token ``first`` comes from the decode forward of token first-1;
        # each decode forward makes one MLP call per layer.
        n_layers = len(self.weights.layers)
        for layer, x in captured[:first * n_layers]:
            if eq2_sign_tie(x, self.weights.layers[layer].w_gate_rows):
                return None
        return (f"tokens differ from build_engine from token {first}, "
                "with no Eq. (2) sign tie before it")


class ServeBatch(_Serving):
    """Offline closed batch: rounds of short prompts, long outputs, random ReLU."""

    name = "serve_batch"
    PROMPT_LEN = 8
    OUT_LENS = (16, 24, 32, 40, 48)      # cycled over a round's requests
    ROUND = 20

    def make_weights(self):
        return models.random_relu_weights()

    def build(self):
        return build_batched_engine(
            self.weights, max_batch_size=8, max_seq_len=128, paged=True,
            page_size=16, batched_attention=True, prefill_chunk=16)

    def round_specs(self, round_index: int) -> list:
        rng = _rng(self.seed, self.name, round_index)
        prompts = rng.integers(0, models.VOCAB, (self.ROUND, self.PROMPT_LEN))
        return [
            Spec(round_index * self.ROUND + j, tuple(prompts[j].tolist()),
                 self.OUT_LENS[j % len(self.OUT_LENS)])
            for j in range(self.ROUND)
        ]


class ServePrefix(_Serving):
    """Closed rounds of prefill-heavy traffic that shares prompt prefixes.

    Most prompts extend one of a few long prefixes drawn fresh each
    round; the rest are unique long prompts; outputs are short.  The
    prefixes span more pages than the prefix cache holds, so forks,
    revives, misses and evictions all occur, and prefill runs in
    step-budgeted chunks piggybacked on decode ticks.
    """

    name = "serve_prefix"
    ROUND = 24
    PREFIX_LEN = 32           # two 16-position pages per shared prefix
    SUFFIX_LEN = 8
    N_FAMILIES = 3            # 6 prefix pages, more than CACHE_PAGES holds
    N_SHARED = 21             # requests of a round that extend a prefix
    MAX_NEW = 12
    CACHE_PAGES = 5
    STEP_BUDGET = 16
    FAMILY_SEED = 2024

    def __init__(self, seed: int):
        super().__init__(seed)
        # Which position of a round extends which prefix (-1: unique) is
        # one fixed pattern, so --seed changes prompt tokens only and a
        # round's forks, revives and evictions are the same on every seed.
        family = np.full(self.ROUND, -1)
        family[:self.N_SHARED] = np.arange(self.N_SHARED) % self.N_FAMILIES
        self.family = np.random.default_rng(self.FAMILY_SEED).permutation(family)

    def make_weights(self):
        return models.prosparse_weights()

    def build(self):
        worst = -(-(self.PREFIX_LEN + self.SUFFIX_LEN + self.MAX_NEW) // 16)
        return build_batched_engine(
            self.weights, max_batch_size=8, max_seq_len=128, paged=True,
            page_size=16, n_pages=8 * worst + self.CACHE_PAGES,
            prefix_sharing=True, cache_pages=self.CACHE_PAGES,
            batched_attention=True, prefill_chunk=16)

    def round_specs(self, round_index: int) -> list:
        rng = _rng(self.seed, self.name, round_index)
        prefixes = rng.integers(0, models.VOCAB,
                                (self.N_FAMILIES, self.PREFIX_LEN))
        specs = []
        for j, family in enumerate(self.family):
            if family >= 0:
                tail = rng.integers(0, models.VOCAB, self.SUFFIX_LEN)
                prompt = np.concatenate([prefixes[family], tail])
            else:
                prompt = rng.integers(0, models.VOCAB,
                                      self.PREFIX_LEN + self.SUFFIX_LEN)
            specs.append(Spec(round_index * self.ROUND + j,
                              tuple(prompt.tolist()), self.MAX_NEW))
        return specs


WORKLOADS = {w.name: w for w in (DecodeB1, ServeBatch, ServePrefix)}
