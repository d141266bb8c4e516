"""Sparse-MoE token routing with hybrid balancing.

Routing is top-k over bias-adjusted scores, ties to the lowest expert index,
but combination weights are the softmax of the original router logits
restricted to the selected experts: the balancing bias steers *which*
experts fire, never how their outputs are mixed (Wang et al., "Auxiliary-
Loss-Free Load Balancing Strategy for Mixture-of-Experts", arXiv 2408.15664).
``route_topk`` (one token) and ``route_batch`` (a token batch) share one
selection routine. Balancing combines two mechanisms:

* an auxiliary load-balancing loss ``alpha * E * sum_i f_i * pbar_i``
  reported as a scalar diagnostic each step, minimized (= alpha) exactly
  when load fractions and mean router probabilities are both uniform;
* a per-router bias update ``b_i += u * sign(1/E - f_i)`` that nudges
  selection away from overloaded experts. This is the active controller in
  the simulation; no gradient descent is modeled.

The router's only state is its bias vector: ``route_batch(bias, logits, k)``
returns the step's selection counts and ``bias_update`` returns the next
bias. ``simulate_routing`` returns a run as the columns ``route.csv`` writes,
one row per step, with the bias each step was routed with. It allocates its
per-step ``(tokens, E)`` arrays once per run: two logit buffers, the
adjusted-score and partition scratch and the top-k mask. A helper thread,
the only user of the source's generator, draws step ``t + 1`` into one
logit buffer while step ``t`` routes in the other, so the stream is read in
step order and the run is the same as a single-threaded one, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidSpecError, RoutingError


@dataclass(frozen=True)
class RouterConfig:
    num_experts: int
    top_k: int
    aux_coefficient: float = 0.01
    bias_step: float = 0.01

    def __post_init__(self):
        if self.num_experts < 2:
            raise InvalidSpecError(f"num_experts must be >= 2, got {self.num_experts}", field="num_experts")
        if not (1 <= self.top_k < self.num_experts):
            raise InvalidSpecError(
                f"top_k must satisfy 1 <= k < num_experts, got k={self.top_k}, E={self.num_experts}", field="top_k"
            )
        if not 0 <= self.aux_coefficient < np.inf:
            raise InvalidSpecError(f"aux_coefficient must be finite and >= 0, got {self.aux_coefficient}",
                                   field="aux_coefficient")
        if not 0 <= self.bias_step < np.inf:
            raise InvalidSpecError(f"bias_step must be finite and >= 0, got {self.bias_step}", field="bias_step")


def _topk_mask(adjusted: np.ndarray, k: int, part: np.ndarray | None = None,
               mask: np.ndarray | None = None) -> np.ndarray:
    """Boolean mask of each row's k largest scores, ties to the lowest index.

    Marks every score ``>=`` the row's k-th largest. Every row marks at least
    k, so rows are recounted only when the total is over; rows where ties at
    the k-th score mark more than k are re-selected by a stable sort. ``part``
    (float64) and ``mask`` (bool), arrays of ``adjusted``'s shape, receive the
    partitioned copy and the mask when given.
    """
    num_experts = adjusted.shape[1]
    if part is None:
        part = np.empty_like(adjusted)
    np.copyto(part, adjusted)
    part.partition(num_experts - k, axis=1)
    mask = np.greater_equal(adjusted, part[:, num_experts - k, None], out=mask)
    if np.count_nonzero(mask) == adjusted.shape[0] * k:
        return mask
    over = np.flatnonzero(mask.sum(axis=1) > k)
    if over.size:
        top = np.argsort(-adjusted[over], axis=1, kind="stable")[:, :k]
        fixed = np.zeros((over.size, num_experts), dtype=bool)
        fixed[np.arange(over.size)[:, None], top] = True
        mask[over] = fixed
    return mask


def route_topk(
    logits: Sequence[float] | np.ndarray,
    bias: Sequence[float] | np.ndarray,
    k: int,
) -> tuple[list[int], list[float]]:
    """Select the k experts with the largest ``logit + bias`` (ties to the
    lowest index) and weight them by the softmax of the original logits
    restricted to the selection.

    Returns (indices in descending adjusted-score order, weights summing to 1).
    """
    logits = np.asarray(logits, dtype=float)
    bias = np.asarray(bias, dtype=float)
    if logits.ndim != 1 or logits.shape != bias.shape:
        raise RoutingError(
            f"logits and bias must be equal-length vectors, got {logits.shape} and {bias.shape}"
        )
    if not np.all(np.isfinite(logits)):
        raise RoutingError("non-finite logit")
    if not np.all(np.isfinite(bias)):
        raise RoutingError("non-finite bias")
    E = logits.shape[0]
    if not (1 <= k < E):
        raise RoutingError(f"k must satisfy 1 <= k < E, got k={k}, E={E}")

    adjusted = logits + bias
    selected = np.flatnonzero(_topk_mask(adjusted[None, :], k)[0])
    selected = selected[np.argsort(-adjusted[selected], kind="stable")]
    chosen = logits[selected]
    exp = np.exp(chosen - chosen.max())
    weights = exp / exp.sum()
    return [int(i) for i in selected], [float(w) for w in weights]


def _check_probability_vector(name: str, v: np.ndarray, E: int) -> None:
    if v.ndim != 1 or v.shape[0] != E:
        raise RoutingError(f"{name} must be a length-{E} vector, got shape {v.shape}")
    if np.any(v < -1e-12) or abs(float(v.sum()) - 1.0) > 1e-6:
        raise RoutingError(f"{name} is not a probability vector (sum={float(v.sum())})")


def aux_loss(f: Sequence[float] | np.ndarray, pbar: Sequence[float] | np.ndarray, alpha: float) -> float:
    """Load-balancing loss ``alpha * E * sum_i f_i * pbar_i``.

    Equals ``alpha`` exactly when both vectors are uniform; grows as load and
    router probability concentrate on the same experts.
    """
    f = np.asarray(f, dtype=float)
    pbar = np.asarray(pbar, dtype=float)
    if f.shape != pbar.shape:
        raise RoutingError(f"dimension mismatch: f {f.shape} vs pbar {pbar.shape}")
    E = f.shape[0]
    _check_probability_vector("f", f, E)
    _check_probability_vector("pbar", pbar, E)
    return float(alpha * E * np.dot(f, pbar))


def bias_update(bias: np.ndarray, f: Sequence[float] | np.ndarray, u: float) -> np.ndarray:
    """Sign rule: underloaded experts gain ``u`` of bias, overloaded lose it.
    Returns a new bias array."""
    f = np.asarray(f, dtype=float)
    if f.shape != bias.shape:
        raise RoutingError(f"dimension mismatch: f {f.shape} vs bias {bias.shape}")
    if u < 0:
        raise RoutingError(f"bias step must be >= 0, got {u}")
    target = 1.0 / bias.shape[0]
    return bias + u * np.sign(target - f)


class GaussianLogitSource:
    """Seeded stream of per-token logit vectors: N(offset_i, std^2) per expert.

    The fixed mean-offset vector models persistent expert preference, the
    skew the balancer has to correct. Each draw continues the seeded stream,
    so only the one ``route`` run of the config that built a source draws from
    it. The generator is made at the first draw: building imports no numpy.random.
    """

    def __init__(self, mean_offsets: Sequence[float] | np.ndarray, seed: int, std: float = 1.0):
        self.mean_offsets = np.asarray(mean_offsets, dtype=float)
        if self.mean_offsets.ndim != 1 or not np.all(np.isfinite(self.mean_offsets)):
            raise InvalidSpecError("mean_offsets must be a vector of finite numbers", field="mean_offsets")
        if not 0 < std < np.inf:
            raise InvalidSpecError(f"std must be finite and > 0, got {std}", field="std")
        self.std = std
        self._seed = seed
        self._rng = None

    @property
    def num_experts(self) -> int:
        return self.mean_offsets.shape[0]

    def draw(self, tokens: int) -> np.ndarray:
        """``tokens`` logit vectors. ``std * z + offset`` is what
        ``normal(0, std) + offset`` computes from the same stream."""
        return self._fill(np.empty((tokens, self.num_experts)))

    def _fill(self, out: np.ndarray) -> np.ndarray:
        """``draw`` into ``out``, a C-contiguous float64 ``(tokens, num_experts)`` array."""
        if self._rng is None:
            self._rng = np.random.Generator(np.random.PCG64(self._seed))
        self._rng.standard_normal(out=out)
        out *= self.std
        out += self.mean_offsets
        return out


def route_batch(bias: np.ndarray, logits: np.ndarray, k: int,
                scratch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Route a (tokens, E) logit batch, each token as ``route_topk`` would
    under ``bias``; returns the per-expert selection counts. ``scratch``, two
    float64 arrays and a bool array of the batch's shape, receives the
    adjusted scores, their partitioned copy and the top-k mask instead of
    fresh arrays."""
    if logits.ndim != 2 or logits.shape[1] != bias.shape[0]:
        raise RoutingError(f"logit batch must be (tokens, {bias.shape[0]})")
    adjusted, part, mask = scratch or (None, None, None)
    adjusted = np.add(logits, bias, out=adjusted)
    return _topk_mask(adjusted, k, part, mask).sum(axis=0, dtype=np.int64)


def simulate_routing(
    config: RouterConfig,
    source: GaussianLogitSource,
    tokens_per_step: int,
    steps: int,
) -> dict[str, np.ndarray]:
    """Route ``tokens_per_step`` tokens per step, applying the bias update
    after each step. Deterministic for a given source seed.

    Returns the run as the value columns of ``ROUTE_CSV_FIELDS``, row ``t``
    being step ``t``: ``f``, ``pbar`` and ``bias`` (the bias step ``t`` was
    routed with) are ``(steps, num_experts)`` arrays, ``cov`` and ``aux_loss``
    length-``steps`` arrays. A value that left the float range is an
    ``InvalidSpecError`` naming its column and first step. An error in a draw
    reaches the caller as it is, and the helper thread has ended when this
    returns or raises.
    """
    if source.num_experts != config.num_experts:
        raise InvalidSpecError("logit source and router config disagree on num_experts")
    if tokens_per_step < 1:
        raise InvalidSpecError("tokens_per_step must be >= 1")
    if steps < 1:
        raise InvalidSpecError("steps must be >= 1")

    shape = (steps, config.num_experts)
    run = {"f": np.empty(shape), "pbar": np.empty(shape), "bias": np.zeros(shape),
           "cov": np.empty(steps), "aux_loss": np.empty(steps)}
    batch = (tokens_per_step, config.num_experts)
    buffers = (np.empty(batch), np.empty(batch))
    scratch = (np.empty(batch), np.empty(batch), np.empty(batch, dtype=bool))

    def draw(out):
        # A new thread starts with numpy's default error state. It calls
        # _fill, not draw: perfbench's tracer wraps draw and keeps one span
        # stack, which calls from a second thread would corrupt.
        with np.errstate(all="ignore"):
            return source._fill(out)

    # Imported here, not at the top: the CLI's start-up does not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    # The helper thread is the only user of the generator and draws in step
    # order: step t + 1 into one buffer while step t routes in the other.
    # The check after the loop reports what left the float range.
    with ThreadPoolExecutor(max_workers=1) as helper, np.errstate(all="ignore"):
        pending = helper.submit(draw, buffers[0])
        for t in range(steps):
            logits = pending.result()
            if t + 1 < steps:
                pending = helper.submit(draw, buffers[(t + 1) % 2])
            bias = run["bias"][t]
            counts = route_batch(bias, logits, config.top_k, scratch)
            f = run["f"][t]
            np.divide(counts, config.top_k * tokens_per_step, out=f)
            # pbar: the row softmax of the routed logits, computed in place
            logits -= logits.max(axis=1, keepdims=True)
            np.exp(logits, out=logits)
            logits /= logits.sum(axis=1, keepdims=True)
            run["pbar"][t] = logits.mean(axis=0)
            run["cov"][t] = np.std(f) / np.mean(f)
            run["aux_loss"][t] = aux_loss(f, run["pbar"][t], config.aux_coefficient)
            if t + 1 < steps:
                run["bias"][t + 1] = bias_update(bias, f, config.bias_step)
    for name, column in run.items():
        finite = np.isfinite(column.reshape(steps, -1)).all(axis=1)
        if not finite.all():
            raise InvalidSpecError(f"routing column {name} is not finite at step {int(np.argmin(finite))}")
    return run


@dataclass(frozen=True)
class MoEParamSpec:
    """Parameter accounting for a sparse-MoE stack."""

    shared_params: float
    per_expert_params: float
    num_experts: int
    top_k: int

    def __post_init__(self):
        if self.shared_params <= 0 or self.per_expert_params <= 0:
            raise InvalidSpecError("parameter counts must be positive")
        if self.num_experts < 1 or self.top_k < 1:
            raise InvalidSpecError("num_experts and top_k must be >= 1")
        if self.top_k > self.num_experts:
            raise InvalidSpecError("top_k cannot exceed num_experts")


def moe_param_counts(spec: MoEParamSpec) -> tuple[float, float]:
    """(total parameters, parameters activated per token)."""
    total = spec.shared_params + spec.num_experts * spec.per_expert_params
    activated = spec.shared_params + spec.top_k * spec.per_expert_params
    return total, activated


DEFAULT_SHARED_GRID = tuple(float(x) for x in np.arange(0.25e9, 8.25e9, 0.25e9))
DEFAULT_EXPERT_GRID = tuple(float(x) for x in np.arange(0.05e9, 2.05e9, 0.05e9))


def search_param_grid(
    target_total: float,
    target_activated: float,
    shared_grid: Sequence[float] = DEFAULT_SHARED_GRID,
    per_expert_grid: Sequence[float] = DEFAULT_EXPERT_GRID,
    max_experts: int = 512,
    max_k: int = 16,
) -> tuple[MoEParamSpec, float, float]:
    """Grid search for a spec hitting the target total/activated counts.

    Returns (best spec, relative total error, relative activated error),
    minimizing the worse of the two relative errors. Total depends only on
    (S, P_e, E) and activated only on (S, P_e, k), so E and k are optimized
    independently per grid point.
    """
    experts = np.arange(2, max_experts + 1)
    ks = np.arange(1, max_k + 1)
    best = None
    for shared in shared_grid:
        for per_expert in per_expert_grid:
            total_err = np.abs(shared + experts * per_expert - target_total) / target_total
            act_err = np.abs(shared + ks * per_expert - target_activated) / target_activated
            ei = int(np.argmin(total_err))
            # k must stay below E for a sparse config
            k_limit = min(max_k, int(experts[ei]) - 1)
            ki = int(np.argmin(act_err[:k_limit]))
            score = max(float(total_err[ei]), float(act_err[ki]))
            if best is None or score < best[0]:
                best = (
                    score,
                    MoEParamSpec(
                        shared_params=float(shared),
                        per_expert_params=float(per_expert),
                        num_experts=int(experts[ei]),
                        top_k=int(ks[ki]),
                    ),
                    float(total_err[ei]),
                    float(act_err[ki]),
                )
    assert best is not None
    return best[1], best[2], best[3]


ROUTE_CSV_FIELDS = ["step", "expert", "f", "pbar", "bias", "cov", "aux_loss"]


def load_report_rows(run: dict[str, np.ndarray]) -> list[tuple]:
    """Flatten a run's columns to per-(step, expert) CSV rows, tuples in
    ``ROUTE_CSV_FIELDS`` order."""
    steps, n = run["f"].shape
    return list(zip(
        np.repeat(np.arange(steps), n).tolist(),
        np.tile(np.arange(n), steps).tolist(),
        run["f"].ravel().tolist(),
        run["pbar"].ravel().tolist(),
        run["bias"].ravel().tolist(),
        np.repeat(run["cov"], n).tolist(),
        np.repeat(run["aux_loss"], n).tolist(),
    ))
