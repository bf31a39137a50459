"""Dense float64 numerics: matrix helpers, cosine / softmax primitives, a
two-layer mapping network with hand-derived gradients, and first-order
optimizers.

Everything here is 64-bit; file formats downcast to 32-bit only at the I/O
boundary (see data.py).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError, UsageError
from .rng import RngStream

ACTIVATIONS = ("relu", "identity")
OPTIMIZER_MODES = ("sgd_momentum", "adam")


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def require_finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise FloatingPointError(f"non-finite values in {what}")
    return a


def softmax(scores, temperature: float = 1.0) -> np.ndarray:
    """Max-stabilized softmax along the last axis; rows sum to 1."""
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    s = np.asarray(scores, dtype=np.float64) / temperature
    s = s - np.max(s, axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def pairwise_cosine(x) -> np.ndarray:
    """Row-wise cosine similarity matrix; zero-norm rows score 0 everywhere."""
    x = as_matrix(x, "pairwise input")
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    xh = x / safe[:, None]
    xh[norms == 0] = 0.0
    sim = xh @ xh.T
    return np.clip((sim + sim.T) / 2.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# two-layer mapping network


@dataclass
class MappingNet:
    """out = W2 * act(W1 * x + b1) + b2, applied row-wise."""

    w1: np.ndarray  # hidden x in
    b1: np.ndarray  # hidden
    w2: np.ndarray  # out x hidden
    b2: np.ndarray  # out
    activation: str = "relu"

    def __post_init__(self):
        self.w1 = as_matrix(self.w1, "w1")
        self.w2 = as_matrix(self.w2, "w2")
        self.b1 = np.asarray(self.b1, dtype=np.float64).ravel()
        self.b2 = np.asarray(self.b2, dtype=np.float64).ravel()
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")
        hidden = self.w1.shape[0]
        if hidden < 1:
            raise ShapeError("hidden width must be at least 1")
        if self.b1.shape[0] != hidden or self.w2.shape[1] != hidden:
            raise ShapeError("hidden dimensions disagree between w1, b1, w2")
        if self.b2.shape[0] != self.w2.shape[0]:
            raise ShapeError("output dimensions disagree between w2, b2")
        for name, p in self.params().items():
            require_finite(p, f"parameter {name}")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    @classmethod
    def init(
        cls,
        in_dim: int,
        out_dim: int,
        hidden_dim: int | None = None,
        rng: RngStream | None = None,
        activation: str = "relu",
    ) -> "MappingNet":
        """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights and biases.

        Biases get the same spread as their layer's weights; a zero bias on
        the output layer can yield an exactly zero prototype whenever a row
        lands in the dead region of every hidden relu, which the cosine loss
        rejects.
        """
        if rng is None:
            rng = RngStream(0)
        hidden = hidden_dim if hidden_dim is not None else max(in_dim, out_dim)
        s1 = 1.0 / np.sqrt(in_dim)
        s2 = 1.0 / np.sqrt(hidden)
        return cls(
            w1=rng.uniform(-s1, s1, (hidden, in_dim)),
            b1=rng.uniform(-s1, s1, hidden),
            w2=rng.uniform(-s2, s2, (out_dim, hidden)),
            b2=rng.uniform(-s2, s2, out_dim),
            activation=activation,
        )


@dataclass
class ForwardCache:
    net: MappingNet
    x: np.ndarray
    pre: np.ndarray
    hidden: np.ndarray


def net_forward(net: MappingNet, x) -> tuple[np.ndarray, ForwardCache]:
    x = as_matrix(x, "network input")
    if x.shape[1] != net.in_dim:
        raise ShapeError(f"input has {x.shape[1]} columns, network expects {net.in_dim}")
    pre = x @ net.w1.T + net.b1
    hidden = np.maximum(pre, 0.0) if net.activation == "relu" else pre
    out = hidden @ net.w2.T + net.b2
    require_finite(out, "network output")
    return out, ForwardCache(net=net, x=x, pre=pre, hidden=hidden)


def net_backward(
    net: MappingNet, cache: ForwardCache, out_grad
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact gradients of the forward map for a given output gradient."""
    if cache.net is not net:
        raise UsageError("forward cache does not belong to this network")
    g = as_matrix(out_grad, "output gradient")
    if g.shape != (cache.x.shape[0], net.out_dim):
        raise UsageError(
            f"output gradient shape {g.shape} does not match cached forward "
            f"({cache.x.shape[0]}, {net.out_dim})"
        )
    gw2 = g.T @ cache.hidden
    gb2 = g.sum(axis=0)
    gh = g @ net.w2
    if net.activation == "relu":
        gh = gh * (cache.pre > 0)
    gw1 = gh.T @ cache.x
    gb1 = gh.sum(axis=0)
    gx = gh @ net.w1
    return {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}, gx


# ---------------------------------------------------------------------------
# cosine cross-entropy (shared by the refinement and prototype losses)


def cosine_cross_entropy(
    queries, references, targets, scale: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy of softmax(scale * cos(query, reference)).

    Returns (loss, grad_queries, grad_references).  Rows of both inputs must
    have nonzero norm (FloatingPointError otherwise); gradients are exact.
    """
    if scale <= 0:
        raise ParameterError(f"logit scale must be positive, got {scale}")
    q = as_matrix(queries, "queries")
    r = as_matrix(references, "references")
    if q.shape[1] != r.shape[1]:
        raise ShapeError(f"dimension mismatch: {q.shape[1]} vs {r.shape[1]}")
    t = np.asarray(targets, dtype=np.int64).ravel()
    if t.shape[0] != q.shape[0]:
        raise ShapeError("one target per query row required")
    if t.size and (t.min() < 0 or t.max() >= r.shape[0]):
        raise ParameterError("target index out of range")
    qn = np.linalg.norm(q, axis=1)
    rn = np.linalg.norm(r, axis=1)
    if np.any(qn == 0) or np.any(rn == 0):
        raise FloatingPointError("zero-norm row in cosine cross-entropy")
    qh = q / qn[:, None]
    rh = r / rn[:, None]
    cos = qh @ rh.T
    logits = scale * cos
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    logp = z - lse[:, None]
    b = q.shape[0]
    idx = np.arange(b)
    loss = float(-logp[idx, t].mean())
    gl = np.exp(logp)
    gl[idx, t] -= 1.0
    gl *= scale / b  # d loss / d cos
    gl_cos = gl * cos
    row_dot = gl_cos.sum(axis=1, keepdims=True)
    gq = (gl @ rh - row_dot * qh) / qn[:, None]
    col_dot = gl_cos.sum(axis=0)[:, None]
    gr = (gl.T @ qh - col_dot * rh) / rn[:, None]
    return loss, gq, gr


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class OptimizerState:
    mode: str
    learning_rate: float
    momentum: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    step_count: int = 0
    buffers: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in OPTIMIZER_MODES:
            raise ParameterError(f"unknown optimizer mode {self.mode!r}")
        if self.learning_rate <= 0:
            raise ParameterError("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError("momentum must be in [0, 1)")
        if not (0.0 < self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise ParameterError("adam betas must be in (0, 1)")
        if self.adam_eps <= 0:
            raise ParameterError("adam epsilon must be positive")


def _buffer(state: OptimizerState, key: str, like: np.ndarray) -> np.ndarray:
    """The state's buffer `key`, made as zeros shaped like `like` on first use."""
    buf = state.buffers.get(key)
    if buf is None:
        buf = state.buffers[key] = np.zeros_like(like)
    return buf


def optimizer_step(
    state: OptimizerState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """One in-place update of every parameter; increments step_count by 1."""
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match parameter {name} {p.shape}"
            )
    state.step_count += 1
    lr = state.learning_rate
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if state.mode == "sgd_momentum":
            v = _buffer(state, f"v_{name}", p)
            v *= state.momentum
            v -= lr * g
            p += v
        else:
            m = _buffer(state, f"m_{name}", p)
            v = _buffer(state, f"v_{name}", p)
            b1, b2 = state.adam_beta1, state.adam_beta2
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            t = state.step_count
            mhat = m / (1.0 - b1**t)
            vhat = v / (1.0 - b2**t)
            p -= lr * mhat / (np.sqrt(vhat) + state.adam_eps)
    return params
