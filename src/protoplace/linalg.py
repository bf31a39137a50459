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


def unit_rows(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r's rows scaled to norm 1, their norms).  FloatingPointError on a
    zero-norm row: the cosine cross-entropy has no value there."""
    rn = np.sqrt(np.add.reduce(r * r, axis=1))  # np.linalg.norm(r, axis=1)
    if not rn.all():
        raise FloatingPointError("zero-norm row in cosine cross-entropy")
    return r / rn[:, None], rn


def unit_rows_or_zero(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x's rows scaled to norm 1, their norms), with each zero-norm row left
    at 0, so that its cosine with any row is 0."""
    norms = np.sqrt(np.add.reduce(x * x, axis=1))  # np.linalg.norm(x, axis=1)
    zero = norms == 0
    xh = x / np.where(zero, 1.0, norms)[:, None]
    xh[zero] = 0.0
    return xh, norms


def pairwise_cosine(x) -> np.ndarray:
    """Row-wise cosine similarity matrix of x, or of each matrix of a stack x
    of shape (..., m, d); zero-norm rows score 0 everywhere."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ShapeError(f"pairwise input must be at least 2-D, got shape {x.shape}")
    xh, _ = unit_rows_or_zero(x.reshape(-1, x.shape[-1]))  # norms of a 2-D view
    xh = xh.reshape(x.shape)
    # one operand times its own transpose: numpy's a @ a.T path, per matrix
    sim = xh @ np.swapaxes(xh, -1, -2)
    return np.clip((sim + np.swapaxes(sim, -1, -2)) / 2.0, -1.0, 1.0)


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


def net_forward(net: MappingNet, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Checks only x's column count; project_prototypes checks the output for
    non-finite values, the training loops their loss."""
    if x.shape[1] != net.in_dim:
        raise ShapeError(f"input has {x.shape[1]} columns, network expects {net.in_dim}")
    pre = x @ net.w1.T + net.b1
    hidden = np.maximum(pre, 0.0) if net.activation == "relu" else pre
    out = hidden @ net.w2.T + net.b2
    return out, ForwardCache(net=net, x=x, pre=pre, hidden=hidden)


def net_backward(
    net: MappingNet, cache: ForwardCache, g: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact parameter gradients of the forward map for the output gradient g.
    Checks only that the cache is net's; the products check g's shape."""
    if cache.net is not net:
        raise UsageError("forward cache does not belong to this network")
    gw2 = g.T @ cache.hidden
    gb2 = g.sum(axis=0)
    gh = g @ net.w2
    if net.activation == "relu":
        gh *= cache.pre > 0
    gw1 = gh.T @ cache.x
    gb1 = gh.sum(axis=0)
    return {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}


# ---------------------------------------------------------------------------
# cosine cross-entropy (shared by the refinement and prototype losses)


def cosine_cross_entropy(
    q: np.ndarray, refs: tuple[np.ndarray, np.ndarray], targets: np.ndarray,
    scale: float, wrt: str,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(scale * cos(query, reference)), and its
    exact gradient w.r.t. `wrt`: the queries q or the references, given as
    unit_rows(references).  Checks one target per query, each in range (no
    wrap-around), and each query's norm (FloatingPointError if 0); the
    callers' configs check the scale."""
    if wrt not in ("queries", "references"):
        raise ParameterError(f"cannot take the gradient w.r.t. {wrt!r}")
    rh, rn = refs
    b = q.shape[0]
    if targets.shape != (b,):
        raise ShapeError("one target per query row required")
    qh, qn = unit_rows(q)
    cos = qh @ rh.T
    try:  # the flat index of each row's target entry
        at = np.ravel_multi_index((np.arange(b), targets), cos.shape)
    except ValueError:
        raise ParameterError("target index out of range") from None
    logp = scale * cos
    logp -= logp.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    loss = -float(np.add.reduce(logp.ravel()[at])) / b
    gl = np.exp(logp)
    gl.ravel()[at] -= 1.0
    gl *= scale / b  # d loss / d cos
    gl_cos = gl * cos
    if wrt == "queries":
        row_dot = gl_cos.sum(axis=1, keepdims=True)
        return loss, (gl @ rh - row_dot * qh) / qn[:, None]
    col_dot = gl_cos.sum(axis=0)[:, None]
    return loss, (gl.T @ qh - col_dot * rh) / rn[:, None]


# ---------------------------------------------------------------------------
# optimizers


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """SofConfig and TrainConfig check the learning rate and momentum; the
    mode is checked here, as optimizer_step runs Adam for any other mode."""

    mode: str
    learning_rate: float
    momentum: float = 0.9
    step_count: int = 0
    buffers: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in OPTIMIZER_MODES:
            raise ParameterError(f"unknown optimizer mode {self.mode!r}")


def _buffer(state: OptimizerState, key: str, like: np.ndarray) -> np.ndarray:
    """The state's buffer `key`, made as zeros shaped like `like` on first use."""
    buf = state.buffers.get(key)
    if buf is None:
        buf = state.buffers[key] = np.zeros_like(like)
    return buf


def optimizer_step(
    state: OptimizerState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """One in-place update of every parameter; increments step_count by 1.
    Checks only the gradients' shapes, before any parameter moves."""
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match parameter {name} {p.shape}"
            )
    state.step_count += 1
    lr = state.learning_rate
    for name, p in params.items():
        g = grads[name]
        if state.mode == "sgd_momentum":
            v = _buffer(state, f"v_{name}", p)
            v *= state.momentum
            v -= lr * g
            p += v
        else:
            m = _buffer(state, f"m_{name}", p)
            v = _buffer(state, f"v_{name}", p)
            b1, b2 = ADAM_BETA1, ADAM_BETA2
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            t = state.step_count
            mhat = m / (1.0 - b1**t)
            vhat = v / (1.0 - b2**t)
            p -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return params
