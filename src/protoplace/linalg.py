"""Dense float64 numerics: matrix helpers, cosine / softmax primitives, a
two-layer mapping network with hand-derived gradients, first-order
optimizers and the epoch loop of both training stages.

Everything here is 64-bit; file formats downcast to 32-bit only at the I/O
boundary (see data.py).
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError, TrainingError, require_ints, \
    require_real
from .rng import RngStream, check_seed

OPTIMIZER_MODES = ("sgd_momentum", "adam")


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def require_finite(a: np.ndarray, what: str) -> np.ndarray:
    """a, unless it holds a NaN or an infinity: FloatingPointError naming
    `what`.  min and max propagate NaN, so no mask the size of a is made."""
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise FloatingPointError(f"non-finite values in {what}")
    return a


def softmax(scores, temperature: float = 1.0) -> np.ndarray:
    """Max-stabilized softmax along the last axis; rows sum to 1.  HalluConfig
    checks the one temperature other than 1, sigma."""
    s = np.asarray(scores, dtype=np.float64) / temperature
    s = s - np.max(s, axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_rows(z: np.ndarray) -> np.ndarray:
    """Each row of the 2-D z, in place, less its maximum and then the log of
    its sum of exps: the row's log-softmax.  Returns z."""
    z -= z.max(axis=1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z


def unit_rows(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r's rows scaled to norm 1, their norms), for a matrix or a stack of
    them (..., k).  FloatingPointError on a zero-norm row: the cosine
    cross-entropy has no value there."""
    rows = r.reshape(-1, r.shape[-1])  # norms of a 2-D view
    rn = np.sqrt(np.add.reduce(rows * rows, axis=1))  # np.linalg.norm(., axis=1)
    if not rn.all():
        raise FloatingPointError("zero-norm row in cosine cross-entropy")
    return (rows / rn[:, None]).reshape(r.shape), rn.reshape(r.shape[:-1])


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
    # one operand times its own transpose: numpy's a @ a.T path, per matrix,
    # gives an exactly symmetric product (tests/test_linalg.py pins this)
    return np.clip(xh @ xh.swapaxes(-1, -2), -1.0, 1.0)


# ---------------------------------------------------------------------------
# flat parameter vectors


class FlatParams:
    """Mixin of the parameter dataclasses: the arrays named in PARAMS are
    views of one contiguous float64 vector `flat`, in that order, so that a
    gradient is one vector of the same layout and an optimizer step is one
    update.  Call `_pack` once the arrays are checked.  A constructor's
    `flat` argument, where given, is such a vector whose views the arrays
    already are (data.load_params reads them so): it is kept, not copied."""

    PARAMS: tuple[str, ...] = ()

    def _pack(self, flat: np.ndarray | None = None) -> None:
        arrays = [getattr(self, name) for name in self.PARAMS]
        self.flat = np.concatenate([a.ravel() for a in arrays]) if flat is None \
            else flat
        ends = np.cumsum([a.size for a in arrays]).tolist()
        self._slots = [(name, slice(hi - a.size, hi), a.shape)
                       for name, a, hi in zip(self.PARAMS, arrays, ends)]
        for name, view in self.views(self.flat).items():
            setattr(self, name, view)

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.PARAMS}

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's view of the last axis of vec, a vector of the
        flat layout or a stack of them (..., flat.size): shaped
        (..., *parameter shape), writable in place."""
        lead = vec.shape[:-1]
        # each splits only the last, contiguous axis: always a view
        return {name: vec[..., cols].reshape(*lead, *shape)
                for name, cols, shape in self._slots}


# ---------------------------------------------------------------------------
# two-layer mapping network


@dataclass
class MappingNet(FlatParams):
    """out = W2 * relu(W1 * x + b1) + b2, applied row-wise.  The weights and
    biases are views of `flat` (see FlatParams); the net keeps its own copy
    of the arrays it is given, unless given `flat`."""

    PARAMS = ("w1", "b1", "w2", "b2")

    w1: np.ndarray  # hidden x in
    b1: np.ndarray  # hidden
    w2: np.ndarray  # out x hidden
    b2: np.ndarray  # out
    flat: InitVar[np.ndarray | None] = None

    def __post_init__(self, flat):
        self.w1 = as_matrix(self.w1, "w1")
        self.w2 = as_matrix(self.w2, "w2")
        self.b1 = np.asarray(self.b1, dtype=np.float64).ravel()
        self.b2 = np.asarray(self.b2, dtype=np.float64).ravel()
        hidden = self.w1.shape[0]
        if hidden < 1:
            raise ShapeError("hidden width must be at least 1")
        if self.b1.shape[0] != hidden or self.w2.shape[1] != hidden:
            raise ShapeError("hidden dimensions disagree between w1, b1, w2")
        if self.b2.shape[0] != self.w2.shape[0]:
            raise ShapeError("output dimensions disagree between w2, b2")
        for name, p in self.params().items():
            require_finite(p, f"parameter {name}")
        self._pack(flat)

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[0]

    @classmethod
    def init(
        cls,
        in_dim: int,
        out_dim: int,
        hidden_dim: int | None = None,
        rng: RngStream | None = None,
    ) -> "MappingNet":
        """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights and biases.

        Biases get the same spread as their layer's weights; a zero bias on
        the output layer can yield an exactly zero prototype whenever a row
        lands in the dead region of every hidden relu, which the cosine loss
        rejects.  `rng`, the caller's stream, is required; its None default
        only lets hidden_dim before it be left out.
        """
        if rng is None:
            raise TypeError("MappingNet.init needs the caller's rng stream")
        hidden = hidden_dim if hidden_dim is not None else max(in_dim, out_dim)
        s1 = 1.0 / np.sqrt(in_dim)
        s2 = 1.0 / np.sqrt(hidden)
        return cls(
            w1=rng.uniform(-s1, s1, (hidden, in_dim)),
            b1=rng.uniform(-s1, s1, hidden),
            w2=rng.uniform(-s2, s2, (out_dim, hidden)),
            b2=rng.uniform(-s2, s2, out_dim),
        )


@dataclass
class ForwardCache:
    x: np.ndarray
    pre: np.ndarray
    hidden: np.ndarray


def net_forward(net: MappingNet, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """The net applied to the rows of x (b, in), or of each matrix of a stack
    x (..., b, in), in = net.in_dim (`eval` checks a loaded model's); the
    callers check the output for non-finite values."""
    pre = x @ net.w1.T + net.b1
    hidden = np.maximum(pre, 0.0)
    out = hidden @ net.w2.T + net.b2
    return out, ForwardCache(x=x, pre=pre, hidden=hidden)


def net_backward(net: MappingNet, cache: ForwardCache, g: np.ndarray,
                 out: tuple[np.ndarray, dict[str, np.ndarray]]) -> np.ndarray:
    """Exact parameter gradients of the forward map for the output gradient
    g, as a vector of net.flat's layout, or one per matrix of a stacked
    forward pass (..., net.flat.size), written into the buffer of `out`: a
    pair of a C-contiguous float64 array of that shape, which a training run
    reuses from step to step, and its net.views, made once with it.  `cache`
    is the one net_forward returned for net; the products check g's shape."""
    out, grads = out
    # column sums of each (b, k) matrix add its rows in order, as a 2-D
    # operand's do (tests/test_stacking.py)
    np.matmul(g.swapaxes(-1, -2), cache.hidden, out=grads["w2"])
    np.add.reduce(g, axis=-2, out=grads["b2"])
    gh = g @ net.w2
    gh *= cache.pre > 0
    np.matmul(gh.swapaxes(-1, -2), cache.x, out=grads["w1"])
    np.add.reduce(gh, axis=-2, out=grads["b1"])
    return out


# ---------------------------------------------------------------------------
# cosine cross-entropy (shared by the refinement and prototype losses)


def target_indices(targets, k: int) -> np.ndarray:
    """The flat index of each query's target entry in the scores of its
    queries against k references: for targets (b,), in a (b, k) score
    matrix, and for a stack of target vectors (..., b), in the whole score
    stack (..., b, k), row-major.  The `at` of cosine_cross_entropy.
    ParameterError if a target is outside [0, k) (no wrap-around)."""
    targets = np.asarray(targets)
    if targets.ndim < 1:
        raise ShapeError("one target per query row required")
    try:
        return np.ravel_multi_index((*np.indices(targets.shape, sparse=True), targets),
                                    (*targets.shape, k))
    except ValueError:
        raise ParameterError("target index out of range") from None


def cosine_cross_entropy(
    queries: tuple[np.ndarray, np.ndarray], refs: tuple[np.ndarray, np.ndarray],
    at: np.ndarray, scale: float, wrt: str,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy of softmax(scale * cos(query, reference)), and its
    exact gradient w.r.t. `wrt`: the queries or the references.  Both come
    as unit_rows pairs, of a (b, d) and a (k, d) matrix or of stacks of S
    such matrices (S, b, d) and (S, k, d); `at` (b,) or (S, b) are the
    target_indices of their targets.  A stack gives S losses and S
    gradients, each equal to its own matrix's bit for bit.  Checks one
    target index per query; the callers' configs check the scale."""
    if wrt not in ("queries", "references"):
        raise ParameterError(f"cannot take the gradient w.r.t. {wrt!r}")
    qh, qn = queries
    rh, rn = refs
    b, k = qh.shape[-2], rh.shape[-2]
    cos = qh @ rh.swapaxes(-1, -2)
    lead = cos.shape[:-2]
    if at.shape != (*lead, b):
        raise ShapeError("one target per query row required")
    logp = scale * cos
    log_softmax_rows(logp.reshape(-1, k))  # a 2-D view (tests/test_stacking.py)
    # a C-contiguous gather (..., b): each of its rows sums as a 1-D one
    loss = -np.add.reduce(logp.ravel().take(at), axis=-1) / b
    gl = np.exp(logp)
    gl.ravel()[at] -= 1.0
    gl *= scale / b  # d loss / d cos
    gl_cos = gl * cos
    if wrt == "queries":
        row_dot = gl_cos.reshape(-1, k).sum(axis=1, keepdims=True).reshape(*lead, b, 1)
        return loss, (gl @ rh - row_dot * qh) / qn[..., None]
    col_dot = gl_cos.sum(axis=-2)[..., None]
    return loss, (gl.swapaxes(-1, -2) @ qh - col_dot * rh) / rn[..., None]


# ---------------------------------------------------------------------------
# optimizers


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def check_stage_config(cfg) -> None:
    """The rules SofConfig and TrainConfig share, with one message each:
    ParameterError unless cfg.epochs is an integer >= 0, cfg.learning_rate
    and cfg.logit_scale are positive and finite, cfg.optimizer is one of
    OPTIMIZER_MODES and cfg.seed is a 64-bit unsigned integer."""
    require_ints(cfg, "epochs", "seed")
    check_seed(cfg.seed)
    for name in ("learning_rate", "logit_scale"):
        require_real(name, getattr(cfg, name))
    if cfg.epochs < 0:
        raise ParameterError("epochs must be nonnegative")
    # NaN fails too
    if not (0 < cfg.learning_rate < np.inf and 0 < cfg.logit_scale < np.inf):
        raise ParameterError("learning_rate and logit_scale must be positive "
                             "and finite")
    if cfg.optimizer not in OPTIMIZER_MODES:
        raise ParameterError(f"unknown optimizer {cfg.optimizer!r}")


@dataclass
class OptimizerState:
    """The optimizer of a training stage: its config checked the mode and the
    learning rate (check_stage_config), and SofConfig the momentum, the one
    TrainConfig leaves at its default.  The moment buffers (`m` for Adam
    only) and the scratch rows the step computes in (one for SGD-momentum,
    two for Adam) are made on the first step, shaped like the parameters,
    and reused by every later one."""

    mode: str
    learning_rate: float
    momentum: float = 0.9
    step_count: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    scratch: np.ndarray | None = field(default=None, repr=False)


def optimizer_step(state: OptimizerState, params: np.ndarray,
                   grad: np.ndarray) -> np.ndarray:
    """One in-place update of the parameter vector `params` (a FlatParams
    `flat`) by its gradient; increments step_count by 1.  Checks only the
    gradient's shape, before the parameters move.

    Every temporary is a row of state.scratch, so a step after the first
    allocates no parameter-sized array.  The operations, and their order, are
    those of the textbook expressions in the comments, so the results equal
    theirs bit for bit (tests/test_linalg.py)."""
    if grad.shape != params.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match "
                         f"parameters {params.shape}")
    state.step_count += 1
    lr = state.learning_rate
    adam = state.mode == "adam"
    if state.v is None:
        state.v = np.zeros_like(params)
        state.m = np.zeros_like(params) if adam else None
        state.scratch = np.empty((1 + adam, *params.shape))
    v, a = state.v, state.scratch[0]
    if not adam:
        # v = momentum * v - lr * g; params += v
        v *= state.momentum
        v -= np.multiply(lr, grad, out=a)
        params += v
        return params
    m, b = state.m, state.scratch[1]
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    t = state.step_count
    # m = b1 * m + (1 - b1) * g; v = b2 * v + ((1 - b2) * g) * g
    m *= b1
    m += np.multiply(1.0 - b1, grad, out=a)
    v *= b2
    np.multiply(1.0 - b2, grad, out=a)
    v += np.multiply(a, grad, out=a)
    # params -= (lr * (m / (1 - b1**t))) / (sqrt(v / (1 - b2**t)) + eps)
    np.divide(m, 1.0 - b1**t, out=a)
    a *= lr
    np.divide(v, 1.0 - b2**t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    params -= np.divide(a, b, out=a)
    return params


@np.errstate(over="ignore", invalid="ignore")  # divergence: the loss check reports it
def fit(opt: OptimizerState, params: np.ndarray, epochs: int, epoch_steps,
        stage: str) -> list[float]:
    """Both stages' epoch loop: one optimizer_step on `params` per (loss, gradient
    at the current weights) that `epoch_steps()` yields; returns epoch mean losses."""
    trace: list[float] = []
    for epoch in range(epochs):
        losses = []
        for loss, grad in epoch_steps():
            if not math.isfinite(loss):  # a scalar: no numpy call per step
                raise TrainingError(f"{stage} loss diverged at epoch {epoch}")
            optimizer_step(opt, params, grad)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return trace
