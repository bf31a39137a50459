"""Episodic training of the semantic-to-visual prototype mapping.

Each step samples an episode of seen classes, hallucinates placeholder
classes from it (mode permitting), and takes one optimizer step on a cosine
cross-entropy over projected prototypes.  Unseen classes are never touched
during training, and stage two's dataset behind stage one holds no test row
(refine.train_rows).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import AttributeTable, SplitDataset, class_major_labels, load_params, \
    read_json, require_keys, sample_episode, save_params, write_json
from .errors import FormatError, ParameterError, require_ints, require_real, \
    require_trace
from .hallucinate import HalluConfig, hallucinate
from .linalg import MappingNet, OptimizerState, check_stage_config, \
    cosine_cross_entropy, fit, net_backward, net_forward, require_finite, \
    target_indices, unit_rows
from .rng import DEFAULT_SEED, RngStream

# What an episode does in each training mode: whether it hallucinates
# placeholder classes, and the Beta forced on them (None: drawn from
# Beta(alpha1, alpha2)).  `full` trains as `ep_ei` does, on features refined by
# stage one.
PLACEHOLDERS = {
    "s2v_baseline": (False, None),
    "ep_only": (True, 0.0),
    "ep_ei": (True, None),
    "full": (True, None),
}

# Every pipeline: its `--mode` name and its ablation-ladder row name (None
# where it has none), its training mode, and whether stage one (SOF) refines
# the features first.  The ladder's rows keep this order.  model.json records
# the `--mode` name and whether stage one ran, and load_model holds both to
# this table.
PIPELINES = (
    ("s2v", "s2v", "s2v_baseline", False),
    ("ep", None, "ep_only", False),
    ("ep-ei", "s2v+ep_ei", "ep_ei", False),
    (None, "s2v+sof", "s2v_baseline", True),
    (None, "s2v+sof+ep", "ep_only", True),
    ("full", "s2v+sof+ep_ei", "full", True),
)
MODES = {name: (mode, sof) for name, _, mode, sof in PIPELINES if name}

# Episodes sampled and hallucinated per call (data.Stackable): none of it
# depends on the weights, so a block runs as one numpy call per step.  A
# fixed size bounds the memory whatever episodes_per_epoch is.  On the
# train-full benchmark, whole-epoch blocks of 50 episodes raised peak RSS by
# 12.5%, past its 10% bound, and blocks of 8 by 0.3%.
EPISODE_BLOCK = 8


@dataclass
class TrainConfig:
    epochs: int = 30
    episodes_per_epoch: int | None = None  # default: ceil(|train| / (M*N))
    m_classes: int = 20
    n_samples: int = 4
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    logit_scale: float = 5.0
    lambda_real: float = 0.25
    hallucination: HalluConfig = field(default_factory=HalluConfig)
    mode: str = "full"
    hidden_dim: int | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        check_stage_config(self)
        require_ints(self, "episodes_per_epoch", "m_classes", "n_samples", "hidden_dim")
        require_real("lambda_real", self.lambda_real)
        if self.episodes_per_epoch is not None and self.episodes_per_epoch < 1:
            raise ParameterError("episodes_per_epoch must be at least 1")
        if self.m_classes < 1 or self.n_samples < 1:
            raise ParameterError("episode sizes must be positive")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ParameterError("hidden_dim must be at least 1")
        if not 0 <= self.lambda_real < np.inf:
            raise ParameterError("lambda_real must be nonnegative and finite")
        if self.mode not in PLACEHOLDERS:
            raise ParameterError(f"unknown training mode {self.mode!r}")
        n, m = self.hallucination.n_neighbors, self.m_classes
        if PLACEHOLDERS[self.mode][0] and n > m - 1:
            raise ParameterError(f"n_neighbors = {n} exceeds an episode's {m - 1} "
                                 f"other classes (m_classes = {m})")


@dataclass
class PrototypeModel:
    net: MappingNet
    config: TrainConfig
    loss_trace: list[float] = field(default_factory=list)


def stacked_loss(
    net: MappingNet, semantic: np.ndarray, queries: tuple[np.ndarray, np.ndarray],
    at: np.ndarray, logit_scale: float,
    out: tuple[np.ndarray, dict[str, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """The losses (S,) and flat gradients (S, net.flat.size) of S stacked
    classification passes through one net: the samples of each pass, given
    as their unit rows `queries` (S, M*N, C), against the prototypes the net
    projects from the pass's class semantics (S, M, D).  `at` (S, M*N) are
    the target_indices of the samples' local labels.  Each pass's loss and
    gradient equal those of the pass run alone, bit for bit.  The gradients
    are written into `out`'s buffer (see net_backward)."""
    prototypes, cache = net_forward(net, semantic)
    losses, g_proto = cosine_cross_entropy(queries, unit_rows(prototypes), at,
                                           logit_scale, wrt="references")
    return losses, net_backward(net, cache, g_proto, out)


def train_prototypes(ds: SplitDataset, cfg: TrainConfig) -> PrototypeModel:
    """Each step is one stacked_loss call over the episode's placeholder and
    real passes, combined as loss p + lambda_real * r and gradient
    gp + lambda_real * gr, then one optimizer step on the flat parameters.
    A mode without placeholders, or lambda_real = 0, stacks one pass.  Every
    step writes its gradients into one buffer, made once per run with its
    parameter views."""
    rng = RngStream(cfg.seed)
    net = MappingNet.init(ds.attr_dim, ds.feat_dim, cfg.hidden_dim,
                          rng.derive("init"))

    rng_ep = rng.derive("episodes")
    rng_hal = rng.derive("hallucination")
    m, n = cfg.m_classes, cfg.n_samples
    per_epoch = cfg.episodes_per_epoch
    if per_epoch is None:
        per_epoch = max(1, int(np.ceil(ds.train_idx.size / (m * n))))
    opt = OptimizerState(mode=cfg.optimizer, learning_rate=cfg.learning_rate)
    placeholders, force = PLACEHOLDERS[cfg.mode]
    lam = cfg.lambda_real
    real_pass = not placeholders or lam > 0
    depth = placeholders + real_pass
    # every pass labels its samples class-major, as sample_episode does
    at = target_indices(np.broadcast_to(class_major_labels(m, n), (depth, m * n)), m)
    grad_buf = np.empty((depth, net.flat.size))
    grad_out = grad_buf, net.views(grad_buf)

    def epoch_steps():
        for done in range(0, per_epoch, EPISODE_BLOCK):
            size = min(EPISODE_BLOCK, per_epoch - done)
            block = sample_episode(ds, m, n, rng_ep, episodes=size)
            # the block's passes stacked on axis 1, placeholder first
            passes = [block] if real_pass else []
            if placeholders:
                passes.insert(0, hallucinate(block, cfg.hallucination, rng_hal,
                                             force_beta=force))
            semantic = np.stack([p.semantic for p in passes], axis=1)
            qh, qn = unit_rows(np.stack([p.visual for p in passes], axis=1))
            for i in range(size):
                losses, grads = stacked_loss(net, semantic[i], (qh[i], qn[i]), at,
                                             cfg.logit_scale, out=grad_out)
                total = losses[0]
                if depth == 2:
                    total = total + lam * losses[1]
                    grads[1] *= lam
                    grads[0] += grads[1]
                yield total, grads[0]
    return PrototypeModel(net=net, config=cfg, loss_trace=fit(
        opt, net.flat, cfg.epochs, epoch_steps, "prototype"))


def project_prototypes(
    model: PrototypeModel, attributes: AttributeTable, class_ids
) -> np.ndarray:
    """Visual-space prototype for each requested class id (row-aligned)."""
    out, _ = net_forward(model.net, attributes.rows(class_ids))
    return require_finite(out, "network output")


# ---------------------------------------------------------------------------
# persistence

FORMAT_VERSION = 1
# model.json records MappingNet's hidden activation, which is always ReLU.
ACTIVATION = "relu"
# model.json keys besides the TrainConfig fields.
FORMAT_KEYS = ("format_version", "activation", "loss_trace", "cli_mode", "used_sof")


def train_config_from(values: dict) -> TrainConfig:
    """The TrainConfig whose fields are exactly the keys of `values`, with
    `hallucination` a dict of exactly the HalluConfig fields.  Config sections
    and model.json are both read through it.  A missing or unknown key raises
    FormatError; a value out of range, ParameterError."""
    require_keys(values, [f.name for f in fields(TrainConfig)])
    require_keys(values["hallucination"], [f.name for f in fields(HalluConfig)],
                 "hallucination")
    return TrainConfig(**{**values,
                          "hallucination": HalluConfig(**values["hallucination"])})


def save_model(model: PrototypeModel, out_dir, cli_mode: str) -> None:
    """Weights as binary matrices, and model.json: the format version, the
    ACTIVATION, the loss trace, the pipeline `cli_mode` (a key of MODES),
    whether it runs stage one (`used_sof`) and every TrainConfig field."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_params(model.net, out_dir, "net")
    write_json(out_dir / "model.json", {
        "format_version": FORMAT_VERSION, "activation": ACTIVATION,
        "loss_trace": model.loss_trace, "cli_mode": cli_mode,
        "used_sof": MODES[cli_mode][1], **asdict(model.config)})


def load_model(in_dir) -> tuple[PrototypeModel, dict]:
    """The model save_model wrote, and its model.json.  Net shapes come from
    the weight files.  A model.json that is not JSON, repeats a key, has a
    format_version other than the integer FORMAT_VERSION or an activation
    other than ACTIVATION, misses or adds a key, records a cli_mode that
    names no pipeline of MODES, a mode or used_sof other than that
    pipeline's (used_sof by identity: 1 is not true) or a loss_trace that is
    not a list of real numbers raises FormatError."""
    in_dir = Path(in_dir)
    path = in_dir / "model.json"
    try:
        manifest = read_json(path)
        if not isinstance(manifest, dict) or \
                type(manifest.get("format_version")) is not int or \
                manifest["format_version"] != FORMAT_VERSION:
            raise FormatError(f"format_version must be {FORMAT_VERSION}")
        missing = [k for k in FORMAT_KEYS if k not in manifest]
        if missing:
            raise FormatError(f"missing key '{missing[0]}'")
        cfg = train_config_from({k: v for k, v in manifest.items()
                                 if k not in FORMAT_KEYS})
        if manifest["activation"] != ACTIVATION:
            raise FormatError(f"activation must be {ACTIVATION!r}")
        name = manifest["cli_mode"]
        pipeline = MODES.get(name) if isinstance(name, str) else None
        if pipeline is None or pipeline[0] != cfg.mode or \
                pipeline[1] is not manifest["used_sof"]:
            raise FormatError(f"cli_mode {name!r}, mode and used_sof name no "
                              f"pipeline of {', '.join(MODES)}")
        require_trace("loss_trace", manifest["loss_trace"])
        loss_trace = [float(x) for x in manifest["loss_trace"]]
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    net = load_params(MappingNet, in_dir, "net")
    return PrototypeModel(net=net, config=cfg, loss_trace=loss_trace), manifest
