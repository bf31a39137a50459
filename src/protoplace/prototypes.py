"""Episodic training of the semantic-to-visual prototype mapping.

Each step samples an episode of seen classes, hallucinates placeholder
classes from it (mode permitting), and takes one optimizer step on a cosine
cross-entropy over projected prototypes.  Unseen classes and test indices
are never touched during training.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import AttributeTable, Episode, SplitDataset, load_matrix, sample_episode, \
    save_matrix
from .errors import FormatError, ParameterError, TrainingError, UsageError, \
    ValidationError
from .hallucinate import HalluConfig, HallucinatedEpisode, hallucinate
from .linalg import ACTIVATIONS, MappingNet, OptimizerState, cosine_cross_entropy, \
    net_backward, net_forward, optimizer_step
from .rng import DEFAULT_SEED, RngStream

# What an episode does in each training mode: whether it hallucinates
# placeholder classes, and the Beta forced on them (None: drawn from
# Beta(alpha1, alpha2)).  `full` trains as `ep_ei` does, on features refined by
# stage one.
_PLACEHOLDERS = {
    "s2v_baseline": (False, None),
    "ep_only": (True, 0.0),
    "ep_ei": (True, None),
    "full": (True, None),
}


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
        if self.epochs < 0:
            raise ParameterError("epochs must be nonnegative")
        if self.m_classes < 1 or self.n_samples < 1:
            raise ParameterError("episode sizes must be positive")
        if self.learning_rate <= 0 or self.logit_scale <= 0:
            raise ParameterError("learning_rate and logit_scale must be positive")
        if self.lambda_real < 0:
            raise ParameterError("lambda_real must be nonnegative")
        if self.mode not in _PLACEHOLDERS:
            raise ParameterError(f"unknown training mode {self.mode!r}")


@dataclass
class PrototypeModel:
    net: MappingNet
    config: TrainConfig
    loss_trace: list[float] = field(default_factory=list)


def _proto_loss(
    net: MappingNet, semantic: np.ndarray, visual: np.ndarray,
    local_labels: np.ndarray, logit_scale: float
) -> tuple[float, dict[str, np.ndarray]]:
    prototypes, cache = net_forward(net, semantic)
    loss, _, g_proto = cosine_cross_entropy(visual, prototypes, local_labels,
                                            logit_scale)
    grads, _ = net_backward(net, cache, g_proto)
    return loss, grads


def place_loss(
    model: PrototypeModel, hep: HallucinatedEpisode, logit_scale: float
) -> tuple[float, dict[str, np.ndarray]]:
    """Classification of hallucinated samples against hallucinated prototypes."""
    m = hep.semantic.shape[0]
    n = hep.visual.shape[0] // m
    local = np.repeat(np.arange(m, dtype=np.int64), n)
    return _proto_loss(model.net, hep.semantic, hep.visual, local, logit_scale)


def real_loss(
    model: PrototypeModel, ep: Episode, logit_scale: float
) -> tuple[float, dict[str, np.ndarray]]:
    """Classification of the episode's real samples against real prototypes."""
    return _proto_loss(model.net, ep.semantic, ep.visual, ep.local_labels,
                       logit_scale)


def train_prototypes(ds: SplitDataset, cfg: TrainConfig) -> PrototypeModel:
    if cfg.mode == "full" and not ds.refined:
        raise UsageError("mode 'full' expects a dataset refined by stage one")
    rng = RngStream(cfg.seed)
    net = MappingNet.init(ds.attr_dim, ds.feat_dim, cfg.hidden_dim,
                          rng.derive("init"))
    model = PrototypeModel(net=net, config=cfg)
    if cfg.epochs == 0:
        return model

    rng_ep = rng.derive("episodes")
    rng_hal = rng.derive("hallucination")
    m, n = cfg.m_classes, cfg.n_samples
    per_epoch = cfg.episodes_per_epoch
    if per_epoch is None:
        per_epoch = max(1, int(np.ceil(ds.train_idx.size / (m * n))))
    opt = OptimizerState(mode=cfg.optimizer, learning_rate=cfg.learning_rate)
    placeholders, force = _PLACEHOLDERS[cfg.mode]

    for epoch in range(cfg.epochs):
        epoch_losses = []
        for _ in range(per_epoch):
            ep = sample_episode(ds, m, n, rng_ep)
            if not placeholders:
                total, grads = real_loss(model, ep, cfg.logit_scale)
            else:
                hep = hallucinate(ep, cfg.hallucination, rng_hal, force_beta=force)
                p_loss, p_grads = place_loss(model, hep, cfg.logit_scale)
                total, grads = p_loss, p_grads
                if cfg.lambda_real > 0:
                    r_loss, r_grads = real_loss(model, ep, cfg.logit_scale)
                    total = total + cfg.lambda_real * r_loss
                    grads = {k: p_grads[k] + cfg.lambda_real * r_grads[k]
                             for k in p_grads}
            if not np.isfinite(total):
                raise TrainingError(f"prototype loss diverged at epoch {epoch}")
            optimizer_step(opt, net.params(), grads)
            epoch_losses.append(total)
        model.loss_trace.append(float(np.mean(epoch_losses)))
    return model


def project_prototypes(
    model: PrototypeModel, attributes: AttributeTable, class_ids
) -> np.ndarray:
    """Visual-space prototype for each requested class id (row-aligned)."""
    ids = np.asarray(class_ids, dtype=np.int64).ravel()
    if ids.size == 0:
        raise ParameterError("class_ids must be nonempty")
    if ids.min() < 0 or ids.max() >= attributes.num_classes:
        bad = ids[(ids < 0) | (ids >= attributes.num_classes)][0]
        raise ValidationError(f"unknown class id {bad}")
    out, _ = net_forward(model.net, attributes.rows(ids))
    return out


# ---------------------------------------------------------------------------
# persistence

FORMAT_VERSION = 1
# model.json keys besides the TrainConfig fields, and the optional ones that
# the CLI's `train` adds through `meta`.
FORMAT_KEYS = ("format_version", "activation", "loss_trace")
META_KEYS = ("cli_mode", "used_sof")


def _require_fields(values, cls, where: str = "") -> None:
    if not isinstance(values, dict):
        raise FormatError(f"'{where}' must be an object")
    prefix = f"{where}." if where else ""
    names = {f.name for f in fields(cls)}
    for what, keys in (("unknown", values.keys() - names),
                       ("missing", names - values.keys())):
        if keys:
            raise FormatError(f"{what} key '{prefix}{min(keys)}'")


def train_config_from(values: dict) -> TrainConfig:
    """The TrainConfig whose fields are exactly the keys of `values`, with
    `hallucination` a dict of exactly the HalluConfig fields.  Config sections
    and model.json are both read through it.  A missing or unknown key raises
    FormatError; a value out of range, ParameterError."""
    _require_fields(values, TrainConfig)
    _require_fields(values["hallucination"], HalluConfig, "hallucination")
    return TrainConfig(**{**values,
                          "hallucination": HalluConfig(**values["hallucination"])})


def save_model(model: PrototypeModel, out_dir, meta: dict | None = None) -> None:
    """Weights as binary matrices, and model.json: the format version, the
    activation, the loss trace, every TrainConfig field and `meta`."""
    meta = meta or {}
    if not meta.keys() <= set(META_KEYS):
        raise ParameterError(f"model.json meta keys must be among {META_KEYS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    net = model.net
    save_matrix(out_dir / "net_w1.bin", net.w1)
    save_matrix(out_dir / "net_b1.bin", net.b1[None, :])
    save_matrix(out_dir / "net_w2.bin", net.w2)
    save_matrix(out_dir / "net_b2.bin", net.b2[None, :])
    manifest = {"format_version": FORMAT_VERSION, "activation": net.activation,
                "loss_trace": model.loss_trace, **asdict(model.config), **meta}
    (out_dir / "model.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def load_model(in_dir) -> tuple[PrototypeModel, dict]:
    """The model save_model wrote, and its model.json.  Net shapes come from
    the weight files.  A model.json that is not JSON, has a format_version
    other than FORMAT_VERSION, or misses or adds a key raises FormatError."""
    in_dir = Path(in_dir)
    path = in_dir / "model.json"
    try:
        manifest = json.loads(path.read_text())
        if not isinstance(manifest, dict) or \
                manifest.get("format_version") != FORMAT_VERSION:
            raise FormatError(f"format_version must be {FORMAT_VERSION}")
        missing = [k for k in FORMAT_KEYS if k not in manifest]
        if missing:
            raise FormatError(f"missing key '{missing[0]}'")
        cfg = train_config_from({k: v for k, v in manifest.items()
                                 if k not in FORMAT_KEYS + META_KEYS})
        if manifest["activation"] not in ACTIVATIONS:
            raise FormatError(f"unknown activation {manifest['activation']!r}")
        loss_trace = [float(x) for x in manifest["loss_trace"]]
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    net = MappingNet(
        w1=load_matrix(in_dir / "net_w1.bin"),
        b1=load_matrix(in_dir / "net_b1.bin").ravel(),
        w2=load_matrix(in_dir / "net_w2.bin"),
        b2=load_matrix(in_dir / "net_b2.bin").ravel(),
        activation=manifest["activation"],
    )
    return PrototypeModel(net=net, config=cfg, loss_trace=loss_trace), manifest
