"""Per-view affine encoders with classifier heads and hand-derived gradients.

An encoder maps the flattened feature map through one affine layer (optional
tanh) to a ``dim``-dimensional embedding, plus a linear classifier head over
the training identities. Training and retrieval embed whole images as
stacks: one product maps an (n, input_dim) stack of flattened maps
(``whole_embed``; ``embed_records`` stacks a record list), and its backward
takes the forward's output rather than recomputing it. Region descriptors
(``rmac``) use the same parameters; a checkpoint is an ``.npz`` (see
``save_params``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataspace import ImageRecord, read_arrays, write_arrays

ENC_FORMAT = "plcd-enc v2"
PARAM_NAMES = ("weight", "bias", "classifier_weight", "classifier_bias")

ROLE_GROUND = "ground"
ROLE_DRONE = "drone"
ROLE_SHARED = "satdrone"


@dataclass
class EncoderParams:
    role: str
    weight: np.ndarray            # (dim, input_dim)
    bias: np.ndarray              # (dim,)
    classifier_weight: np.ndarray  # (classes, dim)
    classifier_bias: np.ndarray    # (classes,)
    tanh: bool

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    @property
    def input_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def classes(self) -> int:
        return self.classifier_weight.shape[0]

    def copy(self) -> "EncoderParams":
        return replace(self, **{name: getattr(self, name).copy() for name in PARAM_NAMES})


# Keeps typical squared distances between fresh embeddings O(1); larger
# scales saturate the exp(-distance) softmax and stall training.
INIT_SCALE = 0.25


def init_params(role: str, dim: int, input_dim: int, classes: int,
                rng: np.random.Generator, tanh: bool) -> EncoderParams:
    return EncoderParams(
        role=role,
        weight=rng.standard_normal((dim, input_dim)) * INIT_SCALE / np.sqrt(input_dim),
        bias=np.zeros(dim),
        classifier_weight=rng.standard_normal((classes, dim)) / np.sqrt(dim),
        classifier_bias=np.zeros(classes),
        tanh=tanh,
    )


# ---------------------------------------------------------------------------
# forward paths
# ---------------------------------------------------------------------------

def whole_embed(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Whole-image embeddings (n, dim) of an (n, input_dim) stack of
    flattened feature maps, in one product; ``whole_backward`` is its
    backward pass."""
    if x.shape[1] != params.input_dim:
        raise ValueError(f"input of size {x.shape[1]} does not match encoder input_dim "
                         f"{params.input_dim} (role {params.role})")
    pre = x @ params.weight.T + params.bias
    return np.tanh(pre) if params.tanh else pre


def embed_records(params: EncoderParams, records: list[ImageRecord]) -> np.ndarray:
    """``whole_embed`` of a non-empty record list's flattened maps, in order."""
    return whole_embed(params, np.stack([r.featmap.ravel() for r in records]))


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm over the last axis; rows with norm below
    1e-12 stay as they are."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.where(norms < 1e-12, 1.0, norms)


def logits_from_embedding(params: EncoderParams, emb: np.ndarray) -> np.ndarray:
    """(n, classes) classifier logits of an (n, dim) embedding stack."""
    return emb @ params.classifier_weight.T + params.classifier_bias


# ---------------------------------------------------------------------------
# backward paths
# ---------------------------------------------------------------------------

@dataclass
class EncoderGrads:
    """Accumulates parameter gradients across a batch."""

    weight: np.ndarray
    bias: np.ndarray
    classifier_weight: np.ndarray
    classifier_bias: np.ndarray

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


def new_grads(params: EncoderParams) -> EncoderGrads:
    return EncoderGrads(**{name: np.zeros_like(getattr(params, name)) for name in PARAM_NAMES})


def whole_backward(params: EncoderParams, x: np.ndarray, emb: np.ndarray,
                   g_emb: np.ndarray, grads: EncoderGrads, normalized: bool = False) -> None:
    """Add the gradients of a stack's whole-image embeddings
    ``emb = whole_embed(params, x)``, given as ``g_emb`` (n, dim), into
    ``grads.weight`` and ``grads.bias``.

    With ``normalized`` the incoming gradient is taken wrt the L2-normalized
    rows and chained through the normalization; a near-zero row, which
    ``unit_rows`` leaves as it is, passes its gradient through unchanged.
    """
    if normalized:
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        live = norms > 1e-12
        norms = np.where(live, norms, 1.0)
        unit = emb / norms
        chained = (g_emb - np.sum(g_emb * unit, axis=1, keepdims=True) * unit) / norms
        g_emb = np.where(live, chained, g_emb)
    if params.tanh:
        g_emb = g_emb * (1.0 - emb ** 2)
    grads.weight += g_emb.T @ x
    grads.bias += g_emb.sum(axis=0)


def classifier_backward(params: EncoderParams, emb: np.ndarray, g_logits: np.ndarray,
                        grads: EncoderGrads) -> np.ndarray:
    """Add the head gradients of a stack of embeddings (n, dim) with logit
    gradients (n, classes); returns the gradients wrt the embeddings."""
    grads.classifier_weight += g_logits.T @ emb
    grads.classifier_bias += g_logits.sum(axis=0)
    return g_logits @ params.classifier_weight


def scale_grads(grads: EncoderGrads, factor: float) -> None:
    for g in grads.arrays().values():
        g *= factor


# ---------------------------------------------------------------------------
# SGD with momentum
# ---------------------------------------------------------------------------

@dataclass
class SgdState:
    """Classic momentum: v <- mu * v - lr * g; p <- p + v.

    The classifier head trains at ``lr_head``, the affine body at
    ``lr_body``; both rates stay constant for the whole run.
    """

    lr_head: float
    lr_body: float
    momentum: float = 0.9
    velocity: dict[str, np.ndarray] = field(default_factory=dict)

    def rate(self, name: str) -> float:
        return self.lr_head if name.startswith("classifier") else self.lr_body


def new_sgd_state(params: EncoderParams, lr_head: float, lr_body: float,
                  momentum: float = 0.9) -> SgdState:
    if not 0 <= momentum < 1:
        raise ValueError(f"momentum must be in [0, 1) (got {momentum})")
    return SgdState(lr_head=lr_head, lr_body=lr_body, momentum=momentum,
                    velocity=new_grads(params).arrays())


def sgd_step(params: EncoderParams, grads: EncoderGrads, state: SgdState) -> None:
    """One in-place momentum update (the gradients are scaled in place);
    rejects non-finite gradients before any array changes."""
    arrays = grads.arrays()
    for name, g in arrays.items():
        # min and max carry any NaN or infinity, with no boolean temporary
        if not (np.isfinite(g.min()) and np.isfinite(g.max())):
            raise ValueError(
                f"non-finite gradient in '{name}' of encoder role {params.role}; step rejected"
            )
    for name, g in arrays.items():
        v = state.velocity[name]
        v *= state.momentum
        g *= state.rate(name)
        v -= g
        getattr(params, name)[...] += v


# ---------------------------------------------------------------------------
# checkpoint serialization: an .npz of the four arrays, ``role`` and a
# ``format`` tag, written and checked by ``dataspace.write_arrays`` and
# ``read_arrays``
# ---------------------------------------------------------------------------

def save_params(path, params: EncoderParams) -> None:
    write_arrays(path, {"format": np.array(ENC_FORMAT), "role": np.array(params.role),
                        **{name: getattr(params, name) for name in PARAM_NAMES}})


def load_params(path, tanh: bool) -> EncoderParams:
    arrays = read_arrays(path, ENC_FORMAT, {"role": ("U", 0), "weight": ("f", 2),
                                            "bias": ("f", 1), "classifier_weight": ("f", 2),
                                            "classifier_bias": ("f", 1)})
    role = str(arrays.pop("role"))
    (dim, _), classes = arrays["weight"].shape, len(arrays["classifier_weight"])
    for name, shape in zip(PARAM_NAMES[1:], ((dim,), (classes, dim), (classes,))):
        if arrays[name].shape != shape:
            raise ValueError(f"{path}: {name} has shape {arrays[name].shape}, needs {shape}")
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: non-finite value in {name}")
    return EncoderParams(role=role, tanh=tanh, **arrays)
