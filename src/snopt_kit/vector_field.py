"""Parametric MLP vector field with analytic VJPs.

The field is a plain fully-connected stack: ``h^k = W_k z^k + b_k`` and
``z^{k+1} = act_k(h^k)``, optionally with the scalar time appended to the
input.  Parameters live in one flat vector; the per-layer segment is the
column-major ``vec`` of ``[W_k, b_k]``, so the parameter gradient of layer
``k`` seeded with a cotangent ``q`` is exactly ``zbar^k ⊗ g^k`` where
``zbar`` is the activation with a homogeneous 1 appended and
``g^k = (dF/dh^k)^T q``.  That identity is what the Kronecker factorization
downstream rests on, so it is asserted in the tests rather than assumed.

States are ``(batch, m)`` everywhere, and cotangents may carry an extra
leading group axis on top of the batch.  Backward-solve hot loops unpack
the flat parameters once via :func:`unpack_params` and call the
underscored variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

ACTIVATIONS = ("tanh", "relu", "softplus", "identity")

Weights = tuple[tuple[np.ndarray, np.ndarray | None], ...]


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths, per-layer activations, and time handling.

    ``dims[0]`` is the network input width: the state dimension plus one
    when ``time_input == "concat"``.  ``dims[-1]`` must equal the state
    dimension, since the field maps states to state derivatives.
    """

    dims: tuple[int, ...]
    activations: tuple[str, ...]
    time_input: str = "none"
    bias: bool = True

    def __post_init__(self):
        if len(self.dims) < 2:
            raise ValueError("need at least one layer")
        if len(self.activations) != len(self.dims) - 1:
            raise ValueError("one activation per layer required")
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        if self.time_input not in ("none", "concat"):
            raise ValueError(f"unknown time_input {self.time_input!r}")
        expected_in = self.dims[-1] + (1 if self.time_input == "concat" else 0)
        if self.dims[0] != expected_in:
            raise ValueError(
                f"input width {self.dims[0]} does not match state dim "
                f"{self.dims[-1]} with time_input={self.time_input!r}"
            )

    @property
    def state_dim(self) -> int:
        return self.dims[-1]

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1


@lru_cache(maxsize=None)
def layer_slices(spec: MlpSpec) -> tuple[tuple[slice, int, int], ...]:
    """Per-layer ``(slice, out_dim, in_dim)`` into the flat parameter vector.

    The slices partition ``[0, num_params)`` exactly.
    """
    out = []
    offset = 0
    for k in range(spec.n_layers):
        p, l = spec.dims[k], spec.dims[k + 1]
        size = l * p + (l if spec.bias else 0)
        out.append((slice(offset, offset + size), l, p))
        offset += size
    return tuple(out)


def num_params(spec: MlpSpec) -> int:
    sl, _, _ = layer_slices(spec)[-1]
    return sl.stop


def init_params(spec: MlpSpec, seed: int) -> np.ndarray:
    """Uniform ±sqrt(6/(fan_in+fan_out)) weights, zero biases, Philox-seeded."""
    rng = np.random.Generator(np.random.Philox(seed))
    theta = np.zeros(num_params(spec))
    for sl, l, p in layer_slices(spec):
        bound = np.sqrt(6.0 / (p + l))
        w = rng.uniform(-bound, bound, size=(l, p))
        theta[sl.start:sl.start + l * p] = w.reshape(-1, order="F")
    return theta


def unpack_params(spec: MlpSpec, theta: np.ndarray) -> Weights:
    """Per-layer ``(W, b)`` views; unpack once per backward solve."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (num_params(spec),):
        raise DimensionMismatch(
            f"parameter vector has shape {theta.shape}, expected ({num_params(spec)},)")
    out = []
    for sl, l, p in layer_slices(spec):
        w = theta[sl.start:sl.start + l * p].reshape(l, p, order="F")
        b = theta[sl.start + l * p:sl.stop] if spec.bias else None
        out.append((w, b))
    return tuple(out)


def _act(name: str, h: np.ndarray) -> np.ndarray:
    """``act(h)``, written over ``h``: a trace keeps no pre-activation."""
    if name == "tanh":
        return np.tanh(h, out=h)
    if name == "relu":
        return np.maximum(h, 0.0, out=h)
    if name == "softplus":
        # split at h > 30 to avoid exp overflow; above it softplus(h) is h
        np.copyto(h, np.log1p(np.exp(np.minimum(h, 30.0))), where=h <= 30.0)
    return h


def _act_deriv(name: str, z_next: np.ndarray) -> np.ndarray:
    """``act'(h)`` read off the layer output ``z_next = act(h)``."""
    if name == "tanh":
        return 1.0 - z_next ** 2
    if name == "relu":
        # z > 0 exactly where h > 0, so the subgradient at 0 is 0
        return (z_next > 0.0).astype(float)
    if name == "softplus":
        # sigmoid(h) = 1 - exp(-softplus(h))
        return -np.expm1(-z_next)
    return np.ones_like(z_next)


def _pullback(name: str, r: np.ndarray, z_next: np.ndarray) -> np.ndarray:
    """The cotangent ``r`` of a layer output pulled back through its
    activation; an identity layer hands ``r`` back with no multiply."""
    if name == "identity":
        return r
    return r * _act_deriv(name, z_next)


@dataclass
class LayerTrace:
    """The layer outputs at one evaluation point, and nothing else.

    ``zs[k]`` is the input to layer ``k`` (``zs[0]`` includes the time
    column when concatenated) and ``zs[-1]`` the field value.  No
    pre-activation is kept: the reverse pass reads every activation
    derivative off the layer's output (:func:`_act_deriv`).  Replaying the
    affine/activation chain from any ``zs[k]`` reproduces the suffix
    bit-exactly.
    """

    zs: list[np.ndarray]
    _zbars: list[np.ndarray] | None = None


def check_states(spec: MlpSpec, x: np.ndarray) -> np.ndarray:
    """``x`` as a float ``(batch, m)`` array of states; anything else is rejected."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != spec.state_dim:
        raise DimensionMismatch(f"states must be (batch, {spec.state_dim}), got shape {x.shape}")
    return x


def one_sample(x: np.ndarray, what: str) -> np.ndarray:
    """The row of a ``(1, m)`` batch of one, which the dense references take."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != 1:
        raise DimensionMismatch(f"{what} must be a batch of one, got shape {x.shape}")
    return x[0]


def _forward(spec: MlpSpec, weights: Weights, t: float, x: np.ndarray) -> LayerTrace:
    if spec.time_input == "concat":
        z = np.concatenate([x, np.full((x.shape[0], 1), float(t))], axis=1)
    else:
        z = x
    zs = [z]
    for k, (w, b) in enumerate(weights):
        h = z @ w.T
        if b is not None:
            h += b
        z = _act(spec.activations[k], h)
        zs.append(z)
    return LayerTrace(zs=zs)


def eval(spec: MlpSpec, theta: np.ndarray, t: float, x: np.ndarray) -> tuple[np.ndarray, LayerTrace]:
    """Evaluate the field at ``(batch, m)`` states: the value and the full layer trace."""
    trace = _forward(spec, unpack_params(spec, theta), t, check_states(spec, x))
    return trace.zs[-1], trace


def _cotangents(spec: MlpSpec, weights: Weights, trace: LayerTrace,
                q: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Reverse traversal: per-layer ``g^k = (dF/dh^k)^T q`` plus input grad.

    ``q`` may carry leading axes broadcastable against the trace batch;
    one traversal serves both the state and parameter VJPs.  Activation
    derivatives are read off the trace's layer outputs, and an identity
    layer's ``g^k`` is its incoming cotangent itself (for the output
    layer, ``q`` as given).
    """
    r = np.asarray(q, dtype=float)
    gs: list[np.ndarray] = [None] * spec.n_layers  # type: ignore[list-item]
    for k in reversed(range(spec.n_layers)):
        g = _pullback(spec.activations[k], r, trace.zs[k + 1])
        gs[k] = g
        r = g @ weights[k][0]
    return gs, r


def _zbar(spec: MlpSpec, z: np.ndarray) -> np.ndarray:
    if not spec.bias:
        return z
    return np.concatenate([z, np.ones(z.shape[:-1] + (1,))], axis=-1)


def trace_zbars(spec: MlpSpec, trace: LayerTrace) -> list[np.ndarray]:
    """Per-layer homogeneous activations, computed once per trace."""
    if trace._zbars is None:
        trace._zbars = [_zbar(spec, trace.zs[k]) for k in range(spec.n_layers)]
    return trace._zbars


def _param_grad_from_cotangents(spec: MlpSpec, trace: LayerTrace,
                                gs: list[np.ndarray]) -> np.ndarray:
    """Batch-mean flat parameter gradient from per-layer cotangents.

    ``gs[k]`` is (batch, l), or (groups, batch, l) from a traversal seeded
    with a stack of cotangent groups; the result then holds one flat
    gradient row per group.
    """
    zbars = trace_zbars(spec, trace)
    lead = gs[0].shape[:-2]
    batch = max(zbars[0].shape[0], gs[0].shape[-2])
    flat = np.empty(lead + (num_params(spec),))
    for (sl, _, _), zb, g in zip(layer_slices(spec), zbars, gs):
        if zb.shape[0] != batch:
            zb = np.broadcast_to(zb, (batch, zb.shape[-1]))
        if g.shape[-2] != batch:
            g = np.broadcast_to(g, lead + (batch, g.shape[-1]))
        # (zb^T g).ravel() per group is the column-major vec of the (l, pbar) gradient
        flat[..., sl] = (zb.T @ g).reshape(lead + (-1,))
    flat /= batch
    return flat


def jacobians(spec: MlpSpec, theta: np.ndarray, t: float,
              x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field value plus dense Jacobians ``dF/dx`` and ``dF/dtheta``.

    At one state vector ``(m,)``, the flat ODE state of the dense
    curvature sweep; the identity matrix is pushed through the reverse
    traversal in one shot.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("jacobians expects a single state vector")
    weights = unpack_params(spec, theta)
    trace = _forward(spec, weights, t, x[None, :])
    m = spec.state_dim
    fu = np.empty((m, num_params(spec)))
    r = np.eye(m)
    for k in reversed(range(spec.n_layers)):
        g = _pullback(spec.activations[k], r, trace.zs[k + 1])  # (m, l)
        zb = _zbar(spec, trace.zs[k])[0]  # (pbar,)
        sl, _, _ = layer_slices(spec)[k]
        # row j of the segment is vec_F(g_j zbar^T) = zbar ⊗ g_j
        fu[:, sl] = (g[:, None, :] * zb[None, :, None]).reshape(m, -1)
        r = g @ weights[k][0]
    fx = r[:, :m] if spec.time_input == "concat" else r
    return trace.zs[-1][0], fx, fu
