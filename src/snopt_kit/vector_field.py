"""Parametric MLP vector field with analytic VJPs.

The field is a plain fully-connected stack in the homogeneous coordinate:
``h^k = Wbar_k zbar^k`` with ``Wbar_k = [W_k, b_k]`` and ``zbar^k = [z^k, 1]``,
then ``z^{k+1} = act_k(h^k)``, optionally with the scalar time appended to
the input.  Without biases ``Wbar_k = W_k`` and ``zbar^k = z^k``.  This
module owns that layout.  Parameters live in one flat vector whose
per-layer segment is the column-major ``vec`` of ``Wbar_k``, so the
parameter gradient of layer ``k`` seeded with a cotangent ``q`` is exactly
``zbar^k ⊗ g^k`` with ``g^k = (dF/dh^k)^T q``.  That identity is what the
Kronecker factorization downstream rests on, so it is asserted in the
tests rather than assumed.

States are ``(batch, m)`` everywhere, and a backward sweep's cotangents
stack its groups on a leading axis, ``(groups, batch, m)``.  Backward-solve
hot loops unpack the flat parameters once via :func:`unpack_params`,
allocate the layer inputs once via :func:`_trace_inputs` and call the
underscored variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

ACTIVATIONS = ("tanh", "identity")

Weights = tuple[np.ndarray, ...]


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths, per-layer activations, and time handling.

    This is the ``[model]`` config section, and its defaults are the
    section's: 2-16-16-2, tanh/tanh/identity, no time input, biases.
    ``dims[0]`` is the network input width: the state dimension plus one
    when ``time_input == "concat"``.  ``dims[-1]`` must equal the state
    dimension, since the field maps states to state derivatives.
    """

    dims: tuple[int, ...] = (2, 16, 16, 2)
    activations: tuple[str, ...] = ("tanh", "tanh", "identity")
    time_input: str = "none"
    bias: bool = True

    def __post_init__(self):
        # stored as tuples, so a spec built from lists still hashes as a cache key
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(self.dims) < 2:
            raise ValueError("need at least one layer")
        if min(self.dims) < 1:
            raise ValueError(f"layer widths must be at least 1, got {self.dims}")
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

    @property
    def zbar_widths(self) -> tuple[int, ...]:
        """Per-layer width of ``zbar^k``: the input width, plus the homogeneous 1
        when the layers have biases."""
        return tuple(p + self.bias for p in self.dims[:-1])


@lru_cache(maxsize=None)
def layer_slices(spec: MlpSpec) -> tuple[tuple[slice, int, int], ...]:
    """Per-layer ``(slice, out_dim, in_dim)`` into the flat parameter vector.

    The slices partition ``[0, num_params)`` exactly.
    """
    out = []
    offset = 0
    for p, pbar, l in zip(spec.dims, spec.zbar_widths, spec.dims[1:]):
        out.append((slice(offset, offset + l * pbar), l, p))
        offset += l * pbar
    return tuple(out)


def num_params(spec: MlpSpec) -> int:
    sl, _, _ = layer_slices(spec)[-1]
    return sl.stop


def init_params(spec: MlpSpec, seed: int) -> np.ndarray:
    """Uniform ±sqrt(6/(fan_in+fan_out)) weights, zero biases, Philox-seeded."""
    rng = np.random.Generator(np.random.Philox(seed))
    theta = np.zeros(num_params(spec))
    for w, (_, l, p) in zip(unpack_params(spec, theta), layer_slices(spec)):
        bound = np.sqrt(6.0 / (p + l))
        w[:, :p] = rng.uniform(-bound, bound, size=(l, p))
    return theta


def unpack_params(spec: MlpSpec, theta: np.ndarray) -> Weights:
    """Per-layer ``Wbar = [W, b]`` views, ``(l, p + 1)`` (``(l, p)`` without
    biases) and column-major; unpack once per solve."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (num_params(spec),):
        raise DimensionMismatch(
            f"parameter vector has shape {theta.shape}, expected ({num_params(spec)},)")
    return tuple(theta[sl].reshape(l, -1, order="F") for sl, l, _ in layer_slices(spec))


def _act(name: str, h: np.ndarray) -> np.ndarray:
    """``act(h)``, written over ``h``: a trace keeps no pre-activation."""
    return np.tanh(h, out=h) if name == "tanh" else h


def _act_deriv(z_next: np.ndarray) -> np.ndarray:
    """``tanh'(h) = 1 - z^2`` of a tanh layer, read off its output
    ``z_next = tanh(h)``, as one new row-major array computed in place.

    A trace's layer outputs are column-major and the cotangents they scale
    are row-major; a ufunc that mixes the two layouts buffers a copy of its
    operand, a plain copy does not.
    """
    d = np.array(z_next, order="C")
    return np.subtract(1.0, np.square(d, out=d), out=d)


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


def _homogeneous(spec: MlpSpec, batch: int, width: int) -> np.ndarray:
    """A column-major ``(batch, width)`` layer input plus its bias's ones column."""
    z = np.empty((batch, width + spec.bias), order="F")
    z[:, width:] = 1.0
    return z


def _trace_inputs(spec: MlpSpec, batch: int) -> list[np.ndarray]:
    """One :func:`_homogeneous` input per layer, for ``_forward(..., inputs=)``."""
    return [_homogeneous(spec, batch, width) for width in spec.dims[:-1]]


def _forward(spec: MlpSpec, weights: Weights, t: float, x: np.ndarray, *,
             value_only: bool = False, inputs: list[np.ndarray] | None = None,
             out: np.ndarray | None = None) -> list[np.ndarray]:
    """The layer trace ``zs`` at ``(t, x)``; with ``value_only``, ``[F]``, the value alone.

    ``zs[k]`` is ``zbar^k``, the homogeneous input to layer ``k``: a
    column-major ``(batch, zbar_widths[k])`` array whose last column is the
    bias's 1 (``zs[0]`` holds the time column before it when concatenated).
    ``zs[-1]`` is the field value, a plain ``(batch, m)`` array.  No
    pre-activation is kept: the reverse pass reads every activation
    derivative off the layer's output (:func:`_act_deriv`).  Replaying
    ``act(zs[k] @ Wbar_k.T)`` from any ``zs[k]`` reproduces the suffix
    bit-exactly.

    The value path drops each layer input once the next one is written, so
    it holds at most two consecutive layer inputs instead of the whole
    trace.  A caller that evaluates the field many times can pass the layer
    inputs of :func:`_trace_inputs` as ``inputs``, whose ones columns are
    already set, and a C-ordered ``(batch, m)`` array as ``out``: the trace
    is then written into them, ``zs[:-1]`` is ``inputs`` and ``zs[-1]`` is
    ``out``, and the next call with them overwrites this trace.
    """
    # each hidden output is written straight into the next layer's input; the
    # column-major slice it fills is contiguous, so matmul needs no temporary
    m, batch = spec.state_dim, x.shape[0]
    z = _homogeneous(spec, batch, spec.dims[0]) if inputs is None else inputs[0]
    z[:, :m] = x
    z[:, m:spec.dims[0]] = t
    zs = [z]
    for name, w in zip(spec.activations, weights[:-1]):
        l = w.shape[0]
        # without value_only, zs holds every input so far: len(zs) is this layer's index
        z = _homogeneous(spec, batch, l) if inputs is None else inputs[len(zs)]
        _act(name, np.matmul(zs[-1], w.T, out=z[:, :l]))
        if value_only:
            zs.pop()
        zs.append(z)
    zs.append(_act(spec.activations[-1], np.matmul(zs[-1], weights[-1].T, out=out)))
    if value_only:
        del zs[:-1]
    return zs


def eval(spec: MlpSpec, theta: np.ndarray, t: float, x: np.ndarray) -> np.ndarray:
    """The field's value at ``(batch, m)`` states, through the value path: no trace is kept."""
    return _forward(spec, unpack_params(spec, theta), t, check_states(spec, x),
                    value_only=True)[-1]


def value_field(spec: MlpSpec, theta: np.ndarray, shape: tuple[int, int]):
    """The field over flat states of ``shape``, ``(t, y) -> F(t, y).ravel()``,
    through the value path: the forward solve's right-hand side."""
    weights = unpack_params(spec, theta)
    return lambda t, y: _forward(spec, weights, t, y.reshape(shape), value_only=True)[-1].ravel()


def _cotangents(spec: MlpSpec, weights: Weights, zs: list[np.ndarray],
                q: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Reverse traversal: per-layer ``g^k = (dF/dh^k)^T q`` plus ``(dF/dx)^T q``.

    ``q`` is a (groups, batch, m) stack of cotangent groups on the trace
    batch, or one (batch, m) cotangent; one traversal serves both the state
    and parameter VJPs of every group.  The state's cotangent is as wide
    as the state: a time input column has none.
    Activation derivatives are read off the trace's layer outputs, and an
    identity layer's ``g^k`` is its incoming cotangent itself.

    The traversal copies ``q`` once and never writes it: every ``gs[k]``
    and ``r`` it returns is a fresh array the caller owns and may write,
    even when ``q`` is a view of a backward sweep's solver state.  Each
    tanh layer pulls back in place, and at most one derivative array is
    alive at a time.
    """
    r = np.array(q, dtype=float)
    gs: list[np.ndarray] = [None] * spec.n_layers  # type: ignore[list-item]
    in_widths = (spec.state_dim, *spec.dims[1:-1])
    for k in reversed(range(spec.n_layers)):
        w = weights[k]
        if spec.activations[k] == "tanh":
            r *= _act_deriv(zs[k + 1][:, :w.shape[0]])
        gs[k] = r
        r = r @ w[:, :in_widths[k]]
    return gs, r


def _param_grad_from_cotangents(spec: MlpSpec, zs: list[np.ndarray], gs: list[np.ndarray], *,
                                out: np.ndarray | None = None) -> np.ndarray:
    """Batch-mean flat parameter gradient from per-layer cotangents.

    ``gs[k]`` is (groups, batch, l), from a traversal seeded with a stack of
    cotangent groups, and the result holds one flat gradient row per group;
    a (batch, l) ``gs[k]`` gives one flat gradient.  It is written into
    ``out`` when given, a contiguous array of as many entries.
    """
    lead = gs[0].shape[:-2]
    shape = lead + (num_params(spec),)
    flat = np.empty(shape) if out is None else out.reshape(shape)
    for (sl, _, _), zb, g in zip(layer_slices(spec), zs, gs):
        # (zb^T g).ravel() per group is the column-major vec of the (l, pbar) gradient
        flat[..., sl] = (zb.T @ g).reshape(lead + (-1,))
    flat /= zs[0].shape[0]
    return flat


def jacobians(spec: MlpSpec, theta: np.ndarray, t: float,
              x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field value plus dense Jacobians ``dF/dx`` and ``dF/dtheta``.

    At one state vector ``(m,)``, the flat ODE state of the dense
    curvature sweep; the identity matrix is pushed through the reverse
    traversal in one shot, one cotangent group per output, so row ``j``
    of ``dF/dtheta`` is group ``j``'s parameter gradient.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("jacobians expects a single state vector")
    weights = unpack_params(spec, theta)
    zs = _forward(spec, weights, t, x[None, :])
    gs, r = _cotangents(spec, weights, zs, np.eye(spec.state_dim)[:, None, :])
    fu = _param_grad_from_cotangents(spec, zs, gs)
    return zs[-1][0], r[:, 0], fu
