import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from snopt_kit import vector_field as vf


def tanh_spec():
    return vf.MlpSpec(dims=(2, 4, 2), activations=("tanh", "identity"))


def trace_at(spec, theta, t, x):
    """The full layer trace of the field at ``(t, x)``."""
    return vf._forward(spec, vf.unpack_params(spec, theta), t, x)


def vjps(spec, theta, x, q):
    """``(dF/dx)^T q``, ``(dF/dtheta)^T q`` and the per-layer cotangents of
    the batch of one ``x`` with cotangent ``q``, both (1, m)."""
    weights = vf.unpack_params(spec, theta)
    trace = vf._forward(spec, weights, 0.0, x)
    gs, r = vf._cotangents(spec, weights, trace, q)
    flat = vf._param_grad_from_cotangents(spec, trace, gs)
    return r[0], flat, [g[0] for g in gs]


def fd_state(spec, theta, t, x, q, h=1e-5):
    out = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        fp = np.sum(q * vf.eval(spec, theta, t, x + e))
        fm = np.sum(q * vf.eval(spec, theta, t, x - e))
        out[i] = (fp - fm) / (2 * h)
    return out


def fd_param(spec, theta, t, x, q, h=1e-5):
    out = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        fp = np.sum(q * vf.eval(spec, theta + e, t, x))
        fm = np.sum(q * vf.eval(spec, theta - e, t, x))
        out[i] = (fp - fm) / (2 * h)
    return out


class TestSpecValidation:
    def test_activation_count(self):
        with pytest.raises(ValueError):
            vf.MlpSpec(dims=(2, 4, 2), activations=("tanh",))

    def test_output_width_must_match_state(self):
        with pytest.raises(ValueError):
            vf.MlpSpec(dims=(2, 4, 3), activations=("tanh", "identity"))

    def test_concat_widens_input(self):
        spec = vf.MlpSpec(dims=(3, 4, 2), activations=("tanh", "identity"),
                          time_input="concat")
        assert spec.state_dim == 2
        with pytest.raises(ValueError):
            vf.MlpSpec(dims=(2, 4, 2), activations=("tanh", "identity"),
                       time_input="concat")

    def test_lists_stored_as_tuples(self):
        # a spec keys the layout cache, so one built from lists must hash and
        # equal the tuple-built one
        spec = vf.MlpSpec(dims=[2, 4, 2], activations=["tanh", "identity"])
        assert (spec.dims, spec.activations) == ((2, 4, 2), ("tanh", "identity"))
        assert spec == tanh_spec() and vf.layer_slices(spec) == vf.layer_slices(tanh_spec())


class TestLayout:
    def test_slices_partition_params(self):
        spec = vf.MlpSpec(dims=(2, 8, 8, 2), activations=("tanh", "tanh", "identity"))
        slices = vf.layer_slices(spec)
        assert slices[0][0].start == 0
        for a, b in zip(slices, slices[1:]):
            assert a[0].stop == b[0].start
        assert slices[-1][0].stop == vf.num_params(spec)

    def test_init_reproducible(self):
        spec = tanh_spec()
        assert np.array_equal(vf.init_params(spec, 11), vf.init_params(spec, 11))
        assert not np.array_equal(vf.init_params(spec, 11), vf.init_params(spec, 12))

    def test_weights_read_column_major(self):
        spec = vf.MlpSpec(dims=(2, 2), activations=("identity",), bias=False)
        w, = vf.unpack_params(spec, np.array([1.0, 3.0, 2.0, 4.0]))
        assert np.array_equal(w, [[1.0, 2.0], [3.0, 4.0]])

    def test_layer_segments_round_trip(self):
        # each segment is the column-major flattening of [W, b]
        spec = vf.MlpSpec(dims=(2, 5, 3, 2), activations=("tanh", "tanh", "identity"))
        theta = np.random.default_rng(0).normal(size=vf.num_params(spec))
        weights = vf.unpack_params(spec, theta)
        assert [w.shape for w in weights] == [(5, 3), (3, 6), (2, 4)]
        flat = [w.reshape(-1, order="F") for w in weights]
        assert np.array_equal(np.concatenate(flat), theta)
        assert all(np.shares_memory(w, theta) for w in weights)

    def test_unpack_size_mismatch(self):
        with pytest.raises(vf.DimensionMismatch):
            vf.unpack_params(tanh_spec(), np.zeros(vf.num_params(tanh_spec()) + 1))

    def test_init_bound(self):
        spec = tanh_spec()
        theta = vf.init_params(spec, 0)
        w0 = vf.unpack_params(spec, theta)[0]
        assert np.max(np.abs(w0[:, :2])) <= np.sqrt(6.0 / (2 + 4))
        assert np.all(w0[:, 2] == 0.0)


class TestEval:
    def test_zero_params_zero_field(self):
        spec = tanh_spec()
        theta = np.zeros(vf.num_params(spec))
        out = vf.eval(spec, theta, 0.0, np.array([[1.5, -0.3]]))
        assert np.allclose(out, 0.0)

    def test_identity_single_layer(self):
        spec = vf.MlpSpec(dims=(2, 2), activations=("identity",))
        theta = np.hstack([np.eye(2), np.zeros((2, 1))]).reshape(-1, order="F")
        x = np.array([[0.7, -1.1]])
        out = vf.eval(spec, theta, 0.0, x)
        assert np.allclose(out, x)

    def test_matches_plain_reimplementation(self):
        # independent forward pass written out longhand
        spec = tanh_spec()
        theta = vf.init_params(spec, 7)
        x = np.array([0.4, -0.9])
        w0, w1 = vf.unpack_params(spec, theta)
        expected = w1[:, :4] @ np.tanh(w0[:, :2] @ x + w0[:, 2]) + w1[:, 4]
        out = vf.eval(spec, theta, 0.0, x[None])
        assert out.shape == (1, 2)
        assert np.allclose(out, expected, atol=1e-14)

    def test_batched_eval_matches_loop(self):
        spec = tanh_spec()
        theta = vf.init_params(spec, 7)
        xs = np.random.default_rng(0).normal(size=(5, 2))
        batched = vf.eval(spec, theta, 0.0, xs)
        for i in range(len(xs)):
            single = vf.eval(spec, theta, 0.0, xs[i:i + 1])
            assert np.allclose(batched[i], single[0], atol=1e-14)

    def test_time_concat_enters_input(self):
        spec = vf.MlpSpec(dims=(3, 3, 2), activations=("tanh", "identity"),
                          time_input="concat")
        theta = vf.init_params(spec, 3)
        x = np.array([[0.2, 0.1]])
        a = vf.eval(spec, theta, 0.0, x)
        b = vf.eval(spec, theta, 1.0, x)
        assert not np.allclose(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(vf.DimensionMismatch):
            vf.eval(tanh_spec(), vf.init_params(tanh_spec(), 0), 0.0, np.zeros((1, 3)))

    def test_trace_replay(self):
        # the layer outputs alone replay the chain bit-exactly (tanh, then identity)
        spec = tanh_spec()
        theta = vf.init_params(spec, 7)
        trace = trace_at(spec, theta, 0.0, np.array([[0.4, -0.9]]))
        w0, w1 = vf.unpack_params(spec, theta)
        assert np.array_equal(trace[1][:, :4], np.tanh(trace[0] @ w0.T))
        assert np.array_equal(trace[2], trace[1] @ w1.T)

    def test_trace_keeps_only_layer_outputs(self):
        # one warm 400-row forward through 2-16-16-2 keeps its homogeneous
        # layer inputs and output and a little bookkeeping, no pre-activation
        # beside them, and at no point holds a temporary as large as a layer
        # (a broadcast bias add would buffer 8192 elements)
        spec = vf.MlpSpec(dims=(2, 16, 16, 2), activations=("tanh", "tanh", "identity"))
        weights = vf.unpack_params(spec, vf.init_params(spec, 0))
        x = np.random.default_rng(0).normal(size=(400, 2))
        vf._forward(spec, weights, 0.0, x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = vf._forward(spec, weights, 0.0, x)
            kept, peak = (v - before for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert [z.shape for z in trace] == [(400, 3), (400, 17), (400, 17), (400, 2)]
        assert kept < 400 * (3 + 17 + 17 + 2) * 8 + 4096
        assert peak < 400 * (3 + 17 + 17 + 2) * 8 + 4096

    def test_value_path_keeps_two_layer_inputs(self):
        # the plain flows read only the field value: a warm value-only 400-row
        # forward through 2-16-16-2 peaks at two consecutive homogeneous layer
        # inputs (108,800 bytes), below the whole trace's 124,800
        spec = vf.MlpSpec(dims=(2, 16, 16, 2), activations=("tanh", "tanh", "identity"))
        weights = vf.unpack_params(spec, vf.init_params(spec, 0))
        x = np.random.default_rng(0).normal(size=(400, 2))
        vf._forward(spec, weights, 0.0, x, value_only=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            value = vf._forward(spec, weights, 0.0, x, value_only=True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(value) == 1
        assert np.array_equal(value[0], vf._forward(spec, weights, 0.0, x)[-1])
        assert peak < 8 * 400 * (17 + 17) + 4096

    def test_trace_without_bias_has_no_ones_column(self):
        spec = vf.MlpSpec(dims=(3, 4, 2), activations=("tanh", "identity"),
                          time_input="concat", bias=False)
        theta = vf.init_params(spec, 4)
        x = np.array([[0.4, -0.9], [1.3, 0.2]])
        trace = trace_at(spec, theta, 0.6, x)
        out = trace[-1]
        assert [z.shape for z in trace] == [(2, 3), (2, 4), (2, 2)]
        assert np.array_equal(trace[0], [[0.4, -0.9, 0.6], [1.3, 0.2, 0.6]])
        w0, w1 = vf.unpack_params(spec, theta)
        assert np.allclose(out, np.tanh(trace[0] @ w0.T) @ w1.T, atol=1e-14)


# the activations whose derivative _cotangents reads off a layer output; an
# identity layer passes its cotangent through
DIFFERENTIATED = ("tanh", "softplus")


def _pre_activation_deriv(name, h):
    """The activation derivatives written against the pre-activation ``h``."""
    if name == "tanh":
        return 1.0 - np.tanh(h) ** 2
    return 1.0 / (1.0 + np.exp(-h))


class TestActivationDerivatives:
    # both sides of softplus's split at 30, and tiny values around 0
    H = np.concatenate([np.linspace(-50.0, 50.0, 2001),
                        [-1e-300, 0.0, 1e-300, 29.999999, 30.0, 30.000001]])

    @pytest.mark.parametrize("name", DIFFERENTIATED)
    def test_read_off_outputs(self, name):
        got = vf._act_deriv(name, vf._act(name, self.H.copy()))
        want = _pre_activation_deriv(name, self.H)
        if name == "softplus":
            assert np.max(np.abs(got - want) / want) < 1e-13
        else:
            assert np.array_equal(got, want)

    def test_identity_output_passes_cotangent_through(self):
        spec = tanh_spec()
        weights = vf.unpack_params(spec, vf.init_params(spec, 7))
        rng = np.random.default_rng(1)
        trace = vf._forward(spec, weights, 0.0, rng.normal(size=(3, 2)))
        q = rng.normal(size=(3, 2))
        gs, _ = vf._cotangents(spec, weights, trace, q.copy())
        assert np.array_equal(gs[-1], q)



    @pytest.mark.parametrize("name", DIFFERENTIATED)
    def test_derivative_is_a_new_row_major_array(self, name):
        # read off a column-major trace output, which stays as it was
        z = np.asfortranarray(vf._act(name, self.H[:12].reshape(3, 4).copy()))
        kept = z.copy()
        d = vf._act_deriv(name, z)
        assert np.array_equal(z, kept)
        assert d.flags.c_contiguous and not np.shares_memory(d, z)


class TestVjps:
    def test_cotangent_seed_is_never_written(self):
        # the seed is a view into the solver state; only the traversal's own
        # hidden-layer cotangents are pulled back in place
        spec = vf.MlpSpec(dims=(2, 5, 3, 2), activations=("tanh", "softplus", "tanh"))
        weights = vf.unpack_params(spec, vf.init_params(spec, 9))
        rng = np.random.default_rng(2)
        trace = vf._forward(spec, weights, 0.0, rng.normal(size=(4, 2)))
        q = rng.normal(size=(2, 4, 2))
        seed = q.copy()
        gs, _ = vf._cotangents(spec, weights, trace, q)
        assert np.array_equal(q, seed)
        assert np.array_equal(gs[-1], seed * vf._act_deriv("tanh", trace[-1]))

    def test_state_cotangent_has_no_time_column(self):
        # the time input is not part of the state, so it gets no cotangent
        spec = vf.MlpSpec(dims=(3, 4, 2), activations=("tanh", "identity"),
                          time_input="concat")
        w0, w1 = weights = vf.unpack_params(spec, vf.init_params(spec, 12))
        rng = np.random.default_rng(4)
        trace = vf._forward(spec, weights, 0.3, rng.normal(size=(5, 2)))
        q = rng.normal(size=(2, 5, 2))
        _, r = vf._cotangents(spec, weights, trace, q)
        assert r.shape == q.shape
        g0 = (q @ w1[:, :4]) * (1.0 - trace[1][:, :4] ** 2)
        assert np.allclose(r, g0 @ w0[:, :2], rtol=1e-13, atol=1e-15)

    def test_cotangents_hold_one_derivative_at_a_time(self):
        # a warm traversal of a 128-row trace through 2-16-16-2 holds its own
        # cotangents plus at most one (batch, l) activation derivative; the
        # identity output layer's cotangent is the seed itself
        spec = vf.MlpSpec(dims=(2, 16, 16, 2), activations=("tanh", "tanh", "identity"))
        weights = vf.unpack_params(spec, vf.init_params(spec, 0))
        rng = np.random.default_rng(3)
        trace = vf._forward(spec, weights, 0.0, rng.normal(size=(128, 2)))
        q = rng.normal(size=(128, 2))
        vf._cotangents(spec, weights, trace, q)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gs, r = vf._cotangents(spec, weights, trace, q)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert gs[-1] is q
        own = sum(g.nbytes for g in gs[:-1]) + r.nbytes
        assert peak < own + 8 * 128 * 16 + 1024

    def test_zero_cotangent(self):
        spec = tanh_spec()
        theta = vf.init_params(spec, 7)
        x = np.array([[0.3, 0.8]])
        state, flat, _ = vjps(spec, theta, x, np.zeros((1, 2)))
        assert np.allclose(state, 0.0)
        assert np.allclose(flat, 0.0)

    def test_linear_field_exact(self):
        spec = vf.MlpSpec(dims=(2, 2), activations=("identity",), bias=False)
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        theta = a.reshape(-1, order="F")
        q = np.array([0.5, -1.0])
        assert np.allclose(vjps(spec, theta, np.ones((1, 2)), q[None])[0], a.T @ q)

    def test_linear_weight_gradient_is_kron(self):
        spec = vf.MlpSpec(dims=(2, 2), activations=("identity",), bias=False)
        theta = np.zeros(4)
        x = np.array([0.3, -0.7])
        q = np.array([1.5, 0.25])
        _, flat, _ = vjps(spec, theta, x[None], q[None])
        assert np.allclose(flat, np.kron(x, q))

    def test_vjp_state_matches_fd(self):
        spec = tanh_spec()
        theta = vf.init_params(spec, 5)
        x = np.array([[0.3, -0.2]])
        q = np.array([[0.5, -1.2]])
        got = vjps(spec, theta, x, q)[0]
        want = fd_state(spec, theta, 0.0, x, q)
        assert np.linalg.norm(got - want) < 1e-6 * max(1.0, np.linalg.norm(want))

    def test_vjp_param_matches_fd(self):
        spec = tanh_spec()
        theta = vf.init_params(spec, 5)
        x = np.array([[0.3, -0.2]])
        q = np.array([[0.5, -1.2]])
        _, got, _ = vjps(spec, theta, x, q)
        want = fd_param(spec, theta, 0.0, x, q)
        assert np.linalg.norm(got - want) < 1e-6 * max(1.0, np.linalg.norm(want))

    def test_param_segments_are_kron_of_cotangents(self):
        # the factorization identity: each flat segment equals zbar x g exactly
        spec = vf.MlpSpec(dims=(2, 5, 3, 2), activations=("tanh", "softplus", "identity"))
        theta = vf.init_params(spec, 9)
        x = np.array([[0.6, -0.1]])
        q = np.array([[-0.4, 1.1]])
        _, flat, gs = vjps(spec, theta, x, q)
        trace = trace_at(spec, theta, 0.0, x)
        for k, (sl, _, _) in enumerate(vf.layer_slices(spec)):
            zbar = trace[k][0]
            assert zbar[-1] == 1.0
            assert np.array_equal(flat[sl], np.kron(zbar, gs[k]))

    def test_softplus_stable_at_large_inputs(self):
        spec = vf.MlpSpec(dims=(1, 1), activations=("softplus",), bias=False)
        theta = np.array([1.0])
        out = vf.eval(spec, theta, 0.0, np.array([[500.0]]))
        assert np.isfinite(out).all() and abs(out[0, 0] - 500.0) < 1e-9
        g = vjps(spec, theta, np.array([[500.0]]), np.ones((1, 1)))[0]
        assert np.allclose(g, 1.0)


@settings(max_examples=20, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2**31 - 1))
def test_vjp_linearity_in_cotangent(alpha, beta, seed):
    spec = tanh_spec()
    theta = vf.init_params(spec, 13)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, 2))
    q1, q2 = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
    sm, pm, _ = vjps(spec, theta, x, alpha * q1 + beta * q2)
    s1, p1, _ = vjps(spec, theta, x, q1)
    s2, p2, _ = vjps(spec, theta, x, q2)
    assert np.allclose(sm, alpha * s1 + beta * s2, atol=1e-12)
    assert np.allclose(pm, alpha * p1 + beta * p2, atol=1e-12)


def test_jacobians_match_vjps():
    spec = tanh_spec()
    theta = vf.init_params(spec, 21)
    x = np.array([0.2, 0.9])
    f, fx, fu = vf.jacobians(spec, theta, 0.0, x)
    out = vf.eval(spec, theta, 0.0, x[None])
    assert np.allclose(f, out[0])
    for j in range(2):
        e = np.eye(2)[j:j + 1]
        state, flat, _ = vjps(spec, theta, x[None], e)
        assert np.allclose(fx[j], state, atol=1e-13)
        assert np.allclose(fu[j], flat, atol=1e-13)
