import numpy as np
import pytest

from snopt_kit import vector_field as vf
from snopt_kit.loss import TerminalLoss
from snopt_kit.odesolve import SolverConfig
from snopt_kit.oracle import (ErrorRow, error_study, fd_gradient, flow,
                              format_error_study_markdown, write_error_study_csv)


class TestFlow:
    def test_linear_closed_form_per_row(self):
        # dx/dt = w x: every row of the batch grows by e^w
        spec = vf.MlpSpec(dims=(1, 1), activations=("identity",), bias=False)
        cfg = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-10)
        x0 = np.array([[1.0], [-2.0], [0.5]])
        x1 = flow(spec, np.array([0.5]), x0, 0.0, 1.0, cfg)
        assert x1.shape == (3, 1)
        assert np.allclose(x1, x0 * np.exp(0.5), rtol=1e-8)


class TestFdGradient:
    def test_constant_function(self):
        assert np.allclose(fd_gradient(lambda th: 3.0, np.zeros(4)), 0.0)

    def test_quadratic_exact(self):
        theta = np.array([0.3, -1.2, 0.8])
        got = fd_gradient(lambda th: 0.5 * np.sum(th ** 2), theta)
        assert np.max(np.abs(got - theta)) < 1e-9

    def test_matches_analytic_tanh_gradient(self):
        # smooth tanh objective |f|^2: its gradient is 2 f_theta^T f
        spec = vf.MlpSpec(dims=(2, 3, 2), activations=("tanh", "identity"))
        theta = vf.init_params(spec, 1)
        x = np.array([0.3, -0.5])
        fn = lambda th: float(np.sum(vf.eval(spec, th, 0.0, x[None]) ** 2))
        f, _, fu = vf.jacobians(spec, theta, 0.0, x)
        want = 2 * fu.T @ f
        assert np.linalg.norm(fd_gradient(fn, theta) - want) < 1e-8 * np.linalg.norm(want)

    def test_array_valued_function_stacks_on_the_parameter_axis(self):
        # theta -> A theta, (m,) from (n,): row i is column i of A, so the stack is A^T, (n, m)
        a = np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -1.0]])
        got = fd_gradient(lambda th: a @ th, np.array([0.3, -1.2, 0.8]))
        assert got.shape == (3, 2)
        assert np.max(np.abs(got - a.T)) < 1e-9


class TestFdFlowJacobian:
    """The flow Jacobian as the references take it: the central differences
    of the terminal state of a batch of one, transposed to (m, n)."""

    def test_zero_field(self):
        # bias-free linear field from the origin stays at zero for every theta
        spec = vf.MlpSpec(dims=(2, 2), activations=("identity",), bias=False)
        theta = np.zeros(vf.num_params(spec))
        cfg = SolverConfig(method="rk4", fixed_step=0.1)
        jac = fd_gradient(lambda th: flow(spec, th, np.zeros((1, 2)), 0.0, 1.0, cfg)[0],
                          theta).T
        assert jac.shape == (2, theta.size)
        assert np.max(np.abs(jac)) < 1e-9

    def test_scalar_linear_closed_form(self):
        # dx/dt = w x at w=0, x0=1: d x(1) / d w = 1
        spec = vf.MlpSpec(dims=(1, 1), activations=("identity",), bias=False)
        cfg = SolverConfig(method="rk4", fixed_step=0.01)
        jac = fd_gradient(lambda th: flow(spec, th, np.array([[1.0]]), 0.0, 1.0, cfg)[0],
                          np.zeros(1)).T
        assert jac[0, 0] == pytest.approx(1.0, abs=1e-6)


class TestErrorStudy:
    @pytest.fixture(scope="class")
    def rows(self):
        spec = vf.MlpSpec(dims=(2, 3, 2), activations=("tanh", "identity"))
        theta = vf.init_params(spec, 2)
        lossfn = TerminalLoss(target=np.array([0.25, -0.5]))
        cfgs = [
            ("rk4 h=1e-1", SolverConfig(method="rk4", fixed_step=1e-1)),
            ("rk4 h=1e-2", SolverConfig(method="rk4", fixed_step=1e-2)),
            ("dopri5 1e-3", SolverConfig(method="dopri5", rtol=1e-3, atol=1e-3)),
            ("dopri5 1e-6", SolverConfig(method="dopri5", rtol=1e-6, atol=1e-6)),
        ]
        return error_study(spec, theta, np.array([[0.4, -0.2]]), lossfn, cfgs)

    def test_errors_finite_and_reported(self, rows):
        assert len(rows) == 4
        for r in rows:
            assert np.isfinite(r.grad_error) and np.isfinite(r.curvature_error)

    def test_rk4_small_step_accuracy(self, rows):
        by_label = {r.label: r for r in rows}
        assert by_label["rk4 h=1e-2"].grad_error < 1e-4
        assert by_label["rk4 h=1e-2"].curvature_error < 1e-3

    def test_two_class_softmax_carries_its_weighted_factor(self):
        # the curvature holds a two-class softmax's one factor as adjoint
        # weights; the study must still carry it, or its curvature reads 0
        spec = vf.MlpSpec(dims=(2, 4, 2), activations=("tanh", "identity"))
        (row,) = error_study(spec, vf.init_params(spec, 3), np.array([[0.4, -0.2]]),
                             TerminalLoss(target=np.array([1])),
                             [("dopri5 1e-6", SolverConfig(method="dopri5", rtol=1e-6,
                                                           atol=1e-6))])
        assert row.grad_error < 1e-5 and row.curvature_error < 1e-5

    def test_monotone_in_tolerance(self, rows):
        by_label = {r.label: r for r in rows}
        assert by_label["rk4 h=1e-2"].grad_error < by_label["rk4 h=1e-1"].grad_error
        assert by_label["dopri5 1e-6"].grad_error < by_label["dopri5 1e-3"].grad_error

    def test_writers(self, rows, tmp_path):
        path = tmp_path / "study.csv"
        write_error_study_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "label,method,tolerance,grad_error,curvature_error"
        assert len(lines) == 5
        md = format_error_study_markdown(rows)
        assert md.count("|") > 10
