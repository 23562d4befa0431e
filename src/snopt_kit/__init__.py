"""snopt-kit: second-order training for small Neural ODE models.

The package is organised around one backward pass: a generic ODE solver
(`odesolve`), an analytic MLP vector field with hand-rolled VJPs
(`vector_field`), the adjoint sweep, which with rank vectors is also the
low-rank curvature sweep (`adjoint`), time-integrated Kronecker factors
(`kfac`), the update rule that applies their damped inverse plus
first-order baselines (`optimizer`), and a feedback policy for the
integration bound (`horizon`).
`data`, `oracle`, `trainer`, and `cli` supply fixtures, the
finite-difference and dense-sweep references, the training loop, and the
command line.
"""

__version__ = "0.1.0"
