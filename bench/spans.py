"""Outside-in tracing of snopt_kit's layers.

``Tracer.installed()`` rebinds the layer entry points that ``trainer``
and its collaborators call through module globals (``trainer.odesolve``,
``kfac._factor_terms``, ``vector_field._forward``, ``_Run.forward``, ...)
to wrappers that record one span per call: name, start, end and the index
of the enclosing span.  Nothing under ``src/`` changes, and leaving the
context restores the original functions, so untraced runs execute the
program as shipped.

Spans are folded into per-name aggregates (calls, busy time, self time)
after every traced training run, which keeps memory flat over long runs.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from snopt_kit import adjoint, kfac, optimizer, trainer
from snopt_kit import vector_field as vf

# Every span name the wrappers below record.
LABELS = (
    "data.build", "trainer.forward", "trainer.eval_forward", "trainer.train_eval",
    "trainer.test_eval", "odesolve.fwd", "odesolve.bwd", "vector_field.forward",
    "vector_field.cotangents", "vector_field.param_grad", "adjoint.sweep", "kfac.sweep",
    "kfac.factor_terms", "loss.terminal_curvature", "loss.value", "loss.accuracy",
    "loss.readout_grads", "loss.grad_x1", "optimizer.step", "numerics.sym_eigen",
    "curvature.weight_decay", "horizon.terms", "horizon.step",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        # counters read off arguments and results at the same boundaries
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name, fn, observe=None):
        """Span-recording stand-in for ``fn``.

        ``name`` is a string or a callable ``(args) -> str`` for entry
        points whose role depends on the call; ``observe(args, result)``
        adds counters.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def fold(self):
        """Move the recorded spans into the per-name aggregates."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for label, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (label, start, end, parent) in enumerate(spans):
            dur = end - start
            self.calls[label] += 1
            self.busy_s[label] += dur
            self.self_s[label] += dur - child_s[i]
            if parent < 0 and label != "data.build":
                self.root_s += dur
        spans.clear()

    def _bindings(self):
        """(owner, attribute, wrapper) for every traced entry point."""
        c = self.counts

        def fwd_solve(args, rep):
            c["fwd_accepted"] += rep.accepted_steps
            c["fwd_rejected"] += rep.rejected_steps

        def bwd_solve(args, rep):
            c["bwd_accepted"] += rep.accepted_steps
            c["bwd_rejected"] += rep.rejected_steps

        def segment_solve(args, rep):
            bwd_solve(args, rep)
            c["kfac_segments"] += 1

        def rows(args, trace):
            c["forward_rows"] += args[3].shape[0]

        def adjoint_sweep(args, out):
            c["adjoint_nfe"] += out[3].nfe

        def kfac_sweep(args, out):
            factors, _, rep = out
            c["kfac_nfe"] += rep.nfe
            c["kfac_factor_elements"] = sum(
                a.size for a in factors.a_factors) + sum(b.size for b in factors.b_factors)

        def horizon_update(args, t1):
            c["horizon_updates"] += 1

        def forward_name(args):
            return "trainer.forward" if len(self._stack) == 0 else "trainer.eval_forward"

        def eval_name(args):
            run_obj, idx = args[0], args[1]
            return "trainer.test_eval" if idx is run_obj.ds.test_idx else "trainer.train_eval"

        run = trainer._Run
        w = self.wrap
        return [
            (trainer, "build_dataset", w("data.build", trainer.build_dataset)),
            (run, "forward", w(forward_name, run.forward)),
            (run, "evaluate", w(eval_name, run.evaluate)),
            (trainer, "odesolve", w("odesolve.fwd", trainer.odesolve, fwd_solve)),
            (kfac, "odesolve", w("odesolve.bwd", kfac.odesolve, segment_solve)),
            (adjoint, "odesolve", w("odesolve.bwd", adjoint.odesolve, bwd_solve)),
            (vf, "_forward", w("vector_field.forward", vf._forward, rows)),
            (vf, "_cotangents", w("vector_field.cotangents", vf._cotangents)),
            (vf, "_param_grad_from_cotangents",
             w("vector_field.param_grad", vf._param_grad_from_cotangents)),
            (trainer, "adjoint_gradient", w("adjoint.sweep", trainer.adjoint_gradient,
                                            adjoint_sweep)),
            (trainer, "accumulate_factors", w("kfac.sweep", trainer.accumulate_factors,
                                              kfac_sweep)),
            (kfac, "_factor_terms", w("kfac.factor_terms", kfac._factor_terms)),
            (trainer, "terminal_curvature", w("loss.terminal_curvature",
                                              trainer.terminal_curvature)),
            (trainer, "loss_value", w("loss.value", trainer.loss_value)),
            (trainer, "accuracy", w("loss.accuracy", trainer.accuracy)),
            (trainer, "readout_grads", w("loss.readout_grads", trainer.readout_grads)),
            (trainer, "grad_x1", w("loss.grad_x1", trainer.grad_x1)),
            (trainer, "snopt_step", w("optimizer.step", trainer.snopt_step)),
            (trainer, "adam_step", w("optimizer.step", trainer.adam_step)),
            (trainer, "sgd_step", w("optimizer.step", trainer.sgd_step)),
            (optimizer, "sym_eigen", w("numerics.sym_eigen", optimizer.sym_eigen)),
            (trainer, "apply_weight_decay", w("curvature.weight_decay",
                                              trainer.apply_weight_decay)),
            (trainer, "horizon_terms", w("horizon.terms", trainer.horizon_terms)),
            (trainer, "horizon_step", w("horizon.step", trainer.horizon_step, horizon_update)),
            (trainer, "first_order_horizon_step",
             w("horizon.step", trainer.first_order_horizon_step, horizon_update)),
        ]

    @contextmanager
    def installed(self):
        """Trace every entry point for the duration of the block."""
        bindings = self._bindings()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in bindings]
        try:
            for owner, attr, wrapper in bindings:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            self._stack.clear()
            self.fold()

    def layer_metrics(self, iterations: int, runs: int) -> dict[str, float]:
        """Per-iteration layer figures over ``iterations`` traced iterations."""
        ms = lambda *names: 1e3 * sum(self.busy_s[n] for n in names) / iterations
        per_it = lambda x: x / iterations
        c = self.counts
        bwd_steps = c["bwd_accepted"] + c["bwd_rejected"]
        return {
            "trainer.forward_ms": ms("trainer.forward"),
            "trainer.train_eval_ms": ms("trainer.train_eval"),
            "trainer.test_eval_ms": ms("trainer.test_eval"),
            "odesolve.fwd_calls": per_it(self.calls["odesolve.fwd"]),
            "odesolve.bwd_calls": per_it(self.calls["odesolve.bwd"]),
            "odesolve.self_ms": 1e3 * per_it(self.self_s["odesolve.fwd"]
                                             + self.self_s["odesolve.bwd"]),
            "odesolve.fwd_accepted": per_it(c["fwd_accepted"]),
            "odesolve.fwd_rejected": per_it(c["fwd_rejected"]),
            "odesolve.bwd_accepted": per_it(c["bwd_accepted"]),
            "odesolve.bwd_rejected": per_it(c["bwd_rejected"]),
            "odesolve.bwd_accept_ratio": c["bwd_accepted"] / bwd_steps if bwd_steps else 0.0,
            "vector_field.forward_calls": per_it(self.calls["vector_field.forward"]),
            "vector_field.forward_ms": ms("vector_field.forward"),
            "vector_field.cotangents_calls": per_it(self.calls["vector_field.cotangents"]),
            "vector_field.cotangents_ms": ms("vector_field.cotangents"),
            "vector_field.param_grad_ms": ms("vector_field.param_grad"),
            "vector_field.rows_per_forward": (c["forward_rows"] / self.calls["vector_field.forward"]
                                              if self.calls["vector_field.forward"] else 0.0),
            "adjoint.sweep_ms": ms("adjoint.sweep"),
            "adjoint.nfe": per_it(c["adjoint_nfe"]),
            "kfac.sweep_ms": ms("kfac.sweep"),
            "kfac.nfe": per_it(c["kfac_nfe"]),
            "kfac.segments": (c["kfac_segments"] / self.calls["kfac.sweep"]
                              if self.calls["kfac.sweep"] else 0.0),
            "kfac.factor_terms_calls": per_it(self.calls["kfac.factor_terms"]),
            "kfac.factor_terms_ms": ms("kfac.factor_terms"),
            "kfac.factor_elements": c["kfac_factor_elements"],
            "loss.terminal_curvature_ms": ms("loss.terminal_curvature"),
            "loss.eval_ms": ms("loss.value", "loss.accuracy"),
            "loss.readout_grads_ms": ms("loss.readout_grads"),
            "optimizer.step_ms": ms("optimizer.step"),
            "numerics.sym_eigen_calls": per_it(self.calls["numerics.sym_eigen"]),
            "numerics.sym_eigen_ms": ms("numerics.sym_eigen"),
            "curvature.weight_decay_ms": ms("curvature.weight_decay"),
            "horizon.terms_ms": ms("horizon.terms"),
            "horizon.updates": c["horizon_updates"] / runs,
            "data.build_s": self.busy_s["data.build"] / runs,
        }
