"""Span tracer for the scjarz benchmark, installed from outside the package.

``install`` wraps the module-level entry functions of each scjarz layer
(models, dynamics, stationary, pseudowork, jarzynski, oracle, config) and
records one span per call: name, start, end, parent span and a few counts
taken from the call's arguments and return value.  Spans stay in memory
until ``dump`` writes them out after the job.

Functions are imported by name across modules (``stationary`` and
``pseudowork`` both bind ``_flow_imaginary_batch``), so every module-level
name in the package that refers to an original function is rebound to its
wrapper; rebinding only the defining module would let calls bypass it.

The gradient is called four times per RK4 step, so it gets a call counter
and a time total instead of spans.  ``layer_metrics`` turns a dumped trace
into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np

GRAD = "models.grad"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _flow(p0, start, stop, n_steps):
    """Width and RK4 step count of a flow call (no steps over an empty span)."""
    def attrs(args, kwargs, result):
        span = _arg(args, kwargs, *stop) - _arg(args, kwargs, *start)
        steps = int(_arg(args, kwargs, *n_steps)) if span != 0.0 else 0
        return {"n": int(np.size(_arg(args, kwargs, *p0))), "steps": steps}
    return attrs


def _width(index, name):
    def attrs(args, kwargs, result):
        return {"n": int(np.size(_arg(args, kwargs, index, name)))}
    return attrs


def _solve_attrs(args, kwargs, result):
    return {"n": int(result.status.shape[0]),
            "iters": int(np.sum(result.iters)),
            "ok": int(np.sum(result.status == 0)),
            "force": bool(kwargs.get("force_continuation", False))}


def _work_attrs(args, kwargs, result):
    return {"time_nodes": int(result["times"].shape[0])}


def _verify_attrs(args, kwargs, result):
    return {"residual": float(result.residual)}


# (module, function, span name, attrs(args, kwargs, result) or None)
TARGETS = (
    ("scjarz.dynamics", "_flow_imaginary_batch", "dynamics.imag",
     _flow((2, "p0"), (4, "s_from"), (5, "s_to"), (6, "n_steps"))),
    ("scjarz.dynamics", "_flow_real_batch", "dynamics.real",
     _flow((3, "p0"), (1, "t_from"), (2, "t_to"), (5, "n_steps"))),
    ("scjarz.dynamics", "_build_arc_batch", "dynamics.arc", _width(2, "center_p")),
    ("scjarz.stationary", "_invert_map_batch", "stationary.solve", _solve_attrs),
    ("scjarz.stationary", "_newton_stage", "stationary.newton_stage", _width(1, "tp")),
    ("scjarz.stationary", "_midpoint_map_batch", "stationary.map", _width(2, "P")),
    ("scjarz.stationary", "_map_jacobian", "stationary.jacobian", _width(1, "gp")),
    ("scjarz.stationary", "_pseudo_hamiltonian_batch", "stationary.pseudo_hamiltonian", None),
    ("scjarz.stationary", "_prefactor_batch", "stationary.prefactor", None),
    ("scjarz.stationary", "_shoot_actions", "stationary.shoot", None),
    ("scjarz.pseudowork", "_composite_map_batch", "stationary.map", _width(3, "P")),
    ("scjarz.pseudowork", "_pseudo_work_batch", "pseudowork.work", _work_attrs),
    ("scjarz.pseudowork", "_pseudo_power_batch", "pseudowork.power", None),
    ("scjarz.pseudowork", "_propagated_g_batch", "pseudowork.endpoint", None),
    ("scjarz.jarzynski", "_check_domain", "jarzynski.domain_check", None),
    ("scjarz.jarzynski", "verify_identity", "jarzynski.verify", _verify_attrs),
    ("scjarz.jarzynski", "partition", "jarzynski.partition", None),
    ("scjarz.oracle", "thermal_fock", "oracle.thermal_fock", None),
    ("scjarz.oracle", "wigner_transform", "oracle.wigner", None),
    ("scjarz.oracle", "weyl_convention_audit", "oracle.audit", None),
    ("scjarz.oracle", "ordering_pairing_check", "oracle.audit", None),
    ("scjarz.config", "load_config", "config.load", None),
)


def rebind(original, replacement) -> None:
    """Point every scjarz module-level name bound to ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "scjarz" and not mod_name.startswith("scjarz."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """In-memory spans and counters for one job."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list = []          # [name, start, end, parent, attrs]
        self.counters: dict = {GRAD: [0, 0.0]}
        self.missing: list = []
        self._stack: list = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                record[4] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        stat = self.counters[name]

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[0] += 1
                stat[1] += perf_counter() - start

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap every target; a target missing from the package is recorded."""
        import importlib

        for mod_name, fn_name, span_name, attrs in TARGETS:
            module = importlib.import_module(mod_name)
            original = getattr(module, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            rebind(original, self.wrap(span_name, original, attrs))

        model_cls = importlib.import_module("scjarz.models").HamiltonianModel
        if getattr(model_cls, "grad", None) is None:
            self.missing.append("scjarz.models.HamiltonianModel.grad")
        else:
            model_cls.grad = self.count(GRAD, model_cls.grad)

        dynamics = importlib.import_module("scjarz.dynamics")
        frozen = getattr(dynamics, "_frozen_grad", None)
        if frozen is None:
            self.missing.append("scjarz.dynamics._frozen_grad")
        else:
            def frozen_grad(model, t):
                return self.count(GRAD, frozen(model, t))
            rebind(frozen, frozen_grad)

    def open_root(self, name: str) -> int:
        """Open a span outside any wrapped function (the CLI call)."""
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, -1, None])
        return self._stack[-1]

    def close_root(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"job": self.job_id, "counters": self.counters,
                       "missing": self.missing,
                       "spans": [[self.job_id] + s for s in self.spans]}, fh)


# name: (unit, better) -- the per-layer metrics a traced job reports
LAYER_METRICS = {
    "dynamics.imag_point_steps": ("count", "lower"),
    "dynamics.imag_s": ("s", "lower"),
    "dynamics.imag_point_steps_per_s": ("1/s", "higher"),
    "dynamics.real_point_steps": ("count", "lower"),
    "dynamics.real_s": ("s", "lower"),
    "dynamics.real_point_steps_per_s": ("1/s", "higher"),
    "dynamics.arc_points": ("count", "lower"),
    "dynamics.arc_self_s": ("s", "lower"),
    "models.grad_calls": ("count", "lower"),
    "models.grad_s": ("s", "lower"),
    "stationary.node_solves": ("count", "lower"),
    "stationary.solve_s": ("s", "lower"),
    "stationary.newton_iters": ("count", "lower"),
    "stationary.newton_iters_per_solve": ("ratio", "lower"),
    "stationary.converged_share": ("ratio", "higher"),
    "stationary.continuation_points": ("count", "lower"),
    "stationary.map_point_evals": ("count", "lower"),
    "stationary.map_evals_per_iter": ("ratio", "lower"),
    "stationary.jacobian_point_evals": ("count", "lower"),
    "stationary.jacobian_s": ("s", "lower"),
    "stationary.prefactor_s": ("s", "lower"),
    "stationary.shoot_point_steps": ("count", "lower"),
    "stationary.failed_nodes": ("count", "lower"),
    "pseudowork.time_nodes": ("count", "lower"),
    "pseudowork.march_s": ("s", "lower"),
    "pseudowork.power_s": ("s", "lower"),
    "pseudowork.endpoint_s": ("s", "lower"),
    "pseudowork.max_work_mismatch": ("ratio", "lower"),
    "pseudowork.bulk_work_mismatch": ("ratio", "lower"),
    "jarzynski.domain_check_s": ("s", "lower"),
    "jarzynski.reduce_s": ("s", "lower"),
    "jarzynski.identity_residual": ("ratio", "lower"),
    "oracle.thermal_fock_s": ("s", "lower"),
    "oracle.wigner_s": ("s", "lower"),
    "oracle.audit_s": ("s", "lower"),
    "config.load_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# deterministic counts that must repeat exactly between traced runs
REPEATABLE = (
    "dynamics.imag_point_steps", "dynamics.real_point_steps",
    "dynamics.arc_points", "models.grad_calls", "stationary.node_solves",
    "stationary.newton_iters", "stationary.continuation_points",
    "stationary.map_point_evals", "stationary.jacobian_point_evals",
    "stationary.shoot_point_steps", "pseudowork.time_nodes",
)


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics from one dumped trace; ``stationary.failed_nodes``,
    the ``pseudowork.*_work_mismatch`` pair and ``trace.overhead_s`` come
    from the caller."""
    spans = trace["spans"]
    children: dict = {}
    for i, (_, _, start, end, parent, _) in enumerate(spans):
        children.setdefault(parent, []).append(i)

    def dur(i):
        return spans[i][3] - spans[i][2]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children.get(i, ()))

    def named(name):
        return [i for i, s in enumerate(spans) if s[1] == name]

    def total(name):
        return sum(dur(i) for i in named(name))

    def attr_sum(name, key):
        return sum(spans[i][5][key] for i in named(name))

    def point_steps(indices):
        return sum(spans[i][5]["n"] * spans[i][5]["steps"] for i in indices)

    m = {}
    imag = named("dynamics.imag")
    real = named("dynamics.real")
    m["dynamics.imag_point_steps"] = point_steps(imag)
    m["dynamics.imag_s"] = total("dynamics.imag")
    m["dynamics.real_point_steps"] = point_steps(real)
    m["dynamics.real_s"] = total("dynamics.real")
    for kind in ("imag", "real"):
        secs = m[f"dynamics.{kind}_s"]
        m[f"dynamics.{kind}_point_steps_per_s"] = (
            m[f"dynamics.{kind}_point_steps"] / secs if secs > 0 else 0.0)
    m["dynamics.arc_points"] = attr_sum("dynamics.arc", "n")
    m["dynamics.arc_self_s"] = sum(self_time(i) for i in named("dynamics.arc"))

    calls, secs = trace["counters"][GRAD]
    m["models.grad_calls"] = calls
    m["models.grad_s"] = secs

    solves = named("stationary.solve")
    m["stationary.node_solves"] = attr_sum("stationary.solve", "n")
    m["stationary.solve_s"] = total("stationary.solve")
    m["stationary.newton_iters"] = attr_sum("stationary.solve", "iters")
    m["stationary.newton_iters_per_solve"] = (
        m["stationary.newton_iters"] / m["stationary.node_solves"]
        if m["stationary.node_solves"] else 0.0)
    m["stationary.converged_share"] = (
        attr_sum("stationary.solve", "ok") / m["stationary.node_solves"]
        if m["stationary.node_solves"] else 0.0)
    engaged = 0
    for i in solves:
        stages = [c for c in children.get(i, ())
                  if spans[c][1] == "stationary.newton_stage"]
        first = 0 if spans[i][5]["force"] else 1
        if len(stages) > first:
            engaged += spans[stages[first]][5]["n"]
    m["stationary.continuation_points"] = engaged
    m["stationary.map_point_evals"] = attr_sum("stationary.map", "n")
    m["stationary.map_evals_per_iter"] = (
        m["stationary.map_point_evals"] / m["stationary.newton_iters"]
        if m["stationary.newton_iters"] else 0.0)
    m["stationary.jacobian_point_evals"] = attr_sum("stationary.jacobian", "n")
    m["stationary.jacobian_s"] = total("stationary.jacobian")
    m["stationary.prefactor_s"] = total("stationary.prefactor")
    shoot = set(named("stationary.shoot"))
    m["stationary.shoot_point_steps"] = point_steps(
        [i for i in imag if spans[i][4] in shoot])

    work = named("pseudowork.work")
    m["pseudowork.time_nodes"] = attr_sum("pseudowork.work", "time_nodes")
    m["pseudowork.march_s"] = sum(
        dur(i) - sum(dur(c) for c in children.get(i, ())
                     if spans[c][1] == "pseudowork.endpoint")
        for i in work)
    m["pseudowork.power_s"] = total("pseudowork.power")
    m["pseudowork.endpoint_s"] = total("pseudowork.endpoint")

    m["jarzynski.domain_check_s"] = total("jarzynski.domain_check")
    m["jarzynski.reduce_s"] = sum(self_time(i) for i in named("jarzynski.verify"))
    m["jarzynski.identity_residual"] = max(
        (spans[i][5]["residual"] for i in named("jarzynski.verify")),
        default=0.0)

    m["oracle.thermal_fock_s"] = total("oracle.thermal_fock")
    m["oracle.wigner_s"] = total("oracle.wigner")
    m["oracle.audit_s"] = total("oracle.audit")
    m["config.load_s"] = total("config.load")
    m["cli.self_s"] = sum(self_time(i) for i in named("cli.main"))
    return m
