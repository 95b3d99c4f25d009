import numpy as np
import pytest

from scjarz import dynamics, stationary


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running numerical studies")


@pytest.fixture(autouse=True)
def cold_linear_memo():
    """Every test starts with an empty memo of width-1 linear flows
    (``dynamics._linear_monodromy``) and of their moments
    (``_arc_moments``, ``_action_moments``), so no kernel count or cache
    count depends on which tests ran before it."""
    for memo in (dynamics._linear_monodromy, dynamics._arc_moments,
                 dynamics._action_moments):
        memo.cache_clear()


@pytest.fixture()
def newton_rungs(monkeypatch):
    """(hbar_beta, largest residual) of every ``_newton_stage`` run, in
    order: a solve's direct stage, then each rung of its ladder."""
    rungs = []
    stage = stationary._newton_stage

    def recorded(map_fn, *args):
        out = stage(map_fn, *args)
        rungs.append((map_fn.keywords["hbar_beta"], float(np.max(out[4]))))
        return out

    monkeypatch.setattr(stationary, "_newton_stage", recorded)
    return rungs


@pytest.fixture()
def kernel_runs(monkeypatch):
    """(stack shape, hook) of every array-kernel run (``_rk4_steps``), in
    order: the hook is None for a run without one, True for a path
    recorder (``_recorder``) and False for any other, such as a sum
    accumulated as the kernel steps."""
    runs, recorders = [], []
    kernel, recorder = dynamics._rk4_steps, dynamics._recorder

    def spy(model, c, d, t0, dt, P, Q, h, n_steps, sample=None):
        runs.append((P.shape, None if sample is None
                     else any(sample is r for r in recorders)))
        return kernel(model, c, d, t0, dt, P, Q, h, n_steps, sample)

    def recording(*args):
        path, record = recorder(*args)
        recorders.append(record)
        return path, record

    monkeypatch.setattr(dynamics, "_rk4_steps", spy)
    monkeypatch.setattr(dynamics, "_recorder", recording)
    return runs
