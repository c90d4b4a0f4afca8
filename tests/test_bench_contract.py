"""The benchmark's tracer finds every function it wraps.

``bench/tracing.py`` looks the traced functions up on ``harvestsim`` by
name, so renaming or deleting one breaks the traced benchmark run.  The
tracer is imported the way ``bench/run.py`` imports ``tests/oracles.py``:
its directory goes on ``sys.path``.
"""
from pathlib import Path

import pytest

import harvestsim
import harvestsim.cli  # noqa: F401  (loads every module, as bench/run.py does)
from test_core import fig_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def test_traced_functions_resolve(tracing):
    for module, name, _, _ in tracing.TRACED:
        assert callable(getattr(getattr(harvestsim, module), name)), f"{module}.{name}"


def test_traced_report_records_state_time(tracing):
    tracer = tracing.Tracer().install()
    try:
        harvestsim.core.evaluate_scenario(fig_scenario(delta=0.15))  # the wrapped one
    finally:
        tracer.uninstall()
    summary = tracer.summary(1)
    assert summary["core.evaluate_scenario.calls"] == 1
    assert summary["core.state_s"] > 0.0


def test_tracer_sees_every_integral(tracing):
    # each public integral runs through the one adaptive loop the tracer wraps
    s = fig_scenario()
    cases = {
        "i_nn": lambda: harvestsim.core.compute_I_nn(s.det_a),
        "i_ab": lambda: harvestsim.core.compute_I_AB(s),
        "j": lambda: harvestsim.core.compute_J(s),
        "j_smeared": lambda: harvestsim.core.compute_J_smeared(fig_scenario(delta=0.15)),
        "j_time_smeared": lambda: harvestsim.core.compute_J_time_smeared(s, 0.005),
    }
    tracer = tracing.Tracer().install()
    try:
        for name, run in cases.items():
            tracer.op = name
            run()
    finally:
        tracer.uninstall()
    for name in cases:
        evaluations, _, overruns = tracer.probe(name)
        assert evaluations > 0, name
        assert overruns == 0, name


def test_tracer_sees_each_integral_of_a_single_point(tracing, monkeypatch):
    # a single point at x = r0/delta = 1 runs its remainder route: I_nn, the
    # I_AB/J pair, C and the frequency remainder, each a group of one that
    # ``core._run_group`` sends through the ``integrate_radial`` the tracer wraps
    groups, run_group = [], harvestsim.core._run_group

    def recorded(members, settings):
        groups.append(len(members))
        return run_group(members, settings)

    monkeypatch.setattr(harvestsim.core, "_run_group", recorded)
    tracer = tracing.Tracer().install()
    try:
        harvestsim.core.evaluate_scenario(fig_scenario(delta=0.15))
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s[0] == "quadrature.integrate_radial"]
    assert groups == [1] * 4 and len(spans) == 4
    assert tracer.probe(None) == (660, 1, 0)
