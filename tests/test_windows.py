"""The validity windows of the five experiments of ``stochastic``.

Each experiment refuses, before any work, every configuration outside its
window, a lazy sequence of rules (name, holds, message) checked by
``_refuse``.  The walk below breaks each rule of each window in turn and
expects exactly that rule's message; it also checks that a configuration
just inside each bound is accepted by the window, without running the
experiment.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sinegordon import stochastic
from sinegordon.stochastic import (
    DipoleConfig, TorusLattice, chaos_mean, convergence_study,
    correlation_slopes, dipole_moment, solve_pde,
)

ROOT = Path(__file__).resolve().parents[1]
LAT32 = TorusLattice(32, dt=2.0**-8)
LAT64 = TorusLattice(64, dt=2.0**-9)


def _v0(kw):
    v0 = kw["v0"]
    return np.zeros((kw["lat"].n,) * 2) if v0 is None else v0


#: experiment -> (a valid configuration, the call of the experiment on a
#: configuration, the call of its window on one)
EXPERIMENTS = {
    "chaos_mean": (
        dict(lat=LAT32, eps=2.0**-3, beta_sq=Fraction(2), n_fields=2),
        lambda kw: chaos_mean(kw["lat"], kw["eps"], kw["beta_sq"], 0,
                              n_fields=kw["n_fields"]),
        lambda kw: stochastic._chaos_mean_window(kw["n_fields"]),
    ),
    "correlation_slopes": (
        dict(lat=LAT32, eps=2.0**-4, shifts=[4, 8], n_fields=1,
             condition_modes=None),
        lambda kw: correlation_slopes(
            kw["lat"], kw["eps"], Fraction(1), 0, n_fields=kw["n_fields"],
            shifts=kw["shifts"], condition_modes=kw["condition_modes"]),
        lambda kw: stochastic._correlation_slopes_window(
            kw["lat"], kw["eps"], kw["shifts"], kw["n_fields"],
            kw["condition_modes"]),
    ),
    "dipole_moment": (
        dict(lat=LAT32, cfg=dict(eps=2.0**-4, dt=2.0**-8,
                                 lambdas=(2.0**-2, 2.0**-3), n_samples=1)),
        lambda kw: dipole_moment(kw["lat"], DipoleConfig(**kw["cfg"]), 0),
        lambda kw: stochastic._dipole_moment_window(
            kw["lat"], DipoleConfig(**kw["cfg"])),
    ),
    "solve_pde": (
        dict(lat=LAT32, beta_sq=Fraction(2), t_end=2.0**-8, v0=None,
             record_every=None),
        lambda kw: solve_pde(kw["lat"], 2.0**-3, kw["beta_sq"], 0,
                             kw["t_end"], v0=kw["v0"],
                             record_every=kw["record_every"]),
        lambda kw: stochastic._solve_pde_window(
            kw["lat"], kw["beta_sq"], kw["t_end"], _v0(kw),
            kw["record_every"]),
    ),
    "convergence_study": (
        dict(lat=LAT32, beta_sq=Fraction(2), eps_list=[2.0**-2, 2.0**-3],
             seeds=[0], t_end=2.0**-8),
        lambda kw: convergence_study(kw["lat"], kw["beta_sq"],
                                     kw["eps_list"], kw["seeds"],
                                     t_end=kw["t_end"]),
        lambda kw: stochastic._convergence_study_window(
            kw["lat"], kw["beta_sq"], sorted(kw["eps_list"], reverse=True),
            list(kw["seeds"]), kw["t_end"]),
    ),
}

BELOW_4 = Fraction(3999999, 1000000)
HALF_STEP = 2.0**-9           # t_end / dt = 1/2 rounds to no step
HUGE = 2.0**1000              # finite, and t_end / dt stays finite

#: (experiment, rule, changes that break only that rule, changes just
#: inside its bound, the refusal's exact message)
RULES = [
    ("chaos_mean", "fields", dict(n_fields=1), dict(n_fields=2),
     "n_fields = 1: need at least two fields"),
    # 2 eps n = 16 cells on 64^2 at eps = 2^-3
    ("correlation_slopes", "separation",
     dict(lat=LAT64, eps=2.0**-3, shifts=[2, 4], n_fields=64),
     dict(lat=LAT64, eps=2.0**-3, shifts=[16, 32]),
     "insufficient scale separation for the fit window"),
    ("correlation_slopes", "wrap", dict(shifts=[4, 17]),
     dict(shifts=[4, 16]),
     "shifts above n/2 = 16 cells wrap around the torus"),
    ("correlation_slopes", "shifts", dict(shifts=[8, 8]),
     dict(shifts=[8, 9]), "need at least two distinct shifts"),
    ("correlation_slopes", "condition_modes", dict(condition_modes=-1),
     dict(condition_modes=0), "condition_modes = -1 is negative"),
    ("correlation_slopes", "fields", dict(n_fields=0), dict(n_fields=1),
     "n_fields = 0: need at least one field"),
    ("dipole_moment", "coupling", dict(beta_sq=Fraction(4)),
     dict(beta_sq=Fraction(4000001, 1000000)),
     "dipole scaling window requires beta^2 in (4pi, 16pi/3)"),
    ("dipole_moment", "coupling", dict(beta_sq=Fraction(16, 3)),
     dict(beta_sq=Fraction(16, 3) - Fraction(1, 1000000)),
     "dipole scaling window requires beta^2 in (4pi, 16pi/3)"),
    ("dipole_moment", "dt", dict(dt=0.0), dict(dt=2.0**-8),
     "time step dt = 0.0 must be positive and finite"),
    ("dipole_moment", "lattice_dt", dict(dt=2.0**-9), dict(dt=2.0**-8),
     "time step dt = 0.001953125 is not the lattice's 0.00390625"),
    ("dipole_moment", "lambdas", dict(lambdas=(2.0**-2, 2.0**-2)),
     dict(lambdas=(2.0**-2, 2.0**-3)), "need at least two distinct lambdas"),
    # 2^-3 is 4 cells of 32^2
    ("dipole_moment", "lambda_floor",
     dict(lambdas=(2.0**-2, np.nextafter(2.0**-3, 0.0))),
     dict(lambdas=(2.0**-2, 2.0**-3)),
     "smallest lambda is below 4 grid cells"),
    # lambda = 2^-1 averages blocks of 16 slices of dt = 2^-8
    ("dipole_moment", "blocks",
     dict(lambdas=(2.0**-1, 2.0**-2), t_measure=31 * 2.0**-8),
     dict(lambdas=(2.0**-1, 2.0**-2), t_measure=32 * 2.0**-8),
     "lambda = 0.5: t_measure holds 31 measured slices, fewer than 2 time "
     "blocks of 16"),
    ("dipole_moment", "samples", dict(n_samples=0), dict(n_samples=1),
     "n_samples = 0: need at least one sample"),
    ("solve_pde", "v0_shape", dict(v0=np.zeros((32, 33))),
     dict(v0=np.zeros((32, 32))), "v0 has shape (32, 33), not (32, 32)"),
    ("solve_pde", "record_every", dict(record_every=0),
     dict(record_every=1), "record_every = 0 is below 1"),
    ("solve_pde", "coupling", dict(beta_sq=Fraction(4)),
     dict(beta_sq=BELOW_4), "pde solver requires beta^2 < 4*pi"),
    ("solve_pde", "t_end", dict(t_end=np.inf), dict(t_end=HUGE),
     "t_end = inf is not finite"),
    ("solve_pde", "t_end", dict(t_end=np.nan), dict(t_end=HUGE),
     "t_end = nan is not finite"),
    ("solve_pde", "steps", dict(t_end=HALF_STEP),
     dict(t_end=np.nextafter(HALF_STEP, 1.0)),
     f"t_end = {HALF_STEP} rounds to no step of dt = 0.00390625"),
    ("convergence_study", "widths", dict(eps_list=[2.0**-3]),
     dict(eps_list=[2.0**-2, 2.0**-3]), "need at least two widths"),
    ("convergence_study", "cascade",
     dict(eps_list=[2.0000000012 * 2.0**-3, 2.0**-3]),
     dict(eps_list=[2.0000000008 * 2.0**-3, 2.0**-3]),
     "widths must form a dyadic cascade"),
    ("convergence_study", "seeds", dict(seeds=[]), dict(seeds=[0]),
     "need at least one seed"),
    ("convergence_study", "coupling", dict(beta_sq=Fraction(4)),
     dict(beta_sq=BELOW_4), "pde solver requires beta^2 < 4*pi"),
    ("convergence_study", "t_end", dict(t_end=-np.inf), dict(t_end=HUGE),
     "t_end = -inf is not finite"),
    ("convergence_study", "steps", dict(t_end=HALF_STEP),
     dict(t_end=np.nextafter(HALF_STEP, 1.0)),
     f"t_end = {HALF_STEP} rounds to no step of dt = 0.00390625"),
]


def _config(experiment, changes):
    base = EXPERIMENTS[experiment][0]
    if experiment == "dipole_moment":       # the changes are the cfg's
        return dict(base, cfg={**base["cfg"], **changes})
    return {**base, **changes}


def _failing(window):
    """The name of the first rule of ``window`` that fails, or None."""
    return next((name for name, holds, _ in window if not holds), None)


@pytest.fixture
def no_work(monkeypatch):
    """Every experiment reads a variance table before anything else it
    computes: make that read fail, so a refusal shows it came first."""
    def work(*args, **kwargs):
        raise AssertionError("the experiment started before its window")

    monkeypatch.setattr(TorusLattice, "mode_variances", work)


def _case_ids(rules):
    """experiment-rule, numbered from the second case of one rule on."""
    ids, names = [], []
    for experiment, rule, *_ in rules:
        names.append(f"{experiment}-{rule}")
        seen = names.count(names[-1])
        ids.append(names[-1] if seen == 1 else f"{names[-1]}-{seen}")
    return ids


@pytest.mark.parametrize("experiment, rule, outside, inside, message", RULES,
                         ids=_case_ids(RULES))
def test_rule_refuses_outside_and_accepts_inside(no_work, experiment, rule,
                                                 outside, inside, message):
    _, run, window = EXPERIMENTS[experiment]
    assert _failing(window(_config(experiment, outside))) == rule
    with pytest.raises(ValueError) as exc:
        run(_config(experiment, outside))
    assert str(exc.value) == message
    assert _failing(window(_config(experiment, inside))) is None


def _names(experiment):
    """The rule names of a window on its valid configuration, in order."""
    base, _, window = EXPERIMENTS[experiment]
    return list(dict.fromkeys(name for name, _, _ in window(base)))


def test_the_walk_covers_every_rule():
    walked = {(e, r) for e, r, *_ in RULES}
    assert walked == {(e, r) for e in EXPERIMENTS for r in _names(e)}


def test_windows_are_lazy():
    # min() of no lambdas would raise: the rule before it refuses first
    cfg = DipoleConfig(eps=2.0**-4, dt=2.0**-8, lambdas=())
    with pytest.raises(ValueError, match="two distinct lambdas"):
        dipole_moment(LAT32, cfg, seed=0)


def test_no_raise_outside_the_windows():
    """Every refusal of the experiments and the shifted equation's helpers
    comes from a window, through ``_refuse``."""
    tree = ast.parse(Path(stochastic.__file__).read_text(encoding="utf-8"))
    guarded = {"chaos_mean", "correlation_slopes", "dipole_moment",
               "solve_pde", "convergence_study", "_width_forcings",
               "_shifted_steps"}
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in guarded:
            found[node.name] = [n.lineno for n in ast.walk(node)
                                if isinstance(n, ast.Raise)]
    assert found == {name: [] for name in guarded}


#: sim command -> the experiment whose window it reaches
SIM_WINDOWS = {"field": "chaos_mean", "dipole": "dipole_moment",
               "pde": "solve_pde", "converge": "convergence_study"}


def test_readme_lists_each_sim_window():
    lists, current = {}, None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        command = re.match(r"- `sim (\w+)`.* window:$", line)
        rule = re.match(r"  - `(\w+)`:", line)
        if command:
            current = lists.setdefault(command.group(1), [])
        elif rule and current is not None:
            current.append(rule.group(1))
        elif not line.startswith("    "):     # not a rule's continuation
            current = None
    assert lists == {sim: _names(e) for sim, e in SIM_WINDOWS.items()}
