"""Tests of the benchmark's own tracer and calibrator.

Run from the root of the repository:

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/test_perfbench.py

They use small lattices and diagrams so they finish in seconds; the full
workloads check the same properties on every traced run (``run.py``).
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

from sinegordon import cli, moment_diagrams, multiscale, power_counting
from sinegordon import stochastic as st
from sinegordon.tree_core import ModelParams, dipole

import calibrate
from tracer import LAYERS, Tracer, metric_names


def _small_outputs():
    """Outputs of one call into every traced layer, as comparable data."""
    lat = st.TorusLattice(32, dt=2.0**-9)
    out = [repr(st.chaos_mean(lat, 2.0**-3, Fraction(5), seed=3, n_fields=4))]
    rep = st.correlation_slopes(lat, 2.0**-3, Fraction(5), seed=3, n_fields=2,
                                shifts=[8, 16], want_same=False,
                                condition_modes=4)
    out.append(rep.as_dict())
    cfg = st.DipoleConfig(eps=2.0**-3, lambdas=(2.0**-2, 2.0**-3),
                          dt=2.0**-9, t_burn=0.01, t_measure=0.05,
                          n_samples=1, n_counter=1)
    out.append(st.dipole_moment(lat, cfg, seed=3).as_dict())
    out.append(st.convergence_study(lat, Fraction(2), [2.0**-2, 2.0**-3],
                                    [0], t_end=2.0**-6).as_dict())
    d = moment_diagrams.build_diagram(
        dipole(), 1, ModelParams.from_beta_bar(Fraction(5, 4)))
    n = multiscale.ScaleAssignment.constant(d, 2)
    out.append(repr(multiscale.organize_and_check(d, n)))
    dv = tuple(d.divergent_subtrees())
    out.append(power_counting.sign_audit_big_graph(d, dv).as_dict())
    out.append(power_counting.sign_audit_inner(d, dv[0], dv).as_dict())
    out.append(power_counting.sign_audit_large_scale(
        d, (), d_cut=d.cut_sites()).as_dict())
    out.append(power_counting.identity_audit(
        d, frozenset({1, 2}), (frozenset({1, 2}),)).as_dict())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["power", "audit", "--beta-bar", "5/4"])
    out.append((rc, buf.getvalue()))
    return json.dumps(out, sort_keys=True, default=str)


def test_traced_outputs_equal_untraced_and_originals_restored():
    tracer = Tracer()
    plain = _small_outputs()
    tracer.install()
    originals = [(owner, attr, orig) for owner, attr, orig in tracer._patches]
    try:
        traced = _small_outputs()
    finally:
        restored = tracer.restore()
    assert traced == plain
    assert restored
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in originals)

    stats = tracer.summary()
    for name, *_ in LAYERS:
        assert stats[f"{name}.calls"] > 0, name
    assert stats["stochastic.collect.calls"] > 0
    # derived_edge_sets is reached through multiscale's and power_counting's
    # own bindings, not through moment_diagrams
    assert stats["moment_diagrams.derived_edge_sets.calls"] > 0
    assert 0 < stats["moment_diagrams.derived_edge_sets.distinct_ratio"] <= 1
    assert stats["power_counting.all_coalescence_trees.hierarchies"] > 0
    assert abs(tracer.self_total() - tracer.top_level_total()) < 1e-9


def test_per_layer_names_match_benchmark_json():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    want = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert want == metric_names()


def test_calibrator_slices_call_and_restores_timer():
    import signal
    import time
    kernel = calibrate.python_kernel(50)
    before = signal.getsignal(signal.SIGPROF)
    with calibrate.Calibrator(kernel, 1.0) as cal:
        t0 = time.process_time()
        while time.process_time() - t0 < 3 * calibrate.PERIOD_S:
            sum(range(1000))
    assert len(cal.slices) >= 3
    assert len(cal.kernel_s) == len(cal.slices) + 1
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    # each slice is rescaled by the mean of the kernels around it
    k = cal.kernel_s
    want = sum(c / ((k[i] + k[i + 1]) / 2) for i, c in enumerate(cal.slices))
    assert abs(cal.norm_cpu_s() - want) < 1e-9 * want
