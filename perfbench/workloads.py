"""One round of one benchmark workload, in a fresh single-threaded process.

Usage: python3 perfbench/workloads.py WORKLOAD SEED MODE

MODE is ``run`` (time each call, calibrated by ``calibrate.Calibrator``),
``trace`` (the same calls with every layer wrapped by ``tracer.Tracer``) or
``setup`` (set up and stop).  The last line of standard output is one JSON
object with the set-up time, one record per timed call (wall, CPU and, in
``run`` mode, normalized CPU time; output digest; check verdict) and the
process's peak RSS.  ``sinegordon`` is imported from ``src``
of the checkout, which ``run.py`` puts on ``PYTHONPATH``.

Each workload keeps its acceptance criterion's configuration and predicate;
only the unit counts (fields, samples, seeds, trials) are smaller, chosen so
the predicate holds with a wide margin at every seed.
"""

import time

# Set-up is timed from the first import on, in CPU time like every timed call.
CPU_AT_IMPORT = time.process_time()

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import resource
import sys
import traceback
from fractions import Fraction

import calibrate


def _digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _run_cli(argv):
    from sinegordon import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Call:
    """One timed call: ``fn()`` returns (output digest, check ok, extras)."""

    def __init__(self, name, fn, units):
        self.name, self.fn, self.units = name, fn, units


# --- chaos (criterion 09) ------------------------------------------------------

# chaos_mean is criterion 09's call verbatim, at the criterion's own seed.
# Its two-component 3-SE check is a statistical test that fails at some
# seeds at any size (seed 108 with 64 fields, seed 204 with 256 fields), so
# only the correlation call takes the run's seed.
CHAOS_MEAN_SEED = 11
CHAOS_MEAN_FIELDS = 64
CHAOS_SLOPE_FIELDS = 256


def setup_chaos(seed):
    import numpy  # noqa: F401  (timed as part of set-up)
    from sinegordon import stochastic as st
    lat512, lat256 = st.TorusLattice(512), st.TorusLattice(256)
    eps, beta_sq = 2.0**-7, Fraction(5)

    def mean():
        stats = st.chaos_mean(lat256, eps, beta_sq, seed=CHAOS_MEAN_SEED,
                              n_fields=CHAOS_MEAN_FIELDS)
        rel_se = stats.se_re / abs(stats.mean_re)
        return (_digest(dataclasses.asdict(stats)), stats.within_3se,
                {"rel_se": rel_se})

    def slopes():
        rep = st.correlation_slopes(lat512, eps, beta_sq, seed=seed,
                                    n_fields=CHAOS_SLOPE_FIELDS,
                                    shifts=[8, 16, 32, 64, 80],
                                    want_same=False, condition_modes=8)
        ok = abs(rep.opposite_slope - (-2.5)) < 0.1 * 2.5
        return _digest(rep.as_dict()), ok, {}

    return [Call("chaos_mean", mean, CHAOS_MEAN_FIELDS),
            Call("correlation_slopes", slopes, CHAOS_SLOPE_FIELDS)]


# --- dipole (criterion 10) -------------------------------------------------------

DIPOLE_SAMPLES = 2      # trajectories in the measured and in the counter batch


def setup_dipole(seed):
    import numpy  # noqa: F401
    from sinegordon import stochastic as st
    lat = st.TorusLattice(128, dt=2.0**-11)
    cfg = st.DipoleConfig(n_samples=DIPOLE_SAMPLES, n_counter=DIPOLE_SAMPLES)
    steps = round(cfg.t_burn / cfg.dt) + round(cfg.t_measure / cfg.dt)

    def moment():
        rep = st.dipole_moment(lat, cfg, seed=seed)
        ok = -1.3 <= rep.slope <= -0.7 and rep.ablation_gap >= 0.2
        i = rep.lambdas.index(min(rep.lambdas))
        rel_se = rep.stderrs[i] / rep.second_moments[i]
        return _digest(rep.as_dict()), ok, {"rel_se": rel_se}

    return [Call("dipole_moment", moment,
                 2 * DIPOLE_SAMPLES * steps)]


# --- converge (criterion 11, through the CLI) ------------------------------------

# Criterion 11's own 8 seeds: with 2, the second ratio exceeded 0.85 at
# seeds 508-509 (one seed alone: mean 0.72, sd 0.084 over seeds 500-539).
CONVERGE_SEEDS = 8


def setup_converge(seed):
    import numpy  # noqa: F401
    from sinegordon import cli, stochastic  # noqa: F401
    dt, t_end = 2.0**-10, 0.25
    widths = [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]
    argv = ["sim", "converge", "--beta2-over-pi", "2", "--n", "128",
            "--dt", repr(dt), "--eps-list", *map(repr, widths),
            "--t-end", repr(t_end), "--seed", str(seed),
            "--seeds", str(CONVERGE_SEEDS)]

    def converge():
        rc, text = _run_cli(argv)
        res = json.loads(text)["results"]
        ok = (rc == 0 and all(r <= 0.85 for r in res["ratios"])
              and res["max_imag"] < 1e-10 and res["swap_ok"])
        return _digest(text), ok, {}

    # four Gaussian widths plus the quartic swap, each stepped to t_end
    units = (len(widths) + 1) * round(t_end / dt) * CONVERGE_SEEDS
    return [Call("sim_converge", converge, units)]


# --- audit (criteria 05 and 06, and the 8-vertex power audit) -------------------

AUDIT_TRIALS = 200

# Verdict and minimum margin of each criterion-06 audit, recorded exactly at
# the commit that introduced this benchmark.  The ``checked`` counts are
# left out on purpose: reformulating an audit may legitimately change them.
SIGN_EXPECTED = [
    # (beta_bar, audit, ok, min_margin) for the four sign audits per coupling
    ("5/4", "big-graph/all", True, "3"),
    ("5/4", "big-graph/none", True, "3/2"),
    ("5/4", "large-scale", True, "1/4"),
    ("5/4", "inner", True, "None"),      # checks no cluster at this commit
    ("7/5", "big-graph/all", True, "12/5"),
    ("7/5", "big-graph/none", True, "6/5"),
    ("7/5", "large-scale", True, "2/5"),
    ("7/5", "inner", True, "None"),
]
POWER_ARGV = ["power", "audit", "--beta-bar", "5/4", "--p", "2",
              "--forest", "1,2", "--context", "big-graph"]
POWER_EXPECTED = (True, "3/2")


def setup_audit(seed):
    from sinegordon import cli  # noqa: F401
    from sinegordon import moment_diagrams as md
    from sinegordon import multiscale as ms
    from sinegordon import power_counting as pc
    from sinegordon.tree_core import (DecoratedTree, ModelParams, XI_MINUS,
                                      XI_PLUS, dipole)
    tau4 = DecoratedTree("-", (0, 0, 0), (XI_PLUS, XI_PLUS, XI_MINUS))
    tau6 = DecoratedTree("-", (0, 0, 0), (
        XI_PLUS, DecoratedTree("+", (0, 0, 0), (XI_PLUS, XI_MINUS, XI_PLUS))))

    def params(bb):
        return ModelParams.from_beta_bar(Fraction(bb))

    d_trials = md.build_diagram(dipole(), 1, params("5/4"))
    d_sign = {bb: md.build_diagram(dipole(), 1, params(bb))
              for bb in ("5/4", "7/5")}
    identity_cases = [
        (md.build_diagram(tau, 1, params(bb)), S)
        for bb, tau, S in [("5/4", dipole(), frozenset({1, 2})),
                           ("7/5", dipole(), frozenset({1, 2})),
                           ("5/4", tau4, frozenset({1, 2, 3, 4})),
                           ("7/5", tau4, frozenset({1, 2, 3, 4})),
                           ("7/4", tau6, frozenset(range(1, 7)))]]

    def trials():
        rng = random.Random(seed)
        d = d_trials
        forests = d.enumerate_forests()
        ok, record = True, []
        for _ in range(AUDIT_TRIALS):
            n = ms.ScaleAssignment.random_assignment(d, 4, rng)
            rep = ms.organize_and_check(d, n)
            ok = ok and rep.ok and rep.n_pairs == 9
            images = {ms.safe_projection(d, F, n) for F in forests}
            covered = 0
            for img in images:
                interval = ms.preimage_interval(d, img, n, forests)
                ok = ok and interval is not None and interval.lower == img
                covered += len(interval.members(forests))
            ok = ok and covered == len(forests)
            record.append([rep.ok, rep.n_pairs, rep.n_cells, covered])
        return _digest(record), ok, {}

    def sign_identity():
        got = []
        for bb, d in d_sign.items():
            dv = tuple(d.divergent_subtrees())
            for audit, rep in [
                ("big-graph/all", pc.sign_audit_big_graph(d, dv)),
                ("big-graph/none", pc.sign_audit_big_graph(d, ())),
                ("large-scale", pc.sign_audit_large_scale(
                    d, (), d_cut=d.cut_sites())),
                ("inner", pc.sign_audit_inner(d, dv[0], dv)),
            ]:
                got.append((bb, audit, rep.ok, str(rep.min_margin)))
        ok = got == SIGN_EXPECTED
        record = [list(g) for g in got]
        for d, S in identity_cases:
            rep = pc.identity_audit(d, S, (S,))
            ok = ok and rep.ok
            record.append([rep.ok, rep.checked])
        ok = ok and sum(checked for _, checked in record[len(got):]) > 0
        return _digest(record), ok, {}

    def power():
        rc, text = _run_cli(POWER_ARGV)
        res = json.loads(text)["results"]
        ok = rc == 0 and (res["ok"], res["margins"]["min"]) == POWER_EXPECTED
        return _digest(text), ok, {}

    return [Call("multiscale_trials", trials, AUDIT_TRIALS),
            Call("sign_identity_audits", sign_identity,
                 len(SIGN_EXPECTED) + len(identity_cases)),
            Call("power_audit_p2", power, 1)]


SETUPS = {"chaos": setup_chaos, "dipole": setup_dipole,
          "converge": setup_converge, "audit": setup_audit}

# Reference kernel of each workload and its nominal CPU time (calibrate.py).
# The nominal times are the kernels' median CPU times on the machine that
# recorded BASELINE.md, so normalized times read as CPU seconds there.
KERNELS = {
    "chaos": (lambda: calibrate.numpy_kernel(512, 1), 0.0282),
    "dipole": (lambda: calibrate.numpy_kernel(128, 12), 0.0153),
    "converge": (lambda: calibrate.numpy_kernel(128, 12), 0.0153),
    "audit": (lambda: calibrate.python_kernel(800), 0.0139),
}


def run(workload: str, seed: int, mode: str) -> dict:
    calls = SETUPS[workload](seed)
    out = {"setup_s": time.process_time() - CPU_AT_IMPORT, "calls": []}
    if mode == "setup":
        return out
    tracer = None
    if mode == "run":
        make_kernel, nominal_s = KERNELS[workload]
        cal = calibrate.Calibrator(make_kernel(), nominal_s)
    else:
        from tracer import BENCH, Tracer
        tracer = Tracer()
        tracer.install()
    try:
        for call in calls:
            rec = {"name": call.name, "units": call.units, "ok": False}
            t0, cpu0 = time.perf_counter(), time.process_time()
            try:
                with cal if tracer is None else tracer.span(BENCH):
                    digest, ok, extra = call.fn()
                rec.update(digest=digest, ok=bool(ok), **extra)
            except Exception:  # a failed operation is counted, not fatal
                rec["error"] = traceback.format_exc(limit=3)
            rec["wall_s"] = time.perf_counter() - t0
            rec["cpu_s"] = time.process_time() - cpu0
            if tracer is None:
                rec["wall_s"] -= cal.spent_wall
                rec["cpu_s"] -= cal.spent_cpu
                rec["norm_cpu_s"] = cal.norm_cpu_s()
                rec["speed"] = cal.speed()
            out["calls"].append(rec)
    finally:
        if tracer is not None:
            out["restored"] = tracer.restore()
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["self_total_s"] = tracer.self_total()
        out["top_level_s"] = tracer.top_level_total()
    return out


def main(argv) -> int:
    if len(argv) != 3 or argv[0] not in SETUPS \
            or argv[2] not in ("run", "trace", "setup"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    print(json.dumps(run(argv[0], int(argv[1]), argv[2])), flush=True)
    return 0


if __name__ == "__main__":
    # Skip interpreter teardown: freeing the power audit's hierarchies takes
    # seconds and is not part of any metric.
    os._exit(main(sys.argv[1:]))
