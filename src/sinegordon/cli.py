"""Command-line entry point exposing every workflow of the package.

Subcommand groups::

    trees       enum | classify         catalog enumeration and classification
    renorm      cancel                  counterterm cancellation certificate
    diagram     terms | audit           moment-term inventory and audits
    multiscale  audit                   scale-assignment partition checks
    power       audit                   cluster power-counting audits
    sim         field | dipole | pde | converge    Monte Carlo studies

Each ``cmd_*`` handler returns ``(results, ok)``; ``main`` alone writes the
report, to stdout or ``--out``, and maps ``ok`` to the exit code: 0 success,
1 audit/criterion failure, 2 usage or domain error (an unwritable output file
included), 3 internal error.  All rational parameters are passed as exact
strings ("5", "503/300"); floats are reserved for lattice and tolerance knobs.
Every report embeds a schema version plus the fully resolved configuration,
and identical (config, seed) pairs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from fractions import Fraction
from itertools import combinations

from . import __version__
from .tree_core import (ModelParams, SupercriticalError, dipole,
                        canonical_key, parse_key)
from .rule_engine import enumerate_negative_trees, enumerate_trees
from .counterterm import cancellation_report
from .moment_diagrams import (build_diagram, moment_terms,
                              multilinearity_audit, uncut_terms)
from .multiscale import ScaleAssignment, organize_and_check
from .power_counting import (identity_audit, sign_audit_big_graph,
                             sign_audit_inner, sign_audit_large_scale)

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational: {text!r}") from exc


def _params_from(args) -> ModelParams:
    beta_sq = _rational(args.beta2_over_pi)
    # the sim commands read beta^2 only and have no --beta-bar
    beta_bar = getattr(args, "beta_bar", None)
    if beta_bar is not None:
        beta_bar = _rational(beta_bar)
    return ModelParams.make(beta_sq, beta_bar=beta_bar)


def _check_counts(args, **lows):
    """Refuse each count ``args.<dest>`` below its least value ``lows[dest]``."""
    for dest, low in lows.items():
        value = getattr(args, dest)
        if value < low:
            raise UsageError(f"--{dest} must be >= {low}, got {value}")


def _write(flag: str, path: str, text: str):
    """Write ``text`` to ``path``: an unwritable ``flag`` is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"{flag}: {exc.strerror}: {path}") from exc


def _check_writable(flag: str, path: str):
    """Refuse ``path`` as ``_write`` would, and leave it as it was."""
    new = not os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise UsageError(f"{flag}: {exc.strerror}: {path}") from exc
    if new:
        os.remove(path)


def _emit(args, results):
    """Write the report of ``results`` to ``--out``, else to stdout."""
    config = {k: (str(v) if isinstance(v, Fraction) else v)
              for k, v in sorted(vars(args).items())
              if k != "func" and v is not None}
    text = json.dumps({"schema_version": SCHEMA_VERSION, "config": config,
                       "results": results},
                      sort_keys=True, indent=2, default=str) + "\n"
    if args.out:
        _write("--out", args.out, text)
    else:
        sys.stdout.write(text)


def _write_csv(args, rows):
    """Write (scale, estimate, stderr) ``rows`` to ``--out-csv``, if given."""
    if args.out_csv:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["scale", "estimate", "stderr"])
        w.writerows([repr(float(v)) for v in row] for row in rows)
        _write("--out-csv", args.out_csv, buf.getvalue())


# --- combinatorial subcommands -------------------------------------------------


def _catalog(args):
    """The full catalog below ``--mu``, which only the trees commands read."""
    mu = None if args.mu is None else _rational(args.mu)
    return enumerate_trees(_params_from(args), mu)


def cmd_trees_enum(args):
    return {"catalog": _catalog(args).export()}, True


def cmd_trees_classify(args):
    cat = _catalog(args)   # classifies the catalog too
    return {
        "total": len(cat.all),
        "negative": sorted(cat.negative),
        "negative_neutral": sorted(cat.negative_neutral),
    }, True


def cmd_renorm_cancel(args):
    ledger = cancellation_report(enumerate_negative_trees(_params_from(args)))
    return ledger.export(), ledger.ok


def _diagram_from(args, params):
    tau = dipole() if args.tree == "dipole" else parse_key(args.tree)
    return build_diagram(tau, args.p, params)


def cmd_diagram_terms(args):
    d = _diagram_from(args, _params_from(args))
    terms = moment_terms(d)
    return {
        "tree": canonical_key(d.tau),
        "n_terms": len(terms),
        "terms": [t.as_dict() for t in terms],
    }, True


def cmd_diagram_audit(args):
    d = _diagram_from(args, _params_from(args))
    terms, n_terms = uncut_terms(d)
    rep = multilinearity_audit(d, terms)
    return {
        "tree": canonical_key(d.tau),
        "n_terms": n_terms,
        "n_pairs": rep.n_pairs,
        "ok": rep.ok,
        "failures": rep.failures,
    }, rep.ok


def cmd_multiscale_audit(args):
    # a run of no trials checks nothing, so its verdict could not fail
    _check_counts(args, ncap=0, trials=1)
    d = _diagram_from(args, _params_from(args))
    rng = random.Random(args.seed)
    failures = []
    interval_checks = 0
    partition_checks = 0
    for _ in range(args.trials):
        assignment = ScaleAssignment.random_assignment(d, args.ncap, rng)
        rep = organize_and_check(d, assignment)
        interval_checks += rep.interval_checks
        partition_checks += rep.compatibility_checks
        if not rep.ok:
            failures.append({"assignment": {str(k): v
                                            for k, v in assignment.n.items()},
                             "failures": rep.failures})
    return {
        "tree": canonical_key(d.tau),
        "trials": args.trials,
        "failures": failures,
        "interval_checks": interval_checks,
        "partition_checks": partition_checks,
    }, not failures


def _ids(flag: str, text: str | None, allowed, what: str) -> list[int]:
    """The comma-separated ids of ``text``; each must be in ``allowed``."""
    out = []
    for x in filter(None, (text or "").split(",")):
        try:
            u = int(x)
        except ValueError:
            raise UsageError(f"{flag}: not an integer id: {x!r}") from None
        if u not in allowed:
            raise UsageError(f"{flag}: {u} is not {what} of the diagram")
        out.append(u)
    return out


def _parse_forest(text: str | None, d):
    forest = tuple(frozenset(_ids("--forest", grp, d.nodes, "a node"))
                   for grp in (text or "").split(";") if grp)
    if len(set(forest)) != len(forest):
        raise UsageError(f"--forest: a member is repeated in {text!r}")
    for T in forest:  # a divergent subtree is connected
        if T not in d.divergent_subtrees():
            raise UsageError(f"--forest: {sorted(T)} is not a divergent subtree")
    for S, T in combinations(forest, 2):
        if S & T and not (S <= T or T <= S):
            raise UsageError(f"--forest: {sorted(S)} and {sorted(T)} overlap "
                             f"without nesting")
    return forest


def cmd_power_audit(args):
    d = _diagram_from(args, ModelParams.from_beta_bar(_rational(args.beta_bar)))
    forest = _parse_forest(args.forest, d)
    s_cut = tuple(_ids("--cuts", args.cuts, d.kernel_edges, "a kernel edge"))
    if args.context in ("inner", "identity"):
        if not forest:
            raise UsageError(f"--context {args.context}: requires --forest, "
                             f"whose first member is the audited subtree")
        if s_cut:
            raise UsageError(f"--cuts: --context {args.context} cuts no edges")
        audit = sign_audit_inner if args.context == "inner" else identity_audit
        rep = audit(d, forest[0], forest)
    elif args.context == "big-graph":
        rep = sign_audit_big_graph(d, forest, s_cut)
    else:
        rep = sign_audit_large_scale(d, forest, s_cut)
    out = rep.as_dict()
    out["margins"] = {"min": out.pop("min_margin"), "argmin": out.pop("argmin")}
    return out, rep.ok


# --- simulation subcommands ------------------------------------------------------


def cmd_sim_field(args):
    from . import stochastic as st
    _check_counts(args, samples=2)
    params = _params_from(args)
    lat = st.TorusLattice(args.n)     # no time stepping: dt is never read
    eps_list = args.eps_list or [2.0**-k for k in range(3, 8)
                                 if 2.0**-k >= lat.min_eps()]
    if args.eps_list is None and len(eps_list) < 2:
        raise UsageError(f"--n {args.n} resolves fewer than two default "
                         "widths 2^-3 ... 2^-7 (eps >= 2/n): give --eps-list")
    slope = st.renorm_slope(lat, eps_list, params.beta_sq)
    consts = [st.renorm_constant(lat, e, params.beta_sq) for e in eps_list]
    stats = st.chaos_mean(lat, args.eps, params.beta_sq, args.seed,
                          n_fields=args.samples)
    _write_csv(args, zip(eps_list, consts, [0.0] * len(consts)))
    return {
        "renorm_slope": slope,
        "target_slope": float(-float(params.beta_sq) / 4.0),
        "eps_list": eps_list,
        "constants": consts,
        "chaos_mean_re": stats.mean_re,
        "chaos_mean_im": stats.mean_im,
        "chaos_within_3se": stats.within_3se,
        "n_fields": stats.n_fields,
    }, True


def cmd_sim_dipole(args):
    from . import stochastic as st
    _check_counts(args, samples=1)
    params = _params_from(args)
    lat = st.TorusLattice(args.n, dt=args.dt)
    cfg = st.DipoleConfig(beta_sq=params.beta_sq, eps=args.eps,
                          lambdas=tuple(args.lam or st.DipoleConfig.lambdas),
                          dt=args.dt, n_samples=args.samples)
    rep = st.dipole_moment(lat, cfg, args.seed)
    _write_csv(args, zip(rep.lambdas, rep.second_moments, rep.stderrs))
    # criterion 10: slope -1 +- 0.3, and the counterterm moves it by >= 0.2
    return rep.as_dict(), -1.3 <= rep.slope <= -0.7 and rep.ablation_gap >= 0.2


def cmd_sim_pde(args):
    from . import stochastic as st
    params = _params_from(args)
    lat = st.TorusLattice(args.n, dt=args.dt)
    res = st.solve_pde(lat, args.eps, params.beta_sq, args.seed, args.t_end)
    return {
        "times": [float(t) for t in res.times],
        "max_imag": res.max_imag,
        "final_min": float(res.final.min()),
        "final_max": float(res.final.max()),
        "final_mean": float(res.final.mean()),
    }, res.max_imag < 1e-10     # the solution stays real


def cmd_sim_converge(args):
    from . import stochastic as st
    _check_counts(args, seeds=1)
    # the exit code rests on the ratios of successive d, which need 3 widths
    if args.eps_list is not None and len(args.eps_list) < 3:
        raise UsageError(f"--eps-list needs at least 3 widths, got "
                         f"{len(args.eps_list)}")
    params = _params_from(args)
    lat = st.TorusLattice(args.n, dt=args.dt)
    eps_list = args.eps_list or [2.0**-3, 2.0**-4, 2.0**-5]
    seeds = list(range(args.seed, args.seed + args.seeds))
    rep = st.convergence_study(lat, params.beta_sq, eps_list, seeds,
                               t_end=args.t_end)
    _write_csv(args, zip(rep.eps_list[1:], rep.d_values, rep.stderrs))
    # criterion 11: ratios <= 0.85, the swap gap, and a real solution
    return rep.as_dict(), rep.ratios_ok and rep.swap_ok and rep.max_imag < 1e-10


# --- argument plumbing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # exact flags only: sim converge must not read --eps as --eps-list
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # usage problems must exit 2, not argparse's own
        raise UsageError(message)


#: flags shared by several subcommands; each parser adds only those it reads
_FLAGS = {
    "--beta2-over-pi": dict(default="5", help="coupling beta^2/pi as an "
                            "exact rational string"),
    "--beta-bar": dict(help="charge weight override (rational)"),
    "--mu": dict(help="enumeration cutoff override (rational)"),
    "--out": dict(help="write the JSON report here instead of stdout"),
    "--tree": dict(default="dipole",
                   help="canonical tree key, or the shorthand 'dipole'"),
    "--p": dict(type=int, default=1,
                help="number of conjugate copy pairs in the moment"),
    "--n": dict(type=int, default=128, help="spatial points per axis"),
    "--dt": dict(type=float, default=2.0**-10, help="time step"),
    "--eps": dict(type=float, default=2.0**-5, help="mollification width"),
    "--samples": dict(type=int, default=16,
                      help="independent Monte Carlo samples"),
    "--seed": dict(type=int, default=0, help="base RNG seed"),
    "--t-end": dict(type=float, default=0.25),
    "--out-csv": dict(help="write (scale, estimate, stderr) rows here"),
}
_MODEL = ("--beta2-over-pi", "--beta-bar", "--out")
_DIAGRAM = (*_MODEL, "--tree", "--p")
_SIM = ("--beta2-over-pi", "--n", "--seed", "--out")


def _add(p, *flags):
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def _trees(subs):
    p = subs.add_parser("enum"); _add(p, *_MODEL, "--mu"); p.set_defaults(func=cmd_trees_enum)
    p = subs.add_parser("classify"); _add(p, *_MODEL, "--mu"); p.set_defaults(func=cmd_trees_classify)


def _renorm(subs):
    p = subs.add_parser("cancel"); _add(p, *_MODEL); p.set_defaults(func=cmd_renorm_cancel)


def _diagram(subs):
    for name, fn in [("terms", cmd_diagram_terms), ("audit", cmd_diagram_audit)]:
        p = subs.add_parser(name)
        _add(p, *_DIAGRAM)
        p.set_defaults(func=fn)


def _multiscale(subs):
    p = subs.add_parser("audit")
    _add(p, *_DIAGRAM, "--seed")
    p.add_argument("--ncap", type=int, default=4, help="largest dyadic scale index")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_multiscale_audit)


def _power(subs):
    p = subs.add_parser("audit")
    _add(p, "--out", "--tree", "--p")
    p.add_argument("--beta-bar", default="5/4",
                   help="charge weight beta_bar as an exact rational string")
    p.add_argument("--context", default="big-graph",
                   choices=["inner", "big-graph", "large-scale", "identity"])
    p.add_argument("--forest", help="semicolon-separated node groups, e.g. '1,2;3,4'")
    p.add_argument("--cuts", help="comma-separated recentered edge ids")
    p.set_defaults(func=cmd_power_audit)


def _sim(subs):
    from . import stochastic as st
    p = subs.add_parser("field")
    _add(p, *_SIM, "--eps", "--samples", "--out-csv")
    p.add_argument("--eps-list", type=float, nargs="+",
                   help="widths for the constant-scaling regression")
    p.set_defaults(func=cmd_sim_field)

    p = subs.add_parser("dipole")
    _add(p, *_SIM, "--dt", "--eps", "--samples", "--out-csv")
    p.add_argument("--lambda", dest="lam", type=float, action="append",
                   help="smearing scale (repeatable)")
    p.set_defaults(func=cmd_sim_dipole, eps=st.DipoleConfig.eps,
                   dt=st.DipoleConfig.dt, samples=st.DipoleConfig.n_samples)

    # the shifted equation needs beta^2 < 4*pi: default to criterion 11's 2*pi
    p = subs.add_parser("pde")
    _add(p, *_SIM, "--dt", "--eps", "--t-end")
    p.set_defaults(func=cmd_sim_pde, beta2_over_pi="2")

    p = subs.add_parser("converge")
    _add(p, *_SIM, "--dt", "--t-end", "--out-csv")
    p.add_argument("--eps-list", type=float, nargs="+",
                   help="dyadic cascade of widths, coarsest first")
    p.add_argument("--seeds", type=int, default=8,
                   help="number of consecutive seeds starting at --seed")
    p.set_defaults(func=cmd_sim_converge, beta2_over_pi="2")


#: group name -> the builder of its subcommands, in the order of the usage
_GROUPS = {"trees": _trees, "renorm": _renorm, "diagram": _diagram,
           "multiscale": _multiscale, "power": _power, "sim": _sim}


class _Groups(argparse._SubParsersAction):
    """The subcommand groups.  A group's subcommands are built when the
    command line enters that group, so a command pays for its own parsers
    only; help and error texts are unchanged, as a group's parsers exist
    before it parses anything."""

    def __call__(self, parser, namespace, values, option_string=None):
        group = self._name_parser_map[values[0]]  # argparse checked the name
        if group._subparsers is None:
            _GROUPS[values[0]](group.add_subparsers(dest="sub", required=True))
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> _Parser:
    top = _Parser(prog="sgbench",
                  description="renormalization workbench: combinatorial audits "
                              "and Monte Carlo scaling studies")
    top.add_argument("--version", action="version",
                     version=f"sgbench {__version__} (schema {SCHEMA_VERSION})")
    groups = top.add_subparsers(dest="group", required=True, action=_Groups)
    for name in _GROUPS:
        groups.add_parser(name)
    return top


def _run(args) -> int:
    """Run the parsed command, write its report and return its exit code.
    Each output path given is checked first, so that an unwritable one, or
    one given to both --out and --out-csv, is refused before any work."""
    out, out_csv = args.out, getattr(args, "out_csv", None)
    for flag, path in (("--out", out), ("--out-csv", out_csv)):
        if path:
            _check_writable(flag, path)
    if out and out_csv and os.path.realpath(out) == os.path.realpath(out_csv):
        raise UsageError(f"--out-csv: the same file as --out: {out_csv}")
    results, ok = args.func(args)
    _emit(args, results)
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except SupercriticalError as exc:
        print(f"error: supercritical: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:  # ValueError: a library refusal
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
