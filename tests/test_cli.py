"""Command-line interface: exit codes, JSON schema, reproducibility."""

import argparse
import ast
import inspect
import json
import subprocess
import sys

import pytest

from sinegordon.cli import build_parser, main
from sinegordon.rule_engine import enumerate_negative_trees


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse --version / parse errors
        code = exc.code or 0
    out = capsys.readouterr()
    return code, out.out, out.err


SIM_SUBS = ("field", "dipole", "pde", "converge")


class TestExitCodes:
    def test_clean_run(self, capsys):
        code, out, _ = run_cli(["trees", "enum", "--beta2-over-pi", "5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert "config" in payload and "results" in payload

    def test_supercritical_rejected(self, capsys):
        code, _, err = run_cli(["trees", "enum", "--beta2-over-pi", "9"], capsys)
        assert code == 2
        assert "supercritical" in err

    @pytest.mark.parametrize("argv", [
        ["trees", "enum", "--beta2-over-pi", "0"],
        ["renorm", "cancel", "--beta2-over-pi", "-1"],
    ])
    def test_nonpositive_coupling_is_not_supercritical(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: beta^2/pi = {argv[-1]} must be positive\n"

    def test_bad_rational(self, capsys):
        code, _, err = run_cli(["trees", "enum", "--beta2-over-pi", "abc"], capsys)
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(["trees", "enum", "--frobnicate"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv, named", [
        (["power", "audit", "--forest", "1,99"], "99"),
        (["power", "audit", "--forest", "1,2;1,2"], "1,2;1,2"),
        (["power", "audit", "--forest", "2,4"], "[2, 4]"),
        (["power", "audit", "--forest", "1,x"], "'x'"),
        (["power", "audit", "--cuts", "99"], "99"),
        (["power", "audit", "--cuts", "1"], "1 is not a kernel edge"),
        (["multiscale", "audit", "--ncap", "-1"], "-1"),
        (["multiscale", "audit", "--trials", "-3"], "-3"),
        (["power", "audit", "--context", "identity"], "--forest"),
        (["sim", "converge", "--seeds", "0"], "got 0"),
        (["sim", "field", "--samples", "0"], "got 0"),
        (["sim", "field", "--samples", "1"], "got 1"),
        (["sim", "dipole", "--samples", "0"], "got 0"),
        (["power", "audit", "--context", "inner"], "--forest"),
        (["multiscale", "audit", "--trials", "0"], "got 0"),
        (["power", "audit", "--cuts", "2", "--forest", "1,2",
          "--context", "inner"], "--context inner"),
        (["power", "audit", "--cuts", "4", "--forest", "1,2",
          "--context", "identity"], "--context identity"),
        # both divergent subtrees of TAU4, overlapping without nesting
        (["power", "audit", "--forest", "1,2;1,3", "--tree",
          "(-;0,0,0;(+;0,0,0;)(+;0,0,0;)(-;0,0,0;))"], "[1, 2] and [1, 3]"),
        # the dipole's charged root alone: a connected subtree, not divergent
        (["power", "audit", "--forest", "1"], "[1] is not a divergent subtree"),
        # TAU4's first copy is divergent only from beta_bar = 7/4 on
        (["power", "audit", "--forest", "1,2;1,2,3,4", "--tree",
          "(-;0,0,0;(+;0,0,0;)(+;0,0,0;)(-;0,0,0;))"],
         "[1, 2, 3, 4] is not a divergent subtree"),
        # the two copy roots: neutral, but not connected
        (["power", "audit", "--forest", "1,3"], "[1, 3] is not a divergent subtree"),
    ])
    def test_bad_ids_and_counts_are_usage_errors(self, capsys, argv, named):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        flag = argv[2]
        assert err.startswith(f"error: {flag}") and named in err

    @pytest.mark.parametrize("context", ["big-graph", "large-scale"])
    def test_cut_inside_a_forest_member_is_refused(self, capsys, context):
        # edge 2 lies inside the member {1, 2}; the library refuses it
        code, out, err = run_cli(["power", "audit", "--forest", "1,2",
                                  "--cuts", "2", "--context", context], capsys)
        assert code == 2
        assert out == ""
        assert err == ("error: s_cut edges [2] are not kernel edges outside "
                       "the forest's members\n")

    @pytest.mark.parametrize("argv", [
        ["sim", "pde", "--samples", "4"],
        ["sim", "pde", "--out-csv", "pde.csv"],
        ["sim", "converge", "--eps", "0.125"],
        ["sim", "converge", "--samples", "4"],
        ["sim", "field", "--dt", "0.001"],
        *[["sim", sub, "--beta-bar", "3/2"] for sub in SIM_SUBS],
        *[["sim", sub, "--mu", "7/4"] for sub in SIM_SUBS],
        # only the trees commands enumerate below a cutoff
        *[[*cmd, "--mu", "7/4"] for cmd in (["renorm", "cancel"],
                                            ["diagram", "terms"],
                                            ["diagram", "audit"],
                                            ["multiscale", "audit"])],
    ])
    def test_removed_sim_flags_are_refused(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: unrecognized arguments: " + argv[2])

    def test_one_width_slope_is_refused(self, capsys):
        code, out, err = run_cli(["sim", "field", "--n", "32", "--eps",
                                  "0.125", "--eps-list", "0.125"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: need at least two distinct widths\n"

    @pytest.mark.parametrize("n", ["8", "16"])
    def test_too_few_default_widths_are_refused(self, capsys, n):
        # 2/n leaves fewer than two of the default widths 2^-3 ... 2^-7
        code, out, err = run_cli(["sim", "field", "--n", n, "--eps", "0.25",
                                  "--samples", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --n {n} resolves ")
        assert "--eps-list" in err

    @pytest.mark.parametrize("widths", [["0.25"], ["0.25", "0.125"]])
    def test_convergence_needs_a_ratio(self, capsys, widths):
        # two widths give one d and no ratio, so ratios_ok could not fail
        code, out, err = run_cli(["sim", "converge", "--n", "32",
                                  "--eps-list", *widths], capsys)
        assert code == 2
        assert out == ""
        assert err == (f"error: --eps-list needs at least 3 widths, got "
                       f"{len(widths)}\n")

    def test_one_lambda_slope_is_refused(self, capsys):
        code, out, err = run_cli(["sim", "dipole", "--n", "32", "--eps",
                                  "0.125", "--dt", "0.001953125", "--lambda",
                                  "0.25", "--samples", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: need at least two distinct lambdas\n"

    @pytest.mark.parametrize("dt", ["0", "-0.001", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["sim", "dipole", "--n", "64", "--eps", "0.04", "--lambda", "0.25",
         "--lambda", "0.125", "--samples", "1"],
        ["sim", "pde", "--n", "64", "--eps", "0.0625", "--t-end", "0.01"],
        ["sim", "converge", "--n", "64", "--eps-list", "0.25", "0.125",
         "0.0625", "--seeds", "1"],
    ], ids=["dipole", "pde", "converge"])
    def test_time_step_must_be_positive_and_finite(self, capsys, argv, dt):
        code, out, err = run_cli([*argv, "--dt", dt], capsys)
        assert code == 2
        assert out == ""
        assert err == (f"error: time step dt = {float(dt)} must be positive "
                       "and finite\n")

    @pytest.mark.parametrize("t_end", ["0", "-1", "0.0001"])
    @pytest.mark.parametrize("argv", [
        ["sim", "pde", "--n", "64", "--eps", "0.0625"],
        ["sim", "converge", "--n", "64", "--eps-list", "0.25", "0.125",
         "0.0625", "--seeds", "1"],
    ], ids=["pde", "converge"])
    def test_run_without_steps_is_refused(self, capsys, argv, t_end):
        code, out, err = run_cli([*argv, "--t-end", t_end], capsys)
        assert code == 2
        assert out == ""
        assert err == (f"error: t_end = {float(t_end)} rounds to no step of "
                       f"dt = {2.0**-10}\n")

    @pytest.mark.parametrize("argv", [
        ["sim", "pde", "--n", "64", "--t-end", "inf"],
        ["sim", "pde", "--n", "64", "--t-end", "nan"],
        ["sim", "converge", "--n", "64", "--eps-list", "0.25", "0.125",
         "0.0625", "--seeds", "1", "--t-end", "inf"],
    ], ids=["pde-inf", "pde-nan", "converge-inf"])
    def test_non_finite_run_time_is_refused(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: t_end = {float(argv[-1])} is not finite\n"

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_width_is_refused(self, capsys, eps):
        code, out, err = run_cli(["sim", "field", "--n", "32", "--eps", eps,
                                  "--samples", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: eps = {float(eps)} is not a finite width\n"

    def test_cutoff_is_read_by_trees(self, capsys):
        code, out, _ = run_cli(["trees", "enum", "--mu", "7/4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["mu"] == "7/4"
        _, lower, _ = run_cli(["trees", "enum", "--mu", "3/2"], capsys)
        assert len(payload["results"]["catalog"]) > \
            len(json.loads(lower)["results"]["catalog"])

    def test_cutoff_below_beta_bar_is_refused(self, capsys):
        code, out, err = run_cli(["trees", "enum", "--mu", "1/2"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: mu = 1/2 not in (beta_bar, 2)\n"

    def test_broken_cancellation_premise_exits_1(self, capsys, monkeypatch):
        from sinegordon import cli
        from sinegordon.tree_core import DecoratedTree, XI_MINUS, integrate, opp
        bad = DecoratedTree("+", (0, 0, 0), (integrate(XI_MINUS),))

        def with_zero_node(params):
            cat = enumerate_negative_trees(params)
            for tau in (bad, opp(bad)):
                for subset in (cat.all, cat.negative, cat.negative_neutral):
                    subset[tau.key] = tau
            return cat

        monkeypatch.setattr(cli, "enumerate_negative_trees", with_zero_node)
        code, out, err = run_cli(["renorm", "cancel"], capsys)
        assert code == 1
        assert err == ""
        res = json.loads(out)["results"]
        assert res["verdict"] == "cancellation FAILED"
        assert [f["key"] for f in res["failures"]] == sorted(
            [bad.key, opp(bad).key])
        assert len(res["pairs"]) == 1

    def test_library_refusal_is_a_usage_error(self, capsys):
        code, _, err = run_cli(["diagram", "terms", "--p", "0"], capsys)
        assert code == 2
        assert "p must be positive" in err

    @pytest.mark.parametrize("sub", ["pde", "converge"])
    def test_shifted_equation_refuses_beta_sq_4pi(self, capsys, sub):
        code, out, err = run_cli(["sim", sub, "--beta2-over-pi", "4"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: pde solver requires beta^2 < 4*pi\n"

    def test_unmatched_swap_width_is_refused(self, capsys):
        # at 32^2 no quartic width up to 1 has a variance as small as the
        # Gaussian's at eps = 2, so there is no swap pair to compare
        code, out, err = run_cli(["sim", "converge", "--n", "32",
                                  "--eps-list", "8", "4", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: target variance of eps_ref = 2.0 not")

    @pytest.mark.parametrize("sub, beta_sq", [("field", "5"), ("dipole", "5"),
                                              ("pde", "2"), ("converge", "2")])
    def test_default_coupling(self, sub, beta_sq):
        assert build_parser().parse_args(["sim", sub]).beta2_over_pi == beta_sq

    @pytest.mark.parametrize("argv", [
        ["sim", "pde", "--n", "32", "--eps", "0.125", "--t-end", "0.0625"],
        ["sim", "converge", "--n", "32", "--seeds", "2", "--t-end", "0.0625",
         "--eps-list", "0.25", "0.125", "0.0625"],
    ])
    def test_shifted_equation_runs_at_its_default_coupling(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["beta2_over_pi"] == "2"

    def test_internal_fault_is_not_a_usage_error(self, capsys, monkeypatch):
        from sinegordon import cli

        def broken(d):
            raise KeyError(99)

        monkeypatch.setattr(cli, "moment_terms", broken)
        code, out, err = run_cli(["diagram", "terms"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: KeyError")

    @pytest.mark.parametrize("argv, flag", [
        (["trees", "enum"], "--out"),
        (["sim", "field", "--n", "16", "--eps", "0.125", "--samples", "2",
          "--eps-list", "0.25", "0.125"], "--out-csv"),
    ], ids=["out", "out-csv"])
    @pytest.mark.parametrize("in_missing_dir", [True, False],
                             ids=["missing-dir", "directory"])
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, argv,
                                                flag, in_missing_dir):
        path = tmp_path / "missing" / "x" if in_missing_dir else tmp_path
        code, out, err = run_cli([*argv, flag, str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag}: ") and str(path) in err

    def test_unwritable_output_is_refused_before_the_run(self, capsys,
                                                         tmp_path, monkeypatch):
        from sinegordon import stochastic

        def study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(stochastic, "convergence_study", study)
        csv_path, json_path = tmp_path / "ok.csv", tmp_path / "missing" / "x.json"
        code, out, err = run_cli([
            "sim", "converge", "--n", "32", "--t-end", "0.0625", "--eps-list",
            "0.25", "0.125", "0.0625", "--seeds", "2",
            "--out-csv", str(csv_path), "--out", str(json_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: --out: ") and str(json_path) in err
        assert list(tmp_path.iterdir()) == []

    def test_output_check_leaves_the_paths_as_they_were(self, capsys,
                                                        tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.csv"
        old.write_text("kept")
        code, _, err = run_cli(["sim", "converge", "--eps-list", "0.25", "0.125",
                                "--out", str(old), "--out-csv", str(new)], capsys)
        assert code == 2 and err.startswith("error: --eps-list")
        assert old.read_text() == "kept" and not new.exists()

    @pytest.mark.parametrize("sub", ["field", "dipole", "converge"])
    def test_one_file_for_both_outputs_is_refused_before_the_run(
            self, capsys, tmp_path, monkeypatch, sub):
        from sinegordon import stochastic

        def study(*args, **kwargs):
            raise AssertionError("the study ran")

        for name in ("chaos_mean", "dipole_moment", "convergence_study"):
            monkeypatch.setattr(stochastic, name, study)
        (tmp_path / "sub").mkdir()
        out = tmp_path / "x"
        code, stdout, err = run_cli(["sim", sub, "--out", str(out), "--out-csv",
                                     str(tmp_path / "sub" / ".." / "x")], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: --out-csv: the same file as --out")
        assert not out.exists()

    def test_version(self, capsys):
        from sinegordon import __version__
        assert run_cli(["--version"], capsys) == (
            0, f"sgbench {__version__} (schema 1)\n", "")

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")   # Python 3.11 on
        from pathlib import Path

        from sinegordon import __version__
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == __version__


# Each group's help and its refusal of an unknown subcommand, recorded
# while build_parser still built every group's subcommands up front.
GROUP_HELP = {
    "trees": ("""\
usage: sgbench trees [-h] {enum,classify} ...

positional arguments:
  {enum,classify}

options:
  -h, --help       show this help message and exit
""", "'enum', 'classify'"),
    "renorm": ("""\
usage: sgbench renorm [-h] {cancel} ...

positional arguments:
  {cancel}

options:
  -h, --help  show this help message and exit
""", "'cancel'"),
    "diagram": ("""\
usage: sgbench diagram [-h] {terms,audit} ...

positional arguments:
  {terms,audit}

options:
  -h, --help     show this help message and exit
""", "'terms', 'audit'"),
    "multiscale": ("""\
usage: sgbench multiscale [-h] {audit} ...

positional arguments:
  {audit}

options:
  -h, --help  show this help message and exit
""", "'audit'"),
    "power": ("""\
usage: sgbench power [-h] {audit} ...

positional arguments:
  {audit}

options:
  -h, --help  show this help message and exit
""", "'audit'"),
    "sim": ("""\
usage: sgbench sim [-h] {field,dipole,pde,converge} ...

positional arguments:
  {field,dipole,pde,converge}

options:
  -h, --help            show this help message and exit
""", "'field', 'dipole', 'pde', 'converge'"),
}


class TestGroupParsers:
    """A group's subcommands are built when the command line enters it."""

    @pytest.mark.parametrize("group", sorted(GROUP_HELP))
    def test_group_help_and_unknown_subcommand(self, group, capsys,
                                               monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")   # argparse wraps to the terminal
        help_text, choices = GROUP_HELP[group]
        assert run_cli([group, "--help"], capsys) == (0, help_text, "")
        assert run_cli([group, "bogus"], capsys) == (
            2, "", f"error: argument sub: invalid choice: 'bogus' "
                   f"(choose from {choices})\n")

    def test_power_audit_builds_only_its_group(self, capsys, monkeypatch):
        from sinegordon import cli
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        code, _, _ = run_cli(["power", "audit", "--forest", "1,2"], capsys)
        assert code == 0
        # the top parser, the six groups and power's one subcommand, where
        # building every group's subcommands took 18
        assert len(built) == 1 + len(GROUP_HELP) + 1

    def test_a_parser_serves_repeated_calls(self):
        parser = build_parser()
        for _ in range(2):
            args = parser.parse_args(["sim", "pde"])
            assert (args.group, args.sub, args.beta2_over_pi) == \
                ("sim", "pde", "2")


class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path, capsys):
        path = tmp_path / "field.json"
        outs = []
        for _ in range(2):
            code, _, _ = run_cli(["sim", "field", "--n", "64", "--seed", "3",
                                  "--samples", "4", "--out", str(path)],
                                 capsys)
            assert code == 0
            outs.append(path.read_bytes())
            path.unlink()
        assert outs[0] == outs[1]

    def test_seed_changes_results(self, tmp_path, capsys):
        payloads = []
        for seed in ("3", "4"):
            path = tmp_path / f"s{seed}.json"
            run_cli(["sim", "field", "--n", "64", "--seed", seed,
                     "--samples", "4", "--out", str(path)], capsys)
            payloads.append(json.loads(path.read_text()))
        assert payloads[0]["results"] != payloads[1]["results"]
        assert payloads[0]["config"] != payloads[1]["config"]


class TestSubcommands:
    def test_renorm_cancel(self, capsys):
        code, out, _ = run_cli(["renorm", "cancel", "--beta2-over-pi", "5"],
                               capsys)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["verdict"] == "counterterm vanishes"
        assert len(res["pairs"]) == 1

    def test_trees_classify_weak(self, capsys):
        code, out, _ = run_cli(["trees", "classify",
                                "--beta2-over-pi", "1/2"], capsys)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["negative_neutral"] == []
        assert len(res["negative"]) == 2

    def test_diagram_terms(self, capsys):
        code, out, _ = run_cli(["diagram", "terms", "--p", "1"], capsys)
        assert code == 0
        assert len(json.loads(out)["results"]["terms"]) == 9

    def test_power_audit_sign(self, capsys):
        code, _, _ = run_cli(["power", "audit", "--beta-bar", "5/4",
                              "--context", "big-graph",
                              "--forest", "1,2;3,4"], capsys)
        assert code == 0

    def test_power_audit_nine_vertices(self, capsys):
        # the p=2 dipole with no forest has 9 vertices
        code, out, _ = run_cli(["power", "audit", "--p", "2"], capsys)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["margins"]["min"] == "3/2"

    def test_power_audit_large_scale_has_no_vertex_cap(self, capsys):
        # the p = 5 dipole has 21 vertices: the large-scale audit exits by
        # its verdict, the big-graph audit refuses the subset pass
        code, out, _ = run_cli(["power", "audit", "--context", "large-scale",
                                "--p", "5"], capsys)
        res = json.loads(out)["results"]
        assert (code, res["ok"], res["checked"]) == (1, False, 10)
        code, out, err = run_cli(["power", "audit", "--context", "big-graph",
                                  "--p", "5"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: refusing cluster audits beyond 17 vertices\n"

    def test_power_audit_builds_no_total_homogeneity(self, capsys, monkeypatch):
        from sinegordon import power_counting
        base = ["power", "audit", "--context"]
        argvs = [base + ["inner", "--forest", "1,2;3,4"],
                 base + ["inner", "--p", "2", "--forest", "3,4"],
                 base + ["big-graph", "--forest", "1,2;3,4"],
                 base + ["big-graph", "--forest", "1,2", "--cuts", "4"],
                 base + ["big-graph", "--p", "2", "--cuts", "2,4,6,8"],
                 base + ["large-scale", "--forest", "1,2"],
                 base + ["large-scale", "--forest", "1,2", "--cuts", "4"],
                 base + ["large-scale", "--p", "2", "--cuts", "2,4,6,8"]]
        want = [run_cli(argv, capsys) for argv in argvs]

        def refuse(*args, **kwargs):
            raise AssertionError("a sign audit built a total homogeneity")

        for name in ["sg_total_homogeneity", "inner_total_homogeneity"]:
            monkeypatch.setattr(power_counting, name, refuse)
        assert [run_cli(argv, capsys) for argv in argvs] == want
        assert all(code in (0, 1) for code, _, _ in want)

    def test_csv_emission(self, tmp_path, capsys):
        csv_path = tmp_path / "field.csv"
        code, _, _ = run_cli(["sim", "field", "--n", "64", "--seed", "1",
                              "--samples", "4", "--out-csv", str(csv_path)],
                             capsys)
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "scale"
        assert len(lines) > 1

    def test_sim_converge_end_to_end(self, capsys):
        dt = 2.0**-8
        code, out, _ = run_cli(
            ["sim", "converge", "--beta2-over-pi", "2", "--n", "32",
             "--dt", repr(dt), "--eps-list", repr(2.0**-2), repr(2.0**-3),
             repr(2.0**-4), "--t-end", repr(16 * dt), "--seeds", "1"], capsys)
        res = json.loads(out)["results"]
        assert set(res) == {"eps_list", "swap_eps", "d_values", "ratios",
                            "ratios_ok", "swap_gap", "swap_ok", "max_imag",
                            "n_seeds"}
        assert res["eps_list"] == [2.0**-2, 2.0**-3, 2.0**-4]
        assert len(res["d_values"]) == 2 and len(res["ratios"]) == 1
        assert 0 < res["max_imag"] < 1e-12
        assert code == (0 if res["ratios_ok"] and res["swap_ok"] else 1)

    def test_converge_csv_stderr(self, tmp_path, capsys):
        """The CSV's stderr column is the seed-to-seed standard error of
        each d, checked against the study run one seed at a time."""
        from fractions import Fraction

        import numpy as np
        from sinegordon import stochastic as st
        dt, eps_list = 2.0**-8, [2.0**-2, 2.0**-3, 2.0**-4]
        csv_path = tmp_path / "converge.csv"
        run_cli(["sim", "converge", "--beta2-over-pi", "2", "--n", "32",
                 "--dt", repr(dt), "--eps-list", *map(repr, eps_list),
                 "--t-end", repr(16 * dt), "--seed", "5", "--seeds", "2",
                 "--out-csv", str(csv_path)], capsys)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "scale,estimate,stderr"
        table = np.array([[float(v) for v in line.split(",")]
                          for line in lines[1:]])
        lat = st.TorusLattice(32, dt=dt)
        reps = [st.convergence_study(lat, Fraction(2), eps_list, [seed],
                                     t_end=16 * dt) for seed in (5, 6)]
        assert all(np.isnan(rep.stderrs).all() for rep in reps)
        d = np.array([rep.d_values for rep in reps])
        assert table[:, 0].tolist() == eps_list[1:]
        assert np.allclose(table[:, 1], d.mean(axis=0), rtol=1e-12, atol=0)
        assert np.allclose(table[:, 2], d.std(axis=0, ddof=1) / np.sqrt(2),
                           rtol=1e-12, atol=0)
        assert (table[:, 2] > 0).all()

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "sinegordon.cli",
                               "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("sgbench ")
        assert proc.stdout.endswith(" (schema 1)\n")

    def test_import_loads_neither_numpy_nor_metadata(self):
        # numpy loads with the sim commands, the package metadata with
        # --version: neither is paid by the other commands
        code = ("import sys, sinegordon.cli; print(sorted({'numpy', "
                "'importlib.metadata'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"


class TestSimExitCodes:
    """The sim commands exit 1 when their own criterion fails; stdout is the
    same report either way."""

    @staticmethod
    def results(capsys, argv):
        code, out, _ = run_cli(argv, capsys)
        return code, json.loads(out)["results"]

    # one step of the default dt, 2^-10: each verdict must read the state
    # after it, not only the initial zeros, or it could not fail
    ONE_STEP = ["--n", "64", "--t-end", repr(2.0**-10)]

    def test_one_step_convergence_reads_the_stepped_state(self, capsys):
        code, res = self.results(capsys, ["sim", "converge", *self.ONE_STEP,
                                          "--eps-list", "0.25", "0.125",
                                          "0.0625", "--seeds", "1"])
        assert min(res["d_values"]) > 0 and res["swap_gap"] > 0
        assert code == (0 if res["ratios_ok"] and res["swap_ok"] else 1)

    def test_one_step_pde_reads_the_stepped_residue(self, capsys):
        code, res = self.results(capsys, ["sim", "pde", *self.ONE_STEP])
        assert 0 < res["max_imag"] < 1e-12 and code == 0

    def test_pde_imaginary_residue(self, capsys, monkeypatch):
        import numpy as np
        from sinegordon import stochastic as st
        outs = {}
        for max_imag in (3e-17, 1e-10, 2e-9):
            res = st.PDEResult([0.0, 0.25], [np.zeros((8, 8))] * 2, max_imag)
            monkeypatch.setattr(st, "solve_pde", lambda *a, res=res, **k: res)
            outs[max_imag] = self.results(
                capsys, ["sim", "pde", "--beta2-over-pi", "2", "--n", "8"])
        assert [code for code, _ in outs.values()] == [0, 1, 1]
        for max_imag, (_, res) in outs.items():
            assert res == {"times": [0.0, 0.25], "max_imag": max_imag,
                           "final_min": 0.0, "final_max": 0.0,
                           "final_mean": 0.0}

    @pytest.mark.parametrize("slope, ablation_slope, want", [
        (-1.0, 0.5, 0), (-0.71, -0.4, 0),
        (-0.6, 0.5, 1), (-1.35, 0.5, 1),     # slope outside -1 +- 0.3
        (-1.0, -0.9, 1),                     # ablation gap 0.1 < 0.2
    ])
    def test_dipole_criterion(self, capsys, monkeypatch, slope,
                              ablation_slope, want):
        from sinegordon import stochastic as st
        rep = st.DipoleReport([0.25, 0.125], [0.2, 0.1], [0.01, 0.01],
                              [0.3, 0.2], slope, ablation_slope, 0.001 + 0j, 2)
        monkeypatch.setattr(st, "dipole_moment", lambda *a, **k: rep)
        code, res = self.results(capsys, ["sim", "dipole", "--n", "32"])
        assert code == want
        assert res == rep.as_dict()

    def test_dipole_defaults_are_the_validated_config(self, capsys,
                                                      monkeypatch):
        from sinegordon import stochastic as st
        seen = []
        rep = st.DipoleReport([0.25, 0.125], [0.2, 0.1], [0.01, 0.01],
                              [0.3, 0.2], -1.0, 0.5, 0j, 12)

        def fake(lat, cfg, seed):
            seen.append((lat, cfg, seed))
            return rep

        monkeypatch.setattr(st, "dipole_moment", fake)
        code, _ = self.results(capsys, ["sim", "dipole"])
        assert code == 0
        assert seen == [(st.TorusLattice(128, dt=st.DipoleConfig.dt),
                         st.DipoleConfig(), 0)]

    @pytest.mark.parametrize("ratios, swap_gap, max_imag, want", [
        ([0.5, 0.6], 0.1, 3e-17, 0),
        ([0.5, 0.9], 0.1, 3e-17, 1),         # a ratio above 0.85
        ([0.5, 0.6], 0.13, 3e-17, 1),        # swap gap above 2 d_last
        ([0.5, 0.6], 0.1, 1e-10, 1),         # the solution is not real
        ([0.5, 0.6], 0.1, 2e-9, 1),
    ])
    def test_converge_criterion(self, capsys, monkeypatch, ratios, swap_gap,
                                max_imag, want):
        from sinegordon import stochastic as st
        rep = st.ConvergenceReport([0.125, 0.0625, 0.03125, 0.015625],
                                   0.02, [0.2, 0.1, 0.06], ratios, swap_gap,
                                   max_imag, 2)
        monkeypatch.setattr(st, "convergence_study", lambda *a, **k: rep)
        code, res = self.results(
            capsys, ["sim", "converge", "--beta2-over-pi", "2", "--n", "8"])
        assert code == want
        assert res == rep.as_dict()


def _stub_sim(monkeypatch):
    """Replace each stochastic entry point of the sim commands by a stub that
    returns a fixed report."""
    import numpy as np
    from sinegordon import stochastic as st
    monkeypatch.setattr(st, "renorm_slope", lambda *a, **k: -1.25)
    monkeypatch.setattr(st, "renorm_constant", lambda *a, **k: 2.0)
    monkeypatch.setattr(st, "chaos_mean",
                        lambda *a, **k: st.ChaosStats(1.0, 0.1, 0.0, 0.1, 4))
    monkeypatch.setattr(st, "dipole_moment", lambda *a, **k: st.DipoleReport(
        [0.25, 0.125], [0.2, 0.1], [0.01, 0.01], [0.3, 0.2], -1.0, 0.5,
        0j, 2))
    monkeypatch.setattr(st, "solve_pde", lambda *a, **k: st.PDEResult(
        [0.0, 0.25], [np.zeros((8, 8))] * 2, 0.0))
    monkeypatch.setattr(st, "convergence_study",
                        lambda *a, **k: st.ConvergenceReport(
                            [0.125, 0.0625, 0.03125], 0.02, [0.2, 0.1], [0.5],
                            0.1, 0.0, 2, [0.01, 0.01]))


@pytest.mark.parametrize("sub", SIM_SUBS)
def test_every_sim_flag_is_read(sub, monkeypatch, capsys):
    """Each option of a sim subcommand is read by its command at the
    defaults: a flag that changes nothing is not declared."""
    from sinegordon import cli
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    _stub_sim(monkeypatch)
    args = build_parser().parse_args(["sim", sub], namespace=Recording())
    dests = set(vars(args)) - {"group", "sub", "func"}
    reads.clear()
    cli._run(args)   # the dispatch main runs, which writes the report too
    capsys.readouterr()
    assert dests - reads == set()


def test_only_the_dispatch_writes_reports():
    """No handler writes its own report: each returns ``(results, ok)``, and
    ``_run``, the dispatch ``main`` runs, is the only caller of ``_emit``."""
    from sinegordon import cli
    module = ast.parse(inspect.getsource(cli))
    emitters = set()
    for fn in ast.walk(module):
        if not isinstance(fn, ast.FunctionDef):
            continue
        names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        if "_emit" in names:
            emitters.add(fn.name)
        if fn.name.startswith("cmd_"):
            assert not names & {"_emit", "print"}, fn.name
            assert not any(isinstance(n, ast.Attribute) and n.attr == "stdout"
                           for n in ast.walk(fn)), fn.name
    assert emitters == {"_run"}
