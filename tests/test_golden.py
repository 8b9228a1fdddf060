"""Byte-for-byte golden outputs of the fast ``sgbench`` commands.

The files under ``tests/golden/`` hold the exact stdout of each invocation
below, exit code included.  The ``power audit`` files were recorded when the
audits still enumerated every cluster hierarchy, except the ``cuts`` ones,
recorded while each cluster weight was still summed term by term in
``Fraction``s.  The ``multiscale audit`` files were recorded while the
partition audit still rebuilt each cell's admissible cuts in a second pass,
``renorm_cancel_6`` (10 cancelling pairs, 8 parity-killed trees) while trees
still computed their counts on first use, and the others before the field
sampler moved to real-input transforms.  The echoed
``config`` lost its ``threads`` entry when the ignored ``--threads`` flag was
removed; nothing else changed.  ``trees_classify`` and the two
``diagram_audit`` files were recorded while every subcommand handler still
wrote its own report, and the two ``diagram_audit_tau4`` files while the
audit still built and checked every (forest, cut) term.  The three
``tau4_large_scale`` files were recorded while the large-scale audit still
split the complement of every cluster into kernel components.  Any refactor
must reproduce them unchanged.
"""

from pathlib import Path

import pytest

from sinegordon.cli import main

GOLDEN = Path(__file__).parent / "golden"

TAU4 = "(-;0,0,0;(+;0,0,0;)(+;0,0,0;)(-;0,0,0;))"

# TAU4 with its first copy's root and one leaf contracted, and the two
# other edges into that member recentered (the ``s_cut`` branch)
CUTS_34 = ["--tree", TAU4, "--forest", "1,2", "--cuts", "3,4",
           "--beta-bar", "7/4"]

# name -> (extra argv after "power audit", expected exit code)
CASES = {
    "big_graph_5_4": (["--context", "big-graph", "--beta-bar", "5/4"], 0),
    "big_graph_5_4_forest_12_34": (["--context", "big-graph", "--beta-bar", "5/4",
                                    "--forest", "1,2;3,4"], 0),
    "big_graph_7_5": (["--context", "big-graph", "--beta-bar", "7/5"], 0),
    "big_graph_7_5_forest_12_34": (["--context", "big-graph", "--beta-bar", "7/5",
                                    "--forest", "1,2;3,4"], 0),
    "large_scale": (["--context", "large-scale"], 1),
    "inner_forest_12": (["--context", "inner", "--forest", "1,2"], 0),
    "identity_forest_12": (["--context", "identity", "--forest", "1,2"], 0),
    "p2_big_graph_forest_12": (["--p", "2", "--forest", "1,2",
                                "--context", "big-graph"], 0),
    "p2_large_scale_forest_12": (["--p", "2", "--forest", "1,2",
                                  "--context", "large-scale"], 1),
    "cuts_34_big_graph_forest_12": ([*CUTS_34, "--context", "big-graph"], 0),
    "cuts_34_large_scale_forest_12": ([*CUTS_34, "--context", "large-scale"], 1),
    "p2_cuts_34_large_scale_forest_12": ([*CUTS_34, "--context", "large-scale",
                                          "--p", "2"], 1),
    # TAU4 with whole copies contracted, and uncontracted at p = 2: their
    # violation lists pin the order of the large-scale family
    "tau4_large_scale_forest_1234": (["--tree", TAU4, "--beta-bar", "7/4",
                                      "--forest", "1,2,3,4",
                                      "--context", "large-scale"], 1),
    "p2_tau4_large_scale_forest_1234": (["--tree", TAU4, "--beta-bar", "7/4",
                                         "--forest", "1,2,3,4", "--p", "2",
                                         "--context", "large-scale"], 1),
    "p2_tau4_large_scale_5_4": (["--tree", TAU4, "--beta-bar", "5/4",
                                 "--p", "2", "--context", "large-scale"], 1),
    # TAU6's edge 2 has gamma = 3, so its (gamma - 1) term is not 0
    "cuts_2_tau6_big_graph_forest_16": ([
        "--tree", "(-;0,0,0;(+;0,0,0;)(+;0,0,0;(-;0,0,0;)(+;0,0,0;)(-;0,0,0;)))",
        "--forest", "1,6", "--cuts", "2", "--beta-bar", "5/4",
        "--context", "big-graph"], 1),
}

# name -> full argv of the other fast commands, each exiting 0
COMMANDS = {
    "trees_enum": ["trees", "enum"],
    "trees_classify": ["trees", "classify"],
    "renorm_cancel": ["renorm", "cancel"],
    "renorm_cancel_6": ["renorm", "cancel", "--beta2-over-pi", "6"],
    "diagram_terms_p1": ["diagram", "terms", "--p", "1"],
    "diagram_audit_p1": ["diagram", "audit"],
    "diagram_audit_p2": ["diagram", "audit", "--p", "2"],
    # 65,536 and 130,321 (forest, cut) terms
    "diagram_audit_tau4_p2": ["diagram", "audit", "--tree", TAU4, "--p", "2"],
    "diagram_audit_tau4_p2_b6": ["diagram", "audit", "--tree", TAU4,
                                 "--p", "2", "--beta2-over-pi", "6"],
    "multiscale_audit_p1": ["multiscale", "audit", "--trials", "50"],
    "multiscale_audit_p2": ["multiscale", "audit", "--p", "2", "--trials", "5"],
}


def _check(name, argv, code, capsys):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_power_audit_golden(name, capsys):
    argv, code = CASES[name]
    _check(name, ["power", "audit", *argv], code, capsys)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_golden(name, capsys):
    _check(name, COMMANDS[name], 0, capsys)
