"""Command-line driver: exit codes, certificate output, JSON dumps, diagram
rendering, and orbit traces.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from itertools import permutations
from pathlib import Path

from qtelescope import andrews12, cli
from qtelescope.andrews12 import Triple
from qtelescope.macmahon import MacPair
from qtelescope.partitions import Partition
from qtelescope.telescope import Certificate, MarkedObject


def T(tau, lam=(), mu=()):
    return Triple(Partition(tuple(tau)), Partition(tuple(lam)),
                  Partition(tuple(mu)))


def run(argv):
    out = io.StringIO()
    code = cli.run(argv, out=out)
    return code, out.getvalue()


# verify ----------------------------------------------------------------------

def test_verify_macmahon_grid_emits_one_cert_per_cell():
    code, output = run(["verify", "macmahon", "--n-max", "4", "--m-max", "4"])
    assert code == 0
    lines = [ln for ln in output.splitlines() if ln]
    assert len(lines) == 25
    assert all(ln.startswith("[ok ]") for ln in lines)


def test_verify_andrews_single_n():
    code, output = run(["verify", "andrews", "--n", "2", "--cap", "20"])
    assert code == 0
    lines = output.splitlines()
    assert len(lines) == 3
    assert "andrews-identity" in lines[0]
    assert "andrews-rec-fn" in lines[1]
    assert "andrews-gn" in lines[2]


def test_verify_andrews_cap_below_square_is_usage_error():
    code, _ = run(["verify", "andrews", "--n", "2", "--cap", "1"])
    assert code == 2


def test_verify_negative_n_is_usage_error(capsys):
    for target in ("macmahon", "andrews"):
        code, output = run(["verify", target, "--n", "-1"])
        assert (code, output) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_verify_negative_upper_bound_is_usage_error(capsys):
    for argv in (["verify", "macmahon", "--n-max", "-1"],
                 ["verify", "andrews", "--n-max", "-1"],
                 ["verify", "macmahon", "--n", "1", "--m-max", "-3"]):
        code, output = run(argv)
        assert (code, output) == (2, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_verify_flags_it_cannot_honour_are_usage_errors(capsys):
    for argv in (["verify", "andrews", "--n", "3", "--n-max", "5"],
                 ["verify", "macmahon", "--m", "1", "--m-max", "2"],
                 ["verify", "andrews", "--n", "2", "--m", "7"],
                 ["verify", "andrews", "--n", "2", "--m-max", "7"],
                 ["verify", "macmahon", "--n", "1", "--m", "1", "--cap", "3"]):
        code, output = run(argv)
        assert (code, output) == (2, ""), argv
        assert "Traceback" not in capsys.readouterr().err


def test_check_bijection_flags_its_map_cannot_use_are_usage_errors(capsys):
    for argv in (["check-bijection", "macmahon-psi", "--n", "2", "--k", "1", "--m", "5"],
                 ["check-bijection", "andrews-phi", "--n", "3", "--k", "1", "--m", "5",
                  "--cap", "12"],
                 ["check-bijection", "andrews-involution", "--n", "3", "--k", "1",
                  "--m", "5"],
                 ["check-bijection", "macmahon-phi", "--n", "2", "--m", "1", "--k", "1",
                  "--cap", "3"],
                 ["check-bijection", "macmahon-psi", "--n", "2", "--k", "1", "--cap", "30"]):
        code, output = run(argv)
        assert (code, output) == (2, ""), argv
        assert "Traceback" not in capsys.readouterr().err


def test_check_bijection_andrews_cap_defaults_to_30():
    assert run(["check-bijection", "andrews-phi", "--n", "3", "--k", "1"]) == \
        (0, "[ok ] andrews-phi n=3 k=1 cap=30\n")


def test_unknown_arguments_are_usage_errors():
    assert run(["verify", "nonsense"])[0] == 2
    assert run(["frobnicate"])[0] == 2
    assert run([])[0] == 2


def test_json_format_lines_parse():
    code, output = run(["verify", "andrews", "--n", "1", "--format", "json"])
    assert code == 0
    for line in output.splitlines():
        obj = json.loads(line)
        assert obj["status"] == "verified"


def test_json_file_dump(tmp_path):
    path = tmp_path / "certs.json"
    code, _ = run(["verify", "macmahon", "--n", "1", "--m", "1",
                   "--json", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert isinstance(data, list) and len(data) == 1
    assert data[0]["check"] == "macmahon"
    assert data[0]["status"] == "verified"


def test_certificate_output_is_deterministic():
    _, first = run(["verify", "andrews", "--n", "2", "--format", "json"])
    _, second = run(["verify", "andrews", "--n", "2", "--format", "json"])

    def normalize(payload):
        rows = [json.loads(ln) for ln in payload.splitlines()]
        for row in rows:
            row["elapsed_ms"] = 0
        return rows

    assert normalize(first) == normalize(second)


def test_failed_certificate_yields_exit_one(monkeypatch):
    failed = Certificate(check="macmahon", params={"n": 0, "m": 0},
                         status="failed",
                         counterexample={"element": None, "image": None,
                                         "reason": "sub-identity-violated"})
    monkeypatch.setattr(cli.macmahon, "verify_macmahon", lambda n, m: failed)
    code, output = run(["verify", "macmahon", "--n", "0", "--m", "0"])
    assert code == 1
    assert "[FAIL]" in output


def test_run_writes_to_the_stdout_of_the_call():
    # out defaults to sys.stdout as it is when run is called, not at import
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.run(["verify", "macmahon", "--n", "0", "--m", "0"]) == 0
    assert buffer.getvalue() == "[ok ] macmahon n=0 m=0\n"


# check-bijection -----------------------------------------------------------------

def test_check_bijection_subcommands():
    assert run(["check-bijection", "macmahon-phi", "--n", "2", "--m", "1",
                "--k", "0"])[0] == 0
    assert run(["check-bijection", "macmahon-psi", "--n", "2", "--k", "1"])[0] == 0
    assert run(["check-bijection", "andrews-phi", "--n", "3", "--k", "1",
                "--cap", "20"])[0] == 0
    assert run(["check-bijection", "andrews-involution", "--n", "2", "--k", "2",
                "--cap", "20"])[0] == 0


def test_check_bijection_missing_m_is_usage_error():
    assert run(["check-bijection", "macmahon-phi", "--n", "2", "--k", "0"])[0] == 2


def test_check_bijection_bad_range_is_usage_error():
    assert run(["check-bijection", "andrews-phi", "--n", "3", "--k", "2"])[0] == 2
    assert run(["check-bijection", "andrews-involution", "--n", "3",
                "--k", "0"])[0] == 2


def test_check_bijection_empty_domain_is_usage_error(capsys):
    for argv in (["macmahon-phi", "--n", "2", "--m", "1", "--k", "9"],
                 ["macmahon-psi", "--n", "2", "--k", "7"],
                 ["andrews-involution", "--n", "4", "--k", "4", "--cap", "-1"]):
        code, output = run(["check-bijection"] + argv)
        assert (code, output) == (2, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "empty domain" in err, argv


def test_check_bijection_names_the_index_rule_before_the_slice(capsys):
    # (3, -2) has an empty slice too, but the index rule answers first
    code, output = run(["check-bijection", "andrews-phi", "--n", "3", "--k", "-2"])
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == "error: no map lowers n=3, k=-2\n"
    for name, k in (("andrews-phi", "2"), ("andrews-involution", "0")):
        code, output = run(["check-bijection", name, "--n", "3", "--k", k])
        assert (code, output) == (2, ""), name
        assert "does not lower n=3, k=" in capsys.readouterr().err, name


def test_check_bijection_macmahon_cancelation_prints_the_golden_certificate(capsys):
    from test_golden import GOLDEN

    code, output = run(["check-bijection", "macmahon-cancelation", "--n", "3", "--m", "3",
                        "--format", "json"])
    assert code == 0
    printed = json.loads(output)
    del printed["elapsed_ms"]
    assert [printed] == json.loads(GOLDEN.read_text())["cancelation"]
    code, output = run(["check-bijection", "macmahon-cancelation", "--n", "3", "--m", "0"])
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == "error: phi_step requires n >= 0 and m >= 1\n"


# trace ---------------------------------------------------------------------------

def test_trace_prints_the_pinned_staircase_orbit():
    code, output = run(["trace", "andrews", "--n", "2", "--k", "0",
                        "--cap", "10"])
    assert code == 0
    assert "phi(2,0):" in output
    assert "[marker 1] (empty)" in output


def test_trace_orbit_chains_until_unmarked():
    steps = andrews12.andrews_orbit(3, 0, T((2, 1, 0)))
    labels = [label for label, _ in steps]
    assert labels == ["start", "phi(3,0)", "involution(2,1)"]
    assert not isinstance(steps[-1][1], MarkedObject)


def test_trace_bad_range_is_usage_error():
    assert run(["trace", "andrews", "--n", "2", "--k", "5"])[0] == 2


def paper_map(n, k):
    """The index rule as the paper states it: phi lowers 0 <= k <= n-2, the
    involution n >= 2 with k in {n-1, n}, and nothing lowers any other (n, k)."""
    if 0 <= k <= n - 2:
        return "phi"
    if n >= 2 and k in (n - 1, n):
        return "involution"
    return None


def test_andrews_commands_run_exactly_where_the_index_rule_names_a_map(capsys):
    # cap 20 is at least every staircase weight C(n-k, 2) for n <= 5, so no
    # slice below is empty because of the cap
    for n in range(6):
        for k in range(-1, n + 2):
            named = paper_map(n, k)
            args = ["--n", str(n), "--k", str(k), "--cap", "20"]
            for which, name in (("andrews-phi", "phi"),
                                ("andrews-involution", "involution")):
                code, _ = run(["check-bijection", which] + args)
                assert code == (0 if named == name else 2), (which, n, k)
            capsys.readouterr()
            code, output = run(["trace", "andrews"] + args)
            if named is None:
                assert (code, output) == (2, ""), (n, k)
                assert capsys.readouterr().err.startswith("error: "), (n, k)
            else:
                assert code == 0 and output.startswith("tracing "), (n, k)


def test_macmahon_commands_run_exactly_where_their_index_is_in_range(capsys):
    # phi_step needs n >= 0 and m >= 1, psi n >= 1; P(n,m,k) is indexed
    # by -m <= k <= n and Q(n,k) by 0 <= k <= n
    cells = [("macmahon-phi", {"n": n, "m": m, "k": k},
              n >= 0 and m >= 1 and -m <= k <= n)
             for n in range(-3, 4) for m in range(-1, 4) for k in range(-5, 6)]
    cells += [("macmahon-psi", {"n": n, "k": k}, n >= 1 and 0 <= k <= n)
              for n in range(-2, 5) for k in range(-3, 7)]
    cells += [("macmahon-cancelation", {"n": n, "m": m}, n >= 0 and m >= 1)
              for n in range(-2, 4) for m in range(-1, 4)]
    for which, index, in_range in cells:
        args = [str(a) for name, value in index.items() for a in (f"--{name}", value)]
        code, output = run(["check-bijection", which] + args)
        err = capsys.readouterr().err
        if in_range:
            assert code == 0, (which, index)
        else:
            assert (code, output) == (2, ""), (which, index)
            assert err.startswith("error: "), (which, index)


def test_trace_empty_slice_is_usage_error(capsys):
    for cap in ("0", "-5"):
        code, output = run(["trace", "andrews", "--n", "4", "--k", "1",
                            "--cap", cap])
        assert (code, output) == (2, ""), cap
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "empty domain" in err, cap


# rendering -----------------------------------------------------------------------

def test_render_triple_with_zero_row():
    text = cli.render_diagram(T((1, 0)))
    lines = text.splitlines()
    assert lines[0] == "tau: ■"
    assert lines[1] == "     ·"
    assert "lam: (empty)" in lines
    assert "mu:  (empty)" in lines


def test_render_lambda_rows():
    text = cli.render_diagram(T((), (2, 1)))
    assert "lam: ■■" in text
    assert "     ■" in text


def test_render_marked_empty_triple():
    assert cli.render_diagram(MarkedObject(3, T(()))) == "[marker 3] (empty)"


def test_render_marked_with_z_shift():
    pair = MacPair(1, Partition(()))
    text = cli.render_diagram(MarkedObject(3, pair, marker_z=-1))
    assert text.splitlines()[0] == "[marker 3, z-1]"
    assert "side 1: ■" in text


def test_render_negative_square_pair():
    text = cli.render_diagram(MacPair(-2, Partition((4, 2))))
    lines = text.splitlines()
    assert lines[0] == "side -2: ■■"
    assert lines[1] == "         ■■"
    assert "mu:   ■■■■" in text
    assert "      ■■" in text


# one parser per row ----------------------------------------------------------------

# The grammar of the cli docstring: each (command, target) row and its flags.
GRAMMAR = {
    ("verify", "macmahon"): {"--n", "--n-max", "--m", "--m-max", "--json", "--format"},
    ("verify", "andrews"): {"--n", "--n-max", "--cap", "--json", "--format"},
    ("check-bijection", "macmahon-phi"): {"--n", "--m", "--k", "--json", "--format"},
    ("check-bijection", "macmahon-psi"): {"--n", "--k", "--json", "--format"},
    ("check-bijection", "macmahon-cancelation"): {"--n", "--m", "--json", "--format"},
    ("check-bijection", "andrews-phi"): {"--n", "--k", "--cap", "--json", "--format"},
    ("check-bijection", "andrews-involution"): {"--n", "--k", "--cap", "--json",
                                                "--format"},
    ("trace", "andrews"): {"--n", "--k", "--cap"},
}
ALL_FLAGS = ("--n", "--n-max", "--m", "--m-max", "--k", "--cap", "--json", "--format")
# a call of each row that succeeds
VALID = {
    ("verify", "macmahon"): ["--n", "1", "--m", "1"],
    ("verify", "andrews"): ["--n", "1"],
    ("check-bijection", "macmahon-phi"): ["--n", "2", "--m", "1", "--k", "0"],
    ("check-bijection", "macmahon-psi"): ["--n", "2", "--k", "1"],
    ("check-bijection", "macmahon-cancelation"): ["--n", "1", "--m", "1"],
    ("check-bijection", "andrews-phi"): ["--n", "3", "--k", "1", "--cap", "12"],
    ("check-bijection", "andrews-involution"): ["--n", "2", "--k", "2", "--cap", "12"],
    ("trace", "andrews"): ["--n", "2", "--k", "0", "--cap", "10"],
}


def test_the_rows_are_the_grammar():
    assert set(cli.ROWS) == set(GRAMMAR) == set(VALID)
    assert set().union(*GRAMMAR.values()) == set(ALL_FLAGS)


def test_help_exits_zero_and_lists_every_row(capsys):
    assert run(["--help"]) == (0, "")
    text = capsys.readouterr().out
    for command, target in GRAMMAR:
        assert f"{command} {target}" in text


def test_each_row_usage_names_exactly_its_flags(capsys):
    for row, flags in GRAMMAR.items():
        assert run([*row, "--help"]) == (0, ""), row
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert usage.startswith(f"usage: qtelescope {' '.join(row)} "), row
        assert set(re.findall(r"--[a-z][a-z-]*", usage)) == flags, row


def test_each_flag_a_row_does_not_take_is_a_usage_error(tmp_path, capsys):
    values = {"--json": str(tmp_path / "certs.json"), "--format": "json"}
    for row, flags in GRAMMAR.items():
        assert run([*row, *VALID[row]])[0] == 0, row
        capsys.readouterr()
        for flag in ALL_FLAGS:
            if flag in flags:
                continue
            argv = [*row, *VALID[row], flag, values.get(flag, "1")]
            assert run(argv) == (2, ""), argv
            assert "Traceback" not in capsys.readouterr().err, argv
    assert not (tmp_path / "certs.json").exists()


def test_an_index_and_its_upper_bound_conflict_at_the_default_too(capsys):
    # 4 is the default upper bound; giving it explicitly still conflicts
    for x in ("n", "m"):
        single, upper = [f"--{x}", "1"], [f"--{x}-max", "4"]
        for argv in (["verify", "macmahon", *single, *upper],
                     ["verify", "macmahon", *upper, *single]):
            assert run(argv) == (2, ""), argv
            assert "not allowed with" in capsys.readouterr().err, argv


def test_flags_may_stand_before_the_target(capsys):
    expected = run(["verify", "macmahon", "--n-max", "1", "--m", "1"])
    assert expected[0] == 0
    for argv in (["verify", "--n-max", "1", "macmahon", "--m", "1"],
                 ["--n-max", "1", "--m", "1", "verify", "macmahon"],
                 ["verify", "--m=1", "macmahon", "--n-max=1"],
                 ["--n-max", "1", "--m", "1", "--", "verify", "macmahon"]):
        assert run(argv) == expected, argv
    assert run(["verify", "macmahon", "--n-max", "1", "--", "--m", "1"]) == (2, "")
    capsys.readouterr()
    # -2 is --k's value, not a word, so the row's index rule sees it
    assert run(["check-bijection", "--k", "-2", "andrews-phi", "--n", "3"]) == (2, "")
    assert capsys.readouterr().err == "error: no map lowers n=3, k=-2\n"


def test_an_argv_that_names_no_row_says_why(capsys):
    # macmahon is --json's value here, so no TARGET is given
    for argv, reason in (
            (["verify", "--json", "macmahon"], "COMMAND and TARGET are required"),
            (["verify", "andrews-phi"], "verify has no target andrews-phi"),
            (["trace", "macmahon", "--n", "1"], "trace has no target macmahon"),
            (["verify", "nonsense"], "invalid choice: 'nonsense'")):
        assert run(argv) == (2, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("usage: qtelescope [-h] [COMMAND] [TARGET]"), argv
        assert reason in err and "Traceback" not in err, argv


def test_json_to_an_unwritable_path_is_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing" / "certs.json", tmp_path):
        code, _ = run(["verify", "macmahon", "--n", "1", "--m", "1",
                       "--json", str(path)])
        assert code == 2, path
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, path


# the argv reader against argparse ---------------------------------------------------

def argv_corpus():
    """Argvs for every part of the grammar: each row's valid call, with the
    flags before the target and in --flag=value form, negative and repeated
    values, each foreign flag, exclusive conflict, missing required flag,
    missing value, bad int and bad choice, help, and argvs naming no row."""
    values = {"--json": "certs.json", "--format": "json"}
    argvs = [[], ["verify"], ["frobnicate"], ["verify", "nonsense"], ["nonsense", "macmahon"],
             ["verify", "andrews-phi"], ["trace", "macmahon", "--n", "1"],
             ["verify", "--json", "macmahon"], ["--n", "1"], ["--help"], ["-h"],
             ["verify", "--help"], ["verify", "nonsense", "--help"],
             ["check-bijection", "--k", "-2", "andrews-phi", "--n", "3"]]
    for row, (flags, _) in cli.ROWS.items():
        valid = VALID[row]
        pairs = list(zip(valid[::2], valid[1::2]))
        argvs += [[*row], [*row, *valid], [row[0], *valid, row[1]], [*valid, *row],
                  [*row, *(f"{flag}={value}" for flag, value in pairs)],
                  [*row, "--help"], [*valid, *row, "-h"], [*row, "-h", "--n", "x"],
                  [*row, *valid, "extra"], [*row, *valid, "--bogus"]]
        for flag, value in pairs:
            argvs += [[*row, *valid, flag, f"-{value}"], [*row, *valid, flag, "7", flag, value],
                      [*row, *(a for pair in pairs if pair[0] != flag for a in pair)]]
        argvs += [[*row, *valid, flag, values.get(flag, "1")]
                  for flag in ALL_FLAGS if flag not in GRAMMAR[row]]
        for flag in flags:
            value = values.get(flag.name, "3")
            argvs += [[*row, *valid, flag.name, value], [*row, *valid, f"{flag.name}=-{value}"],
                      [*row, *valid, flag.name], [*row, flag.name, "-x", *valid],
                      [*row, flag.name, "1.5", *valid]]
            if flag.name != "--json":  # any string is a path
                argvs.append([*row, *valid, flag.name, "xml" if flag.choices else "x"])
        argvs += [[*row, first.name, "1", second.name, "4"]
                  for first, second in permutations(flags, 2)
                  if first.group and first.group == second.group]
    return argvs


def parsed(parse, argv):
    """(row, values) of argv, or the status parse exits with."""
    try:
        return parse(argv)
    except SystemExit as exc:
        return exc.code


def test_the_argv_reader_agrees_with_argparse_on_the_whole_corpus(capsys):
    import reference_cli

    def ours(argv):
        row, args = cli._parse(argv)
        return row, vars(args)

    kinds = set()
    for argv in argv_corpus():
        got = parsed(ours, argv)
        out, err = capsys.readouterr()
        assert got == parsed(reference_cli.parse, argv), argv
        capsys.readouterr()
        if got == cli.USAGE_ERROR:
            usage, reason = err.splitlines()
            assert usage.startswith("usage: qtelescope ") and ": error: " in reason, argv
        elif got == 0:
            assert out.startswith("usage: qtelescope ") and not err, argv
        kinds.add(got if isinstance(got, int) else "row")
    assert kinds == {"row", 0, cli.USAGE_ERROR}


def test_flag_names_are_given_in_full(capsys):
    # argparse read --form as --format and --ca as --cap
    for argv, abbreviation in (
            (["verify", "macmahon", "--n", "1", "--m", "1", "--form", "json"], "--form"),
            (["check-bijection", "andrews-phi", "--n", "3", "--k", "1", "--ca", "20"], "--ca")):
        assert run(argv) == (2, ""), argv
        reason = capsys.readouterr().err.splitlines()[1]
        assert "unrecognized arguments: " in reason and abbreviation in reason.split(), argv


def test_the_readme_grammar_is_each_row_usage():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    assert block.splitlines() == [cli._usage(row) for row in cli.ROWS]


def test_the_cli_runs_without_loading_argparse(tmp_path):
    # -S leaves out site-packages, as the bare standard library job does
    child = ("import sys\n"
             "from qtelescope import cli\n"
             "code = cli.run(['verify', 'macmahon', '--n', '0', '--m', '0'])\n"
             "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
             "sys.exit(code)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-S", "-c", child], cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, encoding="utf-8", timeout=60)
    assert (result.returncode, result.stdout) == (0, "[ok ] macmahon n=0 m=0\n[]\n"), \
        result.stderr
