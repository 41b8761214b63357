"""Command line interface: subcommands, formats, and exit codes."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from hilbfock import cli
from hilbfock.cli import main
from hilbfock.hilbert import chern_class
from hilbfock.fock import vector_records
from hilbfock.ring import SURFACE_NAMES, builtin_ring, dump_ring
from hilbfock.verify import SUITES
from hilbfock.walgebra import chern


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys, )
    assert code == 2


def test_verify_list_names_every_suite(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    for name in ("heis", "vir", "thm31", "thm42", "thm46-unique", "cor48",
                 "rmk410", "rmk43", "def51-ids", "lem32", "lem52", "lem53",
                 "lem61", "rmk56", "thm55", "thm57", "eq22"):
        assert name in out, name
    code, out, _ = run(capsys, "verify", "--list", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert len(rows) == 17
    assert all({"suite", "description", "mutation"} <= set(r) for r in rows)
    assert {r["suite"]: r["description"] for r in rows}["thm46-unique"] == (
        "characterization of the character series: derivation invariance, "
        "transfer pin")


def test_verify_list_with_a_run_option_is_usage_error(capsys):
    """--list prints the suite table and runs nothing, so it takes only
    --format and --out."""
    code, out, err = run(capsys, "verify", "--list", "--suite", "heis",
                         "--mutation", "x")
    assert code == 2 and out == ""
    assert "--list takes only --format and --out" in err
    for extra in (["--surface", "k3"], ["--cutoff", "3"],
                  ["--bound", "m_max=2"]):
        code, out, _ = run(capsys, "verify", "--list", *extra)
        assert code == 2 and out == "", extra


def test_verify_small_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lem53",
                       "--bound", "p_max=2", "--bound", "m_max=2")
    assert code == 0
    assert out.endswith("result: PASS\n")


def test_verify_mutation_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "rmk43",
                       "--mutation", "shift-term")
    assert code == 1
    assert out.endswith("result: FAIL\n")


def test_verify_usage_errors(capsys):
    assert run(capsys, "verify", "--suite", "nope")[0] == 2
    assert run(capsys, "verify", "--suite", "heis",
               "--bound", "m_max=two")[0] == 2
    assert run(capsys, "verify", "--suite", "rmk43",
               "--mutation", "central-shift")[0] == 2
    assert run(capsys, "verify", "--suite", "heis",
               "--surface", "enriques")[0] == 2
    assert run(capsys, "verify")[0] == 2


def test_verify_mutation_that_no_check_fails_is_usage_error(capsys):
    for suite, bound, mutation in (("thm55", "pq_max=2", "omega-negated"),
                                   ("thm57", "pq_max=0", "linear-shift"),
                                   ("heis", "m_max=0", "central-shift")):
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--bound", bound, "--mutation", mutation)
        assert code == 2 and out == "", suite
        assert err == ("error: suite %s passes with mutation %s: these "
                       "bounds leave the mutation nothing to change\n"
                       % (suite, mutation)), err


def test_verify_jobs_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "thm55", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_verify_negative_cutoff_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "rmk43", "--cutoff",
                         "-3", "--mutation", "shift-term")
    assert code == 2 and out == ""
    assert "cutoff must be at least 0" in err


def test_verify_cutoff_one_is_usage_error(capsys):
    """A weight-1 window is refused for every suite: at cutoff 1 the
    thm55, rmk56 and lem61 mutations would pass.  Cutoff 0 still means
    the suite's default window, and the header keeps the value given."""
    for suite in ("thm55", "rmk56", "lem61", "rmk43"):
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--cutoff", "1")
        assert code == 2 and out == ""
        assert "cutoff must be 0 (the suite's default window) or at least 2" \
            in err and "Traceback" not in err
    code, out, _ = run(capsys, "verify", "--suite", "rmk43", "--cutoff", "0",
                       "--format", "jsonl")
    assert code == 0
    assert json.loads(out.splitlines()[0])["header"]["cutoff"] == 0
    code, _, _ = run(capsys, "verify", "--suite", "rmk43", "--cutoff", "2")
    assert code == 0


def test_verify_cutoff_on_windowless_suite_is_usage_error(capsys):
    """The suites that read no window refuse --cutoff rather than write a
    window they never used into the report header."""
    for suite in ("heis", "thm31", "lem32", "cor48", "rmk410", "eq22"):
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--cutoff", "4")
        assert code == 2 and out == "", suite
        assert "suite %s reads no window" % suite in err, err
        assert "Traceback" not in err


def test_verify_classes_is_not_an_option(capsys):
    """Each suite fixes its own probe classes; the report header keeps an
    empty "classes" field."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "heis", "--classes", "all"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --classes all" in capsys.readouterr().err
    code, out, _ = run(capsys, "verify", "--suite", "heis", "--surface",
                       "p2", "--bound", "m_max=1", "--format", "jsonl")
    assert code == 0
    assert json.loads(out.splitlines()[0])["header"]["classes"] == ""


def test_verify_unknown_bound_key_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "rmk43",
                         "--bound", "kmax=1")
    assert code == 2 and out == ""
    assert "kmax" in err and "k_max, n_max" in err



def test_verify_repeated_bound_key_is_usage_error(capsys):
    """A key that --bound gives twice exits 2 with one line naming it,
    rather than running the last value."""
    code, out, err = run(capsys, "verify", "--suite", "rmk410", "--bound",
                         "n_max=1", "--bound", "n_max=2")
    assert code == 2 and out == ""
    assert err == "error: --bound n_max is given more than once\n"


def test_verify_negative_bound_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "heis",
                         "--bound", "m_max=-1")
    assert code == 2 and out == ""
    assert "m_max" in err and "at least 0" in err


def test_verify_bound_too_large_for_its_grid_is_usage_error(capsys):
    """A bound whose grid -b..b cannot be built exits 2 with one line,
    not with an OverflowError traceback."""
    for suite, key in (("vir", "m_max"), ("lem52", "n_max")):
        code, out, err = run(capsys, "verify", "--suite", suite, "--bound",
                             "%s=100000000000000000000" % key)
        assert code == 2 and out == "", suite
        assert err.startswith("error: %s must be an integer of at most "
                              % key) and err.count("\n") == 1, err


def test_verify_eq22_unsupported_surface_is_usage_error(capsys):
    for surface in ("p2", "p1xp1"):
        code, out, err = run(capsys, "verify", "--suite", "eq22",
                             "--surface", surface)
        assert code == 2 and out == ""
        assert "abelian or k3" in err and "Traceback" not in err


def test_verify_refuses_undeclared_surfaces(capsys):
    """Every suite refuses a surface its registry entry does not declare,
    so a report header never names a surface the run did not use."""
    for name, suite in sorted(SUITES.items()):
        for surface in sorted(set(SURFACE_NAMES) - set(suite.surfaces)):
            code, out, err = run(capsys, "verify", "--suite", name,
                                 "--surface", surface)
            assert code == 2 and out == "", (name, surface)
            assert err.startswith("error: suite %s " % name), err
            assert surface in err and "Traceback" not in err


def test_verify_cor48_mutation_off_k3_is_usage_error(capsys):
    for surface in ("abelian", "p2"):
        code, out, err = run(capsys, "verify", "--suite", "cor48",
                             "--surface", surface,
                             "--mutation", "euler-shift")
        assert code == 2 and out == ""
        assert "runs on k3" in err and "Traceback" not in err


def test_verify_window_too_small_for_a_cell_is_usage_error(capsys):
    """A bracket cell whose window cannot hold it would compare an empty
    box (passing vacuously) against central terms (failing correct
    code); the run is refused and names the cutoff the cell needs."""
    for argv, need in ((("vir", "--cutoff", "2"), "at least 6, got 2"),
                       (("vir", "--bound", "m_max=6"), "at least 12, got 8"),
                       (("thm57", "--cutoff", "4"), "at least 6, got 4"),
                       (("lem52", "--bound", "n_max=10"),
                        "at least 10, got 8")):
        code, out, err = run(capsys, "verify", "--suite", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: a bracket of sizes") and need in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_bounds_with_nothing_to_check_are_usage_error(capsys):
    for suite in ("cor48", "rmk410"):
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--bound", "n_max=0")
        assert code == 2 and out == "", suite
        assert err == ("error: suite %s has nothing to check at these "
                       "bounds: the run yields no record\n" % suite)


def test_omega_value_and_jsonl(capsys):
    code, out, _ = run(capsys, "omega", "--p", "2", "--q", "1",
                       "--m", "1", "--n", "1")
    assert code == 0 and out == "6\n"
    code, out, _ = run(capsys, "omega", "--p", "1", "--q", "3",
                       "--m", "-3", "--n", "-3", "--format", "jsonl")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"m": -3, "n": -3, "omega": "792", "p": 1, "q": 3}


def test_omega_negative_weight_is_usage_error(capsys):
    for p, q in (("-1", "2"), ("2", "-1"), ("-3", "-3")):
        code, out, err = run(capsys, "omega", "--p", p, "--q", q,
                             "--m", "1", "--n", "1")
        assert code == 2 and out == ""
        assert "omega needs W-weights p, q >= 0" in err
        assert "Traceback" not in err


def test_intersect_json_spot(capsys):
    code, out, _ = run(capsys, "intersect", "--k", "2", "--n", "2",
                       "--format", "jsonl")
    assert code == 0
    assert json.loads(out) == {"match": True, "oracle": "-1/4",
                               "value": "-1/4"}


def test_intersect_jsonl_is_the_json_line(capsys):
    """A single tuple prints under jsonl one JSON line, the same on k3 as
    on p2 (the default surface)."""
    argv = ("intersect", "--k", "2", "--n", "2", "--format", "jsonl")
    _, want, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--surface", "k3")
    assert code == 0 and out == want and out.count("\n") == 1
    assert json.loads(out) == {"match": True, "oracle": "-1/4",
                               "value": "-1/4"}


@pytest.mark.parametrize("argv", [
    ["chern", "--k", "1", "--n", "2", "--dump-terms"],
    ["intersect", "--k", "2", "--n", "2", "--format", "json"],
    ["ring", "--format", "human"],
], ids=["chern-dump-terms", "intersect-json", "ring-format"])
def test_removed_routes_are_argparse_errors(capsys, argv):
    """dump --op "G(k;c)" prints chern's operator terms, --format jsonl
    intersect's JSON line, and ring has a single output form."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage:" in err


def _point_name(ring):
    return ring.basis_names[ring.degrees.index(4)]


@pytest.mark.parametrize("surface", SURFACE_NAMES)
def test_chern_and_cup_default_to_the_point_class(capsys, surface):
    """Without --class, chern and cup read the degree-4 class: x on p2,
    p1xp1 and k3, t1234 on abelian."""
    name = _point_name(builtin_ring(surface))
    for argv in (["chern", "--k", "1", "--n", "2"],
                 ["chern", "--k", "2", "--n", "3", "--format", "jsonl"],
                 ["cup", "--k", "1", "--k", "1", "--n", "3"],
                 ["cup", "--k", "0", "--k", "1", "--n", "2", "--format",
                  "jsonl"]):
        argv = argv + ["--surface", surface]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", argv
        assert run(capsys, *argv, "--class", name) == (0, out, ""), argv
    assert "G_1(%s) on 2 points" % name in run(
        capsys, "chern", "--k", "1", "--n", "2", "--surface", surface)[1]


def test_chern_and_cup_default_to_a_ring_files_point_class(tmp_path,
                                                           capsys):
    """A ring file whose degree-4 class is called pt: chern and cup
    without --class read pt."""
    doc = json.loads(dump_ring(builtin_ring("p2")).replace('"x"', '"pt"'))
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc))
    for argv in (["chern", "--k", "2", "--n", "3"],
                 ["cup", "--k", "1", "--k", "1", "--n", "3", "--format",
                  "jsonl"]):
        argv = argv + ["--ring-file", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and "pt" in out, argv
        assert run(capsys, *argv, "--class", "pt") == (0, out, ""), argv
    code, _, err = run(capsys, "chern", "--k", "1", "--n", "2",
                       "--ring-file", str(path), "--class", "x")
    assert code == 2
    assert "unknown class 'x' on surface p2; classes: 1, H, pt" in err


def test_intersect_degree_mismatch(capsys):
    code, _, err = run(capsys, "intersect", "--k", "1", "--n", "2")
    assert code == 2
    assert "degree mismatch" in err


def test_intersect_negative_k_is_usage_error(capsys):
    code, _, err = run(capsys, "intersect", "--k", "-2", "--k", "2",
                       "--n", "2")
    assert code == 2
    assert "negative Chern character index -2" in err


def test_intersect_grid_without_points_is_usage_error(capsys):
    code, out, err = run(capsys, "intersect", "--grid", "--n", "0")
    assert code == 2
    assert out == "" and "--n must be at least 1" in err


def test_intersect_grid_with_k_is_usage_error(capsys):
    """--grid runs every tuple, so a --k beside it would be dropped."""
    with pytest.raises(SystemExit) as exc:
        main(["intersect", "--grid", "--n", "1", "--k", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument --grid" in err


def test_intersect_grid_csv(capsys):
    code, out, _ = run(capsys, "intersect", "--grid", "--n", "2",
                       "--format", "csv", "--surface", "k3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "ks,n,value,oracle,match"
    assert len(lines) > 2
    assert all(line.endswith(",true") for line in lines[1:])
    # one tuple prints the header and its row of the grid
    for ks, n in ((["2"], "2"), (["0", "0"], "2")):
        argv = [a for k in ks for a in ("--k", k)]
        code, out, _ = run(capsys, "intersect", *argv, "--n", n,
                           "--format", "csv", "--surface", "k3")
        header, row = out.splitlines()
        assert code == 0 and header == lines[0]
        assert row.startswith("+".join(ks) + "," + n + ",")
        assert row in lines[1:]


def test_ring_validate_and_info(capsys):
    code, out, _ = run(capsys, "ring", "--surface", "k3", "--validate")
    assert code == 0 and out == "ok: k3 (dim 24)\n"
    code, out, _ = run(capsys, "ring", "--surface", "abelian")
    assert code == 0 and "dim: 16" in out


def test_ring_dump_with_validate_is_usage_error(capsys):
    """ring prints one of its three outputs, never two."""
    with pytest.raises(SystemExit) as exc:
        main(["ring", "--dump", "--validate", "--surface", "k3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument --dump" in err


def test_ring_dump_round_trip(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(capsys, "ring", "--dump", "--surface", "p2",
               "--out", str(first))[0] == 0
    assert run(capsys, "ring", "--dump", "--ring-file", str(first),
               "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("argv", (
    ("omega", "--p", "1", "--q", "1", "--m", "1", "--n", "1"),
    ("ring",),
    ("verify", "--list")), ids=lambda argv: argv[0])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    """--out into a missing directory, or onto a directory, exits 2 with
    one stderr line and no traceback, and prints nothing on stdout."""
    for target in (tmp_path / "missing" / "x", tmp_path):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2 and out == "", (argv, target)
        assert err.startswith("error: cannot write %s: " % target), err
        assert err.count("\n") == 1 and "Traceback" not in err, err


def test_ring_file_and_surface_conflict(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(dump_ring(builtin_ring("p2")))
    code, _, err = run(capsys, "ring", "--surface", "p2",
                       "--ring-file", str(path))
    assert code == 2 and "not both" in err



def test_ring_file_malformed_is_usage_error(tmp_path, capsys):
    """A ring is validated when it is loaded, so --validate too exits 2
    on a bad file, a degenerate pairing included, before printing."""
    doc = json.loads(dump_ring(builtin_ring("p2")))
    bad = [dict(doc, integral=[1]),
           dict(doc, products=[["H", "H", ["x", "1"]]]),
           dict(doc, integral={"x": "1/0"}),
           dict(doc, basis=[]),
           dict(doc, integral={"x": 0.1}),
           dict(doc, products=[])]
    for i, d in enumerate(bad):
        path = tmp_path / ("bad%d.json" % i)
        path.write_text(json.dumps(d))
        for flags in ((), ("--validate",)):
            code, out, err = run(capsys, "ring", "--ring-file", str(path),
                                 *flags)
            assert code == 2 and out == "", (d, flags)
            assert err.startswith("ring error: ") and "Traceback" not in err
    assert err == "ring error: intersection pairing is degenerate\n"
    # nested deeper than the JSON decoder's recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    for argv in (("ring",), ("chern", "--k", "1", "--n", "2")):
        code, out, err = run(capsys, *argv, "--ring-file", str(path))
        assert code == 2 and out == "", argv
        assert err.startswith("ring error: invalid JSON: ")
        assert err.count("\n") == 1 and "Traceback" not in err

def test_ring_file_bad_degree_or_repeated_product_is_usage_error(tmp_path,
                                                                capsys):
    doc = json.loads(dump_ring(builtin_ring("p2")))
    bad = [dict(doc, basis=[["1", 0], ["H", 2.9], ["x", 4]]),
           dict(doc, products=doc["products"] + doc["products"][:1])]
    for i, d in enumerate(bad):
        path = tmp_path / ("bad%d.json" % i)
        path.write_text(json.dumps(d))
        code, out, err = run(capsys, "ring", "--ring-file", str(path))
        assert code == 2 and out == "", d
        assert err.startswith("ring error: ") and "Traceback" not in err


def test_ring_file_with_wrong_euler_number_is_usage_error(tmp_path, capsys):
    """A p2 whose Euler class is 5x fails validation: the Euler class must
    integrate to the Euler number, 3 on p2."""
    doc = json.loads(dump_ring(builtin_ring("p2")))
    path = tmp_path / "e5.json"
    path.write_text(json.dumps(dict(doc, e={"x": 5})))
    for argv in (("ring", "--ring-file", str(path), "--validate"),
                 ("chern", "--ring-file", str(path), "--k", "1",
                  "--n", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == ("ring error: Euler class integrates to 5, not to "
                       "the Euler number 3\n"), argv


def test_unreadable_ring_file_or_surface_entry_is_usage_error(
        tmp_path, capsys):
    """A ring file that is a directory or holds bytes that are not UTF-8
    exits 2 with one line."""
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    (tmp_path / "foo.json").mkdir()
    for path in (binary, tmp_path / "foo.json"):
        code, out, err = run(capsys, "ring", "--ring-file", str(path))
        assert code == 2 and out == "", path
        assert err.startswith("error: cannot read "), path
        assert err.count("\n") == 1 and "Traceback" not in err, path


def test_surface_dir_is_not_read(tmp_path, capsys, monkeypatch):
    """A ring file loads only through --ring-file: --surface names a
    built-in surface, whatever the environment holds."""
    path = tmp_path / "myplane.json"
    path.write_text(dump_ring(builtin_ring("p2")))
    monkeypatch.setenv("HILBFOCK_SURFACE_DIR", str(tmp_path))
    code, out, err = run(capsys, "ring", "--surface", "myplane")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "unknown built-in surface" in err
    code, out, _ = run(capsys, "ring", "--ring-file", str(path),
                       "--validate")
    assert code == 0 and "dim 3" in out


RING_COMMANDS = (("ring",), ("chern", "--k", "1", "--n", "2"),
                 ("dump", "--op", "a(-1;x)"))


@pytest.mark.parametrize("argv, message", [
    (cmd + ("--surface", name), "unknown built-in surface %r" % name)
    for cmd in RING_COMMANDS for name in ("P2", "foo")] + [
    (("verify", "--suite", "heis", "--surface", "foo"),
     "suite heis runs on abelian or k3 or p1xp1 or p2, not foo"),
    (("verify", "--suite", "rmk43", "--surface", "foo"),
     "suite rmk43 reads no surface"),
])
def test_unknown_surface_is_usage_error(capsys, argv, message):
    """Every command refuses a surface name it does not know in one line:
    a ring command names the built-in surfaces, verify the suite's."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("target,argv", [
    ("run_suite", ("verify", "--suite", "lem53")),
    ("chern_class", ("chern", "--k", "1", "--n", "2", "--surface", "k3")),
    ("cup_product", ("cup", "--k", "0", "--n", "1", "--surface", "k3")),
    ("hilb_integral", ("cup", "--k", "0", "--n", "1", "--surface", "k3")),
    ("intersection_number", ("intersect", "--grid", "--n", "2")),
    ("intersection_number", ("intersect", "--k", "0", "--n", "1")),
    ("omega", ("omega", "--p", "1", "--q", "1", "--m", "1", "--n", "1")),
    ("parse_operator", ("dump", "--op", "a(-2;H)"))],
    ids=["verify", "chern", "cup-product", "cup-integral", "intersect-grid",
         "intersect-k", "omega", "dump"])
def test_a_refused_computation_exits_2_in_one_line(capsys, monkeypatch,
                                                   target, argv):
    """A ValueError from any subcommand's computation, wherever it is
    raised, exits 2 with one stderr line, no traceback and no stdout."""
    def refuse(*args):
        raise ValueError("refused input")

    monkeypatch.setattr(cli, target, refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: refused input\n"


def test_dump_operator_deterministic(capsys):
    argv = ("dump", "--op", "J(2,-1;x)", "--surface", "p2",
            "--cutoff", "5", "--format", "jsonl")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["op"] == "J(2,-1;x)" and doc["terms"]


def test_dump_operator_bad_input(capsys):
    assert run(capsys, "dump", "--op", "Z(1;x)")[0] == 2
    assert run(capsys, "dump", "--op", "a(-2;zz)")[0] == 2
    assert run(capsys, "dump", "--op", "J(1;x)")[0] == 2


def test_dump_cutoff_bounds_created_and_annihilated_points(capsys):
    """dump prints the words that create and annihilate at most --cutoff
    points each, transfer operators included."""
    def dump(op, cutoff):
        code, out, _ = run(capsys, "dump", "--op", op, "--surface", "p2",
                           "--cutoff", str(cutoff))
        assert code == 0
        return out

    assert dump("a(-8;H)", 6) == "0\n"
    assert dump("a(-8;H)", 8) == "1 * a(-8;H)\n"
    assert dump("a(3;x)", 2) == "0\n"
    assert dump("a(3;x)", 3) == "1 * a(3;x)\n"
    assert dump("J(2,-1;x)", 1) == "0\n"
    assert dump("J(2,-1;x)", 2) != "0\n"
    # a wider window keeps every word of a narrower one
    narrow = set(dump("J(2,-1;x)", 3).splitlines())
    assert narrow < set(dump("J(2,-1;x)", 5).splitlines())


def test_dump_negative_cutoff_is_usage_error(capsys):
    code, out, err = run(capsys, "dump", "--op", "a(1;x)", "--cutoff", "-3")
    assert code == 2
    assert out == "" and "--cutoff must be at least 0" in err


def test_chern_formats_and_gate(capsys):
    code, out, _ = run(capsys, "chern", "--k", "1", "--n", "2",
                       "--surface", "k3", "--class", "u1",
                       "--format", "jsonl")
    assert code == 0
    doc = json.loads(out)
    assert doc["surface"] == "k3" and doc["vector"]
    code, _, err = run(capsys, "chern", "--k", "1", "--n", "2",
                       "--surface", "p2", "--class", "H")
    assert code == 2 and "canonical" in err


def test_cup_integral_values(capsys):
    base = ("cup", "--k", "0", "--k", "0", "--surface", "k3",
            "--class", "u1", "--class", "u2", "--format", "jsonl")
    code, out, _ = run(capsys, *base, "--n", "1")
    assert code == 0 and json.loads(out)["integral"] == "1"
    code, out, _ = run(capsys, *base, "--n", "2")
    assert code == 0 and json.loads(out)["integral"] == "0"


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "omega.txt"
    code, out, _ = run(capsys, "omega", "--p", "0", "--q", "0",
                       "--m", "3", "--n", "-3", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == "0\n"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hilbfock.cli", "omega", "--p", "2",
         "--q", "2", "--m", "1", "--n", "-2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "48\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "thm31", "--format", "jsonl"),
    ("omega", "--p", "2", "--q", "2", "--m", "1", "--n", "-2")])
def test_closed_stdout_ends_quietly(argv):
    """A stdout pipe whose reader has already left, as in `| head -0`,
    ends the run with exit status 141 and nothing on stderr: the long
    thm31 report and a one-line answer alike."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "hilbfock", *argv],
                              stdout=write, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_package_runs_as_a_module(capsys):
    """python -m hilbfock runs cli.main: `verify --list` prints what the
    in-process call prints, and importing the package's __main__ module
    runs nothing (test_imports imports every module)."""
    proc = subprocess.run([sys.executable, "-m", "hilbfock", "verify",
                           "--list"], capture_output=True, text=True)
    code, out, _ = run(capsys, "verify", "--list")
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout == out and out


def test_dump_prints_the_operator_chern_applies(capsys):
    """dump --op "G(k;c)" --cutoff n prints the G_k term list on the
    n-point window, the operator that chern applies to the fundamental
    class of X^[n]; chern prints the image, chern_class."""
    k3 = builtin_ring("k3")
    u1 = k3.basis("u1")
    code, out, _ = run(capsys, "chern", "--k", "2", "--n", "3", "--surface",
                       "k3", "--class", "u1", "--format", "jsonl")
    assert code == 0
    assert json.loads(out)["vector"] == vector_records(
        chern_class(k3, 2, u1, 3), k3)
    op = chern(k3, 2, u1).terms_within(3)
    code, out, _ = run(capsys, "dump", "--op", "G(2;u1)", "--surface", "k3",
                       "--cutoff", "3", "--format", "jsonl")
    assert code == 0
    dumped = json.loads(out)
    assert dumped["terms"] and dumped["terms"] == vector_records(op.terms,
                                                                 k3)
    assert dumped["scalar"] == str(op.scalar)
    code, text, _ = run(capsys, "dump", "--op", "G(2;u1)", "--surface", "k3",
                        "--cutoff", "3")
    assert code == 0 and text == op.render() + "\n"


# A mixed stream: append flags given, omitted and repeated, argparse
# usage errors (SystemExit 2), command usage errors (return 2) and a
# verification failure (1), interleaved so that state one call left in
# a shared parser would show in a later one.
STREAM = [
    ["cup", "--k", "1", "--k", "1", "--n", "3", "--surface", "p2",
     "--class", "x"],
    ["cup", "--k", "0", "--n", "2", "--surface", "k3", "--class", "u1",
     "--format", "jsonl"],
    ["chern", "--n", "3"],
    ["cup", "--n", "2"],
    ["cup", "--k", "0", "--k", "0", "--n", "2", "--surface", "k3",
     "--class", "u1", "--class", "u2"],
    ["verify", "--suite", "lem53", "--bound", "p_max=1", "--bound",
     "m_max=1", "--format", "jsonl"],
    ["verify", "--suite", "lem53", "--bound", "p_max=2"],
    ["intersect", "--k", "0", "--k", "0", "--n", "2", "--format", "jsonl"],
    ["intersect", "--k", "1", "--n", "2"],
    ["intersect", "--n", "2", "--surface", "p2"],
    ["dump", "--op", "G(1;t1)", "--surface", "abelian", "--cutoff", "2"],
    ["chern", "--k", "1", "--n", "2", "--surface", "p2", "--class", "H"],
    ["verify", "--suite", "rmk43", "--mutation", "shift-term"],
    ["omega", "--p", "2", "--q", "1", "--m", "1"],
    ["verify", "--suite", "lem53", "--bound", "m_max=1"],
    ["dump", "--op", "J(2,-1;x)", "--cutoff", "3"],
    [],
    ["cup", "--k", "2", "--n", "2", "--surface", "p1xp1"],
]


def call(capsys, argv):
    """(exit code, stdout) of one in-process call, SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_parser_reuse_matches_fresh_parsers(capsys, monkeypatch):
    """main builds the parser tree once per process; every call in a
    mixed stream answers as it does with a tree, command parsers
    included, built for that call alone."""
    built = []

    def counting_build():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    shared = [call(capsys, argv) for argv in STREAM]
    assert len(built) == 1
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
    fresh = [call(capsys, argv) for argv in STREAM]
    assert len(built) == 1 + len(STREAM)
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 0, 2, 2, 0, 0, 0, 0, 2, 2, 0,
                                            2, 1, 2, 0, 0, 2, 0]


# Every command, argparse's own exits (help, a missing, bad or unknown
# argument or command, an exclusive-group conflict, the --opt=value and
# abbreviated forms, "--") and every kind of refusal a command raises.
UNWRITABLE = os.path.join(os.devnull, "x")
EQUIVALENCE = [
    ["verify", "--list"],
    ["verify", "--suite", "lem53", "--bound", "p_max=1", "--bound",
     "m_max=1", "--format", "jsonl"],
    ["verify", "--suite", "rmk43", "--mutation", "shift-term"],
    ["chern", "--k", "1", "--n", "3", "--surface", "p2", "--class", "x"],
    ["cup", "--k", "1", "--k", "1", "--n", "3", "--surface", "p2",
     "--class", "x"],
    ["cup", "--k", "0", "--n", "2", "--surface", "k3", "--class", "u1",
     "--format", "jsonl"],
    ["intersect", "--k", "2", "--n", "2", "--format", "jsonl"],
    ["intersect", "--grid", "--n", "3", "--format", "csv"],
    ["ring", "--surface", "k3"],
    ["omega", "--p", "2", "--q", "1", "--m", "1", "--n", "1"],
    ["dump", "--op", "J(2,-1;x)", "--cutoff", "3"],
    [],
    ["-h"],
    ["--help"],
    ["chern", "-h"],
    ["bogus"],
    ["--bogus", "7"],
    ["chern", "--k", "1", "--n", "3", "--bogus", "7"],
    ["omega", "--p", "2", "--q", "1", "--m", "1", "--n", "1", "extra"],
    ["chern", "--k", "one", "--n", "3"],
    ["chern", "--n", "3"],
    ["chern", "--", "--k", "1", "--n", "3"],
    ["intersect", "--grid", "--k", "1", "--n", "2"],
    ["ring", "--dump", "--validate"],
    ["chern", "--k=1", "--n=3", "--sur", "k3", "--class", "u1"],
    ["verify", "--list", "--suite", "heis"],
    ["verify"],
    ["verify", "--suite", "lem53", "--bound", "p_max"],
    ["verify", "--suite", "nosuch"],
    ["chern", "--k", "1", "--n", "2", "--class", "nosuch"],
    ["chern", "--k", "1", "--n", "2", "--surface", "p2", "--class", "H"],
    ["chern", "--k", "1", "--n", "2", "--surface", "nosuch"],
    ["ring", "--surface", "p2", "--ring-file", UNWRITABLE],
    ["ring", "--ring-file", UNWRITABLE],
    ["cup", "--n", "2"],
    ["cup", "--k", "0", "--k", "0", "--n", "2", "--class", "x", "--class",
     "x", "--class", "x"],
    ["cup", "--surface", "p2", "--class", "1", "--k", "0", "--n", "1"],
    ["intersect", "--grid", "--n", "0"],
    ["intersect", "--n", "2"],
    ["intersect", "--k", "1", "--n", "2"],
    ["omega", "--p", "-1", "--q", "1", "--m", "1", "--n", "1"],
    ["dump", "--op", "Q(1;x)"],
    ["dump", "--op", "G(1;1)", "--surface", "p2"],
    ["dump", "--op", "a(-2;H)", "--cutoff", "-1"],
    ["omega", "--p", "1", "--q", "1", "--m", "1", "--n", "1", "--out",
     UNWRITABLE],
]


def answer(capsys, argv):
    """(exit code, stdout, stderr) of one in-process call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return (code,) + tuple(capsys.readouterr())


def test_one_parse_answers_as_parse_args_on_a_fresh_parser(capsys,
                                                          monkeypatch):
    """main answers every line of the stream, in stdout, stderr and exit
    code, as it does when a fresh top parser parses the line with
    parse_args: with no command parsers to pick from, main parses every
    line that way."""
    shared = [answer(capsys, argv) for argv in EQUIVALENCE]
    monkeypatch.setattr(cli, "_parser", lambda: (cli.build_parser(), {}))
    fresh = [answer(capsys, argv) for argv in EQUIVALENCE]
    for argv, got, want in zip(EQUIVALENCE, shared, fresh):
        assert got == want, argv
        assert got[1] or got[2], argv
    assert {code for code, _, _ in shared} == {0, 1, 2}


@pytest.mark.parametrize("argv,command", [
    (["verify", "--list"], "verify"),
    (["chern", "--k", "1", "--n", "3", "--class", "x"], "chern"),
    (["cup", "--k", "0", "--n", "1", "--surface", "k3"], "cup"),
    (["intersect", "--k", "2", "--n", "2"], "intersect"),
    (["ring"], "ring"),
    (["omega", "--p", "2", "--q", "1", "--m", "1", "--n", "1"], "omega"),
    (["dump", "--op", "a(-2;H)"], "dump"),
    (["chern", "--k", "one", "--n", "3"], "chern"),
    (["chern", "--k", "1", "--n", "3", "--bogus"], "chern"),
    ([], None),
    (["-h"], None),
    (["bogus"], None),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_a_command_line_is_parsed_once(capsys, monkeypatch, argv, command):
    """A line that names a command is parsed once, by that command's
    parser; any other line by the top parser."""
    ap, commands = cli._parser()
    parsers = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        parsers.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        counting)
    call(capsys, argv)
    if command:
        assert parsers == [commands[command]]
    else:
        assert parsers[0] is ap


def test_the_canonical_check_still_refuses_in_one_line(capsys):
    """cup and dump of a class with K * class != 0 exit 2 with one error
    line, now that chern checks the class when it builds the series."""
    for argv in (["cup", "--surface", "p2", "--class", "1", "--k", "0",
                  "--n", "1"],
                 ["dump", "--op", "G(1;1)", "--surface", "p2"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: class ") and err.count("\n") == 1
        assert "K * class != 0" in err
