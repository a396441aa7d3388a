"""Command line behaviour: commands, exit codes, parse errors, determinism."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tglab import cli, lgfamily, models, polytopes, rationalcone, semigroups, toricfan

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "tglab.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_validate_positive():
    proc = run_cli("validate", "--spec", str(SPECS / "p1_o2.json"))
    assert proc.returncode == 0
    assert "passed: True" in proc.stdout


def test_validate_negative_bundle():
    proc = run_cli("validate", "--spec", str(SPECS / "p1_o_minus1.json"))
    assert proc.returncode == 1
    assert "passed: False" in proc.stdout


def test_validate_nef_row_with_a_negative_entry(tmp_path):
    """Nefness depends only on the class: P2 with row (-1, 1, 0), the
    trivial class, gets a verdict like any other row, and its total-space
    fan is built and smooth."""
    spec = tmp_path / "p2_trivial.json"
    spec.write_text(json.dumps({
        "fan": {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[1, 2], [2, 3], [1, 3]]},
        "bundles": [[-1, 1, 0]],
    }))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["validate", "--spec", str(spec), "--json"])
    results = json.loads(out.getvalue())["results"]
    assert code == 0
    assert results["bundle_nef"] == [True]
    assert results["total_fan"]["smooth"] is True


def test_validate_incomplete_fan_reports_diagnostics(tmp_path):
    """The nef tests need a complete fan: on an incomplete one validate
    reports the diagnostics, with null nef verdicts, and exits 1."""
    spec = tmp_path / "incomplete.json"
    spec.write_text(json.dumps({
        "fan": {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[1, 2], [2, 3]]},
        "bundles": [[1, 0, 0]],
    }))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["validate", "--spec", str(spec), "--json"])
    results = json.loads(out.getvalue())["results"]
    assert code == 1
    assert results["fan"]["complete"] is False
    assert results["bundle_nef"] is None and results["adjoint_class_nef"] is None
    assert results["passed"] is False


P1_FAN = {"rays": [[1], [-1]], "max_cones": [[1], [2]]}


P1_SPEC = json.dumps({"fan": P1_FAN, "bundles": [[2, 0]]})


@pytest.mark.parametrize(
    "text, message, argv",
    [
        pytest.param("{ not json", "parse error", ["construct"], id="not-json"),
        pytest.param(json.dumps({"fan": P1_FAN, "basis_p": "x"}), "basis_p", ["construct"],
                     id="basis-p-string"),
        pytest.param(json.dumps({"fan": P1_FAN, "basis_p": [[1], [1, 2]]}), "basis_p",
                     ["construct"], id="basis-p-ragged"),
        pytest.param(json.dumps({"fan": P1_FAN, "bundles": [[2, 0]], "basis_p": [[1, 2, 3]]}),
                     "basis_p must have r = 1 rows of 2 entries", ["construct"], id="basis-p-rows"),
        pytest.param(json.dumps({"fan": {"rays": [[2], [-1]], "max_cones": [[1], [2]]}}),
                     "ray 1, [2], is not primitive", ["validate"], id="ray-non-primitive"),
        pytest.param(P1_SPEC, "--degree must be at least 0, got -2",
                     ["semigroup", "--degree", "-2"], id="degree-flag-negative"),
        pytest.param(P1_SPEC, "--dmax must be at least 0, got -1", ["ifun", "--dmax", "-1"],
                     id="dmax-flag-negative"),
        pytest.param(P1_SPEC, "--samples must be at least 1, got 0", ["lg", "--samples", "0"],
                     id="samples-zero"),
        pytest.param(P1_SPEC, "--beta", ["gkz", "--beta", "x"], id="beta-not-integer"),
        pytest.param(P1_SPEC, "--beta", ["gkz", "--gkz-variant", "hat", "--beta", "1,2"],
                     id="beta-wrong-length"),
        pytest.param(P1_SPEC, "--beta", ["gkz", "--gkz-variant", "qdm", "--beta", "1"],
                     id="beta-given-to-qdm"),
        pytest.param(json.dumps({"fan": {"rays": [[1, 0], [0, 1], [-1]],
                                         "max_cones": [[1, 2], [2, 3], [3, 1]]}}),
                     "rays", ["construct"], id="rays-ragged"),
        pytest.param(json.dumps({"fan": P1_FAN, "bundles": [[1, 1, 1]]}), "bundle",
                     ["construct"], id="bundle-width"),
        pytest.param(json.dumps({"fan": {"rays": [[1], [-1]], "max_cones": [[1], [3]]}}),
                     "max_cones", ["construct"], id="cone-index-past-last-ray"),
        pytest.param(json.dumps({"fan": {"rays": [[1, 0], [0, 1], [-1, -1]],
                                         "max_cones": [[1, 2], [2, 3], [3]]}}),
                     "max_cones", ["validate"], id="cone-wrong-size"),
        pytest.param(json.dumps({"fan": {"rays": [[1, 0], [0, 1], [-1, -1]],
                                         "max_cones": [[1, 2], [2, 3], [3, 3]]}}),
                     "max_cones", ["validate"], id="cone-repeated-ray"),
        pytest.param(json.dumps({"fan": {"rays": [[1], [-1]], "max_cones": [[1], [2], [1]]}}),
                     "max_cones", ["validate"], id="cone-duplicate"),
        pytest.param(json.dumps({"fan": {"rays": [[1.5], [-1]], "max_cones": [[1], [2]]}}),
                     "rays", ["validate"], id="ray-float"),
        pytest.param(json.dumps({"fan": {"rays": [[True], [-1]], "max_cones": [[1], [2]]}}),
                     "rays", ["validate"], id="ray-bool"),
        pytest.param(json.dumps({"fan": {"rays": [[1], [-1]], "max_cones": [[1.0], [2]]}}),
                     "max_cones", ["validate"], id="cone-index-float"),
        pytest.param(json.dumps({"fan": P1_FAN, "bundles": [[2.5, 0]]}), "bundles",
                     ["validate"], id="bundle-float"),
        pytest.param(json.dumps({"fan": P1_FAN, "bundle": [[2, 0]]}),
                     "unknown spec field 'bundle'", ["construct"], id="field-unknown"),
        pytest.param(json.dumps({"fan": dict(P1_FAN, bundles=[[2, 0]])}),
                     "unknown fan field 'bundles'", ["construct"], id="fan-field-unknown"),
        pytest.param(json.dumps({"fan": {"rays": [], "max_cones": []}}), "rays",
                     ["validate"], id="rays-empty"),
        pytest.param(json.dumps({"fan": {"rays": [[], []], "max_cones": [[], []]}}), "rays",
                     ["construct"], id="rays-zero-length"),
    ],
)
def test_parse_error_exit_code(tmp_path, text, message, argv):
    bad = tmp_path / "broken.json"
    bad.write_text(text, encoding="utf-8")
    proc = run_cli(argv[0], "--spec", str(bad), *argv[1:])
    assert proc.returncode == 2
    assert proc.stderr.startswith("tglab: ") and message in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


# Options blocks of every shape: the defaults the specs once carried, values
# in and out of range, malformed and unknown settings.  Each is refused for
# the field itself.
OPTION_BLOCKS = [
    pytest.param({"degree_bound": 6, "dmax": 8, "seed": 0}, id="defaults"),
    pytest.param({"dmax": 200}, id="dmax-above-ceiling"),
    pytest.param({"degree_bound": "x"}, id="option-string"),
    pytest.param({"dmax": None}, id="option-null"),
    pytest.param([], id="options-list"),
    pytest.param({"degree_bound": -2}, id="degree-option-negative"),
    pytest.param({"dmax": -1}, id="dmax-option-negative"),
    pytest.param({"stabilization_window": 0}, id="window-zero"),
    pytest.param({"bogus": 3}, id="option-unknown"),
]


@pytest.mark.parametrize("options", OPTION_BLOCKS)
def test_spec_with_options_exits_2(tmp_path, capsys, options):
    """Settings are flags only: every command refuses a spec that carries
    `options`, whatever they hold, with one line that names the field."""
    spec = tmp_path / "p1.json"
    spec.write_text(json.dumps({"fan": P1_FAN, "bundles": [[2, 0]], "options": options}),
                    encoding="utf-8")
    for command in sorted(cli.COMMANDS):
        rc = cli.main([command, "--spec", str(spec)])
        out = capsys.readouterr()
        assert rc == 2
        assert out.err == "tglab: unknown spec field 'options'; known: fan, bundles, basis_p\n"
        assert out.out == ""


def test_a_setting_binds_only_the_command_that_reads_it(capsys):
    """dmax 200, above its ceiling, is refused by ifun, the one command that
    reads it, in a line that names the flag; validate on the same spec reads
    no setting and gives its verdict."""
    spec = str(SPECS / "p1_o2.json")
    assert cli.main(["ifun", "--spec", spec, "--dmax", "200"]) == 2
    assert capsys.readouterr().err == "tglab: --dmax must be at most 150, got 200\n"
    assert cli.main(["validate", "--spec", spec]) == 0
    assert capsys.readouterr().err == ""


RANGED = [flag for flag, f in cli.FLAGS.items() if f.range]


@pytest.mark.parametrize("flag", RANGED, ids=[flag[2:] for flag in RANGED])
@pytest.mark.parametrize("above", [0, 1], ids=["at-ceiling", "above-ceiling"])
def test_setting_ceiling(tmp_path, capsys, flag, above):
    """A flag at its maximum runs (on P1/O(2)); one above exits 2 with one
    tglab: line that names the flag."""
    command, (_, ceiling) = cli.FLAGS[flag].command, cli.FLAGS[flag].range
    value = ceiling + above
    spec = tmp_path / "p1.json"
    spec.write_text(P1_SPEC, encoding="utf-8")
    rc = cli.main([command, "--spec", str(spec), "--json", flag, str(value)])
    err = capsys.readouterr().err
    if above:
        assert rc == 2
        assert err == f"tglab: {flag} must be at most {ceiling}, got {value}\n"
    else:
        assert rc in (0, 1)
        assert err == ""


# The flags each command reads, besides --spec and --json, with a value
# each flag accepts.
READS = {
    "validate": {},
    "construct": {},
    "semigroup": {"--degree": "2"},
    "gkz": {"--gkz-variant": "hat", "--beta": "1"},
    "lg": {"--seed": "1", "--samples": "1"},
    "ifun": {"--dmax": "2"},
}
STRAY_FLAGS = [
    (command, flag, owner, value)
    for command in READS
    for owner, flags in READS.items() if owner != command
    for flag, value in flags.items()
]


@pytest.mark.parametrize("command, flag, owner, value", STRAY_FLAGS,
                         ids=[f"{c}{f}" for c, f, _, _ in STRAY_FLAGS])
def test_flag_the_command_does_not_read_exits_2(capsys, command, flag, owner, value):
    """A flag given to a command that does not read it is a usage error:
    exit 2, one tglab: line naming both, and nothing on stdout."""
    rc = cli.main([command, "--spec", str(SPECS / "p1_o2.json"), flag, value])
    out = capsys.readouterr()
    assert rc == 2
    assert out.err == f"tglab: {command} does not read {flag}; only {owner} does\n"
    assert out.out == ""


def test_help_names_the_command_of_each_flag(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    text = capsys.readouterr().out
    for owner, flags in READS.items():
        for flag in flags:
            section = text[text.index(f"{owner} flags:"):]
            assert flag in section.split("\n\n")[0]


def test_help_epilog_lists_the_ranged_flags(capsys):
    """The epilog of --help gives the range of each ranged flag of the
    settings table, in table order and under the flag's name."""
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    epilog = text[text.index("A flag given to a command"):]
    listed = [(flag, (int(lo), int(hi))) for flag, lo, hi in
              re.findall(r"(--[a-z-]+) (\d+)\.\.(\d+)", epilog)]
    assert listed == [(flag, cli.FLAGS[flag].range) for flag in RANGED]
    assert sorted(RANGED) == ["--degree", "--dmax", "--samples"]


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["human", "json"])
def test_closed_stdout_exits_without_traceback(fmt):
    """A reader that is gone before the report is written (``| head``)."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.Popen(
        [sys.executable, "-m", "tglab.cli", "ifun", "--spec", str(SPECS / "p1p1_o11.json"), *fmt],
        stdout=write_end,
        stderr=subprocess.PIPE,
    )
    os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert "Traceback" not in err.decode()
    assert proc.returncode == 0


def test_import_loads_no_numpy_or_dataclasses():
    """``import tglab.cli`` loads neither numpy (the F_p face search imports
    it) nor dataclasses and the inspect machinery it pulls in."""
    probe = (
        "import sys; before = set(sys.modules); import tglab.cli; "
        "print(sorted({'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


def test_lg_f3_face_search_in_time():
    """F3 samples are non_tame_suspected (exit 1); the face search runs on
    each face's own torus, so the whole call stays well under the budget."""
    out = io.StringIO()
    start = time.monotonic()
    with redirect_stdout(out):
        rc = cli.main(["lg", "--spec", str(SPECS / "f3_minus_k.json"), "--json"])
    elapsed = time.monotonic() - start
    samples = json.loads(out.getvalue())["results"]["samples"]
    assert rc == 1
    assert [s["verdict"] for s in samples] == ["non_tame_suspected"] * 3
    assert elapsed < 5.0


@pytest.mark.parametrize("name", ["p1p1_o11", "f3_minus_k"])
def test_construct_builds_the_total_fan_once(monkeypatch, name):
    """construct makes two fans, the spec's and its total-space fan, and
    every check reads that one total fan."""
    made = []
    make = toricfan.Fan.make

    def counting_make(*args):
        made.append(args)
        return make(*args)

    monkeypatch.setattr(toricfan.Fan, "make", staticmethod(counting_make))
    with redirect_stdout(io.StringIO()):
        cli.main(["construct", "--spec", str(SPECS / f"{name}.json"), "--json"])
    assert len(made) == 2


NEWTON_SPECS = sorted(SPECS.glob("*.json")) + sorted(SPECS.glob("threefolds/*.json"))
THREEFOLD_FLAGS = {"lg": [], "semigroup": ["--degree", "10"], "construct": []}


def recorded_hforms(monkeypatch) -> list:
    """The generator lists of every `cone_hform` call from here on, made
    through any tglab module that imports it."""
    hulls = []
    hform = rationalcone.cone_hform

    def counting_hform(gens, dim):
        hulls.append([tuple(g) for g in gens])
        return hform(gens, dim)

    for name, module in list(sys.modules.items()):
        if name.startswith("tglab.") and getattr(module, "cone_hform", None) is hform:
            monkeypatch.setattr(module, "cone_hform", counting_hform)
    return hulls


@pytest.mark.parametrize("command", sorted(THREEFOLD_FLAGS))
@pytest.mark.parametrize("path", NEWTON_SPECS, ids=lambda p: p.stem)
def test_one_hull_of_the_newton_points_per_call(monkeypatch, path, command):
    """lg, semigroup and construct read the Newton polytope that the
    total-space fan keeps: its volume, its faces and the cone of the doubled
    semigroup come from one `cone_hform` of the lifted points (1, 0),
    (1, a'_i), and the volume hulls no face again.  A call that stops
    before it reads the polytope hulls nothing.  The cone of A' is read off
    the polytope, so no call hulls the unlifted rays a'_i."""
    spec = cli.load_spec(str(path))
    total = toricfan.total_space_fan(spec["fan"], spec["bundles"])
    lifted = [(1,) + (0,) * total.dim] + [(1,) + r for r in total.rays]
    polytope_calls = []
    from_points = polytopes.LatticePolytope.from_points

    def counting_from_points(points):
        polytope_calls.append(points)
        return from_points(points)

    hulls = recorded_hforms(monkeypatch)
    monkeypatch.setattr(polytopes.LatticePolytope, "from_points",
                        staticmethod(counting_from_points))
    flags = THREEFOLD_FLAGS[command] if path.parent.name == "threefolds" else []
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main([command, "--spec", str(path), "--json", *flags])
    assert hulls.count(lifted) == len(polytope_calls) <= 1
    assert list(total.rays) not in hulls
    if "results" in json.loads(out.getvalue()):
        assert len(polytope_calls) == 1


@pytest.mark.parametrize("argv, most", [
    (["semigroup", "--spec", "f3_minus_k.json"], 7),
    (["validate", "--spec", "threefolds/p1cube_o111.json"], 16),
    (["lg", "--spec", "threefolds/p1cube_o111.json"], 35),
], ids=["f3-semigroup", "p1cube-validate", "p1cube-lg"])
def test_cone_hform_calls_per_call(monkeypatch, argv, most):
    """One enumeration per cone the call needs: the fan condition off a
    shared facet costs one per pair, validate does not check the total-space
    fan again, and the cone of A' is read off the Newton polytope."""
    hulls = recorded_hforms(monkeypatch)
    argv = [argv[0], "--spec", str(SPECS / argv[2]), *argv[3:], "--json"]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) in (0, 1)
    assert len(hulls) <= most


def test_lg_certifies_each_point_once_per_call(monkeypatch):
    """The three samples share one growing member list: a scan at a higher
    dilate asks the total-space fan's support only about the points of
    gradings not seen before."""
    asked = []
    contains = toricfan.Fan.contains

    def counting_contains(self, v):
        asked.append(v)
        return contains(self, v)

    monkeypatch.setattr(toricfan.Fan, "contains", counting_contains)
    with redirect_stdout(io.StringIO()):
        rc = cli.main(["lg", "--spec", str(SPECS / "f3_minus_k.json"), "--samples", "3"])
    assert rc == 1
    assert asked and len(asked) == len(set(asked))


@pytest.mark.parametrize("name", ["f3_minus_k", "p1_o2"])
def test_lg_projects_each_face_once_per_call(monkeypatch, name):
    """The face records live in the one NewtonData of a call: the three
    samples share one Smith form per searched face, and each spec has one
    face that the lambda-independent skip keeps."""
    calls = []
    snf = lgfamily.smith_normal_form

    def counting_snf(A):
        calls.append(A)
        return snf(A)

    monkeypatch.setattr(lgfamily, "smith_normal_form", counting_snf)
    with redirect_stdout(io.StringIO()):
        cli.main(["lg", "--spec", str(SPECS / f"{name}.json"), "--samples", "3", "--seed", "0",
                  "--json"])
    assert len(calls) == 1


# sha256 of `lg --json` at seeds where a sample is bad_suspected, which
# perfbench/records.json (seed 0 only) does not reach.
LG_WITNESS_DIGESTS = {
    ("f3_minus_k", 12): "a3c47c4afdac0f365846032d42c2dc5385366e0f6bd640e5346cc3c54296664b",
    ("f3_minus_k", 16): "6c8979588da94d216cbb682301badca8ccdac72de3522af827b4fdb22950b727",
    ("f3_minus_k", 42): "7f77c494bc0083565001f4fd5131e9762a2821dfaec8e35b76e22e82b6ea6be9",
    ("f3_minus_k", 58): "6749bfe9e2526c7902d77aab52101db47c2babae1fd72966ecf767746bd2050a",
    ("p1_o2", 8): "cb94af2c07ba7eefd89d3a45d9ba422d22aa63fa92bba4a2e4675d94e86cc7b1",
    ("p1_o2", 9): "af7b96797961db448656a071920f55a3ca96b5881199a07a9ff4cdd71a2d03d7",
    ("p1_o2", 38): "87f120b01c23d5365d446ec103304f7cb8bbee2760229ed01a27f5a7318b028f",
    ("p1_o2", 46): "7a62b7a826cf0d16eb950757f3b197261d15e591f6e9a5e741ab91ada527e8a6",
    ("p1_o2", 53): "ee827af57842406a2b6a97b321f82e9cbffe4addf5c41ad794a93125a5d4c38e",
}


@pytest.mark.parametrize("name, seed", sorted(LG_WITNESS_DIGESTS))
def test_lg_report_with_a_bad_sample_matches_digest(monkeypatch, name, seed):
    """Each pinned report has a bad_suspected sample, so the face search
    decides part of it; exit 1 because not every sample is good."""
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["lg", "--spec", f"specs/{name}.json", "--seed", str(seed), "--json"])
    samples = json.loads(out.getvalue())["results"]["samples"]
    assert rc == 1 and "bad_suspected" in [s["verdict"] for s in samples]
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == LG_WITNESS_DIGESTS[name, seed]


# Threefold total spaces, kept outside the specs/*.json glob that the
# records and the fuzz tests read.
THREEFOLDS = SPECS / "threefolds"


@pytest.mark.parametrize("argv", [
    ["validate"], ["construct"], ["semigroup", "--degree", "3"],
    ["lg", "--samples", "1"], ["ifun", "--dmax", "6"],
    ["gkz", "--gkz-variant", "qdm"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("name", ["p1cube_o111", "p3_o2", "p2_o1o1"])
def test_threefold_commands_pass(capsys, name, argv):
    rc = cli.main([argv[0], "--spec", str(THREEFOLDS / f"{name}.json"), *argv[1:]])
    out = capsys.readouterr()
    assert rc == 0, out.out
    assert out.err == ""


def lg_json(path, *flags):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["lg", "--spec", str(path), "--json", *flags])
    return rc, out.getvalue()


def test_lg_p1cube_passes_at_the_defaults():
    """P1^3/O(1,1,1): the sweep ends at slice 4, the dimension of the total
    space, and all three samples are good with the volume as dimension."""
    rc, out = lg_json(THREEFOLDS / "p1cube_o111.json")
    assert rc == 0
    samples = json.loads(out)["results"]["samples"]
    assert [(s["verdict"], s["jacobian_dim"]) for s in samples] == [("good", 8)] * 3


@pytest.mark.parametrize("name", ["p1_o2", "p2_o1", "p1p1_o11", "f3_minus_k", "p1cube_o111",
                                  "p3_o2", "p2_o1o1"])
def test_lg_sweeps_end_at_slice_n(monkeypatch, name):
    """An lg call scans one dilate of the Newton polytope, n = B.rows, the
    dimension of the total space, and every sample that is not bad ends
    its sweep at slice n with the reported dimension."""
    path = SPECS / f"{name}.json"
    if not path.exists():
        path = THREEFOLDS / f"{name}.json"
    spec = cli.load_spec(str(path))
    n = toricfan.total_space_fan(spec["fan"], spec["bundles"]).dim
    dilates, sweeps = [], []
    scan, sweep = lgfamily.graded_slice_points, lgfamily.jacobian_quotient_dim

    def counting_scan(polytope, k):
        dilates.append(k)
        return scan(polytope, k)

    def recording_sweep(*args):
        sweeps.append(sweep(*args))
        return sweeps[-1]

    monkeypatch.setattr(lgfamily, "graded_slice_points", counting_scan)
    monkeypatch.setattr(lgfamily, "jacobian_quotient_dim", recording_sweep)
    rc, out = lg_json(path)
    samples = json.loads(out)["results"]["samples"]
    dims = [s["jacobian_dim"] for s in samples if "jacobian_dim" in s]
    assert dilates == [n]
    assert [len(res["slices"]) for res in sweeps] == [n] * len(dims)
    assert [res["dim"] for res in sweeps] == dims


@pytest.mark.parametrize("argv", [["semigroup", "--degree", "6"]], ids=["semigroup"])
def test_one_box_scan_per_call(monkeypatch, argv):
    """Every grading up to the bound and both semigroup certificates read
    the one scan of the top dilate of the hull."""
    calls = []
    scan = semigroups.graded_slice_points

    def counting_scan(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(semigroups, "graded_slice_points", counting_scan)
    with redirect_stdout(io.StringIO()):
        rc = cli.main([argv[0], "--spec", str(SPECS / "p1_o2.json"), *argv[1:]])
    assert rc == 0
    assert len(calls) == 1


def test_ifun_dmax_20_in_time():
    """The I-series table is walked degree by degree, so a deep table and
    both checks on it stay well under the budget."""
    start = time.monotonic()
    with redirect_stdout(io.StringIO()):
        rc = cli.main(["ifun", "--spec", str(SPECS / "p1p1_o11.json"), "--dmax", "20"])
    elapsed = time.monotonic() - start
    assert rc == 0
    assert elapsed < 1.5


def test_missing_file_exit_code():
    proc = run_cli("validate", "--spec", str(SPECS / "no_such.json"))
    assert proc.returncode == 2


def test_construct_json_schema():
    proc = run_cli("construct", "--spec", str(SPECS / "p1_o2.json"), "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["schema"] == 1
    res = report["results"]
    assert res["A_prime"] == [[1, -1, 0], [2, 0, 1]]
    assert res["nef_cones_agree"] is True
    assert res["nef_pullback_identity"] is True
    assert res["w_set_convex"] is True


def test_semigroup_f3_reports_saturated():
    """The pinned representative d=(1,1,1,1) has a normal doubled semigroup
    (see the acceptance suite for the discussion)."""
    proc = run_cli("semigroup", "--spec", str(SPECS / "f3_minus_k.json"), "--json")
    report = json.loads(proc.stdout)
    assert report["results"]["saturated_up_to_bound"] is True


@pytest.mark.parametrize("name", ["p1p1_o11", "p2_o1"])
def test_semigroup_degree_10(name):
    """Degree 10 is in reach: the slices are built once per semigroup."""
    out = io.StringIO()
    start = time.monotonic()
    with redirect_stdout(out):
        rc = cli.main(["semigroup", "--spec", str(SPECS / f"{name}.json"),
                       "--degree", "10", "--json"])
    elapsed = time.monotonic() - start
    res = json.loads(out.getvalue())["results"]
    assert rc == 0
    assert res["saturated_up_to_bound"] and res["gorenstein_shift"] and res["interior_shift"]
    assert elapsed < 10.0


def test_gkz_qdm_p2():
    proc = run_cli(
        "gkz", "--spec", str(SPECS / "p2.json"), "--gkz-variant", "qdm", "--json"
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    ops = report["results"]["operators"]
    # (z q d/dq)^3 - q: four exported terms
    assert len(ops[0]) == 4
    assert {"coeff": "-1/1", "lambda": [1], "partial": [0], "thetaz": 0, "z": 0} in ops[0]


def test_gkz_hat_reports_fl_matches():
    proc = run_cli(
        "gkz", "--spec", str(SPECS / "p1_o2.json"), "--gkz-variant", "hat", "--json"
    )
    report = json.loads(proc.stdout)
    assert report["results"]["passed"] is True
    assert all(r["matches"] for r in report["results"]["fl_matches"])


def test_ifun_p1_o2():
    proc = run_cli("ifun", "--spec", str(SPECS / "p1_o2.json"), "--json", "--dmax", "6")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["passed"] is True
    assert all(r["B_d_is_zero"] for r in report["results"]["rows"])


def test_lg_seeded():
    proc = run_cli("lg", "--spec", str(SPECS / "p1_o2.json"), "--json", "--seed", "5")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert all(s["verdict"] == "good" for s in report["results"]["samples"])


def test_reports_are_byte_deterministic():
    for cmd, extra in [
        ("construct", []),
        ("gkz", ["--gkz-variant", "qdm"]),
        ("lg", ["--seed", "3"]),
        ("ifun", ["--dmax", "4"]),
    ]:
        a = run_cli(cmd, "--spec", str(SPECS / "p1_o2.json"), "--json", *extra)
        b = run_cli(cmd, "--spec", str(SPECS / "p1_o2.json"), "--json", *extra)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode


RECORDS = json.loads((ROOT / "perfbench" / "records.json").read_text(encoding="utf-8"))["reports"]


@pytest.mark.parametrize("template", sorted(RECORDS))
def test_operator_report_matches_record(template, monkeypatch):
    """Every report recorded in perfbench/records.json is pinned by its
    digest; the lg templates are recorded at seed 0."""
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(template.format(seed=0).split() + ["--json"])
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == RECORDS[template]
