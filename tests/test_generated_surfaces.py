"""Generated smooth complete toric surfaces, with a nef oracle that does not
use toricfan.

Every smooth complete toric surface comes from P2 or a Hirzebruch surface
F_a by toric blow-ups, each of which inserts u + v between two adjacent
rays u and v (Oda, Convex Bodies and Algebraic Geometry, 1988, 1.7;
Fulton, Introduction to Toric Varieties, 1993, 2.5).  The strategy draws
a in 0..3 and up to three blow-ups.  With the rays in cyclic order, write
u_{j-1} + u_{j+1} = b_j u_j; then D_j^2 = -b_j, and sum a_i D_i is nef
exactly when a_{j-1} + a_{j+1} - b_j a_j >= 0 for every j.

The generated specs are not recorded in perfbench/records.json.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations_with_replacement

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tglab import cli
from tglab.intlinalg import IntegerMatrix
from tglab.rationalcone import cone_hform
from tglab.semigroups import DoubledSemigroup, interior_shift_check_ungraded, scan_cone_points
from tglab.toricfan import Fan, class_is_nef, total_space_fan


def draw_rays(draw):
    """The rays of P2 or F_a, a <= 3, after up to three toric blow-ups, in
    counterclockwise order."""
    if draw(st.booleans()):
        rays = [(1, 0), (0, 1), (-1, -1)]
    else:
        a = draw(st.integers(0, 3))
        rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(rays) - 1))
        u, v = rays[j], rays[(j + 1) % len(rays)]
        rays.insert(j + 1, (u[0] + v[0], u[1] + v[1]))
    return rays


@st.composite
def surfaces(draw, nef=False):
    """(rays in counterclockwise order, bundle rows with entries in -1..2),
    every row nef when `nef` is set."""
    rays = draw_rays(draw)
    row = st.lists(st.integers(-1, 2), min_size=len(rays), max_size=len(rays))
    if nef:
        row = row.filter(lambda r: nef_oracle(rays, r))
    return rays, draw(st.lists(row, min_size=1, max_size=2))


@st.composite
def nef_classes(draw):
    """(rays, a nonnegative nef row, the same class minus div(chi^m) for an m
    in -2..2 squared), keeping only draws where the second row has a
    negative entry."""
    rays = draw_rays(draw)
    row = draw(st.lists(st.integers(0, 2), min_size=len(rays), max_size=len(rays))
               .filter(lambda r: nef_oracle(rays, r)))
    m = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    shifted = [a - m[0] * u[0] - m[1] * u[1] for a, u in zip(row, rays)]
    assume(min(shifted) < 0)
    return rays, row, shifted


def self_intersection_numbers(rays):
    """b_j with u_{j-1} + u_{j+1} = b_j u_j, so that D_j^2 = -b_j."""
    n = len(rays)
    out = []
    for j, u in enumerate(rays):
        s = [p + q for p, q in zip(rays[j - 1], rays[(j + 1) % n])]
        k = 0 if u[0] else 1
        b = s[k] // u[k]
        assert [b * x for x in u] == s
        out.append(b)
    return out


def nef_oracle(rays, row):
    n = len(rays)
    b = self_intersection_numbers(rays)
    return all(row[j - 1] + row[(j + 1) % n] - b[j] * row[j] >= 0 for j in range(n))


def write_spec(path, rays, rows):
    n = len(rays)
    cones = [[j + 1, (j + 1) % n + 1] for j in range(n)]
    path.write_text(json.dumps({
        "fan": {"rays": [list(u) for u in rays], "max_cones": cones}, "bundles": rows,
    }), encoding="utf-8")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(surface=surfaces())
def test_nef_verdicts_match_the_intersection_oracle(tmp_path, surface):
    rays, rows = surface
    fan = Fan.make(rays, [[j, (j + 1) % len(rays)] for j in range(len(rays))])
    expected = [nef_oracle(rays, row) for row in rows]
    assert [class_is_nef(fan, row) for row in rows] == expected
    path = tmp_path / "surface.json"
    write_spec(path, rays, rows)
    rc, out, err = run(["validate", "--spec", str(path), "--json"])
    assert rc in (0, 1) and err == ""
    assert json.loads(out)["results"]["bundle_nef"] == expected


# The report fields that depend on the bundle's class and not on the row
# that writes it; A' and the printed operators are not among them.
CLASS_FIELDS = {
    "validate": ("bundle_nef", "adjoint_class_nef", "passed"),
    "construct": ("nef_cones_agree", "nef_pullback_identity", "anticanonical_consistency",
                  "w_set_convex", "conv_in_support", "kernel_basis", "nef_cone_rays",
                  "passed"),
    "semigroup": ("normalized_volume", "saturated_up_to_bound", "gorenstein_shift",
                  "interior_shift", "passed"),
    "gkz": ("passed",),
    "lg": ("normalized_volume", "passed"),
    "ifun": ("rows", "homogeneity", "passed"),
}
INVARIANCE_CALLS = [
    ["validate"], ["construct"], ["semigroup", "--degree", "2"], ["gkz", "--gkz-variant", "qdm"],
    ["lg", "--cutoff", "6", "--samples", "2"], ["ifun", "--dmax", "4"],
]


def class_fields(command, out):
    """The error type of a report that stops, else its class-level fields."""
    report = json.loads(out)
    if "error" in report:
        return report["error"]["type"]
    results = report["results"]
    fields = {key: results.get(key) for key in CLASS_FIELDS[command]}
    if command == "lg":
        fields["samples"] = [(s["verdict"], s.get("jacobian_dim")) for s in results["samples"]]
    return fields


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(draw=nef_classes())
def test_every_command_depends_only_on_the_class(tmp_path, draw):
    """A nef row and the same class written with a negative entry give the
    same exit codes and the same class-level report fields."""
    rays, row, shifted = draw
    paths = tmp_path / "row.json", tmp_path / "shifted.json"
    write_spec(paths[0], rays, [row])
    write_spec(paths[1], rays, [shifted])
    for argv in INVARIANCE_CALLS:
        (rc, out, _), (rc_s, out_s, _) = (
            run([argv[0], "--spec", str(path), *argv[1:], "--json"]) for path in paths
        )
        assert rc == rc_s, argv
        assert class_fields(argv[0], out) == class_fields(argv[0], out_s), argv


COMMANDS = [
    ["construct"], ["semigroup", "--degree", "2"], ["gkz"],
    ["lg", "--cutoff", "6", "--samples", "1"], ["ifun", "--dmax", "3"],
]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(surface=st.one_of(surfaces(), surfaces(nef=True)))
def test_commands_keep_the_exit_contract(tmp_path, surface):
    """Each command ends in exit 0, 1 or 2; no exception escapes main, and
    exit 2 comes with one tglab: line.  When every row is nef, no command
    stops at NegativeCoefficient, construct and ifun pass or stop only at
    the basis hypotheses of the model, and no lg sample is non-tame."""
    rays, rows = surface
    nef = all(nef_oracle(rays, row) for row in rows)
    path = tmp_path / "surface.json"
    write_spec(path, rays, rows)
    for argv in COMMANDS:
        rc, out, err = run([argv[0], "--spec", str(path), *argv[1:], "--json"])
        assert rc in (0, 1, 2)
        assert (rc == 2) == err.startswith("tglab: ") and err.count("\n") == (rc == 2)
        if not nef:
            continue
        report = json.loads(out)
        error = report.get("error", {}).get("type")
        assert error != "NegativeCoefficient", argv
        if argv[0] in ("construct", "ifun"):
            assert error in (None, "BasisConditionFailed", "BasisNotNef"), argv
            assert error or (rc == 0 and report["results"]["passed"]), argv
        if argv[0] == "lg" and not error:
            verdicts = [s["verdict"] for s in report["results"]["samples"]]
            assert set(verdicts) <= {"good", "bad_suspected"}, verdicts


@settings(max_examples=40, deadline=None)
@given(surface=surfaces(), degree=st.sampled_from([1, 2]))
def test_interior_shift_off_the_support_matches_a_brute_force_semigroup(surface, degree):
    """Rows that are not nef: the support of the total space misses points
    of cone(A'), and the interior test decides them through the graded
    lift.  The oracle is N A' by brute force: v is a member when A'x = v for
    a nonnegative integer x with |x| <= L, the lift's bound, and the
    interior is that of `cone_hform` of the columns of A'."""
    rays, rows = surface
    assume(not all(nef_oracle(rays, row) for row in rows))
    fan = Fan.make(rays, [[j, (j + 1) % len(rays)] for j in range(len(rays))])
    total = total_space_fan(fan, IntegerMatrix.from_rows(rows))
    lift = DoubledSemigroup(total.newton_polytope)
    scan = scan_cone_points(lift, degree)
    shift = tuple(map(sum, zip(*total.rays[len(rays):])))
    zero = (0,) * total.dim
    members = {
        tuple(map(sum, zip(zero, *x)))
        for size in range(degree * (total.dim + 2) + 1)
        for x in combinations_with_replacement(total.rays, size)
    }
    aprime = cone_hform(total.rays, total.dim)
    expected = all(
        aprime.contains_interior(pt) == (tuple(a - b for a, b in zip(pt, shift)) in members)
        for _, pt in scan.points
    )
    assert interior_shift_check_ungraded(total, lift, shift, degree, scan) == expected
