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

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tglab import cli
from tglab.toricfan import Fan, class_is_nef


@st.composite
def surfaces(draw):
    """(rays in counterclockwise order, bundle rows with entries in -1..2)."""
    if draw(st.booleans()):
        rays = [(1, 0), (0, 1), (-1, -1)]
    else:
        a = draw(st.integers(0, 3))
        rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(rays) - 1))
        u, v = rays[j], rays[(j + 1) % len(rays)]
        rays.insert(j + 1, (u[0] + v[0], u[1] + v[1]))
    row = st.lists(st.integers(-1, 2), min_size=len(rays), max_size=len(rays))
    return rays, draw(st.lists(row, min_size=1, max_size=2))


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


COMMANDS = [
    ["construct"], ["semigroup", "--degree", "2"], ["gkz"],
    ["lg", "--cutoff", "4", "--samples", "1"], ["ifun", "--dmax", "3"],
]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(surface=surfaces())
def test_commands_keep_the_exit_contract(tmp_path, surface):
    """Each command ends in exit 0, 1 or 2; no exception escapes main, and
    exit 2 comes with one tglab: line."""
    path = tmp_path / "surface.json"
    write_spec(path, *surface)
    for argv in COMMANDS:
        rc, _, err = run([argv[0], "--spec", str(path), *argv[1:]])
        assert rc in (0, 1, 2)
        assert (rc == 2) == err.startswith("tglab: ") and err.count("\n") == (rc == 2)
