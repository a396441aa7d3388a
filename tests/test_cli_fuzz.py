"""The CLI contract under random specs: any JSON file given to ``validate``
or ``construct`` ends in exit 0, 1 or 2, with at most one ``tglab:`` line
on stderr and no exception escaping ``main``; a fan with a ray of gcd other
than 1 and a spec with an ``options`` field are input errors, exit 2."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tglab import cli

SPECS = Path(__file__).resolve().parent.parent / "specs"
BASES = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(SPECS.glob("*.json"))]

small = st.integers(-3, 3)
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(-3, 3, allow_nan=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


@st.composite
def random_spec(draw):
    """A fan of dimension 1..3 with up to six rays of small entries, cones
    of 1-based indices (some out of range), and optional bundles and
    basis_p, most of them well-formed, and sometimes an options field,
    which no spec may carry."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 6))
    rays = draw(st.lists(st.lists(small, min_size=dim, max_size=dim), min_size=n, max_size=n))
    cone = st.lists(st.integers(0, n + 1), min_size=dim, max_size=dim)
    spec = {"fan": {"rays": rays, "max_cones": draw(st.lists(cone, max_size=8))}}
    if draw(st.booleans()):
        row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        spec["bundles"] = draw(st.lists(row, max_size=2))
    if draw(st.booleans()):
        spec["options"] = draw(st.dictionaries(st.text(max_size=3), st.integers(-2, 40)))
    if draw(st.booleans()):
        row = st.lists(small, min_size=n, max_size=n)
        spec["basis_p"] = draw(st.one_of(st.none(), st.lists(row, max_size=3)))
    return spec


@st.composite
def mutated(draw, base):
    """base with up to two fields replaced by junk or removed."""
    spec = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(0, 2))):
        holder = spec
        if isinstance(spec.get("fan"), dict) and draw(st.booleans()):
            holder = spec["fan"]
        keys = sorted(holder) + ["bundles", "options", "basis_p"]
        key = draw(st.sampled_from(keys))
        if draw(st.integers(0, 3)) == 0:
            holder.pop(key, None)
        elif isinstance(holder.get(key), list) and holder[key] and draw(st.booleans()):
            i = draw(st.integers(0, len(holder[key]) - 1))
            holder[key][i] = draw(junk)
        else:
            holder[key] = draw(junk)
    return spec


documents = st.one_of(
    st.sampled_from(BASES).flatmap(mutated),
    random_spec().flatmap(mutated),
    junk.map(json.dumps),
    st.text(max_size=20),
)


def has_non_primitive_ray(doc) -> bool:
    fan = doc.get("fan") if isinstance(doc, dict) else None
    rays = fan.get("rays") if isinstance(fan, dict) else None
    return cli._is_int_rows(rays) and any(gcd(*ray) != 1 for ray in rays)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(doc=documents, command=st.sampled_from(["validate", "construct"]), as_json=st.booleans())
def test_any_spec_keeps_the_exit_contract(tmp_path, doc, command, as_json):
    path = tmp_path / "spec.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main([command, "--spec", str(path)] + (["--json"] if as_json else []))
    assert rc in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert sum(line.startswith("tglab:") for line in lines) <= 1
    assert "Traceback" not in err.getvalue()
    assert (rc == 2) == bool(lines)
    if has_non_primitive_ray(doc) or (isinstance(doc, dict) and "options" in doc):
        assert rc == 2
