"""The ambient part: the cohomology of the base X modulo the kernel of cup
product with c_top of the bundle, H*(X)/ker(c_top), with the twisted
pairing <a, b> = integral of a b c_top, which is nondegenerate on the
quotient, and the grading mu = degree - (dim X - rank)/2."""

from fractions import Fraction
from pathlib import Path

from tglab.cli import load_spec
from tglab.cohomring import (
    build_ring,
    chern_data,
    grading_mu,
    kernel_of_multiplication,
    reduced_ring,
    twisted_pairing,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def example(name):
    """The fan and bundle matrix of specs/<name>.json."""
    spec = load_spec(str(SPECS / f"{name}.json"))
    return spec["fan"], spec["bundles"]


EXAMPLES = [
    ("the line with O(2)", example("p1_o2")),
    ("the plane with O(1)", example("p2_o1")),
    ("P1 x P1 with O(1,1)", example("p1p1_o11")),
]

for name, (fan, d) in EXAMPLES:
    ring = build_ring(fan)
    c_top = chern_data(ring, d)["c_top"]
    red = reduced_ring(ring, c_top)
    mu = grading_mu(ring, d.rows)
    print(f"== {name} ==")
    print("dim H*(X):", ring.dimension)
    print("rank of ker(c_top):", red["kernel_rank"])
    print("dim of the quotient:", len(red["basis"]))
    print("twisted pairing on the quotient basis:",
          [[str(x) for x in row] for row in red["pairing_matrix"]])
    print("nondegenerate:", red["nondegenerate"])
    print("mu on the quotient basis:", [str(mu[ring.basis_index[b]]) for b in red["basis"]])
    # A kernel vector, as a class, pairs to zero with every class and
    # projects to zero in the quotient.
    for vec in kernel_of_multiplication(ring, c_top):
        cls = {}
        for b, x in zip(ring.basis, vec):
            cls = ring.add(cls, ring.scale({b: Fraction(1)}, x))
        assert all(twisted_pairing(ring, c_top, cls, {b: Fraction(1)}) == 0 for b in ring.basis)
        assert red["project"](cls) == {}
    print("<1, 1> = integral of c_top:", twisted_pairing(ring, c_top, ring.one(), ring.one()))
    print()
