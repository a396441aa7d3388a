"""Assembly of all derived data for one (fan, bundle rows) pair.

This is the glue used by the command line front end, the demos and the
acceptance tests: total-space fan, the three matrices and their kernels,
the section system rebased to a nef basis of the dual relation lattice,
the cohomology ring of the base and the quantum-D-module generators.
"""

from __future__ import annotations

from tglab.errors import (
    BasisConditionFailed, BasisNotNef, InputError, KahlerConeEmpty, NegativeCoefficient
)
from tglab.cohomring import CohomologyRing, build_ring
from tglab.intlinalg import IntegerMatrix, homogenize, section_system, _unimodular_inverse
from tglab.qdmcheck import ITable, i_function
from tglab.rationalcone import HForm, cone_hform, extreme_rays
from tglab.toricfan import Fan, class_is_nef, extended_kernel, nef_hform, total_space_fan
from tglab.weylops import (
    qdm_box,
    qdm_context,
    qdm_euler,
    star_n_generators,
)


class MirrorModel:
    def __init__(self, fan: Fan, d: IntegerMatrix, total: Fan, A: IntegerMatrix,
                 Aprime: IntegerMatrix, Adoubleprime: IntegerMatrix, kernel_ext: IntegerMatrix,
                 nef: HForm, L: IntegerMatrix, M: IntegerMatrix, C: IntegerMatrix,
                 basis_U: IntegerMatrix, ring: CohomologyRing):
        self.fan = fan
        self.d = d
        self.total = total
        self.A = A
        self.Aprime = Aprime
        self.Adoubleprime = Adoubleprime
        self.kernel_ext = kernel_ext  # extended kernel basis of A'
        self.nef = nef                # nef cone of the total fan, in kernel_ext coordinates
        self.L = L                    # kernel basis rebased to the nef basis p
        self.M = M                    # retraction with M L = I
        self.C = C                    # section of A'
        self.basis_U = basis_U        # rows: p_a in the extended-basis coordinates
        self.ring = ring

    @property
    def m(self) -> int:
        return self.fan.n_rays

    @property
    def r(self) -> int:
        return self.L.cols

    def qdm_generators(self):
        ctx = qdm_context(self.r)
        boxes = []
        for a in range(self.r):
            l_vec = self.L.col(a)
            coords = tuple(int(b == a) for b in range(self.r))
            boxes.append(qdm_box(ctx, self.L, self.m, coords, l_vec))
        return {"ctx": ctx, "boxes": boxes, "euler": qdm_euler(ctx, self.L)}

    def star_generators(self, beta0_beta=None):
        if beta0_beta is None:
            beta0_beta = [0] * (1 + self.Aprime.rows)
        return star_n_generators(self.Aprime, beta0_beta, self.m, kernel_basis=self.L)

    def i_table(self, d_max: int) -> ITable:
        return i_function(self.ring, self.L, self.m, d_max)


def build_model(fan: Fan, d: IntegerMatrix, basis_p=None) -> MirrorModel:
    """Construct the full derived data.  A bundle is a class, so a row of d
    with a negative entry is accepted when the fan is complete and the row
    is nef, and refused with NegativeCoefficient otherwise; the models of
    two rows of one class differ by a unimodular map.  Raises InputError
    for a basis_p that is not r rows of one entry per ray, and the basis
    errors when the requested (or auto-selected) nef basis fails."""
    for row in d.entries:
        if min(row) < 0 and not (fan.diagnostics.complete and class_is_nef(fan, row)):
            raise NegativeCoefficient("bundle coefficients must be nonnegative")
    total = total_space_fan(fan, d)
    A = fan.ray_matrix()
    Aprime = total.ray_matrix()
    Adp = homogenize(Aprime)
    kernel_ext = extended_kernel(fan, d)
    t = Aprime.cols
    sec = section_system(Aprime)
    # Rebase the section kernel to the extended basis (both span ker A').
    G = sec.M.mul(kernel_ext)  # unimodular: kernel_ext = sec.L * G
    M_ext = _unimodular_inverse(G).mul(sec.M)
    r = kernel_ext.cols
    nef = nef_hform(total, kernel_ext)
    if basis_p is None:
        rays = extreme_rays(nef)
        if len(rays) != r:
            raise BasisNotNef(
                "nef cone is not simplicial in rank; provide basis_p explicitly"
            )
        U = IntegerMatrix.from_rows(sorted(rays))
    else:
        if len(basis_p) != r or any(len(row) != fan.n_rays for row in basis_p):
            raise InputError(
                f"basis_p must have r = {r} rows of {fan.n_rays} entries, one per ray"
            )
        pi = IntegerMatrix.from_rows(basis_p)
        U = pi.mul(kernel_ext.submatrix(range(fan.n_rays), range(r)))
    if abs(U.det()) != 1:
        raise BasisNotNef("requested basis is not a lattice basis of the dual")
    for a in range(r):
        if not nef.contains(U.row(a)):
            raise BasisNotNef(f"basis vector {a} lies outside the nef cone")
    if not nef.inequalities and not nef.equalities:
        raise KahlerConeEmpty("nef cone computation degenerated")
    total_class = tuple(
        sum(kernel_ext.entries[i][a] for i in range(t)) for a in range(r)
    )
    if not cone_hform([U.row(a) for a in range(r)], r).contains(total_class):
        raise BasisConditionFailed(
            "sum of the divisor classes is not a nonnegative combination of the basis"
        )
    Uinv = _unimodular_inverse(U)
    L_fin = kernel_ext.mul(Uinv)
    M_fin = U.mul(M_ext)
    ring = build_ring(fan)
    return MirrorModel(
        fan=fan,
        d=d,
        total=total,
        A=A,
        Aprime=Aprime,
        Adoubleprime=Adp,
        kernel_ext=kernel_ext,
        nef=nef,
        L=L_fin,
        M=M_fin,
        C=sec.C,
        basis_U=U,
        ring=ring,
    )
