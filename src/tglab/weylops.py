"""Normal-ordered operator algebra in lambda, d/dlambda, z and z^2 d/dz.

A term is coeff * z^a * lambda^alpha * T^e * partial^beta where T denotes
z^2 d/dz, kept as a primitive generator.  Terms are stored normal-ordered
(all lambda and z powers left of T and the partials).  A product is put in
that order by two closed forms (Saito-Sturmfels-Takayama, Groebner
Deformations of Hypergeometric Differential Equations, 2000, 1.1):

    partial_i^b lambda_i^a = sum_k C(b,k) a(a-1)...(a-k+1) lambda_i^{a-k} partial_i^{b-k}
    T^e z^a = sum_k C(e,k) a(a+1)...(a+k-1) z^{a+k} T^{e-k}

with everything else commuting.  Both hold for every integer a.  Negative
lambda powers are only allowed for variables whose ``laurent`` flag is
set; negative z powers are always allowed (the hat-side modules are
localized along z = 0).

The second half of the file builds the operator families: plain and
homogenized box/Euler generators, their hat (z-twisted) forms, the
lambda-scaled star and tilde boxes, the quantum-D-module generators in the
Kaehler-moduli coordinates, the duality morphisms, the torus coordinate
change, and a bounded left-ideal membership search.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from tglab.errors import (
    DimensionMismatch,
    NotEliminable,
    NotLogExpressible,
    NotSameImage,
)
from tglab.intlinalg import IntegerMatrix, row_reduce


class OpContext(NamedTuple):
    """Variable layout of an operator: count, invertibility, display names."""

    nvars: int
    laurent: tuple
    names: tuple

    @staticmethod
    def make(nvars, laurent=False, names=None, prefix="l"):
        if isinstance(laurent, bool):
            laurent = tuple(laurent for _ in range(nvars))
        else:
            laurent = tuple(bool(x) for x in laurent)
        if names is None:
            names = tuple(f"{prefix}{i+1}" for i in range(nvars))
        return OpContext(nvars, laurent, tuple(names))


class WeylOp:
    """A normal-ordered operator; immutable in spirit, hashable by terms."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: OpContext, terms=None):
        self.ctx = ctx
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                c = Fraction(coeff)
                if c != 0:
                    self.terms[key] = self.terms.get(key, Fraction(0)) + c
            self.terms = {k: v for k, v in self.terms.items() if v != 0}

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero(ctx):
        return WeylOp(ctx)

    @staticmethod
    def scalar(ctx, value):
        n = ctx.nvars
        key = (0, (0,) * n, 0, (0,) * n)
        return WeylOp(ctx, {key: Fraction(value)})

    @staticmethod
    def one(ctx):
        return WeylOp.scalar(ctx, 1)

    @staticmethod
    def monomial(ctx, coeff=1, z=0, lam=None, theta=0, pa=None):
        n = ctx.nvars
        lam = tuple(lam) if lam is not None else (0,) * n
        pa = tuple(pa) if pa is not None else (0,) * n
        if len(lam) != n or len(pa) != n:
            raise DimensionMismatch("exponent vector length mismatch")
        for i, e in enumerate(lam):
            if e < 0 and not ctx.laurent[i]:
                raise NotLogExpressible(
                    f"negative power of non-invertible variable {ctx.names[i]}"
                )
        if any(x < 0 for x in pa) or theta < 0:
            raise ValueError("derivative exponents must be nonnegative")
        return WeylOp(ctx, {(z, lam, theta, pa): Fraction(coeff)})

    @staticmethod
    def var(ctx, i, power=1):
        lam = [0] * ctx.nvars
        lam[i] = power
        return WeylOp.monomial(ctx, lam=lam)

    @staticmethod
    def partial(ctx, i, power=1):
        pa = [0] * ctx.nvars
        pa[i] = power
        return WeylOp.monomial(ctx, pa=pa)

    @staticmethod
    def zpow(ctx, power):
        return WeylOp.monomial(ctx, z=power)

    @staticmethod
    def theta_z(ctx):
        return WeylOp.monomial(ctx, theta=1)

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if self.ctx != other.ctx:
            raise DimensionMismatch("operator contexts differ")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return WeylOp(self.ctx, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) - v
        return WeylOp(self.ctx, out)

    def scale(self, c):
        return WeylOp(self.ctx, {k: v * Fraction(c) for k, v in self.terms.items()})

    def __mul__(self, other):
        """(z^a1 lambda^alpha1 T^e1 partial^beta1) (z^a2 lambda^alpha2 T^e2 partial^beta2)
        = z^a1 lambda^alpha1 (T^e1 z^a2) prod_i (partial_i^beta1_i lambda_i^alpha2_i)
        T^e2 partial^beta2, and each bracket is expanded by _leibniz on its own."""
        self._check(other)
        ctx = self.ctx
        acc = {}
        for (rz, rlam, rth, rpa), rc in other.terms.items():
            for i, a in enumerate(rlam):
                if a < 0 and not ctx.laurent[i]:
                    raise NotLogExpressible(
                        f"negative power of non-invertible variable {ctx.names[i]}"
                    )
            for (lz, llam, lth, lpa), lc in self.terms.items():
                blocks = [[(lz + rz + k, lth + rth - k, c) for k, c in _leibniz(lth, rz, 1)]]
                blocks += [
                    [(la + ra - k, lb + rb - k, c) for k, c in _leibniz(lb, ra, -1)]
                    for la, lb, ra, rb in zip(llam, lpa, rlam, rpa)
                ]
                f = lc * rc
                for (z, th, c), *combo in product(*blocks):
                    for _, _, ci in combo:
                        c *= ci
                    key = (z, tuple(x[0] for x in combo), th, tuple(x[1] for x in combo))
                    acc[key] = acc.get(key, Fraction(0)) + f * c
        return WeylOp(ctx, acc)

    def __eq__(self, other):
        return isinstance(other, WeylOp) and self.ctx == other.ctx and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    # -- presentation -------------------------------------------------------

    def sorted_terms(self):
        """Terms in the canonical order: derivative block (partials plus T)
        by descending total degree with reversed-exponent tie break, then
        the lambda block and the z power lexicographically."""

        def key(item):
            z, lam, th, pa = item[0]
            dblock = pa + (th,)
            return (
                -(sum(pa) + th),
                tuple(-x for x in reversed(dblock)),
                lam,
                z,
            )

        return sorted(self.terms.items(), key=key)

    def to_records(self):
        """Byte-stable export: list of term records in canonical order."""
        out = []
        for (z, lam, th, pa), coeff in self.sorted_terms():
            out.append(
                {
                    "coeff": f"{coeff.numerator}/{coeff.denominator}",
                    "z": z,
                    "thetaz": th,
                    "lambda": list(lam),
                    "partial": list(pa),
                }
            )
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (z, lam, th, pa), coeff in self.sorted_terms():
            bits = []
            if coeff != 1 or (z == 0 and th == 0 and not any(lam) and not any(pa)):
                bits.append(str(coeff))
            if z:
                bits.append(f"z^{z}" if z != 1 else "z")
            for i, e in enumerate(lam):
                if e:
                    nm = self.ctx.names[i]
                    bits.append(f"{nm}^{e}" if e != 1 else nm)
            if th:
                bits.append(f"T^{th}" if th != 1 else "T")
            for i, e in enumerate(pa):
                if e:
                    nm = self.ctx.names[i]
                    bits.append(f"D{nm}^{e}" if e != 1 else f"D{nm}")
            parts.append("*".join(bits))
        return " + ".join(parts)


def _leibniz(e, a, step):
    """[(k, C(e, k) * a (a + step) ... (a + (k - 1) step)) for k = 0..e],
    cut at the first zero coefficient, after which every one is zero.

    With step -1 these are the coefficients of partial^e lambda^a =
    sum_k c_k lambda^(a-k) partial^(e-k); with step +1 those of
    T^e z^a = sum_k c_k z^(a+k) T^(e-k).  Both hold for every integer a."""
    out = []
    c = 1
    for k in range(e + 1):
        if not c:
            break
        out.append((k, c))
        c = c * (e - k) * (a + step * k) // (k + 1)
    return out


# ---------------------------------------------------------------------------
# operator family builders
# ---------------------------------------------------------------------------


def _binomial(ctx, l, factor, lead=None) -> WeylOp:
    """prod_{l_i>0} prod_{nu<l_i} factor(i, nu)
    - lead * prod_{l_i<0} prod_{nu<-l_i} factor(i, nu).

    Every box operator has this shape.  The factors of one operator commute,
    so the order of the products does not matter."""
    sides = [WeylOp.one(ctx), WeylOp.one(ctx) if lead is None else lead]
    for i, li in enumerate(l):
        for nu in range(abs(li)):
            sides[li < 0] = sides[li < 0] * factor(i, nu)
    return sides[0] - sides[1]


def _unit(ctx, i):
    return tuple(int(j == i) for j in range(ctx.nvars))


def _log_field(ctx, coeffs, z=0) -> WeylOp:
    """sum_i coeffs_i z^z lambda_i partial_i, written as its normal-ordered terms."""
    return WeylOp(ctx, {(z, _unit(ctx, i), 0, _unit(ctx, i)): c for i, c in enumerate(coeffs)})


def _loglam(ctx, i):
    """z * lambda_i * partial_i."""
    return _log_field(ctx, _unit(ctx, i), 1)


def _beta_list(beta, length):
    beta = [Fraction(b) for b in beta]
    if len(beta) != length:
        raise DimensionMismatch("parameter vector has the wrong length")
    return beta


def _euler_fields(ctx, rows, beta, z=0):
    """z^z (sum_i row_i lambda_i partial_i - beta_k), one field per row k."""
    beta = _beta_list(beta, len(rows))
    return [_log_field(ctx, row, z) - WeylOp.monomial(ctx, b, z=z) for row, b in zip(rows, beta)]


def _hat_eulers(ctx, B: IntegerMatrix, beta0_beta):
    """[E_hat, then the z-weighted Euler fields of the rows of B], where
    E_hat = T + sum_i z lambda_i partial_i - z beta_0."""
    ehat, *eulers = _euler_fields(ctx, [(1,) * B.cols] + B.to_lists(), beta0_beta, 1)
    return [WeylOp.theta_z(ctx) + ehat] + eulers


def _boxes(ctx, kernel_basis: IntegerMatrix, box, *extra):
    return [box(ctx, kernel_basis.col(a), *extra) for a in range(kernel_basis.cols)]


def beta_outside_verified_regime(beta) -> bool:
    """True when some entry is non-integral; builders accept these but the
    duality statements are only verified at integer parameters."""
    return any(Fraction(b).denominator != 1 for b in beta)


def gkz_generators(B: IntegerMatrix, beta, kernel_basis: IntegerMatrix):
    """Plain box operators for a kernel basis plus Euler operators E_k - beta_k."""
    ctx = OpContext.make(B.cols, laurent=False, prefix="l")
    boxes = _boxes(ctx, kernel_basis, box_operator)
    return {"ctx": ctx, "boxes": boxes, "eulers": _euler_fields(ctx, B.to_lists(), beta)}


def box_operator(ctx, l) -> WeylOp:
    """prod_{l_i<0} partial_i^{-l_i} - prod_{l_i>0} partial_i^{l_i}."""
    return _binomial(ctx, [-x for x in l], lambda i, nu: WeylOp.partial(ctx, i))


def homogenized_generators(Btilde: IntegerMatrix, beta_tilde, kernel_basis: IntegerMatrix):
    """Generators of the homogenized system on t+1 variables; kernel_basis
    holds relations of the base variables 1..t (see homogenized_box)."""
    t1 = Btilde.cols
    ctx = OpContext.make(t1, laurent=False, names=tuple(f"l{i}" for i in range(t1)))
    boxes = _boxes(ctx, kernel_basis, homogenized_box)
    return {"ctx": ctx, "boxes": boxes, "eulers": _euler_fields(ctx, Btilde.to_lists(), beta_tilde)}


def homogenized_box(ctx, l) -> WeylOp:
    """Box operator of the homogenized system for a base relation l.

    Variable 0 is the homogenizing one; l refers to variables 1..t.  The
    convention is fixed by the worked examples: partial_0^{|lbar|}, with
    lbar = -sum(l), sits on the positive side when lbar >= 0 and on the
    negative side otherwise."""
    return _binomial(ctx, (-sum(l),) + tuple(l), lambda i, nu: WeylOp.partial(ctx, i))


def fl_hat_generators(B: IntegerMatrix, beta0_beta, kernel_basis: IntegerMatrix):
    """Hat-form generators: boxes in (z partial), Euler fields with z-weights."""
    ctx = OpContext.make(B.cols, laurent=False, prefix="l")
    boxes = _boxes(ctx, kernel_basis, hat_box)
    ehat, *eulers = _hat_eulers(ctx, B, beta0_beta)
    return {"ctx": ctx, "boxes": boxes, "eulers": eulers, "ehat": ehat}


def hat_box(ctx, l) -> WeylOp:
    """prod_{l_i<0} (z partial_i)^{-l_i} - prod_{l_i>0} (z partial_i)^{l_i}."""
    zd = lambda i, nu: WeylOp.monomial(ctx, z=1, pa=_unit(ctx, i))
    return _binomial(ctx, [-x for x in l], zd)


def fl_substitution(op: WeylOp):
    """Image of an operator on the homogenized space under lambda_0 -> T,
    partial_0 -> 1/z, dropping variable 0.

    Returns (image, clearing_power) where clearing_power is the smallest
    k >= 0 such that z^k times the image has no negative z powers.
    """
    ctx = op.ctx
    t = ctx.nvars - 1
    new_ctx = OpContext.make(t, laurent=ctx.laurent[1:], names=ctx.names[1:])
    image = WeylOp.zero(new_ctx)
    for (z, lam, th, pa), coeff in op.terms.items():
        if z != 0 or th != 0:
            raise NotEliminable("operator already lives on the hat side")
        if lam[0] < 0:
            raise NotEliminable("negative power of the homogenizing variable")
        a0, b0 = lam[0], pa[0]
        piece = WeylOp.monomial(
            new_ctx, coeff=coeff, z=0, lam=lam[1:], theta=a0, pa=pa[1:]
        )
        if b0:
            piece = piece * WeylOp.zpow(new_ctx, -b0)
        image = image + piece
    clearing = 0
    for (z, lam, th, pa) in image.terms:
        clearing = max(clearing, -z)
    return image, clearing


def fl_match_homogenized(B: IntegerMatrix, relation):
    """Compare the substituted homogenized box with the hat box.

    Returns a record with the explicit z power and sign making
    z^k * image == sign * hat_box."""
    t = B.cols
    hctx = OpContext.make(t + 1, laurent=False, names=tuple(f"l{i}" for i in range(t + 1)))
    hbox = homogenized_box(hctx, relation)
    image, _ = fl_substitution(hbox)
    lbar = -sum(relation)
    zk = max(lbar, 0) + sum(x for x in relation if x > 0)
    shifted = WeylOp.zpow(image.ctx, zk) * image
    target = hat_box(image.ctx, relation)
    if shifted == target.scale(-1):
        sign = -1
    elif shifted == target:
        sign = 1
    else:
        sign = 0
    return {"relation": tuple(relation), "z_power": zk, "sign": sign, "matches": sign != 0}


def star_n_generators(Aprime: IntegerMatrix, beta0_beta, m: int, kernel_basis: IntegerMatrix):
    """Tilde boxes with the nu-shifted bundle factors, plus hat Euler fields,
    over the torus (all variables invertible)."""
    ctx = OpContext.make(Aprime.cols, laurent=True, prefix="l")
    return {
        "ctx": ctx,
        "boxes": _boxes(ctx, kernel_basis, tilde_box, m),
        "eulers": _hat_eulers(ctx, Aprime, beta0_beta),
    }


def tilde_box(ctx, l, m: int) -> WeylOp:
    """prod_{l_i>0} F_i - lambda^l prod_{l_i<0} F_i, where a base variable
    (index < m) has F_i = (z lambda_i partial_i)^{|l_i|} and a bundle
    variable has the shifted factors prod_{nu=1}^{|l_i|} (z lambda_i partial_i - nu z)."""

    def factor(i, nu):
        if i < m:
            return _loglam(ctx, i)
        return _loglam(ctx, i) - WeylOp.zpow(ctx, 1).scale(nu + 1)

    return _binomial(ctx, l, factor, lead=WeylOp.monomial(ctx, lam=tuple(l)))


def duality_morphism(kind: str, m: int, c: int) -> WeylOp:
    """Right-multiplication operator of the duality morphism.

    plain: partial_0 * partial_{m+1} ... partial_{m+c} on the homogenized
    space; hat: partial_{m+1} ... partial_{m+c}; tilde: the product of the
    z lambda partial factors over the bundle variables (identity for c=0).
    """
    if kind == "plain":
        ctx = OpContext.make(m + c + 1, laurent=False, names=tuple(f"l{i}" for i in range(m + c + 1)))
        op = WeylOp.partial(ctx, 0)
        for j in range(c):
            op = op * WeylOp.partial(ctx, m + 1 + j)
        return op
    if kind == "hat":
        ctx = OpContext.make(m + c, laurent=False, prefix="l")
        op = WeylOp.one(ctx)
        for j in range(c):
            op = op * WeylOp.partial(ctx, m + j)
        return op
    if kind == "tilde":
        ctx = OpContext.make(m + c, laurent=True, prefix="l")
        op = WeylOp.one(ctx)
        for j in range(c):
            op = op * _loglam(ctx, m + j)
        return op
    raise ValueError(f"unknown duality morphism kind {kind!r}")


def psi_twist(m: int, c: int) -> WeylOp:
    """Right multiplication by z^c lambda_{m+1} ... lambda_{m+c}."""
    ctx = OpContext.make(m + c, laurent=True, prefix="l")
    lam = [0] * (m + c)
    for j in range(c):
        lam[m + j] = 1
    return WeylOp.monomial(ctx, z=c, lam=tuple(lam))


def shift_morphism_factorization(Btilde: IntegerMatrix, c1, c2):
    """Certificate that partial^c1 - partial^c2 factors through a box.

    Requires equal semigroup images; returns the relation l = c1 - c2, the
    common factor min(c1, c2) and the verified identity
    partial^c1 - partial^c2 = partial^min * box(-l)."""
    c1 = tuple(int(x) for x in c1)
    c2 = tuple(int(x) for x in c2)
    if len(c1) != Btilde.cols or len(c2) != Btilde.cols:
        raise DimensionMismatch("exponent length mismatch")
    if any(x < 0 for x in c1 + c2):
        raise ValueError("exponents must be nonnegative")
    if Btilde.mul_vec(c1) != Btilde.mul_vec(c2):
        raise NotSameImage("exponents map to different semigroup elements")
    l = tuple(a - b for a, b in zip(c1, c2))
    mn = tuple(min(a, b) for a, b in zip(c1, c2))
    ctx = OpContext.make(Btilde.cols, laurent=False, names=tuple(f"l{i}" for i in range(Btilde.cols)))
    lhs = WeylOp.monomial(ctx, pa=c1) - WeylOp.monomial(ctx, pa=c2)
    rhs = WeylOp.monomial(ctx, pa=mn) * box_operator(ctx, tuple(-x for x in l))
    return {
        "relation": l,
        "common": mn,
        "identity_holds": lhs == rhs,
        "lhs": lhs,
        "rhs": rhs,
    }


# ---------------------------------------------------------------------------
# quantum-D-module generators and the torus coordinate change
# ---------------------------------------------------------------------------


def qdm_context(r: int) -> OpContext:
    return OpContext.make(r, laurent=True, names=tuple(f"q{a+1}" for a in range(r)))


def qdm_box(ctx, kernel_matrix: IntegerMatrix, m: int, l_coords, l_vector) -> WeylOp:
    """Q_l from the displayed product formula.

    kernel_matrix rows give the basis coordinates of the ray classes (rows
    0..m-1) and of minus the bundle classes (rows m..); l_coords are the
    basis coordinates of the relation and l_vector its entries.  With
    D_i = sum_a z K_ia q_a partial_a, a ray contributes the factors
    D_i - nu z and a bundle the factors (nu + 1) z - D_i."""
    dhat = [_log_field(ctx, kernel_matrix.row(i), 1) for i in range(kernel_matrix.rows)]
    z = WeylOp.zpow(ctx, 1)

    def factor(i, nu):
        if i < m:
            return dhat[i] - z.scale(nu)
        return z.scale(nu + 1) - dhat[i]

    return _binomial(ctx, l_vector, factor, lead=WeylOp.monomial(ctx, lam=tuple(l_coords)))


def qdm_euler(ctx, kernel_matrix: IntegerMatrix) -> WeylOp:
    """E = T - K_hat = T + sum_i (row sums) z q d/dq."""
    coords = [sum(row[a] for row in kernel_matrix.entries) for a in range(kernel_matrix.cols)]
    return WeylOp.theta_z(ctx) + _log_field(ctx, coords, 1)


class TorusChange(NamedTuple):
    """Data of the coordinate change lambda -> (f, q): the section matrices
    and the bundle range, with sign twist on the bundle variables."""

    C: IntegerMatrix       # (m+c) x (n+c)
    L: IntegerMatrix       # (m+c) x r
    M: IntegerMatrix       # r x (m+c)
    Aprime: IntegerMatrix  # (n+c) x (m+c)
    m: int

    @property
    def n_f(self) -> int:
        return self.C.cols

    @property
    def n_q(self) -> int:
        return self.L.cols

    def target_context(self) -> OpContext:
        names = tuple(f"f{j+1}" for j in range(self.n_f)) + tuple(
            f"q{a+1}" for a in range(self.n_q)
        )
        return OpContext.make(self.n_f + self.n_q, laurent=True, names=names)


def theta_coordinate_change(op: WeylOp, change: TorusChange) -> WeylOp:
    """Rewrite an operator over the lambda torus in the (f, q) coordinates.

    Each term is split as lambda^delta times a product of factors
    (lambda_i partial_i - nu); the monomial maps to
    (-1)^(bundle part) f^(A' delta) q^(M delta) and the log fields map to
    sum_j C_ij f_j d/df_j + sum_a L_ia q_a d/dq_a.  z and T pass through.
    """
    t = op.ctx.nvars
    tgt = change.target_context()
    logfields = [_log_field(tgt, change.C.row(i) + change.L.row(i)) for i in range(t)]
    out = WeylOp.zero(tgt)
    for (z, lam, th, pa), coeff in op.terms.items():
        delta = tuple(a - b for a, b in zip(lam, pa))
        sign = 1
        for i in range(change.m, t):
            if delta[i] % 2:
                sign = -sign
        f_exp = change.Aprime.mul_vec(delta)
        q_exp = change.M.mul_vec(delta)
        piece = WeylOp.monomial(
            tgt,
            coeff=coeff * sign,
            z=z,
            lam=tuple(f_exp) + tuple(q_exp),
            theta=th,
        )
        for i in range(t):
            for nu in range(pa[i]):
                piece = piece * (logfields[i] - WeylOp.scalar(tgt, nu))
        out = out + piece
    return out


def i_theta_restrict(op: WeylOp, change: TorusChange) -> WeylOp:
    """Restrict an (f, q)-operator to q only: drop every term with an
    f-derivative, then set the f variables to one."""
    nf, nq = change.n_f, change.n_q
    qctx = OpContext.make(nq, laurent=True, names=op.ctx.names[nf:])
    out = {}
    for (z, lam, th, pa), coeff in op.terms.items():
        if any(pa[:nf]):
            continue
        key = (z, lam[nf:], th, pa[nf:])
        out[key] = out.get(key, Fraction(0)) + coeff
    return WeylOp(qctx, out)


# ---------------------------------------------------------------------------
# bounded left-ideal membership
# ---------------------------------------------------------------------------


def bounded_ideal_membership(P: WeylOp, generators, total_degree_bound: int,
                             z_range=(-2, 3), lam_range=None, theta_bound=None):
    """Search for P = sum h_j g_j with the h_j supported on a bounded
    monomial set; a certificate is sound, failure is only 'inconclusive'.

    The h_j range over monomials z^a lambda^alpha T^e partial^beta with
    sum |alpha| + e + sum beta <= total_degree_bound, z power within
    z_range and lambda powers within lam_range (defaulting to
    [0, bound], or [-bound, bound] for invertible variables).
    """
    ctx = P.ctx
    n = ctx.nvars
    if theta_bound is None:
        theta_bound = total_degree_bound
    if lam_range is None:
        lam_range = [
            (-total_degree_bound, total_degree_bound) if ctx.laurent[i] else (0, total_degree_bound)
            for i in range(n)
        ]
    monos = []
    lam_axes = [range(lo, hi + 1) for lo, hi in lam_range]
    pa_axes = [range(0, total_degree_bound + 1)] * n
    for zp in range(z_range[0], z_range[1] + 1):
        for lam in product(*lam_axes):
            if sum(abs(x) for x in lam) > total_degree_bound:
                continue
            for th in range(theta_bound + 1):
                for pa in product(*pa_axes):
                    if sum(abs(x) for x in lam) + th + sum(pa) > total_degree_bound:
                        continue
                    monos.append((zp, lam, th, pa))
    columns = []
    col_meta = []
    for j, g in enumerate(generators):
        for key in monos:
            h = WeylOp(ctx, {key: Fraction(1)})
            prod_op = h * g
            if prod_op.is_zero():
                continue
            columns.append(prod_op.terms)
            col_meta.append((j, key))
    target = P.terms
    row_keys = set(target)
    for col in columns:
        row_keys.update(col)
    row_index = {k: i for i, k in enumerate(sorted(row_keys))}
    nrows, ncols = len(row_index), len(columns)
    mat = [[0] * (ncols + 1) for _ in range(nrows)]
    for cidx, col in enumerate(columns):
        for key, val in col.items():
            mat[row_index[key]][cidx] = val
    for key, val in target.items():
        mat[row_index[key]][ncols] = val
    pivots, reduced = row_reduce(mat, ncols + 1)
    if ncols in pivots:
        return {"status": "inconclusive"}
    # The particular solution with every free variable at 0.
    coeffs = {}
    for row, cidx in zip(reduced, pivots):
        if row[ncols]:
            j, key = col_meta[cidx]
            coeffs.setdefault(j, {})[key] = row[ncols]
    combo = WeylOp.zero(ctx)
    for j, terms in coeffs.items():
        combo = combo + WeylOp(ctx, terms) * generators[j]
    if combo != P:
        return {"status": "inconclusive"}
    certificate = {j: WeylOp(ctx, terms) for j, terms in coeffs.items()}
    return {"status": "certificate", "coefficients": certificate}
