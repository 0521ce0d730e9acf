"""Images of ad towers mod p: rank certificates that ``fit_weights`` or
``solve_theta`` has no solution, and witnesses that a condition fails, all
without building the symbolic ad tower.

Every parameter maps to ``exact.mod_p_residue(name)`` in GF(p), p =
``exact.MOD_P``, and x to a fixed residue x0.  A function is carried as its
jet, its first Taylor coefficients in e = x - x0.

A scalar operator R = sum_r c_r D^r is read through the point functional
delta·R: g -> (R g)(x0), a list over the Taylor coefficients g_k of g at x0
whose entry r is r! c_r(x0).  Operators act on a functional phi from the
right, phi·R: g -> phi(R g):

    (phi·f)[l] = sum_i phi[l+i] f_i     for a function f with jet f_i,
    (phi·D^2)[l] = l(l-1) phi[l-2],     so phi·L = phi·V - phi·D^2.

With phi_a = delta·L^a and psi_a = phi_a·Theta, each formed once per point,
ad^j(Theta) = sum_i (-1)^i C(j,i) L^(j-i) Theta L^i gives

    delta·sum_j w_j ad^j(Theta) = sum_i ( (-1)^i sum_j C(j,i) w_j psi_(j-i) )·L^i,

taken by Horner's rule in L.  Entries past the order of the operator are 0.
``no_theta`` takes Theta = x^d for d = 1, 2, ..., each psi_a from the last
by one product with x.  A matrix tower is ``matrixop.mat_ad_tower`` itself,
run on operators whose coefficients are k x k matrices of jets
(``matrixop.JetCoeff``): ``diffop.compose`` expands [L, A] = L A - A L by the
Leibniz rule, and each step uses up ord L jet orders.

Rank certificates.  ``no_weights`` and ``no_theta`` solve a linear system
``sum_i v_i C_i = 0`` whose columns are operators ``C_i = sum_r c_ir(x) D^r``
over K = Q(params): the tower entries A_j(Theta) for ``fit_weights``, the
residuals sum_j w_j A_j(x^i) for ``solve_theta``.  Each point adds one row per
derivative order r: the entries r! c_ir(x0) of the functionals.  Lift x0 to
an integer X0, and let M be the matrix over K with a row "r! times the
coefficient of D^r at x = X0" for each point and each r.  Every solution v of
the system is in M's kernel.  M's entries lie in the local ring where the map
rho to GF(p) is defined: every denominator they have, a coefficient
denominator or a base of V or Theta at X0, has a nonzero image.  rho(M) is the
matrix of functional entries, because the functionals are computed by ring
operations from the images of the Taylor coefficients of V and Theta.  A
nonzero n x n minor of rho(M) is rho of an n x n minor of M, which is then
nonzero, so M has full column rank and the system's only solution is 0
(Schwartz 1980; Zippel 1979).  The factor r! scales a whole row by a unit,
since r < p, so it changes no rank and no verdict: the rows reach full rank
at the same points as the rows of the values c_ir(x0) themselves.

Witnesses.  ``condition_witness`` takes the image of the residual
sum_j w_j A_j of a scalar condition, entry r of its functional divided by
r!, and ``matrixop.matrix_condition_witness``
that of sum_j A_j o M_j of a matrix condition, at the first point x0 where
every base of the operator, Theta and the factors M_j has a nonzero image.
Each coefficient of the residual, and for a matrix each entry of it, lies in
the same local ring, and its image is its value at x0, so a nonzero image is
rho of a nonzero element: the residual is not the zero operator, and the
condition fails over K.  The lowest order with a nonzero entry is the lowest
with a nonzero value, since r! is a unit.  For matrices the jets must be
multiplied in the residual's own order.  Under the left action a Leibniz
term of L A is L_r A_s^(m), and under the right action it is A_s^(m) L_r
(the opposite ring, as in ``MatCoeff.__mul__``).  rho of a matrix product is
the product of the images in the same order, and ``JetCoeff`` multiplies in
that order, so both sides map faithfully.  The factor M_j multiplies each
coefficient from the right on both sides (``MatDiffOp.right_factor``).  Only
failure is ever proved: a zero image, or an undefined one, leaves the
condition to symbolic expansion, which alone may say that it holds.

Every claim holds over K, that is for generic parameter values, so such a
verdict rests on no assumption.  Nothing is decided when an image is
undefined: a relation-bearing parameter occurs, or a denominator maps to 0
(see ``MPoly.evaluate_mod``).  A point where a base vanishes at x0 is
skipped; the points t^65537 mod p are distinct for t = 2, 3, ..., and a
monic base has finitely many roots, so the search ends.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

from .diffop import DiffOp, XRat, _mod_p_coeffs, as_function
from .exact import MOD_P, mod_p_residue


def _points():
    """x0 = t^65537 mod p for t = 2, 3, ...: distinct, the same in every process."""
    for t in itertools.count(2):
        yield pow(t, 65537, MOD_P)


def _taylor(coeffs: list, x0: int, n: int) -> list:
    """The first n Taylor coefficients at x0 of the polynomial with ascending
    GF(MOD_P) coefficients ``coeffs`` (Horner's rule in x0 + e); those past
    its degree are 0."""
    m = min(n, len(coeffs))
    out = [0] * m
    for c in reversed(coeffs):
        for i in range(m - 1, 0, -1):
            out[i] = (out[i] * x0 + out[i - 1]) % MOD_P
        out[0] = (out[0] * x0 + c) % MOD_P
    return out + [0] * (n - m)


def _mul_into(acc: list, a: list, b: list, c: int) -> None:
    """acc += c * a * b for jets, truncated to len(acc), not reduced mod p."""
    n = len(acc)
    for i, ai in enumerate(a[:n]):
        if ai:
            ai *= c
            for k, bk in enumerate(b[:n - i], i):
                acc[k] += ai * bk


def _image(f: XRat):
    """The images of f's numerator and of its denominator, the product of its
    bases to their exponents, as GF(MOD_P) coefficient lists; None when an
    image is undefined."""
    if f.is_zero():
        return [], [1]
    num = _mod_p_coeffs(f.num)
    if num is None:
        return None
    den = [1]
    for base, e in f.factors:
        b = _mod_p_coeffs(base)
        if b is None:
            return None
        for _ in range(e):
            prod = [0] * (len(den) + len(b) - 1)
            for i, di in enumerate(den):
                for k, bk in enumerate(b, i):
                    prod[k] += di * bk
            den = [c % MOD_P for c in prod]
    return num, den


def _jet(image, x0: int, n: int):
    """The first n Taylor coefficients at x0 of the rational function with
    ``image``, or None when its denominator vanishes at x0."""
    num, den = image
    out = _taylor(num, x0, n)
    if len(den) == 1:
        return out
    d = _taylor(den, x0, min(n, len(den)))
    if not d[0]:
        return None
    inv = pow(d[0], -1, MOD_P)
    for k in range(n):
        acc = out[k]
        for i in range(1, min(k + 1, len(d))):
            acc -= d[i] * out[k - i]
        out[k] = acc * inv % MOD_P
    return out


def _times(phi: list, f: list) -> list:
    """phi·f, the functional g -> phi(f g), from f's jet: entry l is
    sum_i phi[l+i] f[i]."""
    return [sum(map(mul, phi[l:], f)) % MOD_P for l in range(len(phi))]


def _times_l(phi: list, v: list, m: int) -> list:
    """Entries l < m of phi·L = phi·V - phi·D^2 for L = -D^2 + V, from V's jet
    v (as long as phi, or to its last nonzero entry): phi·D^2 moves entry
    l - 2 to l with weight l(l-1)."""
    return [(sum(map(mul, phi[l:], v)) - l * (l - 1) * s) % MOD_P
            for l, s in enumerate([0, 0, *phi][:m])]


def _horner(weights: list) -> list:
    """sum_j w_j ad^j(Theta) = sum_i u_i·L^i with u_i = (-1)^i sum_j C(j,i)
    w_j psi_(j-i), for the pairs (j, w_j) of ``weights``: for each i, top down,
    the pairs (j - i, (-1)^i C(j,i) w_j) of u_i."""
    top = max(j for j, _ in weights)
    return [[(j - i, (-1) ** i * math.comb(j, i) * w % MOD_P) for j, w in weights if j >= i]
            for i in range(top, -1, -1)]


def _columns(v_image, theta_image, powers: list, horners: list, x0: int):
    """The functionals delta·sum_j w_j ad^j(Theta^d) at x0 for each d in
    ``powers`` and, within it, each list of ``_horner`` pairs, cut after the
    pairs' top order j, past which every entry is 0; None when a base of V or
    of Theta vanishes at x0."""
    n = 2 * max(map(len, horners)) - 1  # the length of delta·L^top
    v = _jet(v_image, x0, max(n - 2, 1))  # as long as any functional times L
    theta = _jet(theta_image, x0, n)
    if v is None or theta is None:
        return None
    for jet in (v, theta):  # a polynomial's jet ends in zeros
        while len(jet) > 1 and not jet[-1]:
            jet.pop()
    psi = [[1]]  # delta·L^a, then delta·L^a·Theta^d for d = 1, 2, ...
    while len(psi[-1]) < n:
        psi.append(_times_l(psi[-1], v, n))
    columns = []
    for d in range(max(powers) + 1):
        if d:
            psi = [_times(phi, theta) for phi in psi]
        if d not in powers:
            continue
        for pairs in horners:
            top = len(pairs) - 1
            col = [0]
            for i, terms in enumerate(pairs):
                if i:  # only the entries that reach orders <= top in the end
                    col = _times_l(col, v, top + 1 + (top - i) * (len(v) - 1))
                for a, c in terms:
                    for l, y in enumerate(psi[a][:len(col)]):
                        col[l] += c * y
            columns.append([c % MOD_P for c in col])
    return columns


def _full_rank(v_image, theta_image, powers: list, horners: list) -> bool:
    """True when the ``_columns`` at successive points reach full column rank,
    one row per derivative order; False as soon as a point adds no rank.  A
    point where a base vanishes is skipped."""
    ncols = len(powers) * len(horners)
    pivots: dict = {}  # column -> row with 1 there and 0 at every earlier pivot
    for x0 in _points():
        columns = _columns(v_image, theta_image, powers, horners, x0)
        if columns is None:
            continue
        before = len(pivots)
        for row in itertools.zip_longest(*columns, fillvalue=0):
            for col, prow in pivots.items():
                if row[col]:
                    c = row[col]
                    row = [(x - c * y) % MOD_P for x, y in zip(row, prow)]
            lead = next((i for i, x in enumerate(row) if x), None)
            if lead is not None:
                inv = pow(row[lead], -1, MOD_P)
                pivots[lead] = [x * inv % MOD_P for x in row]
        if len(pivots) == ncols:
            return True
        if len(pivots) == before:
            return False


def no_weights(op: DiffOp, theta, orders: list) -> bool:
    """True when a rank certificate mod p proves that no nonzero weights on
    ``orders`` (distinct, >= 0) give sum_j w_j ad op^j(theta) = 0 for the
    function theta; False means undecided.  Raises ExactError when op is not
    -D^2 + V."""
    v_image = _image(op.potential())
    theta_image = _image(as_function(theta))
    if v_image is None or theta_image is None:
        return False
    return _full_rank(v_image, theta_image, [1], [_horner([(j, 1)]) for j in orders])


def no_theta(op: DiffOp, w, degrees: list) -> bool:
    """True when a rank certificate mod p proves that no nonzero Theta spanned
    by the monomials x^i, i in ``degrees``, gives sum_j w_j ad op^j(Theta) = 0
    for the WeightVector w; False means undecided.  Raises ExactError when op
    is not -D^2 + V."""
    v_image = _image(op.potential())
    weights = [(j, c.evaluate_mod()) for j, c in w.items()]
    if v_image is None or any(c is None for _, c in weights):
        return False
    return _full_rank(v_image, ([0, 1], [1]), degrees, [_horner(weights)])

def _witness(x0: int, rats, scalars, **found) -> dict:
    """The point of a refutation: the prime, x0 and the residue of every
    parameter in ``rats`` (XRats) and ``scalars`` (ParamScalars), then
    ``found``, the place and value of the nonzero image."""
    names = set()
    for f in rats:
        for p in (f.num, *(base for base, _ in f.factors)):
            if not p.is_parameter_free():
                names |= p.num.params() | p.den.params()
    for c in scalars:
        names |= c.params()
    names.discard("x")
    return {"prime": MOD_P, "x0": x0,
            "parameters": {name: mod_p_residue(name) for name in sorted(names)}, **found}


def condition_witness(op: DiffOp, theta, w):
    """A witness that sum_j w_j ad op^j(theta) is not zero, for the function
    theta and the WeightVector w: its point and the lowest derivative order r
    whose coefficient has a nonzero image there.  None means undecided.
    Raises ExactError when op is not -D^2 + V."""
    v = op.potential()
    v_image = _image(v)
    theta = as_function(theta)
    theta_image = _image(theta)
    weights = [(j, c.evaluate_mod()) for j, c in w.items()]
    if v_image is None or theta_image is None or any(c is None for _, c in weights):
        return None
    horner = [_horner(weights)]
    for x0 in _points():
        columns = _columns(v_image, theta_image, [1], horner, x0)
        if columns is not None:
            break
    for r, c in enumerate(columns[0]):
        if c:
            return _witness(x0, [v, theta], [c for _, c in w.items()], order=r,
                            image=c * pow(math.factorial(r), -1, MOD_P) % MOD_P)
    return None
