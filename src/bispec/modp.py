"""Images of ad towers mod p: rank certificates that ``fit_weights`` or
``solve_theta`` has no solution, and witnesses that a condition fails, all
without building the symbolic ad tower.

Every parameter maps to ``exact.mod_p_residue(name)`` in GF(p), p =
``exact.MOD_P``, and x to a fixed residue x0.  Each coefficient is carried as
a Taylor jet in e = x - x0.  A scalar tower is stepped with the closed form

    [L, sum_r b_r D^r] = sum_r ( -b_r'' D^r - 2 b_r' D^(r+1)
                                 - sum_{m>=1} C(r,m) b_r V^(m) D^(r-m) )

on jets.  Each step uses up two jet orders (b_r''), so jets start at length
2*top + 1 and A_top arrives as its value at x0.  A matrix tower is
``matrixop.mat_ad_tower`` itself, run on operators whose coefficients are
k x k matrices of jets (``matrixop.JetCoeff``): ``diffop.compose`` expands
[L, A] = L A - A L by the Leibniz rule, and each step uses up ord L orders.

Rank certificates.  ``no_weights`` and ``no_theta`` solve a linear system
``sum_i v_i C_i = 0`` whose columns are operators ``C_i = sum_r c_ir(x) D^r``
over K = Q(params): the tower entries A_j(Theta) for ``fit_weights``, the
residuals sum_j w_j A_j(x^i) for ``solve_theta``.  Each point adds one row per
derivative order r: the values c_ir(x0).  Lift x0 to an integer X0, and let M
be the matrix over K with a row "coefficient of D^r at x = X0" for each point
and each r.  Every solution v of the system is in M's kernel.  M's entries
lie in the local ring where the map phi to GF(p) is defined: every
denominator they have, a coefficient denominator or a base of V or Theta at
X0, has a nonzero image.  phi(M) is the matrix of jet values, because the
jets are computed by ring operations from the images of the coefficients.  A
nonzero n x n minor of phi(M) is phi of an n x n minor of M, which is then
nonzero, so M has full column rank and the system's only solution is 0
(Schwartz 1980; Zippel 1979).

Witnesses.  ``condition_witness`` takes the image of the residual
sum_j w_j A_j of a scalar condition, and ``matrixop.matrix_condition_witness``
that of sum_j A_j o M_j of a matrix condition, at the first point x0 where
every base of the operator, Theta and the factors M_j has a nonzero image.
Each coefficient of the residual, and for a matrix each entry of it, lies in
the same local ring, and its image is the value at x0 of its jet, so a
nonzero image is phi of a nonzero element: the residual is not the zero
operator, and the condition fails over K.  For matrices the jets must be
multiplied in the residual's own order.  Under the left action a Leibniz
term of L A is L_r A_s^(m), and under the right action it is A_s^(m) L_r
(the opposite ring, as in ``MatCoeff.__mul__``).  phi of a matrix product is
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
from operator import add, mul

from .diffop import DiffOp, XRat, _mod_p_coeffs
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


def _derivative(a: list) -> list:
    """The jet of f' from that of f, one order shorter."""
    return [i * a[i] % MOD_P for i in range(1, len(a))]


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


def _potential_jets(v_image, x0: int, n: int, m_top: int):
    """[V, V', ..., V^(m_top)], V^(m) as a jet of length n - m, or None when a
    base of V vanishes at x0.

    A step from A_j, whose derivative orders are at most s + j for an A_0 of
    order s, needs V^(m) for m <= s + j to the length n - 2j - 2 of A_(j+1)'s
    jets, so jets of V of length n + s serve a tower that starts at length n.
    """
    jet = _jet(v_image, x0, n)
    if jet is None:
        return None
    out = [jet]
    for _ in range(m_top):
        out.append(_derivative(out[-1]))
    return out


def _tower(v: list, a: dict, n: int, steps: int) -> list:
    """Jets of A_0, ..., A_steps with A_{j+1} = [-D^2 + V, A_j].

    ``a`` maps each derivative order of A_0 to its jet of length n, and v[m]
    is the jet of V^(m).  A_j's jets have length n - 2*j.  Each step
    accumulates its terms into the output jets and reduces them once.
    """
    # the Taylor coefficient i of -b'' is w2[i] b[i+2], that of -2 b' is w1[i] b[i+1]
    w2 = [-(i + 1) * (i + 2) for i in range(n)]
    w1 = [-2 * (i + 1) for i in range(n)]
    tower = [a]
    for _ in range(steps):
        n -= 2
        out: dict = {}
        for r, b in a.items():
            jet = list(map(mul, w2, b[2:]))
            acc = out.get(r)
            out[r] = jet if acc is None else list(map(add, acc, jet))
            jet = list(map(mul, w1, b[1:n + 1]))
            acc = out.get(r + 1)
            out[r + 1] = jet if acc is None else list(map(add, acc, jet))
            for m in range(1, r + 1):
                acc = out.get(r - m)
                if acc is None:
                    acc = out[r - m] = [0] * n
                _mul_into(acc, b, v[m], -math.comb(r, m))
        a = {r: [c % MOD_P for c in jet] for r, jet in out.items()}
        tower.append(a)
    return tower


def _tower_at(v_image, a_images: dict, x0: int, top: int):
    """Jets at x0 of A_0, ..., A_top, where A_0's coefficient of D^r has image
    a_images[r]; None when a base of V or A_0 vanishes at x0."""
    n = 2 * top + 1
    s = max(a_images, default=0)
    v = _potential_jets(v_image, x0, n + s, s + top - 1)
    a = {r: _jet(img, x0, n) for r, img in a_images.items()}
    if v is None or any(jet is None for jet in a.values()):
        return None
    return _tower(v, a, n, top)


def _rows(columns: list) -> list:
    """One row per derivative order: each column's coefficient value there."""
    orders = sorted(set().union(*columns))
    return [[col.get(r, 0) for col in columns] for r in orders]


def _full_rank(ncols: int, rows_at) -> bool:
    """True when the rows that ``rows_at(x0)`` gives at successive points reach
    rank ncols; False as soon as a point adds no rank.  ``rows_at`` returns
    None at a point where a base vanishes, and that point is skipped."""
    pivots: dict = {}  # column -> row with 1 there and 0 at every earlier pivot
    for x0 in _points():
        rows = rows_at(x0)
        if rows is None:
            continue
        before = len(pivots)
        for row in rows:
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


def no_weights(op: DiffOp, a0: DiffOp, orders: list) -> bool:
    """True when a rank certificate mod p proves that no nonzero weights on
    ``orders`` (distinct, >= 0) give sum_j w_j ad op^j(a0) = 0; False means
    undecided.  Raises ExactError when op is not -D^2 + V."""
    v_image = _image(op.potential())
    a_images = {r: _image(c) for r, c in a0.coeffs.items()}
    if v_image is None or any(img is None for img in a_images.values()):
        return False

    def rows_at(x0):
        tower = _tower_at(v_image, a_images, x0, max(orders))
        if tower is None:
            return None
        return _rows([{r: jet[0] for r, jet in tower[j].items()} for j in orders])

    return _full_rank(len(orders), rows_at)


def no_theta(op: DiffOp, w, degrees: list) -> bool:
    """True when a rank certificate mod p proves that no nonzero Theta spanned
    by the monomials x^i, i in ``degrees``, gives sum_j w_j ad op^j(Theta) = 0
    for the WeightVector w; False means undecided.  Raises ExactError when op
    is not -D^2 + V."""
    v_image = _image(op.potential())
    weights = [(j, c.evaluate_mod()) for j, c in w.items()]
    if v_image is None or any(c is None for _, c in weights):
        return False
    top = w.top_order
    n = 2 * top + 1

    def rows_at(x0):
        # V's jets once per point, shared by every monomial's tower
        v = _potential_jets(v_image, x0, n, top - 1)
        if v is None:
            return None
        columns = []
        for i in degrees:
            tower = _tower(v, {0: _taylor([0] * i + [1], x0, n)}, n, top)
            col: dict = {}
            for j, c in weights:
                for r, jet in tower[j].items():
                    col[r] = (col.get(r, 0) + c * jet[0]) % MOD_P
            columns.append(col)
        return _rows(columns)

    return _full_rank(len(degrees), rows_at)


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


def condition_witness(op: DiffOp, a0: DiffOp, w):
    """A witness that sum_j w_j ad op^j(a0) is not zero, for the WeightVector
    w: its point and the lowest derivative order r whose coefficient has a
    nonzero image there.  None means undecided.  Raises ExactError when op is
    not -D^2 + V."""
    v = op.potential()
    v_image = _image(v)
    a_images = {r: _image(c) for r, c in a0.coeffs.items()}
    weights = [(j, c.evaluate_mod()) for j, c in w.items()]
    if v_image is None or any(img is None for img in a_images.values()) \
            or any(c is None for _, c in weights):
        return None
    for x0 in _points():
        tower = _tower_at(v_image, a_images, x0, w.top_order)
        if tower is not None:
            break
    residual: dict = {}
    for j, c in weights:
        for r, jet in tower[j].items():
            residual[r] = (residual.get(r, 0) + c * jet[0]) % MOD_P
    for r in sorted(residual):
        if residual[r]:
            return _witness(x0, [v, *a0.coeffs.values()], [c for _, c in w.items()],
                            order=r, image=residual[r])
    return None
