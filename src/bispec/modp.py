"""Rank certificates mod p: proofs that ``fit_weights`` or ``solve_theta`` has
no solution, without building the symbolic ad tower.

Both solve a linear system ``sum_i v_i C_i = 0`` whose columns are operators
``C_i = sum_r c_ir(x) D^r`` over K = Q(params): the tower entries A_j(Theta)
for ``fit_weights``, the residuals sum_j w_j A_j(x^i) for ``solve_theta``.
This module evaluates the columns at a few fixed points of GF(p),
p = ``exact.MOD_P``: every parameter maps to ``exact.mod_p_residue(name)``
and x to a fixed residue x0.  Each coefficient is carried as a Taylor jet in
e = x - x0, and the tower is stepped with the closed form

    [L, sum_r b_r D^r] = sum_r ( -b_r'' D^r - 2 b_r' D^(r+1)
                                 - sum_{m>=1} C(r,m) b_r V^(m) D^(r-m) )

on jets.  Each step uses up two jet orders (b_r''), so jets start at length
2*top + 1 and A_top arrives as its value at x0.  Each point adds one row per
derivative order r: the values c_ir(x0).

Soundness.  Lift x0 to an integer X0, and let M be the matrix over K with a
row "coefficient of D^r at x = X0" for each point and each r.  Every solution
v of the system is in M's kernel.  M's entries lie in the local ring where
the map phi to GF(p) is defined: every denominator they have, a coefficient
denominator or a base of V or Theta at X0, has a nonzero image.  phi(M) is
the matrix of jet values, because the jets are computed by ring operations
from the images of the coefficients.  A nonzero n x n minor of phi(M) is phi
of an n x n minor of M, which is then nonzero, so M has full column rank and
the system's only solution is 0 (Schwartz 1980; Zippel 1979).

The certificate only ever proves "none exists".  A solution found, and any
system whose rows stay short of full rank, is left to the symbolic nullspace
and its exact re-verification.  The claim holds over K, that is for generic
parameter values, so such a verdict rests on no assumption.  No certificate
is given when an image is undefined: a relation-bearing parameter occurs, or
a denominator maps to 0 (see ``MPoly.evaluate_mod``).  A point where a base
of V or Theta vanishes at x0 is skipped.
"""

from __future__ import annotations

import itertools
import math

from .diffop import DiffOp, XRat, _mod_p_coeffs
from .exact import MOD_P


def _taylor(coeffs: list, x0: int, n: int) -> list:
    """The first n Taylor coefficients at x0 of the polynomial with ascending
    GF(MOD_P) coefficients ``coeffs`` (Horner's rule in x0 + e)."""
    out = [0] * n
    for c in reversed(coeffs):
        for i in range(n - 1, 0, -1):
            out[i] = (out[i] * x0 + out[i - 1]) % MOD_P
        out[0] = (out[0] * x0 + c) % MOD_P
    return out


def _mul(a: list, b: list, n: int) -> list:
    """The product of two jets, truncated to length n."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[:n - i]):
                out[i + j] += ai * bj
    return [c % MOD_P for c in out]


def _inverse(a: list, n: int) -> list:
    """1/a as a jet of length n; a[0] is nonzero."""
    inv = pow(a[0], -1, MOD_P)
    out = [inv] + [0] * (n - 1)
    for k in range(1, n):
        acc = sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        out[k] = -acc * inv % MOD_P
    return out


def _derivative(a: list) -> list:
    """The jet of f' from that of f, one order shorter."""
    return [i * a[i] % MOD_P for i in range(1, len(a))]


def _image(f: XRat):
    """f's numerator and (base, exponent) list as GF(MOD_P) coefficient lists,
    or None when an image is undefined."""
    num = _mod_p_coeffs(f.num)
    bases = [(_mod_p_coeffs(base), e) for base, e in f.factors]
    if num is None or any(base is None for base, _ in bases):
        return None
    return num, bases


def _jet(image, x0: int, n: int):
    """The first n Taylor coefficients at x0 of the rational function with
    ``image``, or None when one of its bases vanishes at x0."""
    num, bases = image
    out = _taylor(num, x0, n)
    for base, e in bases:
        t = _taylor(base, x0, n)
        if not t[0]:
            return None
        inv = _inverse(t, n)
        for _ in range(e):
            out = _mul(out, inv, n)
    return out


def _potential_jets(v_image, x0: int, n: int, m_top: int):
    """[V, V', ..., V^(m_top)] as jets of length n or more, or None when a
    base of V vanishes at x0."""
    jet = _jet(v_image, x0, n + m_top)
    if jet is None:
        return None
    out = [jet]
    for _ in range(m_top):
        out.append(_derivative(out[-1]))
    return out


def _tower(v: list, a: dict, n: int, steps: int) -> list:
    """Jets of A_0, ..., A_steps with A_{j+1} = [-D^2 + V, A_j].

    ``a`` maps each derivative order of A_0 to its jet of length n, and v[m]
    is the jet of V^(m).  A_j's jets have length n - 2*j.
    """
    tower = [a]
    for _ in range(steps):
        n -= 2
        out: dict = {}
        for r, b in a.items():
            db = _derivative(b)
            _add_scaled(out, r, -1, _derivative(db), n)
            _add_scaled(out, r + 1, -2, db, n)
            for m in range(1, r + 1):
                _add_scaled(out, r - m, -math.comb(r, m), _mul(b, v[m], n), n)
        a = {r: [c % MOD_P for c in jet] for r, jet in out.items()}
        tower.append(a)
    return tower


def _tower_at(v_image, a_images: dict, x0: int, top: int):
    """Jets at x0 of A_0, ..., A_top, where A_0's coefficient of D^r has image
    a_images[r]; None when a base of V or A_0 vanishes at x0."""
    n = 2 * top + 1
    v = _potential_jets(v_image, x0, n, max(a_images, default=0) + top)
    a = {r: _jet(img, x0, n) for r, img in a_images.items()}
    if v is None or any(jet is None for jet in a.values()):
        return None
    return _tower(v, a, n, top)


def _add_scaled(out: dict, r: int, c: int, jet: list, n: int) -> None:
    acc = out.setdefault(r, [0] * n)
    for i in range(n):
        acc[i] += c * jet[i]


def _rows(columns: list) -> list:
    """One row per derivative order: each column's coefficient value there."""
    orders = sorted(set().union(*columns))
    return [[col.get(r, 0) for col in columns] for r in orders]


def _full_rank(ncols: int, rows_at) -> bool:
    """True when the rows that ``rows_at(x0)`` gives at successive points reach
    rank ncols; False as soon as a point adds no rank.

    ``rows_at`` returns None at a point where a base vanishes, and that point
    is skipped.  The points t^65537 mod p are distinct for t = 2, 3, ..., and
    a monic base has finitely many roots, so the search ends.
    """
    pivots: dict = {}  # column -> row with 1 there and 0 at every earlier pivot
    for t in itertools.count(2):
        rows = rows_at(pow(t, 65537, MOD_P))
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
        v = _potential_jets(v_image, x0, n, top)
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
