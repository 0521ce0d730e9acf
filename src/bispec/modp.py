"""Images of ad towers mod p: rank certificates that ``fit_weights`` or
``solve_theta`` has no solution, the kernel that ``solve_theta`` lifts to
its basis otherwise, and witnesses that a condition fails, all without
building the symbolic ad tower.

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
``theta_kernel`` takes Theta = x^d for d = 1, 2, ..., each psi_a from the last
by one product with x.  A matrix tower is ``matrixop.mat_ad_tower`` itself,
run on operators whose coefficients are k x k matrices of jets
(``matrixop.JetCoeff``): ``diffop.compose`` expands [L, A] = L A - A L by the
Leibniz rule, and each step uses up ord L jet orders.

Rank certificates.  ``no_weights`` and ``theta_kernel`` solve a linear system
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
at the same points as the rows of the values c_ir(x0) themselves.  One
elimination gives rho(M)'s kernel in reduced echelon form (``_kernel``); it
is empty exactly when the rows reach full rank.

Lifting ``solve_theta``'s kernel.  A kernel that is not empty is the first
point of a lift (``lift_kernel``), when V and the weights hold at most one
parameter k and it has no relation.  The lift calls ``theta_kernel`` again
with k at further values r (``at``, passed down to ``MPoly.x_images_mod``),
skipping a value where an image is undefined or whose free columns differ.
Only the fixed point is memoised: at r each image, and the list of r's
powers, is made for the call, so the image memoised on each base and the
registry's tables of powers stay those of the residue of k.  Each entry is
fitted as a rational function of k over GF(p) until one more value agrees,
each vector is cleared of its denominators, and each coefficient is read
back in Q by rational reconstruction (Wang 1981).  With no parameter, the
reconstruction is all.  The caller proves each lifted Theta by expansion.
The lift needs no proof of its own.  The system's nullity over K is at most
M's, and M's is at most rho(M)'s, since a nonzero minor of rho(M) lifts to
one of M.  So when as many lifted vectors as rho(M)'s kernel has all pass
the expansion, they span the system's solutions.  Each holds 1 at its own
free column, 0 at the other free columns and 0 past its free column, so they
are the reduced echelon basis of those solutions, which ``exact.nullspace``
scales the same way, and the same Theta are printed.  Otherwise the lift is
dropped and the symbolic nullspace runs: a wrong lift costs time, never a
verdict.

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
from .exact import (MOD_P, PARAMS, Rat, _image_divmod, _image_gcd, _trim, mod_p_residue,
                    primitive_vector)


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


def _image(f: XRat, at=None):
    """The images of f's numerator and of its denominator, the product of its
    bases to their exponents, as GF(MOD_P) coefficient lists, at the point of
    ``MPoly.x_images_mod(at)``; None when an image is undefined."""
    if f.is_zero():
        return [], [1]
    num = _mod_p_coeffs(f.num, at)
    if num is None:
        return None
    den = [1]
    for base, e in f.factors:
        b = _mod_p_coeffs(base, at)
        if b is None:
            return None
        for _ in range(e):
            den = _mul(den, b)
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


def _reduced_rows(v_image, theta_image, powers: list, horners: list, rank: int) -> dict:
    """The ``_kernel`` of the rows of the ``_columns`` at successive points,
    one per derivative order, each reduced as it comes: column -> the row
    with 1 there and 0 at every earlier pivot column.  Stops at ``rank``
    pivots, or as soon as a point adds no rank.  A point where a base
    vanishes is skipped."""
    pivots: dict = {}
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
        if len(pivots) in (rank, before):
            return _kernel(pivots, len(powers) * len(horners))


def _kernel(pivots: dict, ncols: int) -> dict:
    """The kernel of the reduced rows ``pivots`` in reduced echelon form: free
    column f -> the vector with 1 at f, 0 at every other free column, and
    minus the entry at f of the fully reduced row of each pivot column (0
    at the pivot columns past f).  Empty at full column rank."""
    free = [f for f in range(ncols) if f not in pivots]
    if not free:
        return {}
    done = {}  # pivot column -> its row, 0 at every other pivot column
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for c, prow in done.items():
            if row[c]:
                k = row[c]
                row = [(x - k * y) % MOD_P for x, y in zip(row, prow)]
        done[col] = row
    kernel = {}
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for col, row in done.items():
            vec[col] = -row[f] % MOD_P
        kernel[f] = vec
    return kernel


# -- polynomials over GF(MOD_P), ascending coefficient lists --

def _mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for k, bk in enumerate(b, i):
            out[k] += ai * bk
    return [c % MOD_P for c in out]


def _sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(x - y) % MOD_P for x, y in zip(a, b)])


def _lcm(a: list, b: list) -> list:
    """The monic lcm of two nonzero polynomials."""
    lcm = _mul(a, _image_divmod(b, _image_gcd(a, b))[0])
    inv = pow(lcm[-1], -1, MOD_P)
    return [c * inv % MOD_P for c in lcm]


def _rational_fit(ks: list, ys: list):
    """(r, t) with r(k) = y t(k) at every pair of ``ks`` and ``ys``
    but the last, and agreeing at the last with t nonzero there; None when no
    candidate does.  The candidates are the pairs of the extended Euclidean
    algorithm on prod (k - k_i) and the Newton interpolant of those points,
    each with deg r + deg t below their number (Cauchy interpolation), tried
    from the interpolant itself (t = 1) down."""
    poly, basis = [], [1]  # the interpolant and prod (k - k_i) so far
    for k, y in zip(ks[:-1], ys):
        c = (y - _taylor(poly, k, 1)[0]) * pow(_taylor(basis, k, 1)[0], -1, MOD_P) % MOD_P
        poly = _sub(poly, _mul([MOD_P - c], basis))
        basis = _mul(basis, [MOD_P - k, 1])
    k, y = ks[-1], ys[-1]
    r0, r1, t0, t1 = basis, poly, [], [1]
    while True:
        t = _taylor(t1, k, 1)[0]
        if t and _taylor(r1, k, 1)[0] == y * t % MOD_P:
            return r1, t1
        if not r1:
            return None
        q, rem = _image_divmod(r0, r1)
        r0, r1, t0, t1 = r1, rem, t1, _sub(t0, _mul(q, t1))


_WANG_BOUND = math.isqrt(MOD_P // 2)


def _rational(a: int):
    """The Rat n/d with n = a d mod p and |n|, d <= sqrt(p/2), the only one
    (Wang 1981); None when there is none."""
    r0, r1, s0, s1 = MOD_P, a, 0, 1
    while r1 > _WANG_BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > _WANG_BOUND or math.gcd(r1, s1) != 1:
        return None
    return Rat(r1, s1)


def no_weights(op: DiffOp, theta, orders: list) -> bool:
    """True when a rank certificate mod p proves that no nonzero weights on
    ``orders`` (distinct, >= 0) give sum_j w_j ad op^j(theta) = 0 for the
    function theta; False means undecided.  Raises ExactError when op is not
    -D^2 + V."""
    v_image = _image(op.potential())
    theta_image = _image(as_function(theta))
    if v_image is None or theta_image is None:
        return False
    horners = [_horner([(j, 1)]) for j in orders]
    return not _reduced_rows(v_image, theta_image, [1], horners, len(orders))


def theta_kernel(op: DiffOp, w, degrees: list, at=None, rank=None):
    """The kernel mod p of ``solve_theta``'s system: for Theta spanned by the
    monomials x^i, i in ``degrees``, and the WeightVector w, the vectors of
    ``_kernel`` over the columns sum_j w_j ad op^j(x^i), at the fixed point
    or at the point of ``MPoly.x_images_mod(at)``.  The rows stop at
    ``rank`` pivots, by default one per column.  Empty when that is a rank
    certificate: no nonzero Theta gives sum_j w_j ad op^j(Theta) = 0.  None
    when an image is undefined.  Raises ExactError when op is not -D^2 + V."""
    v_image = _image(op.potential(), at)
    weights = [(j, c.evaluate_mod(at)) for j, c in w.items()]
    if v_image is None or any(c is None for _, c in weights):
        return None
    return _reduced_rows(v_image, ([0, 1], [1]), degrees, [_horner(weights)],
                         len(degrees) if rank is None else rank)


def _fit_bound(v: XRat, w, name: str, rank: int) -> int:
    """How many values of k the fit in ``lift_kernel`` can need, for rank
    pivots: 2 rank E + 2, with E a bound on the k-degree of the entries of
    solve_theta's system cleared of denominators.

    Give V^(m) the weight m + 2 and D the weight 1.  Then ad L raises the
    weight by 2, so the coefficient of D^r in ad^j(x^i) is a sum of products
    of derivatives V^(m_s) with sum_s (m_s + 1) <= 2j.  For V = N/Q over
    Q[k][x], V^(m) is N_m / Q^(m+1) with deg_k N_m <= (m + 1) d, d the larger
    of deg_k N and deg_k Q; so over Q^(2 top), and over the weights' common
    denominator, every entry has k-degree at most E = 2 top d plus the
    weights' degrees.  An entry of the reduced echelon form is a ratio of
    two minors of order rank (Cramer), each of k-degree at most rank E, and
    a rational function of degrees a and b is fitted from a + b + 1 values
    and checked at one more.
    """
    num = v.num.num.degree(name) + sum(e * b.den.degree(name) for b, e in v.factors)
    den = v.num.den.degree(name) + sum(e * b.num.degree(name) for b, e in v.factors)
    e = 2 * w.top_order * max(num, den, 0) + sum(
        max(c.num.degree(name), c.den.degree(name)) for _, c in w.items())
    return 2 * rank * e + 2


def lift_kernel(op: DiffOp, w, degrees: list, kernel: dict):
    """Vectors over Q(k) whose images at the fixed point are those of
    ``kernel``, ``theta_kernel(op, w, degrees)`` and not empty, one for each,
    when V and w hold at most one parameter k: entry i is the coefficient of
    x^(degrees[i]), and each vector is scaled as ``exact.nullspace`` scales
    its own (``exact.primitive_vector``).  None when V and w hold two
    parameters or more, or when the lift fails.

    Each entry is fitted as a rational function of k over GF(p) from its
    values at successive values of k (``_rational_fit``), until one more
    value agrees; each value is one call of ``theta_kernel`` with k there,
    and a value where an image is undefined, or whose kernel has other free
    columns, is skipped.  Then each vector is cleared of its denominators
    over GF(p), and each coefficient is read back in Q (``_rational``).  The
    values tried are capped at twice ``_fit_bound``: a value is skipped only
    at a root of one of finitely many nonzero polynomials (a denominator, or
    a minor that decides a pivot).  Nothing proves the result; the caller
    does.
    """
    v = op.potential()
    names = _names([v], [c for _, c in w.items()])
    if len(names) > 1:
        return None
    name = names.pop() if names else None
    ncols = len(degrees)
    entries = [(f, c) for f in kernel for c in range(ncols) if c not in kernel]
    if name is None:
        fits = {(f, c): ([kernel[f][c]], [1]) for f, c in entries}
    else:
        ks, samples, fits = [mod_p_residue(name)], [kernel], {}
        shift, rank = PARAMS.shift(name), ncols - len(kernel)
        for r in itertools.islice(_points(), 2 * _fit_bound(v, w, name, rank)):
            if len(fits) == len(entries):
                break
            if r == ks[0]:
                continue
            sample = theta_kernel(op, w, degrees, {shift: r}, rank)
            if sample is None or sample.keys() != kernel.keys():
                continue
            ks.append(r)
            samples.append(sample)
            for f, c in entries:
                if (f, c) not in fits:
                    fit = _rational_fit(ks, [s[f][c] for s in samples])
                    if fit is not None:
                        fits[f, c] = fit
        if len(fits) < len(entries):
            return None
    vectors = []
    for f in kernel:
        den = [1]
        for c in range(ncols):
            if c not in kernel:
                den = _lcm(den, fits[f, c][1])
        polys = [den if c == f else [] if c in kernel
                 else _mul(fits[f, c][0], _image_divmod(den, fits[f, c][1])[0])
                 for c in range(ncols)]
        coeffs = [[_rational(a) for a in p] for p in polys]
        if any(q is None for p in coeffs for q in p):
            return None
        vectors.append(primitive_vector(coeffs, f, name))
    return vectors


def _names(rats, scalars) -> set:
    """The parameters of the XRats ``rats`` and ParamScalars ``scalars``."""
    names = set()
    for f in rats:
        for p in (f.num, *(base for base, _ in f.factors)):
            if not p.is_parameter_free():
                names |= p.num.params() | p.den.params()
    for c in scalars:
        names |= c.params()
    names.discard("x")
    return names


def _witness(x0: int, rats, scalars, **found) -> dict:
    """The point of a refutation: the prime, x0 and the residue of every
    parameter in ``rats`` (XRats) and ``scalars`` (ParamScalars), then
    ``found``, the place and value of the nonzero image."""
    return {"prime": MOD_P, "x0": x0,
            "parameters": {name: mod_p_residue(name) for name in sorted(_names(rats, scalars))},
            **found}


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
