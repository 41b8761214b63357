"""Named operator series: Virasoro, Chern character, W-algebra generators.

All series are organized as smeared partition families (see operators):

* virasoro:  L_n(c) = - sum_{l(lam)=2, |lam|=n} (1/lam^!) a_lam(tau2 c)
* chern:     G_k(c) = - sum_{l(lam)=k+2, |lam|=0} (1/lam^!) a_lam(tau c)
                      + sum_{l(lam)=k, |lam|=0} ((s(lam)-2)/(24 lam^!))
                        a_lam(tau(e*c))
             defined here only for K*c = 0.
* jay:       J^p_n(c) = p! * ( - sum_{l=p+1, |lam|=n} (1/lam^!) a_lam(tau c)
                      + sum_{l=p-1, |lam|=n} ((s(lam)+n^2-2)/(24 lam^!))
                        a_lam(tau(e*c)) )

with s(lam) the sum of squared parts and lam^! the multiplicity factorial.
J^0_n = -a_n, J^1_n = L_n, J^p_0 = p! G_{p-1}, and J^p_{-1} is -1 times
the p-th derivative of a_{-1} under the derivation operator.

The module also provides Fourier components of normally ordered powers of
the free field a(z) = sum a_n z^{-n-1} and its z-derivatives, the
structure polynomial omega(p,q,m,n) entering the W-algebra bracket, and
the abstract W-algebra with bracket

    [t^m f(D) c1, t^n g(D) c2] with f = D^p, g = D^q:
        p = q = 0:  m delta_{m,-n} trace(c1 c2) C   (trace = -integral)
        otherwise:  (qm - pn) t^{m+n} D^{p+q-1} (c1 c2)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

from .operators import Family, instantiate, quadratic_sum, series_to_smeared

Q = Fraction


# -- series families -------------------------------------------------------


def heis_families(n):
    """The single-mode series a_n as a family list."""
    return [Family(1, n, lambda parts, mf, ws: Q(1))]


def vir_families(n):
    return jay_families(1, n)


def jay_families(p, n):
    """Families of J^p_n; the empty partition never appears."""
    if p < 0:
        raise ValueError("negative W-algebra weight %d" % p)
    fams = [Family(p + 1, n,
                   lambda parts, mf, ws, p=p: Q(-factorial(p), mf))]
    if p - 1 >= 1:
        fams.append(Family(
            p - 1, n,
            lambda parts, mf, ws, p=p, n=n:
            Q(factorial(p) * (ws + n * n - 2), 24 * mf),
            epow=1))
    return fams


def chern_families(k):
    """Families of the k-th Chern character component G_k."""
    if k < 0:
        raise ValueError("negative Chern character index %d" % k)
    fams = [Family(k + 2, 0, lambda parts, mf, ws: Q(-1, mf))]
    if k >= 1:
        fams.append(Family(
            k, 0,
            lambda parts, mf, ws: Q(ws - 2, 24 * mf),
            epow=1))
    return fams


def apow_families(n, k):
    """Closed form of the k-th derivative of a_n (for K-trivial classes):

        (-n)^k k! ( sum_{l=k+1,|lam|=n} (1/lam^!) a_lam(tau c)
                  - sum_{l=k-1,|lam|=n} ((s(lam)-1)/(24 lam^!))
                    a_lam(tau(e*c)) ).
    """
    lead = Q((-n) ** k * factorial(k))
    fams = [Family(k + 1, n, lambda parts, mf, ws, lead=lead: lead / mf)]
    if k - 1 >= 1:
        fams.append(Family(
            k - 1, n,
            lambda parts, mf, ws, lead=lead: -lead * (ws - 1) / (24 * mf),
            epow=1))
    return fams


def shift_families(k, n, d):
    """The d-shifted family whose derivative closes with shift d:

        sum_{l=k+1,|lam|=n} (1/lam^!) a_lam(tau c)
        - sum_{l=k-1,|lam|=n} ((s(lam)+d)/(24 lam^!)) a_lam(tau(e*c)).
    """
    fams = [Family(k + 1, n, lambda parts, mf, ws: Q(1, mf))]
    if k - 1 >= 1:
        fams.append(Family(
            k - 1, n,
            lambda parts, mf, ws, d=d: Q(-(ws + d), 24 * mf),
            epow=1))
    return fams


def jay_smeared(p, n, poscap, negcap):
    return series_to_smeared(jay_families(p, n), poscap, negcap)


def chern_smeared(k, poscap, negcap):
    return series_to_smeared(chern_families(k), poscap, negcap)


# -- expanded operators ----------------------------------------------------


def virasoro(ring, n, elem, cutoff):
    """The Virasoro operator L_n(elem) on the window."""
    return quadratic_sum(ring, n, elem, cutoff)


def require_canonical_trivial(ring, elem):
    if not (ring.K * elem).is_zero():
        raise ValueError(
            "class %s has K * class != 0; the Chern character series is "
            "implemented only for classes killed by the canonical class"
            % elem.render())


def chern(ring, k, elem, cutoff):
    """The Chern character operator G_k(elem); needs K * elem = 0."""
    require_canonical_trivial(ring, elem)
    return instantiate(chern_smeared(k, cutoff, cutoff), ring, elem, cutoff)


def jay(ring, p, n, elem, cutoff):
    """The W-algebra generator J^p_n(elem) on the window."""
    return instantiate(jay_smeared(p, n, cutoff, cutoff), ring, elem, cutoff)


# -- Fourier components of free-field monomials ---------------------------


@dataclass(frozen=True)
class FourierSpec:
    """Mode component of :(d^r1 a)(d^r2 a)...: with one derivative order
    per factor; mode is the component index m."""

    orders: tuple
    mode: int


def deriv_coeff(r, i):
    """Coefficient of a_i inside the r-th z-derivative of the field:
    product of (-i - s) for s = 1..r."""
    out = Q(1)
    for s in range(1, r + 1):
        out *= Q(-i - s)
    return out


def perm_sum(parts, orders):
    """Sum over distinct orderings of the parts of the per-slot derivative
    coefficients; this is the smeared coefficient of a_lam inside the
    normally ordered product."""
    total = Q(0)
    seen = set()
    for p in permutations(parts):
        if p in seen:
            continue
        seen.add(p)
        term = Q(1)
        for r, i in zip(orders, p):
            if r:
                term *= deriv_coeff(r, i)
        total += term
    return total


def fourier_families(spec):
    """The normally ordered field monomial as a smeared family list.

    Arity zero is dropped, matching the empty-partition convention.
    """
    arity = len(spec.orders)
    if arity == 0:
        return []
    orders = tuple(spec.orders)
    return [Family(arity, spec.mode,
                   lambda parts, mf, ws, orders=orders:
                   perm_sum(parts, orders))]


def fourier(ring, spec, elem, cutoff):
    """Expanded Fourier component smeared against elem."""
    sm = series_to_smeared(fourier_families(spec), cutoff, cutoff)
    return instantiate(sm, ring, elem, cutoff)


def jay_field_families(p, m):
    """J^p_m via normally ordered field monomials:

        -1/(p+1) :a^{p+1}:_m (tau c)
        + p(m^2-3m-2p)/24 :a^{p-1}:_m (tau(e*c))
        + p(p-1)/24 :(d^2 a) a^{p-2}:_m (tau(e*c)).
    """
    fams = []
    for fam in fourier_families(FourierSpec((0,) * (p + 1), m)):
        fams.append(Family(fam.ell, fam.total,
                           lambda parts, mf, ws, f=fam.coeff, p=p:
                           -f(parts, mf, ws) / (p + 1)))
    if p >= 1:
        c2 = Q(p * (m * m - 3 * m - 2 * p), 24)
        if c2:
            for fam in fourier_families(FourierSpec((0,) * (p - 1), m)):
                fams.append(Family(fam.ell, fam.total,
                                   lambda parts, mf, ws, f=fam.coeff, c2=c2:
                                   c2 * f(parts, mf, ws),
                                   epow=1))
    if p >= 2:
        c3 = Q(p * (p - 1), 24)
        for fam in fourier_families(FourierSpec((2,) + (0,) * (p - 2), m)):
            fams.append(Family(fam.ell, fam.total,
                               lambda parts, mf, ws, f=fam.coeff, c3=c3:
                               c3 * f(parts, mf, ws),
                               epow=1))
    return fams


def jay_via_fields_smeared(p, m, poscap, negcap):
    return series_to_smeared(jay_field_families(p, m), poscap, negcap)


def jay_via_fields(ring, p, m, elem, cutoff):
    return instantiate(jay_via_fields_smeared(p, m, cutoff, cutoff),
                       ring, elem, cutoff)


# -- structure polynomial --------------------------------------------------


def omega(p, q, m, n):
    """The degree-six structure polynomial in the W-algebra bracket."""
    return (m * p**3 * n**2
            + 3 * m * p**2 * n**2 * q
            - p**2 * n * q
            + p**2 * q * n**3
            - 3 * m * p**2 * n**2
            + p * n * q
            + 3 * m**2 * p * n * q
            - 3 * m * p * n**2 * q
            - m**3 * q**2 * p
            - p * q * n**3
            - m * p * q
            + m**3 * p * q
            + m * p * q**2
            + 2 * m * p * n**2
            - 3 * m**2 * p * n * q**2
            - 2 * m**2 * n * q
            + 3 * m**2 * n * q**2
            - m**2 * n * q**3)


# -- abstract W-algebra ----------------------------------------------------


CENTRAL = ("C",)


def wterm(p, n, elem, c=Q(1)):
    """One-term abstract element c * t^n D^p (x) elem, linear in elem: one
    key ("L", p, n, i) per basis index i that elem touches."""
    if not c:
        return {}
    return {("L", p, n, i): c * v for i, v in elem.components()}


def wbracket(ring, x, y):
    """Bracket of two abstract elements over the given coefficient ring:
    basis products come from the sparse rows of ring.table, traces from
    the Gram matrix."""
    gram = ring.pairing_matrix()
    out = {}
    for kx, cx in x.items():
        if kx == CENTRAL:
            continue
        _, p, mm, i = kx
        for ky, cy in y.items():
            if ky == CENTRAL:
                continue
            _, q, nn, j = ky
            lin = q * mm - p * nn
            if p == 0 and q == 0:
                terms = ([(CENTRAL, -mm * gram[i][j])]
                         if mm == -nn and mm != 0 else [])
            elif lin:
                terms = [(("L", p + q - 1, mm + nn, k), lin * v)
                         for k, v in ring.table[i][j]]
            else:
                continue
            for k, c in terms:
                out[k] = out.get(k, Q(0)) + c * cx * cy
    return {k: v for k, v in out.items() if v}


def wparity(ring, x):
    """Koszul parity of a homogeneous abstract element."""
    pars = {0 if k == CENTRAL else ring.parity[k[3]] for k in x}
    if len(pars) > 1:
        raise ValueError("mixed-parity abstract element")
    return pars.pop() if pars else 0
