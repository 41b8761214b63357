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

virasoro, chern and jay keep their series in a per-ring LRU memo of at
most _NAMED_CAP (32) entries, keyed by name, indices and class
coefficients, so a repeat reuses the words and columns already expanded.

Each family keeps the operators.Family contract: an integer numerator
num(parts, lam^!, s(lam)) over one integer family denominator den, so
the smeared calculus divides once per output key.  A coefficient
w(s(lam)) / (d lam^!) becomes num = w(s(lam)) * (l! // lam^!) over
den = d * l! (mult_family), and scaled_families multiplies numerators
and denominators by integers.

The module also provides Fourier components of normally ordered powers of
the free field a(z) = sum a_n z^{-n-1} and its z-derivatives, named by
their derivative orders, one per factor, and their mode m, the
structure polynomial omega(p,q,m,n) entering the W-algebra bracket, and
the abstract W-algebra with bracket

    [t^m f(D) c1, t^n g(D) c2] with f = D^p, g = D^q:
        p = q = 0:  m delta_{m,-n} trace(c1 c2) C   (trace = -integral)
        otherwise:  (qm - pn) t^{m+n} D^{p+q-1} (c1 c2)
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cache
from math import factorial

from .operators import (Family, quadratic_sum, series_to_smeared,
                        smeared_series)


# -- series families -------------------------------------------------------


def mult_family(ell, total, weight, den=1, epow=0):
    """The family weight(s(lam)) / (den lam^!) over partitions of length
    ell and size total, for an integer-valued weight: numerator
    weight(s(lam)) * (ell! // lam^!) over the family denominator
    den * ell!."""
    f = factorial(ell)
    return Family(ell, total, lambda parts, mf, ws: weight(ws) * (f // mf),
                  den * f, epow=epow)


def scaled_families(fams, c, den=1, epow=None):
    """c / den times each family, for ints c and den, with the Euler power
    replaced by epow if given."""
    return [Family(f.ell, f.total,
                   lambda parts, mf, ws, num=f.num: c * num(parts, mf, ws),
                   f.den * den, f.epow if epow is None else epow)
            for f in fams]


def heis_families(n):
    """The single-mode series a_n as a family list."""
    return [Family(1, n, lambda parts, mf, ws: 1)]


@cache
def jay_families(p, n):
    """Families of J^p_n, as a tuple built once per (p, n) and shared by
    every caller for the life of the process, so that their contraction
    tables (Family.survivors) are built once; the empty partition never
    appears.  A caller that adds a family builds a new list."""
    if p < 0:
        raise ValueError("negative W-algebra weight %d" % p)
    fp = factorial(p)
    fams = (mult_family(p + 1, n, lambda ws: -fp),)
    if p - 1 >= 1:
        fams += (mult_family(p - 1, n, lambda ws: fp * (ws + n * n - 2),
                             24, epow=1),)
    return fams


def chern_families(k):
    """Families of the k-th Chern character component G_k."""
    if k < 0:
        raise ValueError("negative Chern character index %d" % k)
    fams = [mult_family(k + 2, 0, lambda ws: -1)]
    if k >= 1:
        fams.append(mult_family(k, 0, lambda ws: ws - 2, 24, epow=1))
    return fams


def apow_families(n, k):
    """Closed form of the k-th derivative of a_n (for K-trivial classes):

        (-n)^k k! ( sum_{l=k+1,|lam|=n} (1/lam^!) a_lam(tau c)
                  - sum_{l=k-1,|lam|=n} ((s(lam)-1)/(24 lam^!))
                    a_lam(tau(e*c)) ).
    """
    lead = (-n) ** k * factorial(k)
    fams = [mult_family(k + 1, n, lambda ws: lead)]
    if k - 1 >= 1:
        fams.append(mult_family(k - 1, n, lambda ws: -lead * (ws - 1),
                                24, epow=1))
    return fams


def shift_families(k, n, d):
    """The d-shifted family whose derivative closes with shift d:

        sum_{l=k+1,|lam|=n} (1/lam^!) a_lam(tau c)
        - sum_{l=k-1,|lam|=n} ((s(lam)+d)/(24 lam^!)) a_lam(tau(e*c)).
    """
    fams = [mult_family(k + 1, n, lambda ws: 1)]
    if k - 1 >= 1:
        fams.append(mult_family(k - 1, n, lambda ws: -(ws + d), 24, epow=1))
    return fams


# -- expanded operators ----------------------------------------------------


def family_series(ring, families, elem):
    """The expanded series of a family list against elem: its terms that
    annihilate at most w points create at most w - (smallest size)."""
    low = min((f.total for f in families), default=0)
    return smeared_series(
        ring, lambda w: series_to_smeared(families, w, w - low), elem)


_NAMED_CAP = 32


def _named(ring, key, build):
    """The series build() under key in the ring's LRU memo, shared safely:
    a series' words never change once expanded and its columns are
    exact.  A build that raises stores nothing."""
    memo = ring._cache.setdefault("named", OrderedDict())
    op = memo.pop(key, None) or build()
    memo[key] = op
    if len(memo) > _NAMED_CAP:
        memo.popitem(last=False)
    return op


def virasoro(ring, n, elem):
    """The Virasoro operator L_n(elem)."""
    return _named(ring, ("L", n, elem.coeffs),
                  lambda: quadratic_sum(ring, n, elem))


def require_canonical_trivial(ring, elem):
    if not (ring.K * elem).is_zero():
        raise ValueError(
            "class %s has K * class != 0; the Chern character series is "
            "implemented only for classes killed by the canonical class"
            % elem.render())


def chern(ring, k, elem):
    """The Chern character operator G_k(elem); needs K * elem = 0."""
    require_canonical_trivial(ring, elem)
    return _named(ring, ("G", k, elem.coeffs),
                  lambda: family_series(ring, chern_families(k), elem))


def jay(ring, p, n, elem):
    """The W-algebra generator J^p_n(elem)."""
    return _named(ring, ("J", p, n, elem.coeffs),
                  lambda: family_series(ring, jay_families(p, n), elem))


# -- Fourier components of free-field monomials ---------------------------


def deriv_coeff(r, i):
    """Coefficient of a_i inside the r-th z-derivative of the field:
    product of (-i - s) for s = 1..r."""
    out = 1
    for s in range(1, r + 1):
        out *= -i - s
    return out


def _set_partitions(items):
    """Every set partition of a list, as lists of blocks."""
    if not items:
        yield []
        return
    first = items[0]
    for rest in _set_partitions(items[1:]):
        yield [[first]] + rest
        for k, block in enumerate(rest):
            yield rest[:k] + [[first] + block] + rest[k + 1:]


def _perm_plan(orders):
    """perm_sum's plan for one order tuple: ((n - d)!, the distinct
    blocks, each as the sorted orders of its slots, and the Moebius
    terms (weight, block indices), one per set partition of the d
    derived slots)."""
    derived = [r for r in orders if r]
    blocks, index, terms = [], {}, []
    for partition in _set_partitions(list(range(len(derived)))):
        weight, row = 1, []
        for block in partition:
            weight *= (-1) ** (len(block) - 1) * factorial(len(block) - 1)
            key = tuple(sorted(derived[s] for s in block))
            if key not in index:
                index[key] = len(blocks)
                blocks.append(key)
            row.append(index[key])
        terms.append((weight, row))
    return factorial(len(orders) - len(derived)), blocks, terms


def perm_sum(parts, orders, plan=None):
    """Sum over distinct orderings of the parts of the per-slot derivative
    coefficients; this is the smeared coefficient of a_lam inside the
    normally ordered product.

    Only the d derived slots (nonzero orders) carry a coefficient c =
    deriv_coeff, so the sum is (n - d)! / lam^! times the sum I, over
    injective maps of the derived slots into the n positions, of
    prod_s c(r_s, part).  Moebius inversion over the set partitions pi
    of the derived slots turns I into power sums over the parts:

        I = sum_pi prod_{B in pi} (-1)^(|B|-1) (|B|-1)! P_B,
        P_B = sum_i m_i prod_{s in B} c(r_s, i),

    over the distinct parts i with multiplicity m_i.  The division by
    lam^! is exact.  A family passes its plan, _perm_plan(orders), so
    that it is not rebuilt per partition.
    """
    rest, blocks, terms = plan or _perm_plan(orders)
    sums = [0] * len(blocks)
    lam = 1
    for i in set(parts):
        m = parts.count(i)
        lam *= factorial(m)
        for b, rs in enumerate(blocks):
            g = m
            for r in rs:
                g *= deriv_coeff(r, i)
            sums[b] += g
    total = 0
    for weight, row in terms:
        for b in row:
            weight *= sums[b]
        total += weight
    return rest * total // lam


def fourier_families(orders, mode):
    """The mode component of the normally ordered field monomial
    :(d^r1 a)(d^r2 a)...:, one derivative order r per factor, as a
    smeared family list.

    Arity zero is dropped, matching the empty-partition convention.
    """
    if not orders:
        return []
    plan = _perm_plan(orders)
    return [Family(len(orders), mode,
                   lambda parts, mf, ws: perm_sum(parts, orders, plan))]


def fourier(ring, orders, mode, elem):
    """Expanded Fourier component smeared against elem."""
    return family_series(ring, fourier_families(orders, mode), elem)


def jay_field_families(p, m):
    """J^p_m via normally ordered field monomials:

        -1/(p+1) :a^{p+1}:_m (tau c)
        + p(m^2-3m-2p)/24 :a^{p-1}:_m (tau(e*c))
        + p(p-1)/24 :(d^2 a) a^{p-2}:_m (tau(e*c)).
    """
    fams = scaled_families(fourier_families((0,) * (p + 1), m), -1, p + 1)
    if p >= 1:
        c2 = p * (m * m - 3 * m - 2 * p)
        if c2:
            fams += scaled_families(fourier_families((0,) * (p - 1), m), c2,
                                    24, epow=1)
    if p >= 2:
        fams += scaled_families(
            fourier_families((2,) + (0,) * (p - 2), m),
            p * (p - 1), 24, epow=1)
    return fams


def jay_via_fields(ring, p, m, elem):
    return family_series(ring, jay_field_families(p, m), elem)


# -- structure polynomial --------------------------------------------------


def omega(p, q, m, n):
    """The degree-six structure polynomial in the W-algebra bracket,
    defined for W-weights p, q >= 0."""
    if p < 0 or q < 0:
        raise ValueError("omega needs W-weights p, q >= 0, got p=%d, q=%d"
                         % (p, q))
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


def wterm(p, n, elem, c=1):
    """One-term abstract element c * t^n D^p (x) elem, linear in elem: one
    key ("L", p, n, i) per basis index i that elem touches."""
    if not c:
        return {}
    return {("L", p, n, i): c * v for i, v in elem.components()}


def wbracket(ring, x, y):
    """Bracket of two abstract elements over the given coefficient ring:
    basis products come from the sparse rows of ring.table, traces from
    the Gram matrix.  The values keep the type of the inputs' and the
    ring's coefficients: int inputs on a ring with an integral table
    give int values."""
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
                out[k] = out.get(k, 0) + c * cx * cy
    return {k: v for k, v in out.items() if v}


def wparity(ring, x):
    """Koszul parity of a homogeneous abstract element."""
    pars = {0 if k == CENTRAL else ring.parity[k[3]] for k in x}
    if len(pars) > 1:
        raise ValueError("mixed-parity abstract element")
    return pars.pop() if pars else 0
