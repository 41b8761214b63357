"""Fock space over a surface ring.

A basis state is a product of creation factors applied to the vacuum,
stored as a tuple of (mode, class index) pairs with mode <= -1, sorted
ascending by (mode, index); the tuple order is the product order, so

    ((-2, H), (-1, 1))   means   a(-2;H) a(-1;1) |0>

Sorting two odd-class factors flips the sign; a repeated odd factor kills
the state.  The weight of a state is the total point count -sum(modes).
A vector is a plain {state: coeff} dict with no zero coefficients: a
finite combination of states of any weights.  Nothing truncates it, so
every image is exact; combine forms linear combinations of vectors.

Coefficients are exact: an int where the value is integral and nothing
forced a Fraction, a Fraction otherwise, never a float.  Both render the
same way (str(3) == str(Fraction(3))).

The bilinear pairing peels creation factors using the adjoint rule
a(-n;c)^dagger = (-1)^n a(n;c), with the Koszul sign of moving an odd
factor past the rest of the state, and is the ingredient for
intersection numbers downstream.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import factorial

from .partitions import enumerate_ordinary
from .ring import exact

Q = Fraction


def canonical_factors(factors, parity):
    """Sort (mode, index) factors, tracking Koszul signs.

    Returns (sorted tuple, sign), or (None, 0) when an odd-class factor
    repeats exactly.  parity maps class index to 0 or 1.
    """
    fs = list(factors)
    sign = 1
    for i in range(1, len(fs)):
        j = i
        while j > 0 and fs[j - 1] > fs[j]:
            if parity[fs[j - 1][1]] and parity[fs[j][1]]:
                sign = -sign
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            j -= 1
    for a, b in zip(fs, fs[1:]):
        if a == b and parity[a[1]]:
            return None, 0
    return tuple(fs), sign


def weight(state):
    """Number of points: minus the sum of the (negative) modes."""
    return -sum(m for m, _ in state)


def vacuum():
    """The vacuum |0>, the unit of H*(X^[0])."""
    return {(): 1}


def fundamental_class(n):
    """The unit of H*(X^[n]): (1/n!) a(-1;1)^n |0>."""
    if n < 0:
        raise ValueError("point count %d is negative" % n)
    return {((-1, 0),) * n: Q(1, factorial(n))}


def combine(*pieces):
    """The combination of (scalar, {state: coeff}) pieces, as a new dict
    without zero coefficients; a scalar is an int or a Fraction."""
    out = {}
    for c, terms in pieces:
        if type(c) is not int and type(c) is not Fraction:
            raise TypeError("scalar must be int or Fraction, not %s"
                            % type(c).__name__)
        if not c:
            continue
        for s, v in terms.items():
            v = out.get(s, 0) + c * v
            if v:
                out[s] = v
            else:
                out.pop(s, None)
    return out


def annihilate_state(ring, n, i, state):
    """Apply the annihilation mode a(n; basis i), n > 0, to one state.

    Returns (state, coefficient) pairs, one per distinct result; each
    matching creation factor contracts with coefficient -n *
    integral(b_i * b_j), read from a row cached on the ring, and the
    Koszul sign of moving a(n;b_i) past the earlier factors.  Equal
    factors sit side by side and give the same state with the same sign
    (an odd factor never repeats), so they are summed into one pair:
    a word that annihilates r of the k equal factors of a state then
    carries one state, not k!/(k-r)! copies of it.
    """
    key = ("contraction", n, i)
    row = ring._cache.get(key)
    if row is None:
        row = ring._cache[key] = tuple(exact(-n * g)
                                       for g in ring.pairing_matrix()[i])
    par = ring.parity
    pi = par[i]
    out = []
    sign = 1
    for t, (m, j) in enumerate(state):
        if m == -n and row[j]:
            if out and state[t - 1] == state[t]:
                out[-1] = (out[-1][0], out[-1][1] + sign * row[j])
            else:
                out.append((state[:t] + state[t + 1:], sign * row[j]))
        if pi and par[j]:
            sign = -sign
    return out


def create_state(ring, n, i, state):
    """Apply the creation mode a(-n; basis i), n > 0, to one canonical
    state: the factor is inserted in sorted position, passing the odd
    factors before it when b_i is odd.

    Returns (state, sign), or (None, 0) when an odd factor repeats.
    """
    f = (-n, i)
    pos = bisect_left(state, f)
    parity = ring.parity
    if not parity[i]:
        return state[:pos] + (f,) + state[pos:], 1
    if pos < len(state) and state[pos] == f:
        return None, 0
    odd = sum(parity[j] for _, j in state[:pos])
    return state[:pos] + (f,) + state[pos:], -1 if odd & 1 else 1


def basis_states(ring, w):
    """All canonical states of weight w, sorted."""
    if w == 0:
        return [()]
    out = []
    for parts, _, _ in enumerate_ordinary(w):
        blocks = [[tuple((-part, i) for i in ms)
                   for ms in _class_multisets(ring, parts.count(part))]
                  for part in sorted(set(parts), reverse=True)]
        stack = [()]
        for block in blocks:
            stack = [acc + b for acc in stack for b in block]
        out.extend(stack)
    out.sort()
    return out


def _class_multisets(ring, count):
    """Sorted index tuples of length count; odd classes never repeat."""
    def rec(start, k):
        if k == 0:
            yield ()
            return
        for i in range(start, ring.dim):
            nxt = i + 1 if ring.parity[i] else i
            for rest in rec(nxt, k - 1):
                yield (i,) + rest

    return list(rec(0, count))


def pairing(ring, u, v):
    """Bilinear pairing of two vectors over ring, an int when it is
    integral."""
    memo = ring._cache.setdefault("state_pairing", {})
    total = 0
    for s, cu in u.items():
        ws = weight(s)
        for t, cv in v.items():
            if weight(t) == ws:
                total += cu * cv * _pair_states(ring, s, t, memo)
    return exact(total)


def _pair_states(ring, s, t, memo):
    """The pairing of two basis states, an int when it is integral."""
    if not s:
        return 0 if t else 1
    key = (s, t)
    if key in memo:
        return memo[key]
    (m, i), rest = s[0], s[1:]
    total = 0
    for t2, c in annihilate_state(ring, -m, i, t):
        total += c * _pair_states(ring, rest, t2, memo)
    # (-1)^m from the adjoint, and the Koszul sign of moving an odd
    # a(m;b_i) past the odd factors of the rest of the state.
    odd = m + (ring.parity[i] and sum(ring.parity[j] for _, j in rest))
    total = memo[key] = exact(-total if odd % 2 else total)
    return total


# -- rendering and serialization ------------------------------------------


def render_state(state, ring):
    parts = ["a(%d;%s)" % (m, ring.basis_names[i]) for m, i in state]
    parts.append("|0>")
    return " ".join(parts)


def render_terms(terms, ring):
    """A {state: coeff} dict as text, states in sorted order."""
    if not terms:
        return "0"
    return " + ".join("%s * %s" % (terms[s], render_state(s, ring))
                      for s in sorted(terms))


def vector_records(terms, ring):
    """JSON-ready records of a {state: coeff} dict, one per state, in
    sorted order."""
    names = ring.basis_names
    return [{"coeff": str(terms[s]), "factors": [[m, names[i]] for m, i in s]}
            for s in sorted(terms)]
