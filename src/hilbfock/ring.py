"""Frobenius models of the cohomology ring of a projective surface.

A SurfaceRing is a finite graded super-commutative algebra over Q with
degrees in {0,...,4}, a one-dimensional top piece, an integration
functional supported in top degree, and two distinguished classes: the
canonical class K in degree 2 and the Euler class e in degree 4 with
e*e = 0 and integral the Euler number sum_i (-1)^{deg b_i}.  The
intersection pairing (a, b) -> integrate(a*b) must be
nondegenerate.

Validation checks associativity only on the triples of non-unit basis
classes of total degree at most 4.  It runs after the unit law,
super-commutativity and homogeneity have passed, so a triple with the
unit has the same product on both sides, and a triple of degree above 4
has both sides in a degree with no class, hence 0.

The multiplication table is sparse and exact: table[i][j] is the product
of basis classes i and j as a tuple of (k, coeff) pairs sorted by k, with
zero coefficients dropped and each coefficient an int, or a Fraction when
it is not integral.  Validation, the Gram matrix and tau read the table
directly.

The module also computes the diagonal pushforwards tau_k, the adjoints of
the k-fold cup product.  With G the Gram matrix and b^s = sum_r
G^-1[s][r] b_r the dual basis (integrate(b^s b_t) = delta_st),

    tau2(b_i) = sum_s sum_{(q, c) in b_i b_s} (-1)^{|s||q|} c b^s (x) b_q,

which satisfies integrate_slots((b (x) c) * tau2(a)) = integrate(b*c*a)
with Koszul signs from moving classes past tensor factors, and
tau_k(b_i) = sum c tau_{k-1}(b_p) (x) b_q over the terms c b_p (x) b_q of
tau2(b_i).  Each tau_k(b_i) is one read-only {index tuple: coeff} table,
built once per (arity, basis class); tau_k is linear, so the tau of any
class is the combination of these tables.  These smearing tensors
are what the Fock-space operators consume.

Built-in models: the projective plane, the quadric (product of two
projective lines), a K3 model with eleven hyperbolic blocks in the middle
cohomology, and an abelian (exterior-algebra) model with odd classes.
"""

from __future__ import annotations

import json
from functools import cache
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType

from .linalg import LinAlgError, mat_inv

Q = Fraction
_EXACT = (int, Fraction)


class RingError(Exception):
    """Raised for invalid ring configurations or misuse."""


def exact(c):
    """c as an int when it is an integral Fraction, else c unchanged."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def ratio(n, d):
    """n / d exactly, for an int or Fraction n and a nonzero int d: an
    int when the quotient is integral, else a Fraction, never a float."""
    if type(n) is int:
        q, r = divmod(n, d)
        if not r:
            return q
    return exact(Fraction(n, d))


def _sparse_mul(table, x, y):
    """x * y as {k: coeff} with zeros dropped; x and y are sequences of
    (basis index, coeff) pairs."""
    out = {}
    for i, a in x:
        ti = table[i]
        for j, b in y:
            c = a * b
            for k, v in ti[j]:
                out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


class RingElem:
    """Element of a SurfaceRing, stored densely in the chosen basis.

    Coefficients are int or Fraction; anything else is converted to a
    Fraction.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(c if type(c) in _EXACT else Q(c) for c in coeffs)

    def __add__(self, other):
        self._check(other)
        return RingElem(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return RingElem(self.ring, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return RingElem(self.ring, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, RingElem):
            self._check(other)
            return self.ring.multiply(self, other)
        return RingElem(self.ring, [a * Q(other) for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, RingElem) and self.ring is other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __repr__(self):
        return "RingElem(%s)" % (self.render(),)

    def _check(self, other):
        if self.ring is not other.ring:
            raise RingError("elements belong to different rings")

    def is_zero(self):
        return not any(self.coeffs)

    def components(self):
        """Nonzero (basis index, coefficient) pairs."""
        return [(i, c) for i, c in enumerate(self.coeffs) if c]

    def degree(self):
        """Common degree of the nonzero components, or None if mixed/zero."""
        degs = {self.ring.degrees[i] for i, _ in self.components()}
        if len(degs) == 1:
            return degs.pop()
        return None

    def parity(self):
        """0 or 1 when all components share one parity; error otherwise."""
        pars = {self.ring.degrees[i] % 2 for i, _ in self.components()}
        if not pars:
            return 0
        if len(pars) > 1:
            raise RingError("mixed-parity class has no Koszul parity")
        return pars.pop()

    def render(self):
        parts = []
        for i, c in self.components():
            name = self.ring.basis_names[i]
            parts.append("%s*%s" % (c, name))
        return " + ".join(parts) if parts else "0"


class SurfaceRing:
    """Graded Frobenius algebra model of H*(X) for a surface X."""

    def __init__(self, name, basis_names, degrees, products, integral,
                 canonical, euler, validate=True):
        self.name = name
        self.basis_names = list(basis_names)
        self.dim = len(self.basis_names)
        self.degrees = tuple(int(d) for d in degrees)
        self.parity = tuple(d % 2 for d in self.degrees)
        self.index = {n: i for i, n in enumerate(self.basis_names)}
        if len(self.index) != self.dim:
            raise RingError("duplicate basis names")
        # sparse multiplication table: table[i][j] holds (k, coeff) pairs;
        # b_0 b_i = b_i b_0 = b_i unless products lists the pair
        self.table = [[()] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            self.table[0][i] = self.table[i][0] = ((i, 1),)
        for (i, j), comp in products.items():
            pairs = ((k, exact(Q(c))) for k, c in sorted(comp.items()))
            self.table[i][j] = tuple((k, c) for k, c in pairs if c)
        self.integral_vec = tuple(exact(Q(integral.get(i, 0)))
                                  for i in range(self.dim))
        self.unit = self.basis(0)
        self.K = self._vector(canonical)
        self.e = self._vector(euler)
        self._cache = {}
        # The Fock state index, append-only and never cleared with
        # _cache, its states sharing one tuple per factor (_factors).
        self.states = []
        self.state_ids = {}
        self._factors = {}
        self._pairing = None
        self._pairing_inv = None
        if validate:
            self.validate()

    def state_id(self, state):
        """The number of a Fock basis state, given on its first sight."""
        n = self.state_ids.get(state)
        if n is None:
            factors = self._factors
            state = tuple([factors.setdefault(f, f) for f in state])
            n = self.state_ids[state] = len(self.states)
            self.states.append(state)
        return n

    def vector(self, col):
        """A {state number: coeff} column as a {state: coeff} vector."""
        return {self.states[n]: c for n, c in col.items()}

    # -- basic algebra ----------------------------------------------------

    def _vector(self, comp):
        """Element from {basis index: coefficient}."""
        out = [0] * self.dim
        for i, c in comp.items():
            out[i] = exact(Q(c))
        return RingElem(self, out)

    def basis(self, i):
        if isinstance(i, str):
            i = self.index[i]
        return RingElem(self, [int(j == i) for j in range(self.dim)])

    def elem(self, spec):
        """Build an element from {basis name: coefficient}."""
        return self._vector({self.index[name]: c for name, c in spec.items()})

    def multiply(self, a, b):
        out = [0] * self.dim
        for k, v in _sparse_mul(self.table, a.components(),
                                b.components()).items():
            out[k] = v
        return RingElem(self, out)

    def integrate(self, a):
        """The integral of a, an int when it is integral."""
        return exact(sum(c * self.integral_vec[i] for i, c in a.components()))

    def pairing_matrix(self):
        if self._pairing is None:
            iv = self.integral_vec
            self._pairing = [[exact(sum(c * iv[k] for k, c in prod))
                              for prod in row] for row in self.table]
        return self._pairing

    def _pairing_inverse(self):
        if self._pairing_inv is None:
            try:
                self._pairing_inv = mat_inv(self.pairing_matrix())
            except LinAlgError:
                raise RingError("intersection pairing is degenerate")
        return self._pairing_inv

    # -- validation -------------------------------------------------------

    def validate(self):
        if not self.dim:
            raise RingError("the basis is empty")
        errors = []
        for i, d in enumerate(self.degrees):
            if d not in (0, 1, 2, 3, 4):
                errors.append("basis %r has degree %d outside 0..4"
                              % (self.basis_names[i], d))
        top = [i for i, d in enumerate(self.degrees) if d == 4]
        if len(top) != 1:
            errors.append("top degree piece must be one-dimensional, found %d"
                          % len(top))
        if self.degrees[0] != 0:
            errors.append("basis element 0 must be the unit in degree 0")
        for i, c in enumerate(self.integral_vec):
            if self.degrees[i] != 4 and c:
                errors.append("integral does not vanish on %r of degree %d"
                              % (self.basis_names[i], self.degrees[i]))
            if self.degrees[i] == 4 and not c:
                errors.append("integral vanishes on the top class %r"
                              % self.basis_names[i])
        names = self.basis_names
        table = self.table
        for i in range(self.dim):
            if table[0][i] != ((i, 1),):
                errors.append("unit law fails on pair (%r, %r)" % (names[0], names[i]))
        for i in range(self.dim):
            for j in range(self.dim):
                sign = -1 if (self.parity[i] and self.parity[j]) else 1
                lhs = table[i][j]
                if lhs != tuple((k, sign * c) for k, c in table[j][i]):
                    errors.append("product not super-commutative on pair (%r, %r)"
                                  % (names[i], names[j]))
                target = self.degrees[i] + self.degrees[j]
                if any(self.degrees[k] != target for k, _ in lhs):
                    errors.append("product (%r, %r) not homogeneous of degree %d"
                                  % (names[i], names[j], target))
        if not errors:
            # (b_i b_j) b_k against b_i (b_j b_k), as sparse dicts, on the
            # triples the checks above leave open: a triple with the unit
            # is one product on both sides, and one of degree above 4 is 0
            degs = self.degrees
            rest = range(1, self.dim)
            for i in rest:
                for j in rest:
                    dij = degs[i] + degs[j]
                    if dij > 4:
                        continue
                    ij = table[i][j]
                    for k in rest:
                        if dij + degs[k] > 4:
                            continue
                        if (_sparse_mul(table, ij, ((k, 1),))
                                != _sparse_mul(table, ((i, 1),), table[j][k])):
                            errors.append(
                                "product not associative on triple (%r, %r, %r)"
                                % (names[i], names[j], names[k]))
        if not (self.K.is_zero() or self.K.degree() == 2):
            errors.append("canonical class must be homogeneous of degree 2")
        chi = sum((-1) ** d for d in self.degrees)
        if not (self.e.is_zero() or self.e.degree() == 4):
            errors.append("Euler class must be homogeneous of degree 4")
        elif self.integrate(self.e) != chi:
            errors.append("Euler class integrates to %s, not to the Euler "
                          "number %d" % (self.integrate(self.e), chi))
        if not (self.e * self.e).is_zero():
            errors.append("Euler class must square to zero")
        if not errors:
            try:
                self._pairing_inverse()
            except RingError as exc:
                errors.append(str(exc))
        if errors:
            raise RingError("; ".join(errors))

    # -- diagonal pushforward ---------------------------------------------

    def _tau_table(self, k, i):
        """tau_k(b_i), built once per (k, i) and kept read-only in _cache."""
        key = ("tau", k, i)
        table = self._cache.get(key)
        if table is None:
            if k == 1:
                out = {(i,): 1}
            elif k == 2:
                out = self._tau2(i)
            else:
                out = {}
                for (p, q), c in self._tau_table(2, i).items():
                    for rest, v in self._tau_table(k - 1, p).items():
                        t = rest + (q,)
                        out[t] = out.get(t, 0) + c * v
            table = self._cache[key] = MappingProxyType(
                {t: exact(v) for t, v in out.items() if v})
        return table

    def _tau2(self, i):
        """tau2(b_i) from the dual basis, keys in sorted order."""
        degs = self.degrees
        par = self.parity
        ginv = self._pairing_inverse()
        target = degs[i] + 4
        out = {}
        for s, prod in enumerate(self.table[i]):
            for q, c in prod:
                if par[s] and par[q]:
                    c = -c
                for r, g in enumerate(ginv[s]):
                    if g:
                        if degs[r] + degs[q] != target:
                            raise RingError("tau2 produced inhomogeneous term")
                        out[r, q] = out.get((r, q), 0) + g * c
        return dict(sorted(out.items()))

    def tau2(self, a):
        return self.tau(2, a)

    def tau(self, k, a):
        """k-fold diagonal pushforward as {index tuple: coeff}: the new
        combination sum a_i tau_k(b_i) of the shared tables; tau(1, a) is a
        itself."""
        if k < 1:
            raise RingError("tau arity must be at least 1")
        out = {}
        for i, c in a.components():
            for t, v in self._tau_table(k, i).items():
                out[t] = out.get(t, 0) + c * v
        return {t: exact(v) for t, v in out.items() if v}


# -- built-in models ------------------------------------------------------


def _p2():
    names = ["1", "H", "x"]
    degrees = [0, 2, 4]
    prod = {(1, 1): {2: 1}}
    return SurfaceRing("p2", names, degrees, prod, {2: 1},
                       canonical={1: -3}, euler={2: 3})


def _p1xp1():
    names = ["1", "f1", "f2", "x"]
    degrees = [0, 2, 2, 4]
    prod = {(1, 2): {3: 1}, (2, 1): {3: 1}}
    return SurfaceRing("p1xp1", names, degrees, prod, {3: 1},
                       canonical={1: -2, 2: -2}, euler={3: 4})


def _k3():
    names = ["1"] + ["u%d" % i for i in range(1, 23)] + ["x"]
    degrees = [0] + [2] * 22 + [4]
    prod = {}
    for b in range(11):
        i, j = 1 + 2 * b, 2 + 2 * b
        prod[(i, j)] = {23: 1}
        prod[(j, i)] = {23: 1}
    return SurfaceRing("k3", names, degrees, prod, {23: 1},
                       canonical={}, euler={23: 24})


def _abelian():
    subsets = [()]
    for r in (1, 2, 3, 4):
        subsets.extend(combinations((1, 2, 3, 4), r))
    names = ["1"] + ["t" + "".join(map(str, s)) for s in subsets[1:]]
    degrees = [len(s) for s in subsets]
    index = {s: i for i, s in enumerate(subsets)}
    prod = {}
    for i, s in enumerate(subsets):
        for j, t in enumerate(subsets):
            if set(s) & set(t):
                continue
            inv = sum(1 for a in s for b in t if a > b)
            merged = tuple(sorted(s + t))
            prod[(i, j)] = {index[merged]: (-1) ** inv}
    return SurfaceRing("abelian", names, degrees, prod, {15: 1},
                       canonical={}, euler={})


_BUILTIN = {"p2": _p2, "p1xp1": _p1xp1, "k3": _k3, "abelian": _abelian}

SURFACE_NAMES = tuple(sorted(_BUILTIN))


def builtin_ring(name):
    """One of the built-in surface models: p2, p1xp1, k3, abelian."""
    if name not in _BUILTIN:
        raise RingError("unknown built-in surface %r (choose from %s)"
                        % (name, ", ".join(SURFACE_NAMES)))
    return _built(name)


@cache
def _built(key):
    """The one ring object of a built-in surface in this process: callers
    compare rings by identity (u.ring is v.ring)."""
    return _BUILTIN[key]()


# -- serialization --------------------------------------------------------


def dump_ring(ring):
    """Canonical JSON text for a ring; stable byte-for-byte."""
    names = ring.basis_names
    products = []
    for i in range(1, ring.dim):
        for j in range(1, ring.dim):
            row = ring.table[i][j]
            if row:
                products.append([names[i], names[j],
                                 {names[k]: str(c) for k, c in row}])
    doc = {
        "name": ring.name,
        "basis": [[names[i], ring.degrees[i]] for i in range(ring.dim)],
        "products": products,
        "integral": {names[i]: str(c) for i, c in enumerate(ring.integral_vec) if c},
        "K": {names[i]: str(c) for i, c in ring.K.components()},
        "e": {names[i]: str(c) for i, c in ring.e.components()},
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _coefficient(v):
    """An exact coefficient from JSON: an integer or a string such as
    "3/2"; floats and booleans are refused, since 0.1 has no exact value."""
    if type(v) is int:
        return v
    if type(v) is str:
        try:
            return exact(Q(v))
        except (ValueError, ZeroDivisionError):
            pass
    raise RingError("coefficient %s is not an exact number (an integer or a "
                    "string such as \"3/2\")" % json.dumps(v))


def _degree(entry):
    """The degree of a [name, degree] basis entry: a JSON integer."""
    if type(entry[1]) is not int:
        raise RingError("degree %s of class %s is not an integer"
                        % (json.dumps(entry[1]), json.dumps(entry[0])))
    return entry[1]


def _coefficients(index, spec, what):
    """{basis index: coefficient} from a {class name: coefficient} object."""
    if not isinstance(spec, dict):
        raise RingError("%s must be an object of class name: coefficient, "
                        "got %s" % (what, json.dumps(spec)))
    return {index[k]: _coefficient(v) for k, v in spec.items()}


def load_ring(text):
    """Parse a ring from JSON text; omitted products default to zero.

    Products with the unit that the document leaves out are filled in
    by SurfaceRing; everything else must be listed explicitly, including
    both orders of each pair, and no pair twice.  Degrees are integers;
    coefficients are integers or strings such as "3/2".  Any malformed
    document raises RingError.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or too deep
        raise RingError("invalid JSON: %s" % exc)
    try:
        names = [str(b[0]) for b in doc["basis"]]
        degrees = [_degree(b) for b in doc["basis"]]
        index = {n: i for i, n in enumerate(names)}
        prod = {}
        listed = set()
        for entry in doc.get("products", []):
            i, j = index[entry[0]], index[entry[1]]
            if (i, j) in listed:
                raise RingError("product (%s, %s) is listed twice"
                                % (names[i], names[j]))
            listed.add((i, j))
            prod[(i, j)] = _coefficients(index, entry[2], "a product")
        integral = _coefficients(index, doc.get("integral", {}), "integral")
        canonical = _coefficients(index, doc.get("K", {}), "K")
        euler = _coefficients(index, doc.get("e", {}), "e")
        name = str(doc.get("name", "custom"))
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise RingError("malformed ring description: %r" % (exc,))
    return SurfaceRing(name, names, degrees, prod, integral, canonical, euler)
