"""Frobenius models of the cohomology ring of a projective surface.

A SurfaceRing is a finite graded super-commutative algebra over Q with
degrees in {0,...,4}, a one-dimensional top piece, an integration
functional supported in top degree, and two distinguished classes: the
canonical class K in degree 2 and the Euler class e in degree 4 with
e*e = 0.  The intersection pairing (a, b) -> integrate(a*b) must be
nondegenerate.

Validation checks associativity only on the triples of non-unit basis
classes of total degree at most 4.  It runs after the unit law,
super-commutativity and homogeneity have passed, so a triple with the
unit has the same product on both sides, and a triple of degree above 4
has both sides in a degree with no class, hence 0.

The multiplication table is sparse and exact: table[i][j] is the product
of basis classes i and j as a tuple of (k, coeff) pairs sorted by k, with
zero coefficients dropped and each coefficient an int, or a Fraction when
it is not integral.  Validation, the Gram matrix and tau2 read the table
directly.

The module also computes the adjoints tau_k of the k-fold cup product,
characterized by

    integrate_slots((b (x) c) * tau2(a)) = integrate(b*c*a)

with Koszul signs from moving classes past tensor factors, and iterated
via tau_k = (tau_{k-1} (x) id) o tau2.  These smearing tensors are what
the Fock-space operators consume.

Built-in models: the projective plane, the quadric (product of two
projective lines), a K3 model with eleven hyperbolic blocks in the middle
cohomology, and an abelian (exterior-algebra) model with odd classes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

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

    def integral(self):
        return self.ring.integrate(self)

    def render(self):
        parts = []
        for i, c in self.components():
            name = self.ring.basis_names[i]
            parts.append("%s*%s" % (c, name))
        return " + ".join(parts) if parts else "0"


class TensorSum:
    """Element of the k-fold tensor power of a ring, as index tuples.

    Coefficients are stored through exact: an int when integral, else a
    Fraction."""

    __slots__ = ("ring", "arity", "terms")

    def __init__(self, ring, arity, terms=None):
        self.ring = ring
        self.arity = arity
        self.terms = {k: exact(c) for k, c in (terms or {}).items()}

    def add(self, key, coeff):
        c = self.terms.get(key)
        c = coeff if c is None else c + coeff
        if c:
            self.terms[key] = exact(c)
        elif key in self.terms:
            del self.terms[key]

    def scale(self, c):
        return TensorSum(self.ring, self.arity,
                         {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, TensorSum) and self.ring is other.ring
                and self.arity == other.arity and self.terms == other.terms)

    def contract(self):
        """Multiply all slots; for tau2(a) this returns e*a."""
        out = [Q(0)] * self.ring.dim
        for key, c in self.terms.items():
            prod = self.ring.unit
            for i in key:
                prod = prod * self.ring.basis(i)
            for i, v in prod.components():
                out[i] += c * v
        return RingElem(self.ring, out)

    def superswap(self, pos):
        """Swap adjacent slots pos, pos+1 with the Koszul sign."""
        degs = self.ring.degrees
        out = TensorSum(self.ring, self.arity)
        for key, c in self.terms.items():
            a, b = key[pos], key[pos + 1]
            sign = -1 if (degs[a] % 2 and degs[b] % 2) else 1
            nk = key[:pos] + (b, a) + key[pos + 2:]
            out.add(nk, c * sign)
        return out

    def expand_slot(self, pos):
        """Apply tau2 to one slot, producing an arity+1 tensor."""
        out = TensorSum(self.ring, self.arity + 1)
        for key, c in self.terms.items():
            for c2, p, q in self.ring.tau2_basis(key[pos]):
                nk = key[:pos] + (p, q) + key[pos + 1:]
                out.add(nk, c * c2)
        return out


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
        # sparse multiplication table: table[i][j] holds (k, coeff) pairs
        self.table = [[()] * self.dim for _ in range(self.dim)]
        for (i, j), comp in products.items():
            pairs = ((k, exact(Q(c))) for k, c in sorted(comp.items()))
            self.table[i][j] = tuple((k, c) for k, c in pairs if c)
        self.integral_vec = tuple(exact(Q(integral.get(i, 0)))
                                  for i in range(self.dim))
        self.unit = self.basis(0)
        self.K = self._vector(canonical)
        self.e = self._vector(euler)
        self._tau2_cache = {}
        self._cache = {}
        self._pairing = None
        self._pairing_inv = None
        if validate:
            self.validate()

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

    def basis_elems(self):
        return [self.basis(i) for i in range(self.dim)]

    def zero(self):
        return RingElem(self, [0] * self.dim)

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
        if not (self.e.is_zero() or self.e.degree() == 4):
            errors.append("Euler class must be homogeneous of degree 4")
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

    def tau2_basis(self, i):
        """tau2 of the i-th basis class, as (coeff, p, q) triples."""
        if i not in self._tau2_cache:
            self._tau2_cache[i] = self._solve_tau2(i)
        return self._tau2_cache[i]

    def _solve_tau2(self, i):
        """With rhs[p][q] = integral(b_p b_q b_i), read from the table, and
        G the Gram matrix: z = G^-1 rhs with the Koszul sign of (r, q),
        and tau2(b_i) = z (G^T)^-1, whose entries are those of G^-1
        transposed."""
        n = self.dim
        degs = self.degrees
        par = self.parity
        gram = self.pairing_matrix()
        ginv = self._pairing_inverse()
        rhs = []
        for row in self.table:
            cubic = {}
            for q, prod in enumerate(row):
                v = sum(c * gram[l][i] for l, c in prod)
                if v:
                    cubic[q] = v
            rhs.append(cubic)
        out = []
        target = degs[i] + 4
        for r in range(n):
            z = {}
            for p, g in enumerate(ginv[r]):
                if g:
                    for q, v in rhs[p].items():
                        z[q] = z.get(q, 0) + g * v
            if par[r]:
                z = {q: -v if par[q] else v for q, v in z.items()}
            for s in range(n):
                gs = ginv[s]
                c = sum(v * gs[t] for t, v in z.items())
                if c:
                    if degs[r] + degs[s] != target:
                        raise RingError("tau2 solve produced inhomogeneous term")
                    out.append((exact(c), r, s))
        return out

    def tau2(self, a):
        out = TensorSum(self, 2)
        for i, c in a.components():
            for c2, p, q in self.tau2_basis(i):
                out.add((p, q), c * c2)
        return out

    def tau(self, k, a):
        """k-fold diagonal pushforward; tau(1, a) is a itself."""
        if k < 1:
            raise RingError("tau arity must be at least 1")
        key = ("tau", k, a.coeffs)
        if key in self._cache:
            return self._cache[key]
        if k == 1:
            out = TensorSum(self, 1)
            for i, c in a.components():
                out.add((i,), c)
        else:
            out = self.tau2(a)
            while out.arity < k:
                out = out.expand_slot(0)
        self._cache[key] = out
        return out


# -- built-in models ------------------------------------------------------


def _p2():
    names = ["1", "H", "x"]
    degrees = [0, 2, 4]
    prod = {}
    for i in range(3):
        prod[(0, i)] = {i: 1}
        prod[(i, 0)] = {i: 1}
    prod[(1, 1)] = {2: 1}
    return SurfaceRing("p2", names, degrees, prod, {2: 1},
                       canonical={1: -3}, euler={2: 3})


def _p1xp1():
    names = ["1", "f1", "f2", "x"]
    degrees = [0, 2, 2, 4]
    prod = {}
    for i in range(4):
        prod[(0, i)] = {i: 1}
        prod[(i, 0)] = {i: 1}
    prod[(1, 2)] = {3: 1}
    prod[(2, 1)] = {3: 1}
    return SurfaceRing("p1xp1", names, degrees, prod, {3: 1},
                       canonical={1: -2, 2: -2}, euler={3: 4})


def _k3():
    names = ["1"] + ["u%d" % i for i in range(1, 23)] + ["x"]
    degrees = [0] + [2] * 22 + [4]
    prod = {}
    for i in range(24):
        prod[(0, i)] = {i: 1}
        prod[(i, 0)] = {i: 1}
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
_builtin_cache = {}

SURFACE_NAMES = tuple(sorted(_BUILTIN))


def builtin_ring(name):
    """One of the built-in surface models: p2, p1xp1, k3, abelian."""
    key = name.lower()
    if key not in _BUILTIN:
        raise RingError("unknown built-in surface %r (choose from %s)"
                        % (name, ", ".join(SURFACE_NAMES)))
    if key not in _builtin_cache:
        _builtin_cache[key] = _BUILTIN[key]()
    return _builtin_cache[key]


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

    Products with the unit are filled in automatically; everything else
    must be listed explicitly, including both orders of each pair, and
    no pair twice.  Degrees are integers; coefficients are integers or
    strings such as "3/2".  Any malformed document raises RingError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RingError("invalid JSON: %s" % exc)
    try:
        names = [str(b[0]) for b in doc["basis"]]
        degrees = [_degree(b) for b in doc["basis"]]
        index = {n: i for i, n in enumerate(names)}
        prod = {}
        for i in range(len(names)):
            prod[(0, i)] = {i: 1}
            prod[(i, 0)] = {i: 1}
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
