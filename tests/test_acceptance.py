"""Acceptance battery: every identity suite on its full grid.

Each test runs one or more verification suites at the documented default
bounds, requires a fully passing report, and enforces the expected wall
clock budget.  All checks are exact rational identities; there are no
tolerances anywhere.
"""

import hashlib
import time
from fractions import Fraction as Q

from hilbfock.fock import combine, vacuum
from hilbfock.hilbert import intersection_number, intersection_number_closed
from hilbfock.operators import commutator_column
from hilbfock.ring import SURFACE_NAMES, builtin_ring
from hilbfock.verify import SUITES, SuiteSpec, run_suite, serialize_report
from hilbfock.walgebra import virasoro

# Frozen sha256 of the jsonl report of every battery run, by suite: the
# plain runs below and the mutated runs of test 12.  A change to any
# report byte must be explained in CHANGES.md before a digest here is
# refrozen.
REPORT_SHA256 = {
    "cor48":
        "16b277e44cac594e8d9291a2eb82ecf6ea201ef38d5456dd39c0654a27ce2a5f",
    "def51-ids":
        "afa41e5cd98f7b74591e72c99529be29c8b99c56ada0be7f39e187b51972ded6",
    "eq22":
        "da75d93130a1df3bf42fd9c7705f7bf8ea616914a17c92b2d8b8587d6f10019b",
    "heis":
        "e0e720d8f04f19615e27663358c7c726ce0a0b88f7727fc5e1772e6bc32213b0",
    "lem32":
        "a3e3e2db188c64a82b0a969b7c9391ad617c3760e7a5cd8614fcd691b1f9dfb4",
    "lem52":
        "317f574ff3dd0b317e53dc9202ef7dcbe17d1590a2ad7ecaf2f67289ff013dd9",
    "lem53":
        "62d3cf305cdab5399bb84a85070b73d9464f9ab67058400cc0a0f7852a9ae717",
    "lem61":
        "be7dd8ce7214051faa96114a843748d14e2e74628a115ee4197fe67da461bc36",
    "rmk410":
        "439a66c3265216de4c63572c0c4f78c44b18870291f565a4bf79be714bc7dcb5",
    "rmk43":
        "2c2ff2495398cff8f0d8a26d7fb88efa119c2be1eef8141a431860b4c95b70bc",
    "rmk56":
        "c47d80fa4059918720da2fb3f5c4ae4da9cd410ceccab618c3fc20247a544a46",
    "thm31":
        "0c92f26c7eeebcf88b9f64649db95d169968f3d93abcb820786ce5df4bdce7fa",
    "thm42":
        "f05d2aa11e6984339071856d7e1edc24997c8b52205c92b24b470f4703825598",
    "thm46-unique":
        "4681dcdfc416e1efa6b93fb9d71dbd0b68241879c68f92656da825670213207e",
    "thm55":
        "02f5ec0d7d0e7fafc380c516473db7a032490e9ad6b52dafa9ac4d24147a1118",
    "thm57":
        "afa10328f40c1da578e2a21e0f893adfad926d931fe0df5d14ffbfb317ae0d58",
    "vir":
        "57e0651d31429b8d242dabf095c5a3a485c79d10eb6e99523f3403b565aeb107",
}
MUTATED_SHA256 = {
    "cor48":
        "a5fab4630694dc82449a28d3449a534e05a252ee2b64ba17ec7559f1d5ee0c72",
    "def51-ids":
        "7d1bbfd18e7e7b35f56ec1763efd6b9f4b06b64f3427390f1a50757a43450282",
    "eq22":
        "8a17c3d8ab36e834d35361ec49752ba6e9e2cb1d9dd231cc10ee3c2a68ef7993",
    "heis":
        "df02945d92dacbd46352d207926700561fb07ae7f07ba4d4c744bb4f32beea63",
    "lem32":
        "0de949c858f8d74bd74d2b22a67d985616150342bd8fda43a80f631979b01135",
    "lem52":
        "76ddf700d4d869d21cbdcf6e0d20331feeaa140f53802b6ab1cb891514f8ef0d",
    "lem53":
        "dcc2b2cc3a5cd506117d2cbd9a4cfcf82a13e8c25805f301a4e745221092aeeb",
    "lem61":
        "c7f44b373e8e37e171aa27dff771e5957ab3d528f9d63394ce02b61857d93ffa",
    "rmk410":
        "a254b0c37d9c8762e25891caecaa267e1720a0f4ebb1d0bdd1799a02de02e7ac",
    "rmk43":
        "aac91a945067bfbe53f12d4168a3e5c83f65c644f5ac66bcef898d7dda816937",
    "rmk56":
        "290aaa73c6ff8f5d3ddf40604a10bf0c98524f836a800f4175403f9700544dfc",
    "thm31":
        "2ea6847fd7898ccf4a4ee3cb7e62064f0a49896a10c967e091bc16803a00eec2",
    "thm42":
        "5a83267038ff0b46ac86cfb07e498a307d214a1572d9acea0e78fed2a75dad60",
    "thm46-unique":
        "6fc5cf672ef0525d284d959076bc4044b368718ef0433061d2904bd969480464",
    "thm55":
        "254def899150c38daf5ee7b626d218be1b1477a5afb8225155b5097bdac6ea3d",
    "thm57":
        "3fdded60fb792843876c588293caaaacfce1258c418fa98bcc03a65912681263",
    "vir":
        "d4df3a9ba371a8615a71d5e87bb3c38306ca8c5cda1d019cb494fee6088eba96",
}


def report_sha256(report):
    text = serialize_report(report, "jsonl")
    return hashlib.sha256(text.encode()).hexdigest()


def run_ok(spec, budget):
    """Run a suite, require a clean report within the time budget."""
    t0 = time.perf_counter()
    report = run_suite(spec)
    elapsed = time.perf_counter() - t0
    bad = [r for r in report.records if r.status != "pass"]
    assert not bad, "%s: %d failures, first %s expected=%s actual=%s" % (
        spec.suite, len(bad), bad[0].params, bad[0].expected, bad[0].actual)
    assert report.records, spec.suite
    assert elapsed < budget, "%s took %.1fs (budget %.0fs)" % (
        spec.suite, elapsed, budget)
    assert report_sha256(report) == REPORT_SHA256[spec.suite], spec.suite
    return report


def test_acceptance_01_heisenberg_all_surfaces():
    """Heisenberg commutators, all four surfaces, all basis classes,
    |m|, |n| <= 4, with odd anticommutators on the abelian surface."""
    report = run_ok(SuiteSpec("heis", bounds={"m_max": 4}), 60)
    surfaces = {r.params["surface"] for r in report.records}
    assert surfaces == set(SURFACE_NAMES)


def test_acceptance_02_virasoro_bracket_and_central_value():
    """Virasoro bracket for |m|, |n| <= 3, window 8; on K3 with unit
    classes the (m, -m) central scalar is (m^3 - m)/12 times 24."""
    run_ok(SuiteSpec("vir", cutoff=8, bounds={"m_max": 3}), 120)
    K3 = builtin_ring("k3")
    one = K3.elem({"1": 1})
    for m in (2, 3):
        got = K3.vector(commutator_column(virasoro(K3, m, one),
                                          virasoro(K3, -m, one),
                                          K3.state_id(())))
        want = combine((Q(m ** 3 - m, 12) * 24, vacuum()))
        assert got == want, m
    assert Q(2 ** 3 - 2, 12) * 24 == 12


def test_acceptance_03_virasoro_action_and_transfer_calculus():
    """Virasoro on Heisenberg, the derivation rule, the character
    bracket, and the smeared calculus against raw composition, on all
    surfaces, |m|, |n| <= 3, k <= 3, with the derivation computed
    recursively."""
    t0 = time.perf_counter()
    run_ok(SuiteSpec("thm31", bounds={"m_max": 3, "k_max": 3}), 300)
    remaining = 300 - (time.perf_counter() - t0)
    run_ok(SuiteSpec("lem32"), remaining)


def test_acceptance_04_derivative_tower_and_shifted_families():
    """Recursive k-th derivatives of a_n against the closed partition
    expansion for k <= 3, 1 <= |n| <= 3 (universally, and on states of
    K3 and the plane for the K-trivial classes among 1 and x), and the
    shifted-family derivative rule for d in {-1, n^2 - 2} including
    n = 0."""
    t0 = time.perf_counter()
    report = run_ok(SuiteSpec("thm42", cutoff=8,
                              bounds={"k_max": 3, "n_max": 3}), 300)
    surfaces = {r.params["surface"] for r in report.records
                if "surface" in r.params}
    assert surfaces == {"k3", "p2"}
    remaining = 300 - (time.perf_counter() - t0)
    report = run_ok(SuiteSpec("rmk43", bounds={"k_max": 3, "n_max": 3}),
                    remaining)
    pairs = {(r.params["n"], r.params["d"]) for r in report.records}
    ns = {n for n, _ in pairs}
    assert 0 in ns
    for n in ns:
        assert (n, -1) in pairs and (n, n * n - 2) in pairs, n


def test_acceptance_05_character_series_uniqueness():
    """The closed character series commutes with the derivation and
    reproduces derivative brackets with a_{-1}, for k <= 3 on K3 and
    abelian; that it annihilates the vacuum holds by construction."""
    report = run_ok(SuiteSpec("thm46-unique", bounds={"k_max": 3}), 180)
    checks = {r.params["check"] for r in report.records}
    assert {"derivation", "transfer-pin"} <= checks


def test_acceptance_06_character_classes_dual_route():
    """Operator-applied character classes equal the closed creation
    expansion for n <= 4, k < n, every basis class, on the canonically
    trivial surfaces."""
    report = run_ok(SuiteSpec("cor48", bounds={"n_max": 4}), 180)
    seen = {(r.params["surface"], r.params["k"], r.params["n"])
            for r in report.records}
    for n in range(1, 5):
        for k in range(n):
            assert ("k3", k, n) in seen and ("abelian", k, n) in seen


def test_acceptance_07_intersection_numbers():
    """Operator-route intersection numbers match the closed sum and are
    surface independent for n <= 4; the closed sum itself reproduces the
    frozen spot values first."""
    spots = (((0,), 1, Q(1)), ((2,), 2, Q(-1, 4)), ((0, 0), 2, Q(1)))
    for ks, n, want in spots:
        assert intersection_number_closed(ks, n) == want, (ks, n)
    for ks, n, want in spots:
        for name in SURFACE_NAMES:
            ring = builtin_ring(name)
            assert intersection_number(ring, ks, n) == want, (name, ks, n)
    run_ok(SuiteSpec("rmk410", bounds={"n_max": 4}), 120)


def test_acceptance_08_w_algebra_grand_grid():
    """Flagship: the full W-generator bracket on every cell with
    p + q <= 6 including the four exceptional pairs, m, n in [-3, 3],
    all basis classes on K3, abelian, and the plane, window 8, exact
    equality including structure-polynomial and central terms."""
    report = run_ok(SuiteSpec("thm55", cutoff=8,
                              bounds={"pq_max": 6, "m_max": 3}), 900)
    cells = {(r.params["p"], r.params["q"]) for r in report.records
             if "p" in r.params and "q" in r.params}
    for p, q in ((0, 0), (2, 0), (0, 2), (1, 1)):
        assert (p, q) in cells or (q, p) in cells, (p, q)
    assert all(p + q <= 6 for p, q in cells)


def test_acceptance_09_w_generator_identifications():
    """The W-generator ladder: the p = 0, 1 identifications, the
    vanishing-mode and mode -1 specializations, the character bracket,
    and the normally ordered field expression, p <= 4, modes up to 3,
    as exact term lists where both sides are constructions."""
    t0 = time.perf_counter()
    run_ok(SuiteSpec("def51-ids", bounds={"p_max": 4, "n_max": 3}), 300)
    run_ok(SuiteSpec("lem52", bounds={"p_max": 4, "n_max": 3}),
           300 - (time.perf_counter() - t0))
    run_ok(SuiteSpec("lem53", bounds={"p_max": 4, "m_max": 3}),
           300 - (time.perf_counter() - t0))


def test_acceptance_10_derivative_relation_and_abstract_match():
    """The derivation of a W-generator on K3 for p <= 3, |n| <= 2, and
    the abelian structure constants against the abstract two-parameter
    bracket for p + q <= 5, |m|, |n| <= 3."""
    t0 = time.perf_counter()
    run_ok(SuiteSpec("rmk56", surface="k3",
                     bounds={"p_max": 3, "n_max": 2}), 300)
    run_ok(SuiteSpec("thm57", bounds={"pq_max": 5, "m_max": 3}),
           300 - (time.perf_counter() - t0))


def test_acceptance_11_field_derivative_identities():
    """Derivative identities of normally ordered field monomials with at
    most 4 underived factors and |m| <= 3, as exact component term
    lists."""
    report = run_ok(SuiteSpec("lem61", bounds={"n_max": 4, "m_max": 3}),
                    120)
    assert {r.params["identity"] for r in report.records} == {
        "i", "ii", "iii", "iv", "v"}


def test_acceptance_12_every_mutation_is_detected():
    """Harness integrity: each suite's documented single-coefficient
    mutation produces at least one counterexample."""
    t0 = time.perf_counter()
    for name, suite in sorted(SUITES.items()):
        report = run_suite(SuiteSpec(name, mutation=suite.mutation))
        assert report.failed >= 1, name
        assert report_sha256(report) == MUTATED_SHA256[name], name
    assert time.perf_counter() - t0 < 120


def test_acceptance_13_abstract_w_algebra():
    """Antisymmetry and the Jacobi identity of the abstract W-algebra
    bracket on the abelian and K3 classes, p <= 2, |m| <= 2, and the
    trace convention against the measured transfer-operator central
    term."""
    report = run_ok(SuiteSpec("eq22"), 60)
    checks = {(r.params["check"], r.params.get("surface"))
              for r in report.records}
    assert checks == {("antisymmetry", "abelian"), ("jacobi", "abelian"),
                      ("antisymmetry", "k3"), ("jacobi", "k3"),
                      ("trace-bridge", None)}
