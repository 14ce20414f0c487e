"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they pass.  Every comparison is exact; the only tolerances are the
wall-clock budgets stated alongside the slow criteria.
"""

import time
from pathlib import Path
from random import Random

from conftest import augment_with_identity, h_p1, line_cohomology_table, random_monad, reflect
from projmonad.autgroup import act, induced_dual_element, random_element
from projmonad.complexes import koszul_monad, line_monad, omega_resolution
from projmonad.hilbert import IntPoly, bott_h, euler_poly
from projmonad.modp3 import (
    forbidden_form_point,
    point_monad,
    sample_wss_stats,
    twisted_cubic_point,
    wss_membership,
)
from projmonad.monad import (
    beilinson_shape,
    cohomology_hilbert_function,
    dualize,
    format_monad,
    hilbert_poly_of_cohomology,
    minimality_check,
    parse_monad,
    sheaf_cohomology,
)
from projmonad.scalar import GF, QQ

F101 = GF(101)
DATA = Path(__file__).parent / "data"
THREE_M_PLUS_1 = IntPoly([1, 3])
THREE_M_MINUS_1 = IntPoly([-1, 3])


def test_criterion_1_dual_shape_reproduction():
    start = time.perf_counter()
    dual = dualize(point_monad(twisted_cubic_point()))
    lines = [f"term {i}: {dual.terms[i]}" for i in (-2, -1, 0)]
    assert lines == [
        "term -2: [-4,-3]",
        "term -1: [-3,-2,-2,-2]",
        "term 0: [-1,-1]",
    ]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS - dual twist lists match the displayed "
          f"resolution ({elapsed:.3f}s)")


def test_criterion_2_hilbert_polynomials():
    m = point_monad(twisted_cubic_point())
    assert euler_poly(m) == THREE_M_PLUS_1
    assert euler_poly(dualize(m)) == THREE_M_MINUS_1
    print("criterion 2: PASS - Euler polynomials 3*m + 1 and 3*m - 1, exact")


def test_criterion_3_reflection_identity_100_random_complexes():
    start = time.perf_counter()
    rng = Random(80)
    for _ in range(100):
        m = random_monad(rng)
        lhs = euler_poly(dualize(m))
        rhs = reflect(euler_poly(m))
        if (m.n - m.c) % 2:
            rhs = -rhs
        assert lhs == rhs
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 3: PASS - dual Euler reflection identity, 100/100 "
          f"exact ({elapsed:.2f}s)")


def test_criterion_4_bott_table_against_resolution_oracle():
    start = time.perf_counter()
    cells = 0
    for n in (1, 2, 3):
        for p in range(n + 1):
            for t in range(-6, 7):
                got = sheaf_cohomology(omega_resolution(QQ, n, p, t), 0)
                want = [bott_h(n, p, q, t) for q in range(n + 1)]
                assert got == want, (n, p, t, got, want)
                cells += len(want)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 4: PASS - Bott table equals the Euler-resolution "
          f"oracle on {cells} grid entries ({elapsed:.2f}s)")


def _minimality_instances():
    for n, sets in ((1, [(0, 1)]),
                    (2, [(0, 1), (0, 2), (1, 2), (0, 1, 2)]),
                    (3, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                         (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                         (0, 1, 2, 3)])):
        for variables in sets:
            yield koszul_monad(QQ, n, variables)
    yield koszul_monad(QQ, 2, (0, 1), twist=-1)
    yield koszul_monad(QQ, 2, (0, 1, 2), twist=1)
    yield koszul_monad(QQ, 3, (0, 1), twist=-2)
    yield koszul_monad(QQ, 3, (1, 3), twist=2)
    # canonical-shape instances: the line resolutions realize the terms
    # dictated by their cohomology tables
    for n in (2, 3):
        for a in (-1, 0):
            monad = line_monad(QQ, n, a)
            shape = beilinson_shape(line_cohomology_table(n, a))
            for i in range(monad.lo, monad.hi + 1):
                assert shape[i] == monad.terms[i]
            yield monad


def test_criterion_5_minimality_suite():
    count = 0
    for m in _minimality_instances():
        count += 1
        assert minimality_check(m)
        spot = m.lo if m.lo < m.hi else m.lo
        aug = augment_with_identity(m, spot, -1)
        assert not minimality_check(aug)
        window = range(0, 4)
        for pos in range(m.lo, m.hi + 1):
            assert (cohomology_hilbert_function(aug, pos, window)
                    == cohomology_hilbert_function(m, pos, window))
    assert count >= 20
    print(f"criterion 5: PASS - {count} monads minimal, every identity "
          f"augmentation flagged with Hilbert data unchanged")


def test_criterion_6_line_duality_catalog():
    checked = 0
    for n in (2, 3):
        for a in range(-3, 4):
            monad = line_monad(QQ, n, a)
            h_f = sheaf_cohomology(monad, 0)
            h_fd = sheaf_cohomology(dualize(monad), 0)
            for q in range(n + 1):
                assert h_f[q] == h_p1(q, a)
                assert h_fd[q] == h_p1(q, -2 - a)
            for i in range(-1, n + 2):
                lhs = h_f[i] if 0 <= i <= n else 0
                rhs = h_fd[1 - i] if 0 <= 1 - i <= n else 0
                assert lhs == rhs
                checked += 1
    print(f"criterion 6: PASS - h^i(O_L(a)) = h^(1-i)(O_L(-2-a)) on "
          f"{checked} (n, a, i) triples, monads vs closed forms")


def test_criterion_7_semistability_criterion():
    start = time.perf_counter()
    # forbidden form: second row column-equivalent to (0, 0, *, *)
    res = wss_membership(forbidden_form_point())
    assert not res["member"] and res["failed"] == ["d"]
    # the derived determinantal point is accepted, over Q
    pt = twisted_cubic_point()
    res = wss_membership(pt)
    assert res["member"]
    # seeded sampling over F101 accepts within the recorded bound
    sampled, tries, _ = sample_wss_stats(0, F101)
    assert tries <= 4
    assert wss_membership(sampled)["member"]
    # every accepted point has window Hilbert polynomial 3m+1
    assert hilbert_poly_of_cohomology(point_monad(pt)) == THREE_M_PLUS_1
    assert hilbert_poly_of_cohomology(point_monad(sampled)) == THREE_M_PLUS_1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 7: PASS - rejection reason (d), determinantal point "
          f"accepted, sampling in {tries} draw(s), both Hilbert polynomials "
          f"3*m + 1 ({elapsed:.2f}s)")


def test_criterion_8_equivariance():
    points = [twisted_cubic_point(F101), sample_wss_stats(17, F101)[0]]
    square_ok = 0
    for k in range(100):
        m = point_monad(points[k % 2])
        g = random_element(F101, m, seed=9000 + k)
        lhs = dualize(act(g, m))
        rhs = act(induced_dual_element(g, 2), dualize(m))
        assert lhs == rhs
        square_ok += 1
    invariant_ok = 0
    for k in range(50):
        m = point_monad(points[k % 2])
        g = random_element(F101, m, seed=12000 + k)
        assert wss_membership(point_monad(act(g, m)))["member"]
        invariant_ok += 1
    assert square_ok == 100 and invariant_ok == 50
    print("criterion 8: PASS - duality/action square 100/100, membership "
          "invariance 50/50")


def test_criterion_9_determinism_and_round_trips():
    # same seed, same bytes; and the frozen golden draw has not drifted
    a, _, _ = sample_wss_stats(42, F101)
    b, _, _ = sample_wss_stats(42, F101)
    assert format_monad(a) == format_monad(b)
    assert format_monad(a) == (DATA / "golden_p3_seed42_f101.monad").read_text()
    # parse . print round trips, bit for bit
    rng = Random(90)
    subjects = [point_monad(a), point_monad(twisted_cubic_point()),
                koszul_monad(QQ, 3, (0, 2)), line_monad(QQ, 2, -1)]
    subjects += [random_monad(rng) for _ in range(20)]
    for m in subjects:
        text = format_monad(m)
        assert parse_monad(text) == m
        assert format_monad(parse_monad(text)) == text
    print("criterion 9: PASS - seeded sampling reproducible, file formats "
          "round-trip byte-exactly")
