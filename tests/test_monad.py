import copy
import pickle
import re
from itertools import combinations
from random import Random

import pytest

from conftest import (
    Boxed,
    augment_with_identity,
    contraction_oracle,
    h_p1,
    hilbert_poly_heuristic_window,
    is_canonical,
    line_cohomology_table,
    poly_scale,
    random_monad,
    random_valid_monad,
    reflect,
    regularity_bound,
    table_entry,
    table_from_dict,
)
from projmonad import complexes, monad
from projmonad.complexes import (
    direct_sum,
    koszul_monad,
    line_monad,
    omega_resolution,
)
from projmonad.hilbert import IntPoly, bott_h, euler_poly
from projmonad.monad import (
    MAX_SECTION_SIDE,
    Monad,
    WindowDisagreementError,
    beilinson_shape,
    cohomology_hilbert_function,
    default_window,
    dual_beilinson_table,
    dual_table_index,
    dualize,
    exactness_check,
    format_monad,
    hilbert_poly_of_cohomology,
    minimality_check,
    parse_monad,
    sheaf_cohomology,
    validate,
)
from projmonad.modp3 import (
    forbidden_form_point,
    point_monad,
    sample_wss_stats,
    twisted_cubic_point,
)
from projmonad.polymat import FreeSheaf, GradedMatrix, ParseError, parse_poly
from projmonad.scalar import GF, QQ

F101 = GF(101)


def _flip_entry_sign(m: Monad, at: int) -> Monad:
    d = m.diffs[at]
    ent = [list(row) for row in d.entries]
    for i, row in enumerate(ent):
        for j, p in enumerate(row):
            if not p.is_zero():
                ent[i][j] = poly_scale(p, Boxed(p.field, -1))
                flipped = GradedMatrix(d.field, d.source, d.target, ent)
                diffs = dict(m.diffs)
                diffs[at] = flipped
                return Monad(m.field, m.n, m.terms, diffs, m.c, m.cohomology_position)
    raise AssertionError("no entry to flip")


# --- validate ------------------------------------------------------------


def test_validate_koszul_ok():
    k = koszul_monad(QQ, 2, [0, 1])
    assert [str(k.terms[i]) for i in (-2, -1, 0)] == ["[-2]", "[-1,-1]", "[0]"]
    assert validate(k) == []


def test_validate_detects_single_sign_flip():
    k = koszul_monad(QQ, 2, [0, 1])
    # flipping one entry of one differential breaks exactly the one pair
    bad = _flip_entry_sign(k, -2)
    assert validate(bad) == ["d(-1).d(-2) != 0"]


def test_validate_zero_differentials_ok():
    terms = {0: FreeSheaf(2, (0,)), 1: FreeSheaf(2, (1, 1))}
    m = Monad(QQ, 2, terms, {}, 1, 0)
    assert validate(m) == []


def test_monad_constructor_guards():
    terms = {0: FreeSheaf(2, (0,))}
    with pytest.raises(ValueError):
        Monad(QQ, 2, terms, {}, 0, 0)  # codim too small
    with pytest.raises(ValueError):
        Monad(QQ, 2, terms, {}, 1, 1)  # position outside range
    with pytest.raises(ValueError):
        Monad(QQ, 2, {0: FreeSheaf(2, (0,)), 2: FreeSheaf(2, (0,))}, {}, 1, 0)


def _x0_map(field) -> GradedMatrix:
    """x0: O(-1) -> O on P^2."""
    return GradedMatrix(field, FreeSheaf(2, (-1,)), FreeSheaf(2, (0,)),
                        [[parse_poly("x0", field, 2, 1)]])


@pytest.mark.parametrize("build, message", [
    (lambda: Monad(QQ, 2, {0: FreeSheaf(3, (0,))}, {}, 1, 0), "term 0 lives on P^3, not P^2"),
    (lambda: Monad(QQ, 2, {0: FreeSheaf(2, (0,))}, {0: _x0_map(QQ)}, 1, 0),
     "differential at 0 has no adjacent terms"),
    (lambda: Monad(QQ, 2, {-1: FreeSheaf(2, (-1,)), 0: FreeSheaf(2, (0,))},
                   {-1: _x0_map(F101)}, 1, 0),
     "differential at -1 over the wrong field"),
    (lambda: line_monad(QQ, 1), "a line needs an ambient P^n with n >= 2"),
    (lambda: omega_resolution(QQ, 2, 3, 0), "p = 3 out of range for P^2"),
    (lambda: direct_sum(koszul_monad(QQ, 2, [0]), koszul_monad(F101, 2, [0])),
     "summands live in different settings"),
    (lambda: cohomology_hilbert_function(line_monad(QQ, 2), 5, range(3)),
     "position 5 outside [-1, 0]"),
], ids=["term on another P^n", "lone differential", "differential field", "line on P^1",
        "omega p", "direct sum fields", "position outside"])
def test_constructors_name_what_is_wrong(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


# --- dualize -------------------------------------------------------------


def test_dualize_p3_shape():
    from projmonad.modp3 import point_monad, twisted_cubic_point

    dual = dualize(point_monad(twisted_cubic_point()))
    assert (dual.lo, dual.hi) == (-2, 0)
    assert dual.terms[-2].twists == (-4, -3)
    assert dual.terms[-1].twists == (-3, -2, -2, -2)
    assert dual.terms[0].twists == (-1, -1)


def test_dualize_line_resolution_euler():
    L = line_monad(QQ, 2, 0)
    D = dualize(L)
    assert D.terms[-1].twists == (-3,) and D.terms[0].twists == (-2,)
    assert euler_poly(D) == IntPoly([-1, 1])
    assert euler_poly(D) == -reflect(euler_poly(L))


def test_dualize_involution_and_validity_on_100_random_valid():
    rng = Random(21)
    for _ in range(100):
        m = random_valid_monad(rng)
        assert validate(m) == []
        d = dualize(m)
        assert validate(d) == []
        assert dualize(d) == m


def test_corollary8_reflection_identity_on_arbitrary_complexes():
    rng = Random(22)
    for _ in range(100):
        m = random_monad(rng)
        lhs = euler_poly(dualize(m))
        rhs = reflect(euler_poly(m))
        if (m.n - m.c) % 2:
            rhs = -rhs
        assert lhs == rhs


# --- degreewise Hilbert data ----------------------------------------------


def test_line_hilbert_function_window():
    L = line_monad(QQ, 2, 0)
    assert cohomology_hilbert_function(L, 0, range(4)) == [1, 2, 3, 4]


def test_exact_positions_vanish():
    k = koszul_monad(QQ, 2, [0, 1, 2])
    assert exactness_check(k, [-2, -1], range(6)) == {-2: True, -1: True}
    # full Koszul of all coordinates is exact at 0 as well, in high twists
    values = cohomology_hilbert_function(k, 0, range(1, 6))
    assert values == [0] * 5


def test_hilbert_poly_of_line_and_koszul():
    assert hilbert_poly_of_cohomology(line_monad(QQ, 2, 0)) == IntPoly([1, 1])
    assert hilbert_poly_of_cohomology(line_monad(QQ, 3, -1)) == IntPoly([0, 1])
    plane = koszul_monad(QQ, 3, [3])  # a plane in P^3
    assert hilbert_poly_of_cohomology(plane) == euler_poly(plane)


def test_window_disagreement_on_fake_complex():
    terms = {-1: FreeSheaf(2, (-1,)), 0: FreeSheaf(2, (0,))}
    fake = Monad(QQ, 2, terms, {}, 1, 0)  # zero differential, nonzero terms
    assert regularity_bound(fake) == 0  # the shape qualifies; it is no resolution
    with pytest.raises(WindowDisagreementError, match="position -1 is not exact"):
        hilbert_poly_of_cohomology(fake)


def test_regularity_bound_values():
    cubic = point_monad(twisted_cubic_point())
    assert regularity_bound(cubic) == 1
    assert regularity_bound(dualize(cubic)) == 2
    assert regularity_bound(line_monad(QQ, 3, 0)) == 0
    assert regularity_bound(line_monad(QQ, 2, 0)) == 0
    assert regularity_bound(line_monad(QQ, 3, -1)) == 1
    # shapes that keep the heuristic window
    L = line_monad(QQ, 2, 0)
    inner = Monad(QQ, 2, L.terms, L.diffs, 1, -1)
    assert regularity_bound(inner) is None  # marked spot not the right end
    long = koszul_monad(QQ, 2, [0, 1, 2])
    assert long.hi - long.lo == 3 and regularity_bound(long) is None  # longer than n
    empty = Monad(QQ, 2, {0: FreeSheaf(2, ())}, {}, 1, 0)
    assert regularity_bound(empty) is None


def _first_window_start(monkeypatch, m):
    starts = []
    real = monad.cohomology_hilbert_function

    def spy(mm, position, t_range):
        starts.append(t_range.start)
        return real(mm, position, t_range)

    monkeypatch.setattr(monad, "cohomology_hilbert_function", spy)
    try:
        hilbert_poly_of_cohomology(m)
    except WindowDisagreementError:
        pass
    monkeypatch.undo()
    return starts[0]


def test_window_starts_at_t_n_never_above_the_old_start(monkeypatch):
    # every complex here is marked at its right end, so nothing slides
    monads = [m for m in _acceptance_complexes() if m.cohomology_position == m.hi]
    assert len(monads) > 80
    for m in monads:
        t_n = max((-e for s in m.terms.values() for e in s.twists), default=0) - m.n
        start = _first_window_start(monkeypatch, m)
        assert start == t_n, m
        reg = regularity_bound(m)
        assert start <= (reg if reg is not None else default_window(m).start), m


# O(-2)^2 -> O(-1)^3 -> O on P^2 with cohomology O_L(-2), L = {x0 = 0}:
# the image of the first map is the part of the Euler kernel Omega that
# degenerates on L.  Position 1 reads h^1(O_L(-2)) = 1 at t = t_n = 0.
_MIDDLE_MARKED = """P 2 over Q
term -1: [-2,-2]
term 0: [-1,-1,-1]
term 1: [0]
diff -1:
x1; x2
-x0; 0
0; -x0
diff 0:
x0; x1; x2
codim 1
cohomology_at 0
"""


def test_window_slides_past_higher_cohomology(monkeypatch):
    m = parse_monad(_MIDDLE_MARKED)
    assert validate(m) == []
    assert cohomology_hilbert_function(m, 1, range(0, 5)) == [1, 0, 0, 0, 0]
    assert cohomology_hilbert_function(m, 0, range(0, 5)) == [0, 0, 1, 2, 3]
    assert _first_window_start(monkeypatch, m) == 1  # t_n = 0 reads nonzero at q = 1
    assert hilbert_poly_of_cohomology(m) == IntPoly([-1, 1])
    _assert_windows_agree([m, dualize(m)])


def test_omega_windows_build_small_section_matrices(monkeypatch):
    largest = []
    real = monad.sections_matrix

    def spy(d, t):
        mat = real(d, t)
        largest.append(mat.rows * mat.cols)
        return mat

    monkeypatch.setattr(monad, "sections_matrix", spy)
    monad._sections_rank.cache_clear()
    for n in (1, 2, 3):
        for p in range(n + 1):
            for t in range(-6, 7):
                # the declared codimension 1 bounds the degree below that
                # of Omega^p(t), so every window disagrees
                with pytest.raises(WindowDisagreementError):
                    hilbert_poly_of_cohomology(omega_resolution(QQ, n, p, t))
    monad._sections_rank.cache_clear()
    assert largest and max(largest) <= 10 ** 5


def test_line_windows_start_low_without_refusal():
    for a in (100, 1000):
        assert hilbert_poly_of_cohomology(line_monad(QQ, 3, a)) == IntPoly([a + 1, 1])


def _window_outcome(fn, m):
    try:
        return fn(m)
    except WindowDisagreementError:
        return "disagreement"


def _assert_windows_agree(monads):
    for m in monads:
        assert (_window_outcome(hilbert_poly_of_cohomology, m)
                == _window_outcome(hilbert_poly_heuristic_window, m)), m


def _acceptance_complexes():
    """The complexes whose cohomology the acceptance suite reads; the
    random data of criteria 3 and 9 only feeds Euler polynomials and
    round trips."""
    koszul = [koszul_monad(QQ, n, v) for n, sets in (
        (1, [(0, 1)]),
        (2, [(0, 1), (0, 2), (1, 2), (0, 1, 2)]),
        (3, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1, 2), (0, 1, 3),
             (0, 2, 3), (1, 2, 3), (0, 1, 2, 3)])) for v in sets]
    koszul += [koszul_monad(QQ, 2, (0, 1), twist=-1), koszul_monad(QQ, 2, (0, 1, 2), twist=1),
               koszul_monad(QQ, 3, (0, 1), twist=-2), koszul_monad(QQ, 3, (1, 3), twist=2)]
    lines = [line_monad(QQ, n, a) for n in (2, 3) for a in range(-3, 4)]
    out = koszul + [augment_with_identity(m, m.lo, -1) for m in koszul]
    out += lines + [dualize(m) for m in lines]
    out += [omega_resolution(QQ, n, p, t)
            for n in (1, 2, 3) for p in range(n + 1) for t in range(-6, 7)]
    # criteria 1, 2 and 8; the sampled point of criterion 7 is in the next test
    for pt in (twisted_cubic_point(), twisted_cubic_point(F101), sample_wss_stats(17, F101)[0]):
        out += [point_monad(pt), dualize(point_monad(pt))]
    return out


def test_windows_agree_on_acceptance_complexes():
    _assert_windows_agree(_acceptance_complexes())


def test_windows_agree_on_p3_points():
    points = [twisted_cubic_point(), forbidden_form_point(),
              sample_wss_stats(0, F101)[0], sample_wss_stats(0, GF(2147483647))[0]]
    monads = [point_monad(pt) for pt in points]
    monads += [dualize(m) for m in monads]
    _assert_windows_agree(monads)
    for m in monads[:4]:
        assert hilbert_poly_of_cohomology(m) == IntPoly([1, 3])
    for m in monads[4:]:
        assert hilbert_poly_of_cohomology(m) == IntPoly([-1, 3])


def test_windows_agree_on_random_valid_monads(rng):
    # over F101: on Q draws the heuristic window's big-rational ranks can
    # take minutes, and the window start does not depend on the field
    _assert_windows_agree([random_valid_monad(rng, F101) for _ in range(30)])


def test_odd_position_flips_euler_sign():
    # the same line resolution, shifted so its cohomology sits at -1
    L = line_monad(QQ, 2, 0)
    shifted_terms = {i - 1: L.terms[i] for i in (-1, 0)}
    shifted = Monad(QQ, 2, shifted_terms, {-2: L.diffs[-1]}, 1, -1)
    assert hilbert_poly_of_cohomology(shifted) == IntPoly([1, 1])
    assert euler_poly(shifted) == -IntPoly([1, 1])


def test_acyclic_summand_keeps_exactness():
    k = koszul_monad(QQ, 2, [0, 1])
    aug = augment_with_identity(k, -1, -1)
    assert exactness_check(aug, [-1], range(5)) == {-1: True}


# --- minimality ------------------------------------------------------------


def test_koszul_minimal():
    assert minimality_check(koszul_monad(QQ, 3, [0, 1, 2]))


def test_identity_summand_breaks_minimality_not_cohomology():
    k = koszul_monad(QQ, 2, [0, 1])
    aug = augment_with_identity(k, -2, -2)
    assert minimality_check(k)
    assert not minimality_check(aug)
    window = range(0, 5)
    assert (cohomology_hilbert_function(aug, 0, window)
            == cohomology_hilbert_function(k, 0, window))


def test_phi21_point_is_not_minimal():
    from projmonad.modp3 import point_monad, twisted_cubic_point

    m = point_monad(twisted_cubic_point(F101))
    assert not minimality_check(m)  # the constant phi_21 = 1 sits between O(-1)s
    assert hilbert_poly_of_cohomology(m) == IntPoly([1, 3])


# --- sheaf cohomology via section rows -------------------------------------


def test_sheaf_cohomology_of_line_bundle_monad():
    m = Monad(QQ, 3, {0: FreeSheaf(3, (0,))}, {}, 1, 0)
    assert sheaf_cohomology(m, 2) == [10, 0, 0, 0]
    assert sheaf_cohomology(m, -4) == [0, 0, 0, 1]


def test_sheaf_cohomology_of_lines_matches_closed_form():
    for n in (2, 3):
        for a in range(-3, 4):
            got = sheaf_cohomology(line_monad(QQ, n, a), 0)
            want = [h_p1(q, a) if q <= 1 else 0 for q in range(n + 1)]
            assert got == want


def test_sheaf_cohomology_guard_on_long_complexes():
    # Koszul of all four coordinates on P^3 spans n+1 indices but has no
    # top-row classes, so the guard lets it through; its cohomology is 0.
    k = koszul_monad(QQ, 3, [0, 1, 2, 3])
    assert sheaf_cohomology(k, 5) == [0, 0, 0, 0]


def test_sheaf_cohomology_refuses_interacting_rows():
    # On P^1 a span-2 complex with top cohomology on the left and
    # sections on the right cannot be resolved by ranks alone.
    terms = {0: FreeSheaf(1, (-5,)), 1: FreeSheaf(1, ()), 2: FreeSheaf(1, (3,))}
    m = Monad(QQ, 1, terms, {}, 1, 0)
    with pytest.raises(ValueError):
        sheaf_cohomology(m, 0)


# --- tables -----------------------------------------------------------------


def test_beilinson_shape_of_structure_sheaf():
    table = table_from_dict(3, 3, {(0, 0): 1})
    shape = beilinson_shape(table)
    assert shape[0].twists == (0,)
    assert all(shape[i].rank == 0 for i in shape if i != 0)


def test_beilinson_shape_of_line_table():
    table = line_cohomology_table(2, 0)
    assert table.entries == ((-1, 1, 1), (0, 0, 1))
    shape = beilinson_shape(table)
    assert shape[-1].twists == (-1,) and shape[0].twists == (0,)
    L = line_monad(QQ, 2, 0)
    assert shape[-1] == L.terms[-1] and shape[0] == L.terms[0]


def test_beilinson_shape_sorts_twists_descending():
    table = table_from_dict(2, 1, {(0, 0): 1, (-1, 1): 2, (-2, 2): 1})
    shape = beilinson_shape(table)
    assert shape[-1].twists == (-1, -1)
    assert shape[-2].twists == (-2,)


def test_beilinson_shape_of_zero_table():
    shape = beilinson_shape(table_from_dict(2, 1, {}))
    assert all(s.rank == 0 for s in shape.values())


def test_beilinson_shape_lays_out_ranks_up_to_the_bound():
    # the bound counts the rank summed over all terms
    half = MAX_SECTION_SIDE // 2
    shape = beilinson_shape(
        table_from_dict(2, 1, {(0, 0): half, (-1, 1): MAX_SECTION_SIDE - half}))
    assert shape[0].rank + shape[-1].rank == MAX_SECTION_SIDE
    with pytest.raises(ValueError, match=f"total rank {MAX_SECTION_SIDE + 1},"):
        beilinson_shape(
            table_from_dict(2, 1, {(0, 0): half, (-1, 1): MAX_SECTION_SIDE - half + 1}))


def test_dual_table_drops_entries_off_the_table():
    # on P^2 with c = 1, (0, 0) lands at (-1, 2), but (2, 0) would land at
    # (-3, 2), cohomology degree -1
    table = table_from_dict(2, 1, {(2, 0): 4, (0, 0): 1})
    assert dual_beilinson_table(table).entries == ((-1, 2, 1),)


def test_dual_table_of_line_example():
    table = line_cohomology_table(2, 0)
    dual = dual_beilinson_table(table)
    # F^D(1) = O_L(-1) has no cohomology at all in column p = 0
    assert all(table_entry(dual, i, 0) == 0 for i in range(0, 3))
    assert dual.entries == ((-1, 2, 1), (0, 1, 1))


def test_dual_table_index_is_involution():
    for n in (2, 3):
        for c in range(1, n):
            for p in range(n + 1):
                for i in range(-p, n - p + 1):
                    assert dual_table_index(*dual_table_index(i, p, n, c), n, c) == (i, p)


def test_dual_table_of_zero_is_zero():
    assert dual_beilinson_table(table_from_dict(3, 1, {})).entries == ()


def test_dual_table_catalog_respects_cohomology_symmetry():
    # Column p = 0 of the dual table lists h^i of the twisted dual sheaf
    # O_L(-1-a); its ranks must agree with the closed forms and pair up
    # with h^(1-i) of O_L(a-1), the matching twist on the primal side.
    for n in (2, 3):
        for a in range(-3, 4):
            dual = dual_beilinson_table(line_cohomology_table(n, a))
            for i in range(n + 1):
                assert table_entry(dual, i, 0) == h_p1(i, -1 - a)
                assert table_entry(dual, i, 0) == h_p1(1 - i, a - 1)
    # shapes built from both tables stay rank-consistent with that pairing
    table = line_cohomology_table(3, 1)
    primal_rank = sum(s.rank for s in beilinson_shape(table).values())
    dual_rank = sum(s.rank for s in beilinson_shape(dual_beilinson_table(table)).values())
    assert primal_rank > 0 and dual_rank > 0


def test_dual_table_double_transform_restores_catalog_values():
    # On honest tables nothing falls off the meaningful rectangle, so
    # the double transform restores the values, not just the indices.
    for n in (2, 3):
        for a in range(-3, 4):
            table = line_cohomology_table(n, a)
            assert dual_beilinson_table(dual_beilinson_table(table)) == table


def test_cohtable_rejects_bad_entries():
    with pytest.raises(ValueError):
        table_from_dict(2, 1, {(0, 0): -1})
    with pytest.raises(ValueError):
        table_from_dict(2, 1, {(0, 5): 1})
    with pytest.raises(ValueError):
        table_from_dict(2, 1, {(4, 0): 1})


# --- file format -------------------------------------------------------------


def test_format_parse_round_trip_golden():
    k = koszul_monad(QQ, 2, [0, 1])
    text = format_monad(k)
    assert text == (
        "P 2 over Q\n"
        "term -2: [-2]\n"
        "term -1: [-1,-1]\n"
        "term 0: [0]\n"
        "diff -2:\n"
        "-x1\n"
        "x0\n"
        "diff -1:\n"
        "x0; x1\n"
        "codim 2\n"
        "cohomology_at 0\n"
    )
    assert parse_monad(text) == k


def test_round_trip_random_monads():
    rng = Random(23)
    for _ in range(40):
        m = random_monad(rng, QQ if rng.random() < 0.5 else F101)
        text = format_monad(m)
        back = parse_monad(text)
        assert back == m
        assert format_monad(back) == text


def test_round_trip_valid_monads():
    rng = Random(24)
    for _ in range(20):
        m = random_valid_monad(rng)
        assert parse_monad(format_monad(m)) == m


def test_parse_monad_errors():
    with pytest.raises(ParseError):
        parse_monad("")
    with pytest.raises(ParseError):
        parse_monad("P 2 over Q\nterm 0: [0]\n")  # missing codim etc
    with pytest.raises(ParseError):
        parse_monad("P 2 over K\nterm 0: [0]\ncodim 1\ncohomology_at 0\n")
    bad_rows = (
        "P 2 over Q\nterm 0: [0]\nterm 1: [1,1]\ndiff 0:\nx0\ncodim 1\ncohomology_at 0\n")
    with pytest.raises(ParseError):
        parse_monad(bad_rows)
    duplicates = {
        "term 0: [1]": "P 2 over Q\nterm 0: [0]\nterm 0: [1]\ncodim 1\ncohomology_at 0\n",
        "diff 0:": ("P 2 over Q\nterm 0: [0]\nterm 1: [1]\ndiff 0:\nx0\ndiff 0:\nx1\n"
                    "codim 1\ncohomology_at 0\n"),
        "codim 2": "P 2 over Q\nterm 0: [0]\ncodim 1\ncodim 2\ncohomology_at 0\n",
        "cohomology_at 0": ("P 2 over Q\nterm 0: [0]\ncohomology_at 0\ncodim 1\n"
                            "cohomology_at 0\n"),
    }
    for line, text in duplicates.items():
        with pytest.raises(ParseError, match=re.escape(f"duplicate line '{line}'")):
            parse_monad(text)


def test_direct_sum_shapes():
    a = koszul_monad(QQ, 2, [0, 1])
    b = line_monad(QQ, 2, -1)
    s = direct_sum(a, b)
    assert validate(s) == []
    assert s.terms[0].twists == (0, -1)
    assert euler_poly(s) == euler_poly(a) + euler_poly(b)


# --- builders and the section-rank cache ---------------------------------


def _builder_complexes(field, n: int) -> list[Monad]:
    everything = tuple(range(n + 1))
    koszul = [koszul_monad(field, n, v, twist=twist) for k in range(1, n + 2)
              for v in combinations(everything, k) for twist in (-1, 2)]
    omega = [omega_resolution(field, n, p, t) for p in range(n + 1) for t in (-2, 0, 3)]
    sums = [direct_sum(koszul[-1], omega[-1]), direct_sum(omega[0], koszul[0]),
            direct_sum(omega[n // 2], omega[-1])]
    return koszul + omega + sums


@pytest.mark.parametrize("field", [QQ, F101], ids=repr)
def test_builders_match_contraction_oracle(field, monkeypatch):
    for n in range(1, 5):
        built = _builder_complexes(field, n)
        with monkeypatch.context() as patched:
            patched.setattr(complexes, "_contraction", contraction_oracle)
            oracle = _builder_complexes(field, n)
        assert len(built) == len(oracle)
        for m, o in zip(built, oracle):
            assert m == o and hash(m) == hash(o)
            for i, d in m.diffs.items():
                # entrywise HomogPoly equality, which also compares degrees
                assert d.entries == o.diffs[i].entries
                assert all(is_canonical(field, v)
                           for row in d.entries for p in row for v in p.terms.values())
                rebuilt = GradedMatrix(d.field, d.source, d.target, d.entries)
                assert rebuilt == d and hash(rebuilt) == hash(d)
            assert validate(m) == []


def test_monad_builds_zero_only_for_missing_differentials(monkeypatch):
    calls = []
    real = GradedMatrix.zero.__func__

    def spy(cls, field, source, target):
        calls.append((source, target))
        return real(cls, field, source, target)

    monkeypatch.setattr(GradedMatrix, "zero", classmethod(spy))
    for field in (QQ, F101):
        calls.clear()
        k = koszul_monad(field, 3, [0, 1, 2])
        assert calls == []
        kept = {-3: k.diffs[-3], -1: k.diffs[-1]}
        m = Monad(field, 3, k.terms, kept, k.c, 0)
        assert calls == [(k.terms[-2], k.terms[-1])]
        assert m.diffs[-3] is kept[-3] and m.diffs[-1] is kept[-1]
        assert m.diffs[-2].is_zero()
        calls.clear()
        bare = Monad(field, 3, k.terms, {}, k.c, 0)
        assert calls == [(k.terms[i], k.terms[i + 1]) for i in (-3, -2, -1)]
        assert all(d.is_zero() for d in bare.diffs.values())


@pytest.mark.parametrize("field", [QQ, F101], ids=repr)
def test_bott_grid_section_rank_cache(field):
    # the p-forms of one twist share contraction matrices, so a key that
    # told equal matrices apart would turn hits into misses
    monad._sections_rank.cache_clear()
    try:
        for p in range(5):
            for t in range(-6, 7):
                got = sheaf_cohomology(omega_resolution(field, 4, p, t), 0)
                assert got == [bott_h(4, p, q, t) for q in range(5)], (p, t)
        info = monad._sections_rank.cache_info()
    finally:
        monad._sections_rank.cache_clear()
    assert (info.hits, info.misses) == (156, 104)


@pytest.mark.parametrize("field", [QQ, F101], ids=repr)
def test_matrices_one_coefficient_apart_get_their_own_rank_entries(field):
    # (x0 + x1, x0 + c*x1) from O(-1)^2 to O on P^1: at twist 1 its section
    # matrix has the columns (1, 1) and (1, c), of rank 1 at c = 1 only
    source, target = FreeSheaf(1, (-1, -1)), FreeSheaf(1, (0,))

    def row(c):
        forms = [parse_poly(f"x0 + {k}*x1", field, 1) for k in (1, c)]
        return GradedMatrix(field, source, target, [forms])

    a, b = row(1), row(2)
    assert a != b
    monad._sections_rank.cache_clear()
    try:
        assert [monad._sections_rank(d, 1) for d in (a, b, a, b)] == [1, 2, 1, 2]
        info = monad._sections_rank.cache_info()
    finally:
        monad._sections_rank.cache_clear()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 2)


def test_monad_over_a_prime_field_survives_copy_and_pickle():
    m = point_monad(twisted_cubic_point(F101))
    for c in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert c == m and c.field is F101
        assert format_monad(c) == format_monad(m)
