import re
from random import Random

import pytest

from conftest import (
    graded_add,
    graded_identity,
    graded_inverse_neumann_oracle,
    graded_neg,
    lift_constants,
    random_valid_monad,
)
from projmonad import autgroup
from projmonad.autgroup import (
    GroupElement,
    act,
    constant_part,
    format_group_element,
    graded_inverse,
    induced_dual_element,
    is_automorphism,
    parse_group_element,
    random_automorphism,
    random_element,
)
from projmonad.complexes import koszul_monad, line_monad
from projmonad.linalg import inverse as matrix_inverse
from projmonad.monad import cohomology_hilbert_function, dualize, validate
from projmonad.polymat import FreeSheaf, GradedMatrix, ParseError, compose, parse_poly
from projmonad.scalar import GF, QQ

F101 = GF(101)


def _two_by_two(entries, twists=(-2, -1), field=QQ):
    """Lower-triangular style endomorphism of O(a)+O(b), a < b."""
    sheaf = FreeSheaf(1, twists)
    ent = [[parse_poly(entries[i][j], field, 1, twists[i] - twists[j])
            for j in range(2)] for i in range(2)]
    return GradedMatrix(field, sheaf, sheaf, ent)


def test_unipotent_is_automorphism():
    g = _two_by_two([["1", "0"], ["x0", "1"]])
    assert is_automorphism(g)


def test_scalar_multiple_of_identity():
    g = _two_by_two([["5", "0"], ["0", "5"]])
    assert is_automorphism(g)


def test_zero_constant_diagonal_rejected():
    g = _two_by_two([["0", "0"], ["x0", "0"]])
    assert not is_automorphism(g)


def test_is_automorphism_needs_endomorphism():
    src, tgt = FreeSheaf(1, (-1,)), FreeSheaf(1, (0,))
    m = GradedMatrix(QQ, src, tgt, [[parse_poly("x0", QQ, 1, 1)]])
    with pytest.raises(ValueError):
        is_automorphism(m)


def test_inverse_of_unipotent():
    g = _two_by_two([["1", "0"], ["x0", "1"]])
    inv = graded_inverse(g)
    assert inv == _two_by_two([["1", "0"], ["-x0", "1"]])


def test_inverse_of_identity():
    sheaf = FreeSheaf(2, (0, -1, -3))
    ident = graded_identity(QQ, sheaf)
    assert graded_inverse(ident) == ident


def test_inverse_two_sided_100_random():
    rng = Random(31)
    for _ in range(100):
        n = rng.randint(1, 3)
        twists = tuple(sorted(rng.randint(-4, 0) for _ in range(rng.randint(1, 4))))
        sheaf = FreeSheaf(n, twists)
        field = QQ if rng.random() < 0.5 else F101
        g = random_automorphism(field, sheaf, rng)
        inv = graded_inverse(g)
        ident = graded_identity(field, sheaf)
        assert compose(g, inv) == ident
        assert compose(inv, g) == ident


def test_random_automorphism_gives_up_after_64_draws(monkeypatch):
    drawn = []

    def never(g):
        drawn.append(g)
        return False

    monkeypatch.setattr(autgroup, "is_automorphism", never)
    with pytest.raises(RuntimeError, match="^no invertible draw in 64 tries$"):
        random_automorphism(F101, FreeSheaf(2, (0, -1)), Random(3))
    assert len(drawn) == 64


def _automorphism_cases(field, rng):
    """Automorphisms with 1-5 twist levels, gapped and unsorted twist
    lists, every density, plus the rank-0 and identity edge cases."""
    cases = []
    for trial in range(45):
        n = rng.randint(1, 3)
        levels = rng.sample(range(-8, 3), 1 + trial % 5)
        twists = [e for e in levels for _ in range(rng.randint(1, 2))]
        rng.shuffle(twists)
        sheaf = FreeSheaf(n, tuple(twists))
        density = (0.3, 0.7, 1.0)[trial % 3]
        cases.append(random_automorphism(field, sheaf, rng, density=density))
    cases.append(GradedMatrix.zero(field, FreeSheaf(2, ()), FreeSheaf(2, ())))
    cases.append(graded_identity(field, FreeSheaf(3, (0, -4, -1, -4, 2))))
    return cases


@pytest.mark.parametrize("field", [QQ, F101, GF(2**31 - 1)], ids=repr)
def test_graded_inverse_matches_neumann_oracle(field):
    rng = Random(41)
    for g in _automorphism_cases(field, rng):
        inv = graded_inverse(g)
        assert inv == graded_inverse_neumann_oracle(g)
        ident = graded_identity(field, g.source)
        assert compose(g, inv) == ident
        assert compose(inv, g) == ident


@pytest.mark.parametrize("field", [QQ, F101, GF(2**31 - 1)], ids=repr)
def test_graded_inverse_errors_match_neumann_oracle(field):
    # constant part singular: the constant on the middle twist level is 0
    sheaf = FreeSheaf(1, (-1, -2, -1))
    ent = [[parse_poly(c, field, 1, sheaf.twists[r] - sheaf.twists[s])
            for s, c in enumerate(row)]
           for r, row in enumerate([["1", "0", "2"], ["0", "0", "0"], ["1", "x1", "2"]])]
    g = GradedMatrix(field, sheaf, sheaf, ent)
    messages = []
    for inverse in (graded_inverse, graded_inverse_neumann_oracle):
        with pytest.raises(ValueError) as info:
            inverse(g)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "not an automorphism: constant part is singular"
    # not an endomorphism
    src, tgt = FreeSheaf(1, (-1,)), FreeSheaf(1, (0,))
    m = GradedMatrix(field, src, tgt, [[parse_poly("x0", field, 1, 1)]])
    messages = []
    for inverse in (graded_inverse, graded_inverse_neumann_oracle):
        with pytest.raises(ValueError) as info:
            inverse(m)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("endomorphisms only")


def test_positive_part_is_nilpotent():
    rng = Random(32)
    for _ in range(20):
        twists = tuple(sorted(rng.randint(-4, 0) for _ in range(3)))
        sheaf = FreeSheaf(2, twists)
        g = random_automorphism(QQ, sheaf, rng)
        g0 = constant_part(g)
        nu = graded_add(g, graded_neg(lift_constants(g.field, sheaf, g0)))
        power = nu
        for _ in range(len(set(twists)) - 1):
            power = compose(nu, power)
        assert power.is_zero()


def test_parse_group_element_rejects_duplicates():
    term = "P 2 over Q\nterm 0: [0]\nterm 0: [0]\nblock 0:\n1\n"
    with pytest.raises(ParseError, match=re.escape("duplicate line 'term 0: [0]'")):
        parse_group_element(term)
    block = "P 2 over Q\nterm 0: [0]\nblock 0:\n1\nblock 0:\n2\n"
    with pytest.raises(ParseError, match="duplicate line 'block 0:'"):
        parse_group_element(block)


def test_parse_group_element_rejects_orphan_block():
    text = "P 2 over Q\nterm 0: [0]\nblock 0:\n2\nblock 5:\n7\n"
    with pytest.raises(ParseError, match="block 5 without term 5"):
        parse_group_element(text)
    # with its term the same block parses and formats back
    fixed = "P 2 over Q\nterm 0: [0]\nterm 5: [0]\nblock 0:\n2\nblock 5:\n7\n"
    assert format_group_element(parse_group_element(fixed)) == fixed


def test_parse_group_element_checks_row_counts():
    # rows under a rank-0 term are refused, not dropped
    text = "P 2 over Q\nterm 0: []\nblock 0:\n1; x0\n"
    with pytest.raises(ParseError, match=re.escape("block 0: expected 0 rows, got 1")):
        parse_group_element(text)
    missing = "P 2 over Q\nterm 0: [0,1]\n"
    with pytest.raises(ParseError, match=re.escape("block 0: expected 2 rows, got 0")):
        parse_group_element(missing)
    # a rank-0 term with no rows parses to the empty block and prints back
    empty = "P 2 over Q\nterm 0: []\nterm 1: [0]\nblock 1:\n3\n"
    assert format_group_element(parse_group_element(empty)) == empty


def test_parse_group_element_needs_a_term():
    with pytest.raises(ParseError, match="no term line"):
        parse_group_element("P 2 over Q\n")


def test_constant_part_of_inverse_is_matrix_inverse():
    rng = Random(33)
    for _ in range(30):
        twists = tuple(sorted(rng.randint(-3, 0) for _ in range(3)))
        sheaf = FreeSheaf(2, twists)
        g = random_automorphism(QQ, sheaf, rng)
        inv = graded_inverse(g)
        assert constant_part(inv) == matrix_inverse(constant_part(g))


def test_identity_acts_trivially():
    m = koszul_monad(QQ, 2, [0, 1])
    identity = GroupElement({i: graded_identity(m.field, m.terms[i]) for i in m.terms})
    assert act(identity, m) == m


def test_action_preserves_validity_and_hilbert_function():
    m = line_monad(F101, 3, 0)
    window = range(0, 4)
    base = cohomology_hilbert_function(m, 0, window)
    for trial in range(50):
        g = random_element(F101, m, seed=1000 + trial)
        moved = act(g, m)
        assert validate(moved) == []
        assert cohomology_hilbert_function(moved, 0, window) == base


def test_action_is_group_action():
    m = koszul_monad(QQ, 2, [0, 2])
    for trial in range(25):
        g = random_element(QQ, m, seed=2000 + trial)
        h = random_element(QQ, m, seed=3000 + trial)
        gh = GroupElement({i: compose(g.blocks[i], h.blocks[i]) for i in g.blocks})
        assert act(gh, m) == act(g, act(h, m))


def test_induced_dual_of_identity():
    m = koszul_monad(QQ, 2, [0, 1])
    e = GroupElement({i: graded_identity(m.field, m.terms[i]) for i in m.terms})
    de = induced_dual_element(e, m.c)
    dm = dualize(m)
    assert de == GroupElement({i: graded_identity(dm.field, dm.terms[i]) for i in dm.terms})


def test_unipotent_commuting_square_explicit():
    # two-term complex O(-2) -> O(-1) with the identity-ish differential
    field = QQ
    terms = {0: FreeSheaf(1, (-2, -1))}
    g = _two_by_two([["1", "0"], ["x0", "1"]])
    m_sheaf_src = FreeSheaf(1, (-3,))
    d = GradedMatrix(field, m_sheaf_src, g.source,
                     [[parse_poly("x0", field, 1, 1)], [parse_poly("x1^2", field, 1, 2)]])
    from projmonad.monad import Monad

    monad = Monad(field, 1, {-1: m_sheaf_src, 0: g.source}, {-1: d}, 1, 0)
    element = GroupElement({-1: graded_identity(field, m_sheaf_src), 0: g})
    lhs = dualize(act(element, monad))
    rhs = act(induced_dual_element(element, 1), dualize(monad))
    assert lhs == rhs


def test_equivariance_square_100_random():
    rng = Random(36)
    for _ in range(100):
        m = random_valid_monad(rng)
        g = random_element(m.field, m, seed=rng.randrange(1 << 30))
        lhs = dualize(act(g, m))
        rhs = act(induced_dual_element(g, m.c), dualize(m))
        assert lhs == rhs


def test_induced_dual_is_homomorphism():
    m = koszul_monad(QQ, 2, [0, 1])
    for trial in range(25):
        g = random_element(QQ, m, seed=4000 + trial)
        h = random_element(QQ, m, seed=5000 + trial)
        gh = GroupElement({i: compose(g.blocks[i], h.blocks[i]) for i in g.blocks})
        dg, dh = induced_dual_element(g, m.c), induced_dual_element(h, m.c)
        lhs = induced_dual_element(gh, m.c)
        rhs = GroupElement({i: compose(dg.blocks[i], dh.blocks[i]) for i in dg.blocks})
        assert lhs == rhs


def test_random_element_is_seed_deterministic():
    m = line_monad(F101, 2, 0)
    assert random_element(F101, m, seed=9) == random_element(F101, m, seed=9)
    assert random_element(F101, m, seed=9) != random_element(F101, m, seed=10)


def test_group_element_round_trip():
    rng = Random(38)
    for trial in range(20):
        m = random_valid_monad(rng, QQ if trial % 2 else F101)
        g = random_element(m.field, m, seed=6000 + trial)
        text = format_group_element(g)
        assert parse_group_element(text) == g
        assert format_group_element(parse_group_element(text)) == text


def _no_solve(g):
    raise AssertionError("graded_inverse ran")


@pytest.mark.parametrize("field", [QQ, F101, GF(2**31 - 1)], ids=repr)
def test_induced_dual_element_carries_true_inverses(field, monkeypatch):
    rng = Random(44)
    for _ in range(25):
        m = random_valid_monad(rng, field)
        g = random_element(field, m, seed=rng.randrange(1 << 30))
        gd, dm = induced_dual_element(g, m.c), dualize(m)
        with monkeypatch.context() as patch:
            patch.setattr(autgroup, "graded_inverse", _no_solve)
            carried = {i: gd.inverse(i) for i in gd.blocks}
            moved = act(gd, dm)
        for i, b in gd.blocks.items():
            assert carried[i] == graded_inverse(b) == graded_inverse_neumann_oracle(b)
        assert moved == dualize(act(g, m))
        # an element that carries nothing solves and acts the same
        assert act(GroupElement(gd.blocks), dm) == moved


def test_group_element_solves_each_inverse_once(monkeypatch):
    m = koszul_monad(F101, 3, [0, 1, 2])
    solved = []

    def counting(b):
        solved.append(b)
        return graded_inverse(b)

    monkeypatch.setattr(autgroup, "graded_inverse", counting)
    g = random_element(F101, m, seed=7)
    fresh = GroupElement(g.blocks)
    assert solved == []
    first = act(fresh, m)
    assert len(solved) == m.hi - m.lo
    assert act(fresh, m) == first
    gd = induced_dual_element(fresh, m.c)
    assert len(solved) == len(m.terms)
    act(gd, dualize(m))
    assert len(solved) == len(m.terms)
    assert all(fresh.inverse(i) is fresh.inverse(i) for i in fresh.blocks)
