"""Trinomial equivalence, discriminants, Galois evidence, families."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from quintic_trinomials.qpoly import UniPoly, discriminant, is_rational_square
from quintic_trinomials.factor import factor_over_Q, cycle_type_mod_p, primes_below
from quintic_trinomials.numberfield import NumberField, has_root_in_field
from quintic_trinomials.trinomial import (Trinomial, ScaledTrinomial, EquivClass,
                                          NotTForm, equiv_class, normalize_t_form,
                                          trinomial_disc, galois_type_heuristic, GaloisEvidence,
                                          weber_family, dihedral_family,
                                          sw2_family, two_trinomial_family, _vanishes_at)
from fraction_reference import galois_type_factoring_first, pair_identity
from qpoly_reference import content_and_primitive


def test_equiv_class_kinds():
    assert equiv_class(Trinomial(-5, 12)) == EquivClass("generic", F(-3125, 20736))
    assert equiv_class(Trinomial(750, 3750)) == EquivClass("generic", F(6, 5))
    assert equiv_class(Trinomial(0, -18)) == EquivClass("pure", F(18))
    assert equiv_class(Trinomial(0, -18)) == equiv_class(Trinomial(0, F(-9, 16)))
    assert equiv_class(Trinomial(3, 0)) == EquivClass("linear-only")
    assert equiv_class(Trinomial(0, 0)) == EquivClass("degenerate")


def test_equivalence_is_a_scaling_invariant():
    rng = random.Random(51)
    for _ in range(200):
        f = Trinomial(F(rng.randint(-40, 40), rng.randint(1, 9)),
                      F(rng.randint(-40, 40), rng.randint(1, 9)))
        lam = F(rng.randint(1, 15) * rng.choice([-1, 1]), rng.randint(1, 15))
        assert equiv_class(f.scaled(lam)) == equiv_class(f)


_RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(_RATIONALS, _RATIONALS, _RATIONALS.filter(lambda u: u != 0))
def test_equiv_class_is_invariant_under_rescaling(a, b, u):
    assert equiv_class(Trinomial(a * u ** 4, b * u ** 5)) == equiv_class(Trinomial(a, b))


def test_scaled_matches_polynomial_rescaling():
    f = Trinomial(-5, 12)
    lam = F(12, -5)
    poly = f.as_unipoly().scale_argument(lam) * lam ** -5
    assert poly == f.scaled(lam).as_unipoly()


def test_normalize_t_form():
    normalized, lam = normalize_t_form(Trinomial(-5, 12))
    t = F(-3125, 20736)
    assert normalized == Trinomial(t, t)
    assert lam == F(12, -5)
    assert normalize_t_form(Trinomial(750, 3750))[0] == Trinomial(F(6, 5), F(6, 5))
    fixed, lam1 = normalize_t_form(Trinomial(F(6, 5), F(6, 5)))
    assert fixed == Trinomial(F(6, 5), F(6, 5)) and lam1 == 1


def test_normalize_t_form_signals_class():
    with pytest.raises(NotTForm) as err:
        normalize_t_form(Trinomial(0, -18))
    assert err.value.equiv_class == EquivClass("pure", F(18))


def test_disc_closed_form_anchors():
    t = F(-3125, 256)
    assert trinomial_disc(Trinomial(t, t)) == 0
    assert trinomial_disc(Trinomial(0, 1)) == 3125
    assert trinomial_disc(Trinomial(-5, 12)) == 64000000


def test_disc_matches_resultant_based():
    rng = random.Random(52)
    for _ in range(200):
        f = Trinomial(F(rng.randint(-50, 50), rng.randint(1, 10)),
                      F(rng.randint(-50, 50), rng.randint(1, 10)))
        assert trinomial_disc(f) == discriminant(f.as_unipoly())


def test_galois_heuristic_anchors():
    group, ev = galois_type_heuristic(Trinomial(-5, 12))
    assert group == "D10" and ev.disc_is_square
    group, ev = galois_type_heuristic(Trinomial(0, -18))
    assert group == "F20" and not ev.disc_is_square
    assert set(ev.cycle_types) <= {(1, 1, 1, 1, 1), (1, 2, 2), (1, 4), (5,)}
    with pytest.raises(ValueError):
        galois_type_heuristic(Trinomial(1, 1))  # x^5+x+1 reducible


def test_galois_heuristic_generic_s5():
    group, ev = galois_type_heuristic(Trinomial(2, 2))
    assert group == "S5" and not ev.disc_is_square


def _reference_evidence(f, prime_bound):
    """The per-prime loop over every good prime, kept as the oracle of the batched kernel."""
    disc = trinomial_disc(f)
    _, ints = content_and_primitive(f.as_unipoly())
    observed = set()
    used = 0
    for p in primes_below(prime_bound):
        if ints[-1] % p == 0 or disc.numerator % p == 0 or disc.denominator % p == 0:
            continue
        observed.add(cycle_type_mod_p(ints, p))
        used += 1
    return GaloisEvidence(is_rational_square(disc), tuple(sorted(observed)), used)


_RATIONAL = st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))


@settings(max_examples=25, deadline=None)
@given(_RATIONAL, _RATIONAL.filter(bool), st.sampled_from([30, 500, 1800]))
def test_galois_heuristic_matches_per_prime_reference(a, b, prime_bound):
    f = Trinomial(a, b)
    assume(factor_over_Q(f.as_unipoly()).is_irreducible)
    # 1800 gives more than 256 primes above 5: two blocks of the kernel
    assert galois_type_heuristic(f, prime_bound)[1] == _reference_evidence(f, prime_bound)


def test_galois_heuristic_matches_per_prime_reference_on_families():
    for f in (Trinomial(-5, 12), Trinomial(0, -18), Trinomial(75, 105), Trinomial(2, 2),
              weber_family(2), dihedral_family(3), two_trinomial_family(F(2)).f.monic()):
        assert galois_type_heuristic(f)[1] == _reference_evidence(f, 500), f


def _result_or_error(heuristic, f, prime_bound):
    try:
        return heuristic(f, prime_bound)
    except ValueError as exc:
        return str(exc)


_SMALL_RATIONAL = st.builds(F, st.integers(-60, 60), st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(_SMALL_RATIONAL, _SMALL_RATIONAL, st.booleans(), st.sampled_from([7, 30, 500]))
def test_galois_heuristic_matches_the_factor_first_reference(a, r, reducible, prime_bound):
    # b = -(r^5 + a r) puts the root r on x^5 + ax + b; bound 7 leaves few
    # primes, so the cycle types often fail to prove irreducibility
    b = -(r ** 5 + a * r) if reducible else r
    f = Trinomial(a, b)
    assert (_result_or_error(galois_type_heuristic, f, prime_bound)
            == _result_or_error(galois_type_factoring_first, f, prime_bound))


def test_galois_heuristic_on_reducible_and_degenerate_trinomials():
    repeated = F(-3125, 256)  # x^5 + tx + t has a double root
    for f in (Trinomial(1, 1), Trinomial(-2, 1), Trinomial(0, 0), Trinomial(5, 0),
              Trinomial(0, 32), Trinomial(repeated, repeated), Trinomial(-1, 0)):
        message = f"{f} is reducible over Q"
        assert (_result_or_error(galois_type_heuristic, f, 500) == message
                == _result_or_error(galois_type_factoring_first, f, 500))


def test_weber_family_values():
    assert weber_family(2) == Trinomial(F(15, 32), F(21, 16))
    assert weber_family(0) == Trinomial(F(-5, 16), F(3, 8))
    f1 = weber_family(1)
    assert f1 == Trinomial(0, 1)  # 20x^5 + 20 normalized: x^5 + 1, reducible
    assert not factor_over_Q(f1.as_unipoly()).is_irreducible


def test_dihedral_family_values():
    assert dihedral_family(2) == weber_family(F(3, 2)) == Trinomial(F(1, 4), F(6, 5))
    assert dihedral_family(1) == weber_family(0)
    assert dihedral_family(-1) == dihedral_family(1)  # s -> -1/s symmetry
    with pytest.raises(ValueError):
        dihedral_family(0)


def test_family_cycle_type_censuses():
    rng = random.Random(53)
    f20_types = {(1, 1, 1, 1, 1), (1, 2, 2), (1, 4), (5,)}
    d10_types = {(1, 1, 1, 1, 1), (1, 2, 2), (5,)}
    seen = 0
    while seen < 10:
        u = F(rng.randint(-30, 30), rng.randint(1, 6))
        try:
            _, ev = galois_type_heuristic(weber_family(u))
        except ValueError:
            continue
        assert set(ev.cycle_types) <= f20_types, f"u = {u}"
        seen += 1
    seen = 0
    while seen < 10:
        s = F(rng.randint(-30, 30), rng.randint(1, 6))
        if s == 0:
            continue
        try:
            _, ev = galois_type_heuristic(dihedral_family(s))
        except ValueError:
            continue
        assert set(ev.cycle_types) <= d10_types, f"s = {s}"
        assert ev.disc_is_square, f"s = {s}"
        seen += 1


def test_sw2_family_values():
    m, f = sw2_family(2)
    assert m == 24 and f == Trinomial(F(96, 5), F(-192, 5))
    m2, _ = sw2_family(-2)
    assert m2 == 648
    for bad in (0, 1, -1):
        with pytest.raises(ValueError):
            sw2_family(bad)


def test_sw2_field_membership():
    rng = random.Random(54)
    done = 0
    while done < 5:
        r = F(rng.randint(-6, 6), rng.randint(1, 3))
        if r in (0, 1, -1):
            continue
        m, f = sw2_family(r)
        radical = UniPoly([-m, 0, 0, 0, 0, 1])
        if not factor_over_Q(radical).is_irreducible:
            continue
        field = NumberField(radical)
        res = has_root_in_field(f.as_unipoly(), field)
        assert res.certified, f"r = {r}"
        done += 1


def test_two_trinomial_family_anchor():
    pair = two_trinomial_family(2)
    assert pair.f == ScaledTrinomial(40, -10, -4)
    assert pair.h == ScaledTrinomial(20, 145, -394)
    assert pair.beta_coords == (F(2), F(2), F(-5), F(10), F(-10))
    assert pair.verified and pair.f_irreducible


def test_two_trinomial_family_random_parameters():
    rng = random.Random(55)
    done = 0
    while done < 25:
        a = F(rng.randint(-40, 40), rng.randint(1, 8))
        if a in (0, 1, -8):
            continue
        pair = two_trinomial_family(a)
        assert pair.verified, f"a = {a}"
        done += 1


def test_two_trinomial_identity_matches_the_fraction_reference():
    rng = random.Random(56)
    done = 0
    while done < 30:
        a = F(rng.randint(-90, 90), rng.randint(1, 16))
        if a in (0, 1, -8):
            continue
        pair = two_trinomial_family(a)
        f, h = pair.f.as_unipoly(), pair.h.as_unipoly()
        assert pair.verified and pair_identity(f, pair.beta_coords, h), f"a = {a}"
        # moving one coordinate of beta by 1, or by a small fraction, breaks the identity
        for j in range(5):
            for delta in (1, F(1, 7)):
                moved = tuple(c + delta if i == j else c for i, c in enumerate(pair.beta_coords))
                assert not _vanishes_at(pair.h, moved, pair.f), (a, j, delta)
                assert not pair_identity(f, moved, h), (a, j, delta)
        done += 1


def test_two_trinomial_family_exclusions():
    for a in (0, 1, -8):
        with pytest.raises(ValueError):
            two_trinomial_family(a)


def test_two_trinomial_classes_differ():
    pair = two_trinomial_family(2)
    assert equiv_class(pair.f.monic()) != equiv_class(pair.h.monic())


def test_parse_layer_normalizes_leading_coefficient():
    assert Trinomial.from_coefficients(40, -10, -4) == Trinomial(F(-1, 4), F(-1, 10))
    with pytest.raises(ValueError):
        Trinomial.from_coefficients(0, 1, 1)
