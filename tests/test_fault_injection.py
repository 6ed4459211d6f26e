"""Fault injection: each case plants one fault and names the check that must
catch it.  The outcome must be that check's exception, never a different
answer.

Cases so far:
- `enumerate_suborbit`: a stabilizer order overstated by `GeneratedGroup.order`
  ("covered more points than orbit length"; at 2x it can pass, and Schur
  counting catches it), and `covered` over-counted on an orbit that ends by
  full coverage ("orbit length does not divide |H|");
- `classify`: a wrong partner ("orbit pairing is not an involution",
  "paired orbits differ in length");
- `schreier_stabilizer`: a target order above the true one ("stabilizer
  generation incomplete");
- `splitchar._quadratic_driver`: a central element shifted by the identity,
  or a polynomial with its constant term moved, under which the trace
  route reads wrong quadratic values (UnsupportedComponentError, or the
  table verification);
- `splitchar._central_idempotents`: one coordinate of an idempotent moved,
  with or without the opposite move on another ("a central idempotent is
  not idempotent", "central idempotents do not sum to 1");
- `splitchar.left_kernel`: a centre short of its first basis element,
  which products of central elements leave ("a row outside the centre");
- the oracle's quadratic components: an action moved off the span of I
  and the first non-scalar action ("action is not scalar on the
  eigenspaces");
- `splitchar.split_component`: a row with values that are not a
  character (`NotACharacterError`, exit 2 from `chartab`);
- the Cartan route's head-split checks, in test_gfmat.py;
- `fixtures.run_suite`'s certificate for the factorization of
  char_poly(P_2): a changed multiplicity, a dropped factor, and two linear
  factors listed as their product (the factorization check, and "X - 31
  exactly once", which is read off the certified list).

The other checks of `src/endoperm` have no case here yet.
"""

import json

import pytest

from endoperm import (cli, corpus, fixtures, oracle, orbenum, pipeline,
                      quadfield, splitchar, zpoly)
from endoperm.permgrp import (GeneratedGroup, Permutation, orbit_tree,
                              schreier_stabilizer)
from endoperm.pipeline import run_pipeline
from scenarios import johnson_context

# corpus instances with a component that carries a real quadratic field
QUADRATIC = ("random-1-dihedral-5-points", "random-4-dihedral-16-regular",
             "random-6-paley-13")


def _instance(name):
    return next(inst for inst in corpus.all_instances() if inst.name == name)


def _overstate_orders(monkeypatch, factor):
    real = GeneratedGroup.order
    monkeypatch.setattr(GeneratedGroup, "order",
                        lambda self: factor * real(self))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_overstated_stabilizer_order_is_caught(monkeypatch, seed):
    ctx, helper = johnson_context(10, 2)
    _overstate_orders(monkeypatch, 4)
    with pytest.raises(AssertionError,
                       match="covered more points than orbit length"):
        orbenum.classify(ctx, helper, seed=seed)


def test_twice_overstated_order_is_caught_by_counting(monkeypatch):
    # classify seals the 16-point orbit as two of 8 points, whose lengths
    # pass its checks and sum to [G:H]
    ctx, helper = johnson_context(10, 2)
    _overstate_orders(monkeypatch, 2)
    assert orbenum.classify(ctx, helper, seed=2).lengths() == [1, 8, 8, 28]
    with pytest.raises(AssertionError,
                       match="explicit enumeration disagrees with n_j"):
        run_pipeline(ctx, helper, ctx.h_order, seed=2)


def test_overcounted_full_coverage_is_caught(monkeypatch):
    ctx, helper = johnson_context(10, 2)
    real = orbenum._store_fiber

    def overcounted(helper, record, z):
        real(helper, record, z)
        record.covered += 100    # 101 does not divide |H| = 2 * 8!

    monkeypatch.setattr(orbenum, "_store_fiber", overcounted)
    with pytest.raises(AssertionError,
                       match="orbit length does not divide"):
        orbenum.enumerate_suborbit(ctx, helper, ctx.v1, {})


def _wrong_partner(monkeypatch, pick):
    """Make `classify` pair each newly kept record after v1's with
    pick(kept records so far) in place of the orbit of v1 . g^-1."""
    real = orbenum.enumerate_suborbit
    kept = []
    partner_call = False

    def spy(ctx, helper, v, known):
        nonlocal partner_call
        if partner_call:
            partner_call = False
            return pick(kept)
        rec = real(ctx, helper, v, known)
        if rec.reach is None:    # fresh: classify keeps it, then pairs it
            partner_call = bool(kept)
            kept.append(rec)
        return rec

    monkeypatch.setattr(orbenum, "enumerate_suborbit", spy)


@pytest.mark.parametrize("pick, message", [
    (lambda kept: kept[-2], "orbit pairing is not an involution"),
    (lambda kept: kept[0], "paired orbits differ in length"),
])
def test_wrong_partner_is_caught(monkeypatch, pick, message):
    ctx, helper = johnson_context(10, 2)
    _wrong_partner(monkeypatch, pick)
    with pytest.raises(AssertionError, match=message):
        orbenum.classify(ctx, helper, seed=0)


def test_target_above_the_stabilizer_order_is_caught():
    n = 6
    gens = [Permutation([1, 0] + list(range(2, n))),
            Permutation(list(range(1, n)) + [0])]
    points, tree = orbit_tree(0, gens, lambda pt, g: g.images[pt])

    def image(pt, gi):
        return gens[gi].images[pt]

    group, _ = schreier_stabilizer(points, tree, image, gens, n, 120)
    assert group.order() == 120
    with pytest.raises(RuntimeError, match="stabilizer generation incomplete"):
        schreier_stabilizer(points, tree, image, gens, n, 240)


def _shifted_element(ez, f, comp):
    """z + 1 in place of z: e z + e over the idempotent's denominator,
    with z's polynomial."""
    return [x + y for x, y in zip(ez, comp.idempotent)], f


def _moved_constant(ez, f, comp):
    return ez, (f[0] - 1,) + tuple(f[1:])


@pytest.mark.parametrize("fault", [_shifted_element, _moved_constant])
@pytest.mark.parametrize("name", QUADRATIC)
def test_wrong_quadratic_driver_gives_no_table(monkeypatch, name, fault):
    run = pipeline.run_instance(_instance(name), primes=())
    real = splitchar._quadratic_driver
    monkeypatch.setattr(splitchar, "_quadratic_driver",
                        lambda comp: fault(*real(comp), comp))
    with pytest.raises((splitchar.UnsupportedComponentError,
                        AssertionError)) as caught:
        splitchar.build_table(run.matrices, run.table.lengths,
                              run.table.pairing)
    if caught.type is AssertionError:
        assert "table verification failed" in str(caught.value)


class _LastActionMoved(quadfield.RowSolver):
    """Moves one off-diagonal entry of the last of several actions on a
    component of dimension at least 2: no matrix unit is in the span of
    I and an action with an irreducible quadratic polynomial."""

    def act(self, M):
        actions = super().act(M)
        if len(actions) > 1 and self.k > 1:
            actions[-1][0][-1] += 1
        return actions


@pytest.mark.parametrize("name", ["random-1-dihedral-5-points",
                                  "random-6-paley-13"])
def test_oracle_action_off_the_span_is_caught(monkeypatch, name):
    monkeypatch.setattr(oracle, "RowSolver", _LastActionMoved)
    with pytest.raises(AssertionError,
                       match="action is not scalar on the eigenspaces"):
        pipeline.oracle_instance(_instance(name))


def test_a_row_that_is_no_character_exits_2(monkeypatch, tmp_path, capsys):
    # tripled values make the self-orthogonality sum 9 times too large, so
    # S4/S3's rows of degree 1 and 3 get Fitting degrees 1/9 and 1/3
    real = splitchar.split_component

    def tripled(comp, W):
        rows = real(comp, W)
        rows[0].values = [3 * v for v in rows[0].values]
        return rows

    monkeypatch.setattr(splitchar, "split_component", tripled)
    scenario = tmp_path / "s4.json"
    scenario.write_text(json.dumps(corpus.instance_scenario(
        _instance("S4/S3"))))
    assert cli.main(["chartab", str(scenario)]) == cli.EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "invariant violation: Fitting degree" in err
    assert "Traceback" not in err


def _moved_idempotents(shift):
    """Raises the first coordinate of the first idempotent's part by 1 and
    lowers that of the second by shift: at shift 1 the sum stays 1 and the
    parts are no longer idempotent, at shift 0 the sum is no longer 1."""
    real = splitchar._central_idempotents

    def moved(basis, centres):
        parts, den = real(basis, centres)
        parts = [list(part) for part in parts]
        parts[0][0] += 1
        parts[1][0] -= shift
        return parts, den
    return moved


@pytest.mark.parametrize("shift, message", [
    (1, "a central idempotent is not idempotent"),
    (0, "central idempotents do not sum to 1"),
])
@pytest.mark.parametrize("name", ["S4/S3", "random-4-dihedral-16-regular"])
def test_a_perturbed_idempotent_is_refused(monkeypatch, name, shift,
                                           message):
    run = pipeline.run_instance(_instance(name), primes=())
    monkeypatch.setattr(splitchar, "_central_idempotents",
                        _moved_idempotents(shift))
    with pytest.raises(AssertionError, match=message):
        splitchar.build_table(run.matrices, run.table.lengths,
                              run.table.pairing)


@pytest.mark.parametrize("name", ["random-4-dihedral-16-regular",
                                  "random-5-quaternion-regular"])
def test_a_centre_short_of_a_basis_element_is_refused(monkeypatch, name):
    run = pipeline.run_instance(_instance(name), primes=())
    real = splitchar.left_kernel
    monkeypatch.setattr(splitchar, "left_kernel", lambda A: real(A)[1:])
    with pytest.raises(AssertionError, match="a row outside the centre"):
        splitchar.build_table(run.matrices, run.table.lengths,
                              run.table.pairing)


def _set_multiplicity(f, mf):
    def edit(comps):
        for comp in comps:
            if comp["f"] == f:
                comp["mf"] = mf
    return edit


def _drop(f):
    def edit(comps):
        comps[:] = [comp for comp in comps if comp["f"] != f]
    return edit


def _merge_linear(f, g):
    """The listed linear factors f and g replaced by their product, which
    still multiplies back to char_poly(P_2) but is reducible."""
    def edit(comps):
        _drop(g)(comps)
        for comp in comps:
            if comp["f"] == f:
                comp["f"] = list(zpoly.mul(tuple(f), tuple(g)))
    return edit


@pytest.mark.parametrize("fault", [
    _set_multiplicity([-64, 3, 1], 3), _drop([2, 1]),
    _merge_linear([-16, 1], [-9, 1]),
], ids=["multiplicity", "dropped", "reducible"])
def test_a_wrong_factorization_of_char_poly_p2_is_refused(monkeypatch,
                                                          fault):
    data = fixtures.load_eigenspaces()
    fault(data["components"])
    monkeypatch.setattr(fixtures, "load_eigenspaces", lambda: data)
    checks = {c.name: c.ok for c in fixtures.run_suite()}
    assert not checks["char_poly(P_2) factors match eigenspace table "
                      "column 1 (including f_4 squared)"]
    assert not checks["X - 31 divides char_poly(P_2) exactly once"]
