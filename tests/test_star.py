import argparse
import dataclasses
import itertools
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxlat import cli
from coxlat.errors import CoxlatError, NeitherKind, NotAStarLattice, UnknownName
from coxlat.lattice import Lattice, mat_mul, mat_transpose, radical_basis
from coxlat.star import (
    OrbitInvariants,
    SingularityKind,
    build,
    catalog,
    catalog_names,
    decode_star,
    extend_star,
    fuchsian_invariants,
    invariants_from_json,
    invariants_from_star,
    kleinian_invariants,
    lattices_from_minus,
    validate,
)

from oracles import decode_star_pairwise
from strategies import valid_stars


def accepted_tuples():
    """Every tuple validate accepts with r <= 5 and alpha <= 12, with its kind:
    validate accepts only the two patterns, so these are all of them."""
    for r in range(6):
        for alphas in itertools.combinations_with_replacement(range(2, 13), r):
            for inv in (kleinian_invariants(alphas), fuchsian_invariants(alphas)):
                try:
                    yield inv, validate(inv)
                except NeitherKind:
                    pass


class TestValidate:
    def test_e8_is_kleinian(self):
        inv = OrbitInvariants(0, 2, ((2, 1), (3, 2), (5, 4)))
        assert validate(inv) is SingularityKind.KLEINIAN

    def test_237_is_fuchsian(self):
        inv = OrbitInvariants(0, 1, ((2, 1), (3, 1), (7, 1)))
        assert validate(inv) is SingularityKind.FUCHSIAN

    def test_accepted_tuples_satisfy_gorenstein_relations(self):
        # Each satisfies R*beta = 1 mod alpha and R*vdeg = 2 - 2g - r + sum
        # 1/alpha, with vdeg = -b + sum beta/alpha and R = -1 Kleinian, +1
        # Fuchsian: the patterns imply both relations, so validate does not
        # re-check them
        accepted = 0
        for inv, kind in accepted_tuples():
            accepted += 1
            big_r = -1 if kind is SingularityKind.KLEINIAN else 1
            assert all((big_r * b - 1) % a == 0 for a, b in inv.pairs)
            vdeg = -inv.b + sum(Fraction(b, a) for a, b in inv.pairs)
            assert big_r * vdeg == 2 - 2 * inv.genus - inv.r + sum(Fraction(1, a) for a in inv.alphas)
        assert accepted == 4364

    def test_star_of_each_accepted_tuple_decodes_to_it(self):
        # invariants_from_star builds the pattern of the kind classify_alphas
        # names, with no validate of its own: it is the tuple validate accepted
        for inv, kind in accepted_tuples():
            lats = build(inv)
            assert invariants_from_star(lats.minus) == (inv, kind, lats.arms)

    def test_boundary_is_neither(self):
        inv = OrbitInvariants(0, 1, ((2, 1), (3, 1), (6, 1)))
        with pytest.raises(NeitherKind):
            validate(inv)

    def test_r0_is_kleinian(self):
        assert validate(OrbitInvariants(0, 2, ())) is SingularityKind.KLEINIAN

    def test_nonzero_genus_rejected(self):
        with pytest.raises(NeitherKind):
            validate(OrbitInvariants(1, 3, ((2, 1), (3, 1), (7, 1))))

    def test_wrong_b_rejected(self):
        with pytest.raises(NeitherKind):
            validate(OrbitInvariants(0, 3, ((2, 1), (3, 2), (5, 4))))

    def test_structural_checks(self):
        with pytest.raises(ValueError):
            OrbitInvariants(0, 2, ((4, 2),))  # gcd != 1
        with pytest.raises(ValueError):
            OrbitInvariants(0, 2, ((3, 3),))  # beta out of range
        with pytest.raises(ValueError):
            OrbitInvariants(0, 2, ((1, 1),))  # alpha too small

    def test_pairs_are_sorted(self):
        inv = OrbitInvariants(0, 2, ((5, 4), (2, 1), (3, 2)))
        assert inv.alphas == (2, 3, 5)


class TestBuild:
    def test_two_arms_of_length_one(self):
        lats = build(kleinian_invariants((2, 2)))
        assert lats.minus.gram == ((-2, 0, 1), (0, -2, 1), (1, 1, -2))
        assert lats.minus.labels == ("E1^1", "E2^1", "E")

    def test_e8_shape(self):
        lats = build(kleinian_invariants((2, 3, 5)))
        assert lats.minus.rank == 8
        assert lats.zero.rank == 9
        assert lats.plus.rank == 10
        assert lats.arms == ((0, 1), (1, 3), (3, 7))
        assert lats.center == 7

    def test_armless_grams(self):
        lats = build(kleinian_invariants(()))
        assert lats.minus.gram == ((-2,),)
        assert lats.zero.gram == ((-2, -2), (-2, -2))
        assert lats.plus.gram == ((-2, -2, 0), (-2, -2, 1), (0, 1, -2))

    def test_rank_identities(self):
        # r = 0, 1, 2 Kleinian inputs are legal alongside the usual stars
        cases = (((), "k"), ((4,), "k"), ((3, 3), "k"),
                 ((2, 3, 5), "k"), ((2, 3, 7), "f"), ((3, 4, 5, 6), "f"))
        for alphas, kind in cases:
            inv = kleinian_invariants(alphas) if kind == "k" else fuchsian_invariants(alphas)
            lats = build(inv)
            n = sum(a - 1 for a in alphas) + 1
            assert (lats.minus.rank, lats.zero.rank, lats.plus.rank) == (n, n + 1, n + 2)

    @settings(max_examples=40, deadline=None)
    @given(valid_stars(max_zero_rank=20), st.data())
    def test_restriction_of_extended_grams(self, inv, data):
        """V_minus and V_zero are basis prefixes of V_plus on every route to
        StarLattices: build, lattices_from_minus on an edited Gram, the
        decoding of a --gram input, and a V_plus with any one entry edited
        symmetrically.  The cuts skip Lattice's symmetry check, so each must
        equal the Lattice built, and checked, from the same labels and block.
        V_plus replaced after the cuts of build are read gives the cuts of the
        edited Gram, not stale ones, and lattices_from_minus refuses a center
        that is not V_minus's last index."""
        lats = build(inv)
        n = lats.minus.rank
        g = lats.minus.gram_rows()
        if n > 1:
            j = data.draw(st.integers(1, n - 1))
            i = data.draw(st.integers(0, j - 1))
            g[i][j] = g[j][i] = 1 - g[i][j]
        edited = Lattice(lats.minus.labels, tuple(map(tuple, g)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "minus.json"
            path.write_text(json.dumps(lats.minus.to_json()))
            decoded = cli._star_lattices(argparse.Namespace(gram=str(path)))
        plus = lats.plus.gram_rows()
        j = data.draw(st.integers(0, lats.plus.rank - 1))
        i = data.draw(st.integers(0, j))
        plus[i][j] = plus[j][i] = data.draw(st.integers(-3, 3))
        routes = (lats, lattices_from_minus(edited, inv, lats.kind, lats.arms, lats.center),
                  decoded, dataclasses.replace(lats, plus=Lattice(lats.plus.labels, plus)))
        for route in routes:
            for lat in (route.minus, route.zero):
                k = lat.rank
                assert lat == Lattice(route.plus.labels[:k], [row[:k] for row in route.plus.gram[:k]])
                assert type(lat.labels) is type(lat.gram) is tuple
                assert all(type(row) is tuple for row in lat.gram)
        replaced = dataclasses.replace(lats, plus=routes[1].plus)
        assert (replaced.minus, replaced.zero) == (edited, routes[1].zero)
        center = data.draw(st.sampled_from([-1, n - 2, n, n + 1]))
        with pytest.raises(ValueError, match="center"):
            lattices_from_minus(edited, inv, lats.kind, lats.arms, center)

    def test_kleinian_minus_is_definite(self):
        # negative definite star: no radical
        for alphas in ((), (2, 2), (2, 3, 5)):
            assert radical_basis(build(kleinian_invariants(alphas)).minus) == []

    def test_hyperbolic_plane_change_of_basis(self):
        # rewriting B_plus as (B_minus, u, w) splits off a hyperbolic plane
        lats = build(kleinian_invariants((2, 3, 4)))
        n = lats.minus.rank
        cols = []
        for i in range(n):
            v = [0] * (n + 2)
            v[i] = 1
            cols.append(v)
        u = [0] * (n + 2)
        u[lats.center] = 1
        u[lats.f_index] = -1
        w = [0] * (n + 2)  # w = u - h
        w[lats.center] = 1
        w[lats.f_index] = -1
        w[n + 1] = -1  # h = u-w is basis vector n + 1 of V_plus
        cols += [u, w]
        c = [list(col) for col in zip(*cols)]  # columns -> matrix
        g = lats.plus.gram_rows()
        new_gram = mat_mul(mat_transpose(c), mat_mul(g, c))
        for i in range(n):
            assert new_gram[i][:n] == list(lats.minus.gram[i])
            assert new_gram[i][n:] == [0, 0]
        assert [row[n:] for row in new_gram[n:]] == [[0, 1], [1, 0]]

    def test_build_rejects_boundary(self):
        with pytest.raises(NeitherKind):
            build(fuchsian_invariants((2, 4, 4)))


class TestCatalog:
    def test_e8(self):
        assert catalog("E8").pairs == ((2, 1), (3, 2), (5, 4))

    def test_a3(self):
        assert catalog("A3").pairs == ((2, 1), (2, 1))

    def test_a1_has_no_arms(self):
        inv = catalog("A1")
        assert inv.r == 0 and inv.b == 2

    def test_d_series(self):
        assert catalog("D7").alphas == (2, 2, 5)

    def test_e12(self):
        inv = catalog("E12")
        assert validate(inv) is SingularityKind.FUCHSIAN
        assert inv.alphas == (2, 3, 7)

    def test_even_a_rejected(self):
        with pytest.raises(UnknownName):
            catalog("A4")

    def test_unknown(self):
        with pytest.raises(UnknownName):
            catalog("Z9")

    def test_roster_is_valid(self):
        names = catalog_names()
        assert names[0] == "A1" and "E12" in names
        for name in names:
            validate(catalog(name))


class TestJson:
    def test_full_record(self):
        inv = invariants_from_json({"g": 0, "b": 2, "pairs": [[2, 1], [3, 2], [5, 4]]})
        assert inv == catalog("E8")

    def test_shorthand(self):
        inv = invariants_from_json({"kind": "fuchsian", "alpha": [2, 3, 7]})
        assert inv == catalog("E12")
        inv = invariants_from_json({"kind": "kleinian", "alpha": [2, 3, 5]})
        assert inv == catalog("E8")

    def test_bad_records(self):
        with pytest.raises(ValueError):
            invariants_from_json({"kind": "weird", "alpha": [2, 3, 7]})
        with pytest.raises(ValueError):
            invariants_from_json({"alpha": [2, 3, 7]})

    def test_shorthand_needs_alpha(self):
        # a misspelled key used to decode as the armless star
        with pytest.raises(CoxlatError, match="'alpha'"):
            invariants_from_json({"kind": "kleinian", "alphas": [2, 3, 5]})
        assert invariants_from_json({"kind": "kleinian", "alpha": []}) == kleinian_invariants(())

    @settings(max_examples=60, deadline=None)
    @given(valid_stars())
    def test_round_trip(self, inv):
        assert invariants_from_json(json.loads(json.dumps(inv.to_json()))) == inv
        lats = build(inv)
        for lat in (lats.minus, lats.zero, lats.plus):
            assert Lattice.from_json(json.loads(json.dumps(lat.to_json()))) == lat


def decoded(lat):
    """decode_star's arms, or its message and index, as the pairwise oracle
    gives them."""
    try:
        return ("star", *decode_star(lat))
    except NotAStarLattice as exc:
        return "not a star", str(exc), exc.index


class TestDecode:
    def test_round_trip(self):
        for alphas in ((), (2, 2), (2, 3, 5), (2, 3, 7), (3, 3, 4, 5)):
            inv = kleinian_invariants(alphas) if alphas in ((), (2, 2), (2, 3, 5)) else fuchsian_invariants(alphas)
            lats = build(inv)
            decoded, arms = decode_star(lats.minus)
            assert tuple(decoded) == alphas
            assert arms == lats.arms

    def test_classification(self):
        lats = build(fuchsian_invariants((2, 3, 7)))
        inv, kind, _ = invariants_from_star(lats.minus)
        assert kind is SingularityKind.FUCHSIAN
        assert inv.alphas == (2, 3, 7)

    def test_deleted_edge_is_rejected(self):
        lats = build(kleinian_invariants((2, 3, 5)))
        g = lats.minus.gram_rows()
        g[4][5] = g[5][4] = 0  # break the long arm
        broken = Lattice(lats.minus.labels, tuple(tuple(r) for r in g))
        with pytest.raises(NotAStarLattice) as err:
            decode_star(broken)
        assert err.value.index is not None

    @settings(max_examples=100, deadline=None)
    @given(valid_stars(max_zero_rank=24), st.data())
    def test_matches_pairwise_scan_on_edited_entries(self, inv, data):
        """V_minus, then V_minus with an off-diagonal entry flipped between 0
        and 1 and now and then one more entry set to a value in -3..2: the
        same arms as the scan of every pair, or the same message and index."""
        lat = build(inv).minus
        g = lat.gram_rows()
        n = len(g)
        assert decoded(lat) == decode_star_pairwise(g)
        assume(n > 1)
        j = data.draw(st.integers(1, n - 1))
        i = data.draw(st.integers(0, j - 1))
        g[i][j] = g[j][i] = 1 - g[i][j]
        if data.draw(st.booleans()):
            j = data.draw(st.integers(0, n - 1))
            i = data.draw(st.integers(0, j))
            g[i][j] = g[j][i] = data.draw(st.integers(-3, 2))
        assert decoded(Lattice(lat.labels, g)) == decode_star_pairwise(g)

    @pytest.mark.parametrize("name", ["E8", "D10", "E12", "A5", "D7"])
    def test_matches_pairwise_scan_on_every_single_entry_edit(self, name):
        """Each entry of V_minus set to each value in -3..2 in turn."""
        lat = build(catalog(name)).minus
        for j in range(lat.rank):
            for i in range(j + 1):
                for x in range(-3, 3):
                    g = lat.gram_rows()
                    g[i][j] = g[j][i] = x
                    assert decoded(Lattice(lat.labels, g)) == decode_star_pairwise(g)

    def test_non_root_diagonal_rejected(self):
        lat = Lattice(("a", "b"), ((-2, 1), (1, -4)))
        with pytest.raises(NotAStarLattice):
            decode_star(lat)

    def test_extend_star_matches_build(self):
        lats = build(kleinian_invariants((2, 2, 2)))
        assert extend_star(lats.minus.labels, lats.minus.rows) == lats.plus
