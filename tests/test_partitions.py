import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disczeta import partitions as P
from disczeta.errors import InputError
from disczeta.partitions import GenPartition, Part

from chains import ll_chains


def gp(*values):
    return GenPartition.integers(values)


def gens(*names):
    return GenPartition.of(Part.gen(n) for n in names)


class TestBasics:
    def test_multiplicity_profile_aab(self):
        lam = gens("a", "a", "b")
        assert P.multiplicity_profile(lam) == (2, 1)

    def test_multiplicity_profile_empty(self):
        assert P.multiplicity_profile(GenPartition.empty()) == ()

    def test_multiplicity_profile_big(self):
        # 1^3 2^3 3 4^2 5 has m = [3,3,1,2,1], sorted to (3,3,2,1,1)
        lam = gp(1, 1, 1, 2, 2, 2, 3, 4, 4, 5)
        assert P.multiplicity_profile(lam) == (3, 3, 2, 1, 1)

    def test_stats_big(self):
        lam = gp(1, 1, 1, 2, 2, 2, 3, 4, 4, 5)
        s = P.stats(lam)
        assert s.size == 10
        assert s.distinct == 5
        assert s.total == Part.integer(25)

    def test_stats_empty(self):
        s = P.stats(GenPartition.empty())
        assert s == (0, 0, P.ZERO_PART)

    def test_stats_formal(self):
        lam = GenPartition.of([Part.gen("x"), Part.gen("x"), Part.gen("x", 2)])
        s = P.stats(lam)
        assert s.size == 3
        assert s.distinct == 2
        assert s.total == Part.gen("x", 4)


class TestFormalize:
    def test_112(self):
        lam = gp(1, 1, 2)
        assert P.formalize(lam) == gens("a1", "a1", "a2")

    def test_single(self):
        assert P.formalize(gp(2)) == gens("a1")

    def test_five_parts(self):
        f = P.formalize(gp(1, 1, 2, 2, 3))
        assert f == gens("a1", "a1", "a2", "a2", "a3")
        assert P.multiplicity_profile(f) == (2, 2, 1)

    def test_name_clash_avoided(self):
        lam = GenPartition.of([Part.gen("a1"), Part.gen("a2")])
        f = P.formalize(lam)
        assert f.generators().isdisjoint(lam.generators())

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=7))
    def test_profile_preserved(self, values):
        lam = gp(*values)
        assert P.multiplicity_profile(P.formalize(lam)) == P.multiplicity_profile(lam)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6))
    def test_equal_subset_sums_are_equal(self, values):
        f = P.formalize(gp(*values))
        seen = {}
        for r in range(len(f.parts) + 1):
            for combo in itertools.combinations(range(len(f.parts)), r):
                total = P.ZERO_PART
                for i in combo:
                    total = total + f.parts[i]
                key = tuple(sorted(f.parts[i].coeffs for i in combo))
                prev = seen.setdefault(total.coeffs, key)
                assert prev == key


class TestMergeOrder:
    def test_elementary_merges_123(self):
        got = P.elementary_merges(gp(1, 2, 3))
        assert got == frozenset({gp(3, 3), gp(4, 2), gp(5, 1)})

    def test_elementary_merges_aa(self):
        lam = gens("a", "a")
        assert P.elementary_merges(lam) == frozenset({GenPartition.of([Part.gen("a", 2)])})

    def test_elementary_merges_singleton(self):
        assert P.elementary_merges(gp(1)) == frozenset()

    def test_closure_123(self):
        got = P.merge_closure(gp(1, 2, 3))
        assert got == frozenset({gp(1, 2, 3), gp(3, 3), gp(4, 2), gp(5, 1), gp(6)})

    def test_closure_trivial(self):
        lam = gens("a")
        assert P.merge_closure(lam) == frozenset({lam})
        assert P.merge_closure(gp(1, 1)) == frozenset({gp(1, 1), gp(2)})

    def test_leq_paper_chain(self):
        assert P.leq(gp(1, 2, 3), gp(3, 3))
        assert P.leq(gp(3, 3), gp(6))
        assert P.leq(gp(1, 2, 3), gp(6))

    def test_leq_reflexive(self):
        lam = gp(1, 1, 4)
        assert P.leq(lam, lam)

    def test_leq_sum_mismatch(self):
        assert not P.leq(gp(1, 1, 1), gp(2, 2))

    def test_leq_not_backwards(self):
        assert not P.leq(gp(3, 3), gp(1, 2, 3))

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_closure_agrees_with_leq(self, values):
        # two independent decision procedures for the refinement order
        lam = gp(*values)
        closure = P.merge_closure(lam)
        total = sum(values)
        for k in range(0, len(values) + 1):
            for mu_vals in P.enumerate_k_parts(k, total):
                if sum(mu_vals) != total and values:
                    continue
                mu = gp(*mu_vals)
                assert (mu in closure) == P.leq(lam, mu)


class TestAddLtA:
    def test_paper_membership(self):
        nu = gens("x", "x", "x", "y", "y")
        members = {m for m, _ in P.add_lt_a(nu, 3)}
        target = GenPartition.of(
            [
                Part.gen("x") + Part.integer(2),
                Part.gen("x") + Part.integer(2),
                Part.gen("x"),
                Part.gen("y") + Part.integer(1),
                Part.gen("y"),
            ]
        )
        assert target in members

    def test_single_gen(self):
        nu = gens("x")
        got = P.add_lt_a(nu, 2)
        members = {m for m, _ in got}
        assert members == {gens("x"), GenPartition.of([Part.gen("x") + Part.integer(1)])}

    def test_two_gens_all_same_profile(self):
        nu = gens("x", "y")
        got = P.add_lt_a(nu, 2)
        assert len(got) == 4
        assert all(same for _, same in got)

    def test_contains_nu_and_bound(self):
        nu = gens("x", "x", "y")
        for a in (2, 3):
            got = P.add_lt_a(nu, a)
            members = {m for m, _ in got}
            assert nu in members
            assert len(members) <= a ** (2 * 2)  # a^(distinct * max multiplicity)

    def test_rejects_non_formalization(self):
        with pytest.raises(InputError):
            P.add_lt_a(gp(1, 2), 2)

    def test_same_profile_iff_uniform_increment(self):
        nu = gens("x", "x", "y")
        for member, same in P.add_lt_a(nu, 3):
            assert same == (P.multiplicity_profile(member) == (2, 1))


class TestSSet:
    def test_empty(self):
        assert P.s_set((), 2) == frozenset({()})

    def test_nu2_a2(self):
        assert P.s_set((2,), 2) == frozenset({(2,), (3,)})

    def test_nu3_a3(self):
        # closure of 1^2*[3] minus nothing (j0 - a = -1), big parts dedup
        got = P.s_set((3,), 3)
        closure = P.merge_closure(gp(1, 1, 3))
        expect = frozenset(P.big_parts(lam, 3) for lam in closure)
        assert got == expect

    def test_rejects_small_parts(self):
        with pytest.raises(InputError):
            P.s_set((1, 2), 2)

    @pytest.mark.parametrize(
        "nu,a",
        [((), 2), ((2,), 2), ((3,), 2), ((2, 2), 2), ((3,), 3), ((4,), 2), ((2, 4), 2), ((3, 3), 3)],
    )
    def test_stabilization(self, nu, a):
        # enumeration at any j >= |nu|(a-1) yields the same set
        j0 = len(nu) * (a - 1)
        assert P.s_set(nu, a) == P.s_set(nu, a, j=j0 + a)


class TestEnumerations:
    def test_Q_size1(self):
        assert set(P.enumerate_Q(1)) == {(), (1,)}

    def test_Q_size2(self):
        assert set(P.enumerate_Q(2)) == {(), (1,), (1, 1), (1, 2)}

    def test_Q_membership(self):
        q7 = set(P.enumerate_Q(7))
        mu = (1, 1, 1, 1, 2, 3, 3)
        assert mu in q7
        assert P.q_distinct(mu) == 3

    def test_Q_uses_exactly_1_to_m(self):
        for mu in P.enumerate_Q(6):
            if mu:
                assert set(mu) == set(range(1, max(mu) + 1))

    def test_k_parts(self):
        assert set(P.enumerate_k_parts(1, 3)) == {(1,), (2,), (3,)}
        assert set(P.enumerate_k_parts(2, 4)) == {(1, 1), (1, 2), (1, 3), (2, 2)}
        assert P.enumerate_k_parts(0, 5) == [()]

    @pytest.mark.parametrize("n", range(0, 15))
    def test_profile_count_is_the_number_of_profiles(self, n):
        profiles = sum(len(P.enumerate_k_parts(m, n)) for m in range(n + 1))
        assert P.profile_count(n, 10**9) == profiles

    def test_profile_count_stops_past_its_bound(self):
        assert P.profile_count(20, 10**4) == 2714  # series zetainv --trunc 20 passes the default guard
        assert P.profile_count(26, 10**4) == 11732
        assert P.profile_count(10**6, 100) == 139  # 1 + 1 + 2 + ... + p(10), at once


class TestChains:
    def test_11(self):
        chains = ll_chains(gp(1, 1))
        assert len(chains) == 2
        lengths = sorted(len(c) - 1 for c in chains)
        assert lengths == [0, 1]
        long = next(c for c in chains if len(c) == 2)
        assert P.multiplicity_profile(long[1]) == (1,)

    def test_single_part(self):
        assert ll_chains(gp(7)) == [(gp(7),)]

    def test_111_has_four_chains(self):
        chains = ll_chains(gp(1, 1, 1))
        assert len(chains) == 4

    @given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_chain_steps_shrink(self, values):
        lam = gp(*values)
        for chain in ll_chains(lam):
            for prev, nxt in zip(chain, chain[1:]):
                assert len(nxt) < len(prev)
                assert P.leq(P.formalize(prev), nxt)


class TestInvariants:
    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=8))
    def test_profile_vs_stats(self, values):
        lam = gp(*values)
        prof = P.multiplicity_profile(lam)
        s = P.stats(lam)
        assert s.size == sum(prof)
        assert s.distinct == len(prof)

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=5),
        st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_leq_implies_stats(self, values, extra):
        lam = gp(*values)
        for mu in P.merge_closure(lam):
            assert P.stats(lam).total == P.stats(mu).total
            assert len(lam) >= len(mu)


class TestParsePrint:
    @pytest.mark.parametrize(
        "text,parts",
        [
            ("1^3,2^2", [1, 1, 1, 2, 2]),
            ("5", [5]),
            ("", []),
        ],
    )
    def test_integer_roundtrip(self, text, parts):
        got = GenPartition.parse(text)
        assert got == gp(*parts)
        assert GenPartition.parse(str(got)) == got

    def test_formal_parse(self):
        got = GenPartition.parse("x^2,2x+1")
        expect = GenPartition.of(
            [Part.gen("x"), Part.gen("x"), Part.of({"x": 2, P.UNIT: 1})]
        )
        assert got == expect
        assert GenPartition.parse(str(got)) == got

    def test_bad_input(self):
        for text in ("x^", "^2", "x+", "1..2", "x^0"):
            with pytest.raises(InputError):
                GenPartition.parse(text)

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=6))
    def test_print_parse_roundtrip(self, values):
        lam = gp(*values)
        assert GenPartition.parse(str(lam)) == lam
