import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awgnauth import overlay
from awgnauth.authcode import inject_noise
from awgnauth.basecode import make_random_gaussian_code
from awgnauth.overlay import (
    LevelSet,
    OverlayCode,
    OverlayError,
    _assemble,
    _index_from_rows,
    construct_overlay,
    default_level_message_counts,
    from_json_dict,
    overlay_rate_asymptotic,
    overlay_rate_finite,
    to_json_dict,
    verify_overlay,
)

# Frozen: asymptotic rate at |K~|=8, gamma=3/4.
ASYMPTOTIC_8_075 = 0.2472460116410684


def coord_sets(code, m):
    """Message m's 1-based coordinates, one frozenset per level in K."""
    return tuple(frozenset((idx + 1).tolist()) for idx in code.test_indices(m))


def brute_force_witness(code, m, mp):
    """Independent re-check of the ordered-pair property: the lowest level
    k in K with overlap <= max_overlap and empty intersection against
    every strictly lower level of the second message."""
    mine, other = coord_sets(code, m), coord_sets(code, mp)
    for kidx in range(len(code.level_set)):
        if len(mine[kidx] & other[kidx]) > code.max_overlap:
            continue
        if any(mine[kidx] & other[j] for j in range(kidx)):
            continue
        return kidx
    return None


def order_preserving_map(source, target, subset):
    """Image of ``subset`` under the unique increasing bijection from
    ``source`` onto ``target``: the construction's slot-to-coordinate
    rule, one set at a time."""
    src = sorted(source)
    tgt = sorted(target)
    if len(src) != len(tgt):
        raise OverlayError("source and target must have equal size")
    if len(set(src)) != len(src) or len(set(tgt)) != len(tgt):
        raise OverlayError("source and target must not contain duplicates")
    lut = dict(zip(src, tgt))
    try:
        return frozenset(lut[s] for s in subset)
    except KeyError as e:
        raise OverlayError(f"subset element {e.args[0]} not in source") from None


def reference_rows(n, tables):
    """Per-message coordinate sets of the product code, assembled one
    message at a time with ``order_preserving_map``."""
    rows = []
    for digits in np.ndindex(*[len(t) for t in tables]):
        free = set(range(1, n + 1))
        row = []
        for j, d in enumerate(digits):
            slots = range(1, len(free) + 1)
            row.append(order_preserving_map(slots, free, tables[j][d]))
            free -= row[-1]
        rows.append(tuple(row))
    return rows


def check_against_references(code):
    """``verify_overlay`` agrees with the exhaustive scan (the same code
    without radices) and with ``brute_force_witness`` on every pair."""
    report = verify_overlay(code)
    exhaustive = verify_overlay(OverlayCode(
        code.n, code.level_set, code.gamma_exact,
        level_index=code.level_index))
    assert report.passed == exhaustive.passed
    assert report.violations == exhaustive.violations
    M = code.message_count
    rows = [coord_sets(code, m) for m in range(M)]
    failing = []
    for m in range(M):
        for mp in range(M):
            expect = None if m == mp else brute_force_witness(code, m, mp)
            if m != mp and expect is None:
                failing.append((m, mp))
            got = report.witness(m, mp)
            if expect is None:
                assert got is None
            else:
                assert got == (expect, len(rows[m][expect] & rows[mp][expect]))
    sizes_ok = all(len(s) == code.ell for row in rows for s in row)
    assert report.passed == (sizes_ok and not failing)
    listed = [v for v in report.violations if v.startswith(("no witness", "..."))]
    assert listed == [f"no witness level for ordered pair ({m}, {mp})"
                      for m, mp in failing[:8]] + (
        [f"... and {len(failing) - 8} more failing pairs"]
        if len(failing) > 8 else [])
    return report


def level_set_of(size):
    return LevelSet(tuple(j / (size + 1) for j in range(size)))


GAMMAS = [Fraction(5, 9), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5)]


@st.composite
def product_tables(draw):
    levels = draw(st.integers(1, 3))
    ell = draw(st.integers(1, 4))
    n = ell * (levels + 1) + draw(st.integers(0, levels))
    tables = [[draw(st.frozensets(st.integers(1, n - ell * j),
                                  min_size=ell, max_size=ell))
               for _ in range(draw(st.integers(1, 3)))]
              for j in range(levels)]
    return n, level_set_of(levels), draw(st.sampled_from(GAMMAS)), tables


@st.composite
def hand_built_codes(draw):
    """Random level assignments, with or without (possibly inconsistent)
    radices."""
    levels = draw(st.integers(1, 3))
    n = draw(st.integers(levels + 1, 3 * (levels + 1)))
    M = draw(st.integers(1, 8))
    index = np.array(draw(st.lists(
        st.lists(st.integers(0, levels), min_size=n, max_size=n),
        min_size=M, max_size=M)), dtype=np.uint8)
    radices = draw(st.sampled_from([None, (M,) + (1,) * (levels - 1),
                                    (1,) * (levels - 1) + (M,), (M + 1,)]))
    return OverlayCode(n, level_set_of(levels), Fraction(3, 4),
                       radices=radices, level_index=index)


class TestLevelSet:
    def test_basic(self):
        ls = LevelSet((0.0, 0.5))
        assert ls.extended == (0.0, 0.5, 1.0)
        assert len(ls) == 2

    def test_uniform(self):
        assert LevelSet.uniform(4).levels == (0.0, 0.25, 0.5, 0.75)
        with pytest.raises(OverlayError):
            LevelSet.uniform(1)

    def test_next_above(self):
        ls = LevelSet((0.0, 0.25, 0.5))
        assert ls.next_above(0.0) == 0.25
        assert ls.next_above(0.5) == 1.0
        assert ls.next_above(0.7) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(OverlayError, match=r"levels must lie in \[0,1\)"):
            LevelSet((0.0, 1.0))
        with pytest.raises(OverlayError, match=r"levels must lie in \[0,1\)"):
            LevelSet((-0.1,))

    def test_rejects_non_increasing(self):
        with pytest.raises(OverlayError, match="strictly increasing"):
            LevelSet((0.5, 0.5))
        with pytest.raises(OverlayError, match="strictly increasing"):
            LevelSet((0.5, 0.25))

    def test_rejects_empty(self):
        with pytest.raises(OverlayError):
            LevelSet(())


class TestOrderPreservingMap:
    def test_worked_example(self):
        assert order_preserving_map(range(1, 7), [1, 3, 4, 5, 7, 8],
                                    {3, 4, 6}) == frozenset({4, 5, 8})

    def test_identity(self):
        src = {2, 5, 9}
        assert order_preserving_map(src, src, {5, 9}) == frozenset({5, 9})

    def test_singleton(self):
        assert order_preserving_map({2}, {20}, {2}) == frozenset({20})

    def test_empty_subset(self):
        assert order_preserving_map({1, 2}, {5, 6}, set()) == frozenset()

    def test_size_mismatch(self):
        with pytest.raises(OverlayError, match="equal size"):
            order_preserving_map({1, 2}, {1}, {1})

    def test_subset_outside_source(self):
        with pytest.raises(OverlayError, match="not in source"):
            order_preserving_map({1, 2}, {3, 4}, {5})

    def test_duplicates(self):
        with pytest.raises(OverlayError, match="duplicates"):
            order_preserving_map([1, 1, 2], [3, 4, 5], {1})


class TestGammaHandling:
    def test_gamma_bounds(self):
        for bad in (0.5, 1.0, 0.0, 1.5):
            with pytest.raises(OverlayError,
                               match=r"gamma must lie in \(1/2,1\), not"):
                construct_overlay(8, LevelSet((0.0,)), bad,
                                  counts_per_level=[2])

    def test_exact_threshold_where_float_would_round_down(self):
        # gamma*ell = (29/50)*100 = 58 exactly; float 0.58*100 floors to 57.
        code = construct_overlay(200, LevelSet((0.0,)), Fraction(29, 50),
                                 counts_per_level=[2], seed=3)
        assert code.ell == 100
        assert code.max_overlap == 58
        assert math.floor(0.58 * 100) == 57  # the trap this guards against

    def test_fraction_preserved(self):
        code = construct_overlay(12, LevelSet((0.0,)), Fraction(3, 5),
                                 counts_per_level=[2], seed=0)
        assert code.gamma_exact == Fraction(3, 5)
        assert code.gamma == pytest.approx(0.6)

    @pytest.mark.parametrize("gamma", [Fraction(1, 2), Fraction(1),
                                       Fraction(3, 2), 0.75])
    def test_constructor_checks_gamma(self, gamma):
        index = _index_from_rows(8, 1, ((frozenset({1, 2, 3, 4}),),))
        with pytest.raises(OverlayError, match="gamma"):
            OverlayCode(8, LevelSet((0.0,)), gamma, index)

    def test_gamma_is_the_float_of_the_fraction(self):
        index = _index_from_rows(8, 1, ((frozenset({1, 2, 3, 4}),),))
        code = OverlayCode(8, LevelSet((0.0,)), Fraction(2, 3), index)
        assert code.gamma == float(Fraction(2, 3))
        assert to_json_dict(code)["gamma"] == code.gamma


class TestConstruction:
    def test_shape_and_counts(self, small_overlay):
        code = small_overlay
        assert code.n == 60
        assert code.ell == 20
        assert code.message_count == 6
        assert code.radices == (3, 2)
        for m in range(code.message_count):
            row = coord_sets(code, m)
            disjoint = set()
            for coords in row:
                assert len(coords) == code.ell
                assert not disjoint & coords
                disjoint |= coords
            # remainder sits at level 1
            assert len(set(range(1, 61)) - disjoint) == 60 - 2 * code.ell

    def test_determinism(self):
        a = construct_overlay(60, LevelSet((0.0, 0.5)), 0.75,
                              counts_per_level=[3, 2], seed=11)
        b = construct_overlay(60, LevelSet((0.0, 0.5)), 0.75,
                              counts_per_level=[3, 2], seed=11)
        c = construct_overlay(60, LevelSet((0.0, 0.5)), 0.75,
                              counts_per_level=[3, 2], seed=12)
        assert np.array_equal(a.level_index, b.level_index)
        assert not np.array_equal(a.level_index, c.level_index)

    def test_shared_prefix_between_messages(self, small_overlay):
        code = small_overlay
        for m in range(code.message_count):
            for mp in range(code.message_count):
                dm = np.unravel_index(m, code.radices)
                dmp = np.unravel_index(mp, code.radices)
                if dm[0] == dmp[0]:
                    assert coord_sets(code, m)[0] == coord_sets(code, mp)[0]

    def test_decompose_mixed_radix(self):
        # radices (4, 3): id = d0*3 + d1, the level-0 digit most
        # significant, so message m carries s_zero[d0] at level 0 and the
        # image of s_half[d1] at level 1/2.
        s_zero = [{2, 7, 8}, {1, 2, 6}, {2, 6, 9}, {1, 5, 9}]
        s_half = [{2, 4, 5}, {3, 4, 6}, {1, 3, 5}]
        code = construct_overlay(9, LevelSet((0.0, 0.5)), Fraction(2, 3),
                                 subset_tables=[s_zero, s_half])
        assert code.radices == (4, 3)
        for m in range(12):
            d0, d1 = np.unravel_index(m, code.radices)
            assert m == 3 * d0 + d1
            zero, half = coord_sets(code, m)
            assert zero == s_zero[d0]
            free = sorted(set(range(1, 10)) - zero)
            assert half == {free[s - 1] for s in s_half[d1]}

    def test_single_message_vacuous(self):
        code = construct_overlay(8, LevelSet((0.0,)), 0.75,
                                 counts_per_level=[1], seed=0)
        assert code.message_count == 1
        assert verify_overlay(code).passed

    def test_pairwise_property_matches_brute_force(self, small_overlay):
        report = verify_overlay(small_overlay)
        assert report.passed
        M = small_overlay.message_count
        for m in range(M):
            for mp in range(M):
                if m == mp:
                    assert report.witness(m, mp) is None
                    continue
                expect = brute_force_witness(small_overlay, m, mp)
                assert expect is not None
                got = report.witness(m, mp)
                assert got is not None
                kidx, overlap = got
                assert kidx == expect
                assert overlap <= report.max_overlap_allowed
                assert overlap == len(coord_sets(small_overlay, m)[kidx]
                                      & coord_sets(small_overlay, mp)[kidx])

    def test_three_level_medium_block(self):
        code = construct_overlay(300, LevelSet((0.0, 1 / 3, 2 / 3)),
                                 Fraction(3, 4), seed=2,
                                 max_messages_per_level=6)
        assert code.ell == 75
        assert code.message_count == 216
        assert verify_overlay(code).passed

    def test_levels_vector_and_matrix(self, small_overlay):
        f = small_overlay.level_matrix()[0]
        assert f.shape == (60,)
        vals, counts = np.unique(f, return_counts=True)
        assert list(vals) == [0.0, 0.5, 1.0]
        assert list(counts) == [20, 20, 20]
        F = small_overlay.level_matrix()
        assert F.shape == (6, 60)
        assert np.array_equal(F[0], np.asarray(small_overlay.level_set.extended)[
            small_overlay.level_index[0]])

    def test_level_matrix_gathers_rows_into_out(self, small_overlay,
                                                monkeypatch):
        whole = np.asarray(small_overlay.level_set.extended)[
            small_overlay.level_index]
        ids = np.array([5, 0, 5, 2, 3, 1, 4])
        for values in (60, 120, 2 ** 15):   # chunks of 1 row, 2 rows, all
            monkeypatch.setattr(overlay, "CHUNK_VALUES", values)
            assert np.array_equal(small_overlay.level_matrix(), whole)
            assert np.array_equal(small_overlay.level_matrix(ids), whole[ids])
            out = np.full((7, 60), np.nan)
            assert small_overlay.level_matrix(ids, out=out) is out
            assert np.array_equal(out, whole[ids])
        assert np.array_equal(small_overlay.level_matrix(4), whole[4])
        assert small_overlay.level_matrix(ids[:0]).shape == (0, 60)

    @pytest.mark.parametrize("rows, out, match", [
        (np.array([0, 6]), None, "message ids"),
        (np.array([-1]), None, "message ids"),
        (np.array([0.0]), None, "message ids"),
        (np.zeros((2, 2), dtype=int), None, "1-d array"),
        (np.array([0, 1]), np.empty((3, 60)), "out must be"),
        (np.array([0, 1]), np.empty((2, 60), np.float32), "out must be"),
    ])
    def test_level_matrix_refuses_bad_rows(self, small_overlay, rows, out,
                                           match):
        with pytest.raises(OverlayError, match=match):
            small_overlay.level_matrix(rows, out=out)

    def test_level_coords_including_top(self, small_overlay):
        m = 3
        union = set()
        for j, coords in enumerate(coord_sets(small_overlay, m)):
            assert coords == set(np.flatnonzero(
                small_overlay.level_matrix()[m]
                == small_overlay.level_set.levels[j]) + 1)
            union |= coords
        top = set(np.flatnonzero(small_overlay.level_matrix()[m] == 1.0) + 1)
        assert top == set(range(1, 61)) - union
        assert len(top) == 20

    def test_retry_counter(self, small_overlay):
        assert small_overlay.attempts >= 1


class TestConstructionErrors:
    @pytest.mark.parametrize("rates", [[math.inf, 0.1], [0.1, math.nan],
                                       [-math.inf, 0.1]])
    def test_rates_must_be_finite(self, rates):
        # a NaN rate used to be read as 0 (one message), an infinite one
        # raised a raw OverflowError
        with pytest.raises(OverlayError, match="rates must be finite"):
            construct_overlay(60, LevelSet((0.0, 0.5)), 0.75,
                              rates_per_level=rates)

    def test_rate_overflow_is_an_overlay_error(self):
        with pytest.raises(OverlayError, match="overflow the message counts"):
            construct_overlay(60, LevelSet((0.0, 0.5)), 0.75,
                              rates_per_level=[100.0, 0.1])

    def test_rates_and_counts_mutually_exclusive(self):
        with pytest.raises(OverlayError, match="not both"):
            construct_overlay(60, LevelSet((0.0,)), 0.75,
                              rates_per_level=[0.01],
                              counts_per_level=[2])

    def test_counts_exceed_available_subsets(self):
        # C(4,2)=6 subsets at level 0 of n=8.
        with pytest.raises(OverlayError, match="exceed"):
            construct_overlay(4, LevelSet((0.0,)), 0.75,
                              counts_per_level=[7])

    def test_materialization_guard(self):
        with pytest.raises(OverlayError, match="materialization guard"):
            construct_overlay(4096, LevelSet((0.0, 0.5)), 0.75,
                              counts_per_level=[2048, 2048])

    def test_count_arity(self):
        with pytest.raises(OverlayError, match="one message count per level"):
            construct_overlay(60, LevelSet((0.0, 0.5)), 0.75,
                              counts_per_level=[2])

    def test_n_too_small(self):
        with pytest.raises(OverlayError):
            construct_overlay(2, LevelSet((0.0, 0.5)), 0.75,
                              counts_per_level=[1, 1])

    def test_bad_explicit_tables(self):
        # Both messages share the single level-0 subset: overlap ell > gamma*ell.
        with pytest.raises(OverlayError, match="fail verification"):
            construct_overlay(8, LevelSet((0.0,)), 0.75,
                              subset_tables=[[{1, 2, 3, 4}, {1, 2, 3, 4}]])
        with pytest.raises(OverlayError, match="at least one subset"):
            construct_overlay(8, LevelSet((0.0, 0.5)), 0.75,
                              subset_tables=[[{1, 2}], []])

    @pytest.mark.parametrize("cap", [-1, 0])
    def test_max_messages_per_level_must_be_positive(self, cap):
        with pytest.raises(OverlayError, match="max_messages_per_level must "
                                               "be a positive integer"):
            construct_overlay(60, LevelSet((0.0, 0.5)), 0.75,
                              max_messages_per_level=cap)


class TestVerifyFailures:
    def test_planted_cardinality_violation(self, small_overlay):
        rows = [coord_sets(small_overlay, m) for m in range(6)]
        short = frozenset(list(rows[0][0])[:-1])
        rows[0] = (short, rows[0][1])
        broken = OverlayCode(60, small_overlay.level_set, Fraction(3, 4),
                             _index_from_rows(60, 2, rows))
        report = verify_overlay(broken)
        assert not report.passed
        assert any("expected 20" in v for v in report.violations)

    def test_planted_pairwise_violation(self):
        row = (frozenset({1, 2, 3, 4}),)
        code = OverlayCode(8, LevelSet((0.0,)), Fraction(3, 4),
                           _index_from_rows(8, 1, (row, row)))
        report = verify_overlay(code)
        assert not report.passed
        assert any("no witness level" in v for v in report.violations)
        assert report.witness(0, 1) is None

    @pytest.mark.parametrize("rows_per_chunk", [1, 5])
    def test_pair_scan_is_the_same_in_any_row_chunks(self, monkeypatch,
                                                     rows_per_chunk):
        # six sets, each given to two messages: every message has exactly
        # one partner without a witness, so the listed pairs span chunks
        sets = [{1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 3, 6}, {1, 2, 3, 7},
                {1, 2, 3, 8}, {1, 2, 4, 5}]
        rows = [(frozenset(sets[m // 2]),) for m in range(12)]
        code = OverlayCode(8, LevelSet((0.0,)), Fraction(3, 4),
                           _index_from_rows(8, 1, rows))
        whole = verify_overlay(code).violations
        assert whole == tuple(
            [f"no witness level for ordered pair ({m}, {m ^ 1})"
             for m in range(8)] + ["... and 4 more failing pairs"])
        monkeypatch.setattr(overlay, "SCORE_VALUES", 12 * rows_per_chunk)
        assert verify_overlay(code).violations == whole


class TestLevelCounts:
    def test_counts_match_the_level_index(self, small_overlay):
        counts = small_overlay.level_counts
        assert counts.shape == (6, 2) and not counts.flags.writeable
        assert np.all(counts == small_overlay.ell)
        assert small_overlay.level_counts is counts   # counted once

    def test_counts_of_a_broken_overlay(self, small_overlay):
        index = small_overlay.level_index.copy()
        index[3, small_overlay.test_indices(3)[1][:2]] = 0   # level 1/2 -> 0
        broken = OverlayCode(60, small_overlay.level_set, Fraction(3, 4),
                             index)
        expected = [[np.count_nonzero(index[m] == j) for j in range(2)]
                    for m in range(6)]
        assert broken.level_counts.tolist() == expected
        assert broken.level_counts[3].tolist() == [22, 18]
        assert [len(c) for c in broken.test_indices(3)] == [22, 18]


class TestRates:
    def test_finite_rate_zero_at_tiny_block(self):
        # Additive defects swallow the information term at n=9.
        assert overlay_rate_finite(9, LevelSet((0.0, 0.5)), 2 / 3) == 0.0

    def test_finite_rate_dominates_asymptotic_guarantee(self):
        # The asymptotic threshold is a one-sided guarantee: any rate below
        # it is achievable for large n, so the finite-n guaranteed rate must
        # sit above it (up to the vanishing defect terms) once n is large.
        r = overlay_rate_finite(10 ** 6, LevelSet.uniform(8), 0.75)
        assert r > 0.0
        assert r >= ASYMPTOTIC_8_075 - 0.01

    def test_construction_defect_no_smaller(self):
        n = 10 ** 5
        ls = LevelSet.uniform(4)
        loose = overlay_rate_finite(n, ls, 0.75, defect="construction")
        tight = overlay_rate_finite(n, ls, 0.75, defect="theorem")
        assert loose >= tight

    def test_asymptotic_values(self):
        assert overlay_rate_asymptotic(8, 0.75) == pytest.approx(
            ASYMPTOTIC_8_075, rel=1e-12)
        # gamma*ln(4) < gamma + h2(gamma) at gamma=0.75: clamped to zero.
        assert overlay_rate_asymptotic(4, 0.75) == 0.0

    def test_asymptotic_binary_levels_always_zero(self):
        # gamma*ln 2 - gamma - h2(gamma) < 0 on all of (1/2, 1).
        for g in (0.51, 0.6, 0.75, 0.9, 0.99):
            assert overlay_rate_asymptotic(2, g) == 0.0

    def test_default_counts_guard_interplay(self):
        # Large blocks make the default counts exceed the guard...
        with pytest.raises(OverlayError, match="materialization guard"):
            construct_overlay(300, LevelSet((0.0, 1 / 3, 2 / 3)), 0.75, seed=0)
        # ...and a per-level cap restores constructability.
        counts = default_level_message_counts(300, LevelSet((0.0, 1 / 3, 2 / 3)),
                                              0.75)
        assert all(c >= 1 for c in counts)
        assert math.prod(counts) > (1 << 20)


class TestFirstAttemptSuccessRate:
    def test_capped_default_rates_usually_verify_first_try(self):
        # 100 seeds at n=300, four extended levels, gamma=3/4: the retry
        # counter shows how often the first sampled table already passes.
        failures = 0
        for seed in range(100):
            code = construct_overlay(300, LevelSet((0.0, 1 / 3, 2 / 3)),
                                     Fraction(3, 4), seed=seed,
                                     max_messages_per_level=6)
            failures += code.attempts > 1
        assert failures < 50


class TestJsonRoundTrip:
    def test_round_trip(self, small_overlay):
        blob = json.dumps(to_json_dict(small_overlay))
        back = from_json_dict(json.loads(blob))
        assert back.n == small_overlay.n
        assert back.level_set.levels == small_overlay.level_set.levels
        assert back.gamma_exact == small_overlay.gamma_exact
        assert np.array_equal(back.level_index, small_overlay.level_index)
        assert back.radices == small_overlay.radices
        assert verify_overlay(back).passed

    def test_round_trip_preserves_exact_gamma(self):
        code = construct_overlay(20, LevelSet((0.0,)), Fraction(7, 10),
                                 counts_per_level=[2], seed=3)
        back = from_json_dict(json.loads(json.dumps(to_json_dict(code))))
        assert back.gamma_exact == Fraction(7, 10)
        assert back.max_overlap == 7


class TestPrefixGroupVerify:
    @settings(max_examples=150, deadline=None)
    @given(product_tables())
    def test_product_codes(self, case):
        n, level_set, gamma, tables = case
        rows = reference_rows(n, tables)
        code = OverlayCode(n, level_set, gamma,
                           _index_from_rows(n, len(level_set), rows),
                           radices=[len(t) for t in tables])
        slots = [np.array([sorted(s) for s in t]) - 1 for t in tables]
        assert np.array_equal(code.level_index, _assemble(n, slots))
        check_against_references(code)

    @settings(max_examples=150, deadline=None)
    @given(product_tables(), st.data())
    def test_perturbed_product_codes(self, case, data):
        # one coordinate of one message moves to another level, so prefix
        # groups stop sharing lower sets or a set loses its cardinality
        n, level_set, gamma, tables = case
        rows = reference_rows(n, tables)
        index = _index_from_rows(n, len(level_set), rows)
        m = data.draw(st.integers(0, len(rows) - 1))
        i = data.draw(st.integers(0, n - 1))
        index[m, i] = data.draw(st.integers(0, len(level_set)))
        check_against_references(OverlayCode(
            n, level_set, gamma,
            radices=[len(t) for t in tables], level_index=index))

    @settings(max_examples=150, deadline=None)
    @given(hand_built_codes())
    def test_hand_built_codes(self, code):
        check_against_references(code)

    def test_pair_scan_decides_when_prefix_check_cannot(self):
        # level-0 sets overlap 3 > floor(5/9 * 4) = 2, yet every pair that
        # first differs at digit 0 finds a witness at level 1/3
        tables = [[{2, 4, 7, 12}, {1, 2, 4, 7}], [{2, 5, 6, 7}, {2, 3, 4, 6}]]
        code = construct_overlay(12, LevelSet((0.0, 1 / 3)), Fraction(5, 9),
                                 subset_tables=tables)
        assert not overlay._prefix_groups_separated(code)
        report = check_against_references(code)
        assert report.passed and report.witness(0, 2) == (1, 2)

    def test_witness_rejects_unknown_ids(self, small_overlay):
        report = verify_overlay(small_overlay)
        for pair in ((-1, 0), (0, 6)):
            with pytest.raises(OverlayError, match="must hold message ids"):
                report.witness(*pair)


class TestTestIndices:
    @settings(max_examples=150, deadline=None)
    @given(hand_built_codes())
    def test_against_flatnonzero_and_json_round_trip(self, code):
        # hand-built level sets are of any size, not only ell
        for m in range(code.message_count):
            got = code.test_indices(m)
            assert len(got) == len(code.level_set)
            for j, idx in enumerate(got):
                assert np.array_equal(idx,
                                      np.flatnonzero(code.level_index[m] == j))
        for m in (-1, code.message_count):
            with pytest.raises(OverlayError, match="m must hold message ids"):
                code.test_indices(m)
        back = from_json_dict(json.loads(json.dumps(to_json_dict(code))))
        assert back.level_index.dtype == code.level_index.dtype
        assert np.array_equal(back.level_index, code.level_index)
        assert back.radices == code.radices
        assert back.gamma_exact == code.gamma_exact


class TestGoldenCodes:
    """sha256 of the codes that fixed seeds build: the level matrix, the
    test indices, the t-table wrapped on them and the attempt that
    verification accepted.  Construction and verification must keep
    every one of them."""

    CELLS = {
        "small_overlay": (dict(n=60, level_set=LevelSet((0.0, 0.5)),
                               gamma=0.75, counts_per_level=[3, 2], seed=11),
                          "7241f94e37d4aeae436e93540e840e693054d035cdc90bdbe01b85f7695bfcb5",
                          "f5366968edd47f64dfa7a01cb6e20a9b072fbdde6be66547f59faa09d6e7e3a0",
                          "b83a924ad686890036bcdbd2990fdc95b0b736057ccff0abe8be33fcc2063f72"),
        "three_level": (dict(n=300, level_set=LevelSet((0.0, 1 / 3, 2 / 3)),
                             gamma=Fraction(3, 4), max_messages_per_level=6,
                             seed=2),
                        "9bc2f1f1179219ea3e32fb4d09968547e23059ae37137bfb494f5b79929d5123",
                        "3439501a682f51c85a39808f63d8bc5e523cff932ce63e6c2a289855d8856846",
                        "7723fb995fc7926744fb35580d26e8b796461f95060e1651ba4bf6bb24c535ce"),
        "large_codebook": (dict(n=600, level_set=LevelSet((0.0, 0.5)),
                                gamma=0.75, counts_per_level=[64, 64], seed=7),
                           "ab9cd2bb3cbe5cc1456ac118bff0c491abae0efe9b4edd817923368466dbfde8",
                           "78f46c2668b745c51c3b46fa38dfaaed3faedf5a9c0481087b9f07c1d43e40e8",
                           "ba1611fbeb166d3434fc00b6515fd1aa2968eecd38799bbf0239049677a17a80"),
    }

    @pytest.mark.parametrize("name", CELLS)
    def test_code_hashes(self, name):
        kwargs, levels, indices, t_table = self.CELLS[name]
        code = construct_overlay(**kwargs)
        assert code.attempts == 1
        M = code.message_count
        auth = inject_noise(make_random_gaussian_code(code.n, M, 1.0, seed=3),
                            code, 1.0, 0.1, seed=3)
        assert hashlib.sha256(code.level_matrix().tobytes()).hexdigest() == levels
        h = hashlib.sha256()
        for m in range(M):
            for idx in code.test_indices(m):
                h.update(np.asarray(idx, dtype=np.int64).tobytes())
        assert h.hexdigest() == indices
        assert hashlib.sha256(auth.t_table.tobytes()).hexdigest() == t_table

    @pytest.mark.parametrize("n, level_set, counts, attempts", [
        (12, LevelSet((0.0,)), [6],
         [1, 2, 1, 3, 2, 2, 1, 1, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 3, 1]),
        (24, LevelSet((0.0, 0.5)), [4, 4],
         [1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1]),
    ])
    def test_accepted_attempts(self, n, level_set, counts, attempts):
        assert [construct_overlay(n, level_set, 0.75, counts_per_level=counts,
                                  seed=s).attempts
                for s in range(20)] == attempts


def test_construction_memory_is_bounded(monkeypatch):
    # M = 16384: an exhaustive (M, M) witness table alone would take 1.3 GB;
    # a passing product code never reaches the pairwise scan.
    def no_pair_scan(*args):
        raise AssertionError("the prefix-group check fell back to the pair scan")

    monkeypatch.setattr(overlay, "_pair_failures", no_pair_scan)
    tracemalloc.start()
    try:
        code = construct_overlay(600, LevelSet((0.0, 0.5)), 0.75,
                                 counts_per_level=[128, 128], seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code.message_count == 16384
    assert peak < 64 * 2 ** 20, peak


def test_pair_scan_memory_is_bounded():
    # a radix-less overlay goes straight to the pair scan, which held one
    # whole (M, n) float32 mask per level: 37 MB here with its products
    built = construct_overlay(600, LevelSet((0.0, 0.5)), 0.75,
                              counts_per_level=[64, 32], seed=0)
    code = OverlayCode(built.n, built.level_set, built.gamma_exact,
                       level_index=built.level_index)
    tracemalloc.start()
    try:
        report = verify_overlay(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < code.message_count * code.n * 4, peak   # one whole mask


def test_pair_scan_tiles_keep_the_lines_and_their_order(monkeypatch):
    rng = np.random.default_rng(5)
    code = OverlayCode(24, LevelSet((0.0, 0.5)), Fraction(3, 4),
                       rng.integers(0, 3, size=(40, 24)).astype(np.uint8))
    whole = overlay._pair_failures(code)   # one tile
    assert len(whole) == 9   # eight pairs and the count of the rest
    monkeypatch.setattr(overlay, "ROW_VALUES", 3 * code.n)   # 3-message tiles
    assert check_against_references(code).violations[-9:] == tuple(whole)
