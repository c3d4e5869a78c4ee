"""The vectorized matcher against the scalar oracles: pearson() and, for
one-service tables, which match by distance, a per-entry np.linalg.norm
loop. entry_scores and match are also held bit for bit to reference
copies that clip and scan for sentinels on every call."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packwise import (
    DemandVector,
    LookupEntry,
    LookupTable,
    PackingSolution,
    VmInstance,
    VmType,
    match,
    pearson,
)
from packwise import lookup
from packwise.lookup import (
    SENTINEL_EDGE,
    FingerprintMismatchError,
    MatchResult,
    entry_scores,
)


def reference_magnitude_ok(incoming, magnitude, ratio):
    """lookup._magnitude_ok as it was written on the probe's values, kept
    verbatim as the oracle of the guard that takes the probe's sum."""
    if math.isinf(ratio):
        return True
    ni, np_ = float(np.abs(incoming).sum()), float(magnitude)
    if ni == 0.0 and np_ == 0.0:
        return True
    if ni == 0.0 or np_ == 0.0:
        return False
    r = ni / np_
    return 1.0 / ratio <= r <= ratio


def reference_entry_scores(table, vec):
    """entry_scores as it was written with the +-1 clip and the sentinel
    scan on every call, kept verbatim as the oracle of the one that skips
    both when no score lies near +-1."""
    if table.similarity == "euclidean":
        return np.linalg.norm(table.patterns - vec, axis=1)
    c = vec - vec.sum() / vec.shape[0]     # vec.mean(), the same float
    norm = np.sqrt((c ** 2).sum())
    rows, row_norms = table.centred, table.centred_norms
    den = norm * row_norms
    r = (rows * c).sum(axis=1)
    # A product of two nonzero norms is at least 5e-324, so den is zero on
    # exactly the zero-variance rows (all rows for a flat probe), which the
    # block at the end overwrites.
    np.divide(r, den, out=r, where=den != 0.0)
    np.maximum(r, -1.0, out=r)
    np.minimum(r, 1.0, out=r)
    # pearson()'s sentinels, lowest precedence first so that later writes win.
    if 1e-150 < norm < 1e150:
        near = np.flatnonzero(np.abs(r) >= 1.0 - SENTINEL_EDGE)
    else:
        near = np.arange(r.shape[0])
    if near.size:
        near_rows = rows[near]
        r[near[(near_rows == -c).all(axis=1)]] = -1.0
        r[near[(near_rows == c).all(axis=1)]] = 1.0
    if norm == 0.0 or table.flat.any():
        zero_var = table.flat | (norm == 0.0)
        flat = rows[zero_var]   # np.allclose(c, flat, atol=1e-12) per row, written out
        r[zero_var] = (np.abs(c - flat) <= 1e-12 + 1e-5 * np.abs(flat)).all(axis=1)
    return r


def reference_match(table, incoming):
    """match as it was written over reference_entry_scores, verbatim."""
    vec = incoming.values
    if len(vec) != table.service_count:
        raise FingerprintMismatchError(
            f"incoming pattern has {len(vec)} services, table holds {table.service_count}"
        )
    scores = reference_entry_scores(table, vec)
    if table.similarity == "pearson":
        best = int(scores.argmax())
        hit = scores[best] >= table.threshold and reference_magnitude_ok(
            vec, table.magnitudes[best], table.magnitude_ratio)
    else:
        best = int(scores.argmin())
        hit = scores[best] <= table.threshold
    return MatchResult(
        best_index=best,
        score=float(scores[best]),
        hit=bool(hit),
        chosen=table.entries[best].solution if hit else None,
    )


def assert_same_as_reference(table, probe):
    """entry_scores bit-equal to the reference, and match's result the
    reference's, down to the score's repr and the served object."""
    assert entry_scores(table, probe).tobytes() == \
        reference_entry_scores(table, probe).tobytes()
    dv = DemandVector(probe[:, None])
    got, want = match(table, dv), reference_match(table, dv)
    assert got.best_index == want.best_index
    assert repr(got.score) == repr(want.score)
    assert got.hit is want.hit
    assert got.chosen is want.chosen
    return got


@st.composite
def tables_and_probes(draw):
    """(E, S) patterns with constant, duplicated, mirrored and scaled rows,
    a probe that is often one of those rows transformed, and the magnitude
    ratio. Rows and probes at 1.5x a drawn row sit on the 1.5 guard's edges
    (exactly so for the integer-valued rows). S = 1 draws one-service
    tables, which match by distance."""
    S = draw(st.one_of(st.just(1), st.integers(2, 12)))
    value = st.one_of(st.integers(0, 30).map(float),
                      st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))
    row = st.lists(value, min_size=S, max_size=S).map(np.array)
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["fresh", "constant", "duplicate", "mirror", "scaled",
                                     "guard"]))
        if kind == "constant":
            rows.append(np.full(S, draw(value)))
        elif kind != "fresh" and rows:
            base = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append({"duplicate": base, "mirror": base.max() + base.min() - base,
                         "scaled": 2.0 * base, "guard": 1.5 * base}[kind])
        else:
            rows.append(draw(row))
    probe = draw(st.one_of(row, st.sampled_from(rows),
                           st.sampled_from(rows).map(lambda r: r.max() + r.min() - r),
                           st.sampled_from(rows).map(lambda r: 1.5 * r),
                           value.map(lambda v: np.full(S, v))))
    return np.vstack(rows), probe, draw(st.sampled_from([1.5, math.inf]))


class TestVectorizedMatchAgainstScalarOracle:
    @settings(max_examples=400, deadline=None)
    @given(tables_and_probes())
    def test_scores_and_best_index(self, case):
        patterns, probe, ratio = case
        table = _table(patterns, ratio)
        if len(probe) == 1:
            assert table.similarity == "euclidean"
            oracle, pick = [float(np.linalg.norm(probe - p)) for p in patterns], np.argmin
        else:
            assert table.similarity == "pearson"
            oracle, pick = [pearson(probe, p) for p in patterns], np.argmax
        oracle = np.array(oracle)
        # Rounding is relative: 1e-12 on correlations (|r| <= 1), and 1e-12
        # of the distance on Euclidean scores, which reach 2e3 here.
        tol = 1e-12 * np.maximum(1.0, np.abs(oracle))
        scores = entry_scores(table, probe)
        assert np.all(np.abs(scores - oracle) <= tol)
        if table.similarity == "pearson":
            assert np.all(np.abs(scores) <= 1.0)
            c = probe - probe.mean()
            for score, exact, p in zip(scores, oracle, patterns):
                d = p - p.mean()
                if (np.sqrt((c ** 2).sum()) == 0 or np.sqrt((d ** 2).sum()) == 0
                        or np.array_equal(c, d) or np.array_equal(c, -d)):
                    assert score == exact  # the sentinels are exact
        result = assert_same_as_reference(table, probe)
        ranked = np.sort(oracle)[::-1] if pick is np.argmax else np.sort(oracle)
        if len(ranked) == 1 or abs(ranked[0] - ranked[1]) > 1e-12 * max(1.0, abs(ranked[0])):
            assert result.best_index == int(pick(oracle))
        # Equal patterns score bit-equal, so ties go to the lowest index.
        same = np.all(patterns == patterns[result.best_index], axis=1)
        assert result.best_index == int(np.flatnonzero(same)[0])


def _table(patterns, magnitude_ratio=1.5):
    """A table of patterns, each entry with a packing object of its own."""
    vm = VmType("VM", np.ones(1), 1.0)
    ones = np.ones(patterns.shape[1], dtype=int)
    return LookupTable(
        entries=tuple(LookupEntry(p, PackingSolution((VmInstance(vm, ones),), 1.0, True))
                      for p in patterns),
        threshold=0.5, magnitude_ratio=magnitude_ratio)


class TestZeroVarianceSentinels:
    """The zero-variance sentinels apply when the probe or a row is flat; a
    gate on either side alone leaves 0/0 scores in the other case."""

    def test_constant_probe_against_varying_rows(self):
        rng = np.random.default_rng(31)
        for S in (2, 5, 12):
            table = _table(rng.uniform(1.0, 100.0, size=(8, S)))
            assert not table.flat.any()
            for value in (0.0, 7.0, 1e3):
                probe = np.full(S, value)
                expected = [pearson(probe, p) for p in table.patterns]
                assert entry_scores(table, probe).tolist() == expected == [0.0] * 8

    def test_varying_probe_against_flat_rows(self):
        rng = np.random.default_rng(32)
        for S in (2, 5, 12):
            patterns = rng.uniform(1.0, 100.0, size=(6, S))
            patterns[[1, 4]] = [np.full(S, 3.0), np.zeros(S)]
            table = _table(patterns)
            assert table.flat.tolist() == [False, True, False, False, True, False]
            probe = rng.uniform(1.0, 100.0, size=S)
            expected = np.array([pearson(probe, p) for p in patterns])
            scores = entry_scores(table, probe)
            assert scores[table.flat].tolist() == expected[table.flat].tolist() == [0.0, 0.0]
            assert np.all(np.abs(scores - expected) <= 1e-12)


def all_rows_scores(table, vec):
    """entry_scores' Pearson branch as it was written with the exact +-1
    sentinel tests on every row, kept verbatim as the oracle of the
    near-+-1 subset that entry_scores tests now."""
    c = vec - vec.mean()
    norm = np.sqrt((c ** 2).sum())
    rows, row_norms = table.centred, table.centred_norms
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (rows * c).sum(axis=1) / (norm * row_norms)
    np.maximum(r, -1.0, out=r)
    np.minimum(r, 1.0, out=r)
    # pearson()'s sentinels, lowest precedence first so that later writes win.
    r[(rows == -c).all(axis=1)] = -1.0
    r[(rows == c).all(axis=1)] = 1.0
    if norm == 0.0 or table.flat.any():
        zero_var = table.flat | (norm == 0.0)
        flat = rows[zero_var]   # np.allclose(c, flat, atol=1e-12) per row, written out
        r[zero_var] = (np.abs(c - flat) <= 1e-12 + 1e-5 * np.abs(flat)).all(axis=1)
    return r


def raw_quotients(table, probe):
    """The Pearson quotients before any clip or sentinel."""
    c = probe - probe.mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        return (table.centred * c).sum(axis=1) / (np.sqrt((c ** 2).sum()) * table.centred_norms)


class TestSentinelsOnLargeTables:
    """At 1000 entries: copies of the probe (centred rows equal to c),
    mirrored copies (often -c), power-of-two multiples and shifted copies,
    whose quotients land within a few ulps of +-1 without being sentinels,
    and unrelated rows."""

    def test_scores_bit_equal_to_all_rows_sentinels(self):
        rng = np.random.default_rng(41)
        short_of_one = 0
        for S in (2, 3, 5, 8, 12, 40):
            for decimals in (0, 2, 6):
                base = rng.uniform(0.0, 1000.0, size=(10, S)).round(decimals)
                probe = base[0]
                kinds = rng.integers(0, 5, size=1000)
                shifts = rng.integers(1, 100, size=1000).astype(float)
                powers = 2.0 ** rng.integers(-4, 5, size=1000)
                rows = np.empty((1000, S))
                for j, kind in enumerate(kinds):
                    b = base[j % 10] if kind == 4 else probe
                    rows[j] = (b, b.max() + b.min() - b, powers[j] * b, b + shifts[j],
                               b)[kind]
                table = _table(rows)
                scores = entry_scores(table, probe)
                assert scores.tobytes() == all_rows_scores(table, probe).tobytes()
                oracle = np.array([pearson(probe, p) for p in rows])
                assert np.all(np.abs(scores - oracle) <= 1e-12)
                c = probe - probe.mean()
                exact = (table.centred == c).all(axis=1) | (table.centred == -c).all(axis=1)
                assert exact.any()
                assert scores[exact].tolist() == oracle[exact].tolist()
                assert set(scores[exact].tolist()) <= {-1.0, 1.0}
                # The raw quotient of an exact row falls short of +-1 in the
                # last bits, which only the sentinel corrects.
                raw = raw_quotients(table, probe)
                short_of_one += int((np.abs(raw[exact]) < 1.0).sum())
        assert short_of_one > 0

    @pytest.mark.parametrize("scale", [1e-161, 3e-160, 1e155, 1e160])
    def test_extreme_magnitudes_test_every_row(self, scale):
        # Past the range of the rounding bound: sums of squares that
        # overflow make an exact row's quotient NaN, and subnormal ones fall
        # outside the bound's derivation, so every row is tested there.
        rng = np.random.default_rng(43)
        for S in (2, 5, 12):
            probe = rng.uniform(1.0, 9.0, size=S).round(1) * scale
            rows = np.vstack([probe, probe.max() + probe.min() - probe,
                              rng.uniform(1.0, 9.0, size=(6, S)) * scale])
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                table = _table(rows)
                scores = entry_scores(table, probe)
                assert scores.tobytes() == all_rows_scores(table, probe).tobytes()
            assert scores[0] == 1.0


class TestSkippedClipAgainstReference:
    """entry_scores skips the +-1 clip and the sentinel scan only when every
    score lies strictly inside +-(1 - SENTINEL_EDGE), and match's guard
    reads the probe's sum; both are held to the reference copies here."""

    @pytest.mark.parametrize("ratio", [1.5, math.inf])
    def test_probes_on_the_guard_edges(self, ratio):
        rng = np.random.default_rng(61)
        for S in (3, 5, 12):   # at S = 2 every varying pair correlates +-1
            for _ in range(20):
                row = rng.integers(1, 300, size=S).astype(float)
                others = rng.integers(1, 300, size=(4, S))
                # Integer rows make 1.5 * row and 2 * row exact, so the
                # probe's L1 norm is exactly 1.5x row's and 1/1.5x 3 * row's.
                for base, probe, edge in ((row, 1.5 * row, 1.5), (3.0 * row, 2.0 * row, 1 / 1.5)):
                    assert np.abs(probe).sum() / np.abs(base).sum() == edge
                    result = assert_same_as_reference(_table(np.vstack([base, others]), ratio),
                                                      probe)
                    assert result.best_index == 0 and result.hit

    def test_nan_score_beside_quotients_past_one(self):
        # A row so large that its products and its norm overflow scores
        # NaN, which np.max returns; power-of-two multiples and shifted
        # copies of the probe score within ulps of +-1, some past it. A test
        # written as r.max() >= edge would read the NaN as "not near" and
        # skip the clip those rows need.
        rng = np.random.default_rng(62)
        past_one = 0
        for S in (2, 3, 5, 8, 12):
            for _ in range(10):
                probe = rng.uniform(1.0, 1000.0, size=S).round(2)
                rows = np.vstack([probe * 2.0 ** np.arange(-4, 5)[:, None],
                                  probe + np.array([1.0, 7.0, 33.0, 100.0])[:, None],
                                  2.0 * (probe.max() + probe.min() - probe),
                                  1e305 * probe])
                with np.errstate(over="ignore", invalid="ignore"):
                    table = _table(rows)
                    assert_same_as_reference(table, probe)
                    scores = entry_scores(table, probe)
                    raw = raw_quotients(table, probe)
                assert np.isnan(scores[-1]) and np.isnan(raw[-1])
                assert np.all(np.abs(scores[:-1]) <= 1.0)
                past_one += int((np.abs(raw[:-1]) > 1.0).sum())
        assert past_one > 0


def integer_mean_probe(rng, S):
    """A positive integer probe whose mean is an integer, so that m - k * c
    and m + k * c, for its mean m, centred part c and a power of two k, are
    exact and centre to exactly -k * c and k * c."""
    probe = rng.integers(1, 300, size=S).astype(float)
    probe[-1] += -probe.sum() % S
    return probe, probe.mean(), probe - probe.mean()


POWERS = 2.0 ** np.arange(-3, 4)[:, None]


class TestSettleDecision:
    """match settles its raw quotients only when a row or the probe is flat,
    the probe's norm is out of range, or the best raw score is not strictly
    inside +-(1 - SENTINEL_EDGE). Each case holds it to the reference, which
    settles on every call, at the tables where settling could matter."""

    def check(self, patterns, probe):
        table = _table(patterns)
        return table, raw_quotients(table, probe), assert_same_as_reference(table, probe)

    def test_best_inside_beside_minus_c_rows(self):
        # Exact -c copies, and -k * c copies whose quotients pass -1 by ulps,
        # lie outside the window but below a best score inside it.
        rng = np.random.default_rng(71)
        past_minus_one = 0
        for S in (3, 5, 8, 12):
            for _ in range(20):
                probe, m, c = integer_mean_probe(rng, S)
                patterns = np.vstack([rng.integers(1, 300, size=(4, S)), m - POWERS * c])
                table, raw, result = self.check(patterns, probe)
                assert (table.centred[7] == -c).all()
                assert -1.0 + SENTINEL_EDGE < raw[result.best_index] < 1.0 - SENTINEL_EDGE
                past_minus_one += int((raw[4:] < -1.0).sum())
        assert past_minus_one > 0

    def test_best_near_one_without_a_sentinel(self):
        # Multiples k * c (k != 1) score within ulps of +1, some past it,
        # and only the clip brings those back.
        rng = np.random.default_rng(72)
        past_one = 0
        for S in (3, 5, 8, 12):
            for _ in range(20):
                probe, m, c = integer_mean_probe(rng, S)
                patterns = np.vstack([rng.integers(1, 300, size=(3, S)),
                                      m + POWERS[POWERS[:, 0] != 1.0] * c])
                table, raw, result = self.check(patterns, probe)
                assert not (table.centred == c).all(axis=1).any()
                assert abs(raw[result.best_index] - 1.0) < 1e-9
                past_one += int((raw > 1.0).sum())
        assert past_one > 0

    def test_exact_plus_c_row(self):
        # A shifted copy centres to exactly c; its quotient can fall short
        # of 1 or pass it, and only the sentinel makes it exactly 1.0.
        rng = np.random.default_rng(73)
        off_one = 0
        for S in (3, 5, 8, 12):
            for _ in range(20):
                probe, m, c = integer_mean_probe(rng, S)
                patterns = np.vstack([rng.integers(1, 300, size=(3, S)), probe + 7.0])
                table, raw, result = self.check(patterns, probe)
                assert (table.centred[3] == c).all()
                assert result.best_index == 3 and result.score == 1.0
                off_one += int(raw[3] != 1.0)
        assert off_one > 0

    def test_flat_rows_and_flat_probes(self):
        # A flat row scores 0 raw but settles to 1.0 against a probe within
        # 1e-12 of its mean; a flat probe settles every row by that test.
        rng = np.random.default_rng(74)
        for S in (3, 5, 12):
            varying = rng.integers(1, 300, size=(3, S)).astype(float)
            tiny = np.arange(1.0, S + 1.0) * 1e-13
            for patterns, probe in (
                    (np.vstack([varying, np.full(S, 5.0)]), varying[1] + 1.0),
                    (np.vstack([varying, tiny]), np.full(S, 4.0)),
                    (np.vstack([varying, np.full(S, 3.0)]), np.full(S, 4.0)),
                    (varying, np.full(S, 4.0))):
                self.check(patterns, probe)
            table, raw, result = self.check(np.vstack([varying, np.full(S, 5.0)]), tiny)
            assert result.best_index == 3 and result.score == 1.0 and raw[:3].max() > 0.0

    def test_flat_rows_settle_only_when_the_window_test_fails(self, monkeypatch):
        # Tables with flat rows (idle all-zero centroids among them) score
        # the flat rows' sentinels and settle nothing more while the best
        # score lies inside the window: beside a varying best row, and
        # where every varying row scores below 0 so a flat row is best at
        # 0.0. A probe within 1e-12 of its centre scores a flat row 1.0,
        # outside the window, and that query settles everything.
        settled = []
        original = lookup._settle
        monkeypatch.setattr(lookup, "_settle", lambda *a: settled.append(1) or original(*a))
        rng = np.random.default_rng(76)
        flat_best = 0
        for S in (3, 5, 8):
            for _ in range(20):
                probe, m, c = integer_mean_probe(rng, S)
                flats = np.outer(rng.integers(0, 300, size=3), np.ones(S))
                flats[0] = 0.0
                others = rng.integers(1, 300, size=(3, S)).astype(float)
                mirrored = (m - rng.integers(1, 4, size=(3, 1)) * c
                            + rng.integers(-2, 3, size=(3, S)))
                for patterns in (np.vstack([flats[:2], others, flats[2:]]),
                                 np.vstack([mirrored, flats])):
                    settled.clear()
                    table, _, result = self.check(patterns, probe)
                    assert table.flat.sum() == 3
                    if -1.0 + SENTINEL_EDGE < result.score < 1.0 - SENTINEL_EDGE:
                        assert settled == [1]     # entry_scores only, not match
                    flat_best += int(table.flat[result.best_index])
            tiny = np.arange(1.0, S + 1.0) * 1e-13
            settled.clear()
            table, _, result = self.check(np.vstack([others, flats]), tiny)
            assert table.flat[result.best_index] and result.score == 1.0
            assert settled == [1, 1]
            for scale in (10.0, 30.0, 100.0):   # about 1e-12 from the flat rows' centre
                self.check(np.vstack([others, flats]), scale * tiny)
        assert flat_best > 0

    def test_ties_at_the_best_score(self):
        # Duplicates tie inside the window. Outside it, a multiple clipped
        # to 1.0 and exact +c copies tie only once settled, where the raw
        # argmax is often another of them.
        rng = np.random.default_rng(75)
        reordered = 0
        for S in (3, 5, 8, 12):
            for _ in range(20):
                probe, m, c = integer_mean_probe(rng, S)
                others = rng.integers(1, 300, size=(3, S)).astype(float)
                best = others[int(raw_quotients(_table(others), probe).argmax())]
                self.check(np.vstack([others, best, best]), probe)
                table, raw, result = self.check(
                    np.vstack([others, m + 2.0 * c, probe + 1.0, probe + 2.0]), probe)
                assert result.score == 1.0
                assert result.best_index == (3 if raw[3] >= 1.0 else 4)
                reordered += int(int(raw.argmax()) != result.best_index)
        assert reordered > 0
