"""The vectorized matcher against the scalar oracles: pearson() and, for
one-service tables, which match by distance, a per-entry np.linalg.norm
loop."""

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
from packwise.lookup import entry_scores


@st.composite
def tables_and_probes(draw):
    """(E, S) patterns with constant, duplicated, mirrored and scaled rows,
    plus a probe that is often one of those rows transformed. S = 1 draws
    one-service tables, which match by distance."""
    S = draw(st.one_of(st.just(1), st.integers(2, 12)))
    value = st.one_of(st.integers(0, 30).map(float),
                      st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))
    row = st.lists(value, min_size=S, max_size=S).map(np.array)
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["fresh", "constant", "duplicate", "mirror", "scaled"]))
        if kind == "constant":
            rows.append(np.full(S, draw(value)))
        elif kind != "fresh" and rows:
            base = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append({"duplicate": base, "mirror": base.max() + base.min() - base,
                         "scaled": 2.0 * base}[kind])
        else:
            rows.append(draw(row))
    probe = draw(st.one_of(row, st.sampled_from(rows),
                           st.sampled_from(rows).map(lambda r: r.max() + r.min() - r),
                           value.map(lambda v: np.full(S, v))))
    return np.vstack(rows), probe


class TestVectorizedMatchAgainstScalarOracle:
    @settings(max_examples=400, deadline=None)
    @given(tables_and_probes())
    def test_scores_and_best_index(self, case):
        patterns, probe = case
        solution = PackingSolution(
            (VmInstance(VmType("VM", np.ones(1), 1.0), np.ones(len(probe), dtype=int)),),
            1.0, True)
        dv = DemandVector(probe[:, None])
        table = LookupTable(entries=tuple(LookupEntry(p, solution) for p in patterns),
                            threshold=0.5)
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
        result = match(table, dv)
        ranked = np.sort(oracle)[::-1] if pick is np.argmax else np.sort(oracle)
        if len(ranked) == 1 or abs(ranked[0] - ranked[1]) > 1e-12 * max(1.0, abs(ranked[0])):
            assert result.best_index == int(pick(oracle))
        # Equal patterns score bit-equal, so ties go to the lowest index.
        same = np.all(patterns == patterns[result.best_index], axis=1)
        assert result.best_index == int(np.flatnonzero(same)[0])


def _table(patterns):
    solution = PackingSolution(
        (VmInstance(VmType("VM", np.ones(1), 1.0), np.ones(patterns.shape[1], dtype=int)),),
        1.0, True)
    return LookupTable(entries=tuple(LookupEntry(p, solution) for p in patterns),
                       threshold=0.5)


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
                with np.errstate(divide="ignore", invalid="ignore"):
                    raw = ((table.centred * c).sum(axis=1)
                           / (np.sqrt((c ** 2).sum()) * table.centred_norms))
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
