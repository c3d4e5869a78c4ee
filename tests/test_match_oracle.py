"""The vectorized matcher against the scalar oracles: pearson() and a
per-entry np.linalg.norm loop."""

import numpy as np
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
    plus a probe that is often one of those rows transformed."""
    S = draw(st.integers(2, 12))
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
    @settings(max_examples=300, deadline=None)
    @given(tables_and_probes())
    def test_scores_and_best_index(self, case):
        patterns, probe = case
        solution = PackingSolution(
            (VmInstance(VmType("VM", np.ones(1), 1.0), np.ones(len(probe), dtype=int)),),
            1.0, True)
        dv = DemandVector(values=probe, per_dim=probe[:, None])
        for similarity, oracle, pick in (
                ("pearson", [pearson(probe, p) for p in patterns], np.argmax),
                ("euclidean", [float(np.linalg.norm(probe - p)) for p in patterns], np.argmin)):
            table = LookupTable(entries=tuple(LookupEntry(p, solution) for p in patterns),
                                similarity=similarity, threshold=0.5)
            oracle = np.array(oracle)
            # Rounding is relative: 1e-12 on correlations (|r| <= 1), and 1e-12
            # of the distance on Euclidean scores, which reach 1e4 here.
            tol = 1e-12 * np.maximum(1.0, np.abs(oracle))
            scores = entry_scores(table, probe)
            assert np.all(np.abs(scores - oracle) <= tol)
            if similarity == "pearson":
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
                       similarity="pearson", threshold=0.5)


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
