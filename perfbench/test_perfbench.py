"""Tests of the benchmark itself: input generators, span arithmetic, census check."""

import contextlib
import io
import json

import padictiles
import padictiles.cli
import pytest

import inputs
import reference
import tracing
import workloads


def test_same_seed_gives_same_inputs():
    assert inputs.roundtrip_inputs(7) == inputs.roundtrip_inputs(7)
    assert inputs.frontier_inputs(7) == inputs.frontier_inputs(7)
    assert inputs.roundtrip_inputs(7) != inputs.roundtrip_inputs(8)
    assert inputs.frontier_inputs(7) != inputs.frontier_inputs(8)


def test_roundtrip_inputs_are_every_homogeneous_set():
    sets = inputs.roundtrip_inputs(1)
    assert len(sets) == len(set(sets)) == 795 + 40
    for p, M in inputs.ROUNDTRIP_FAMILIES:
        for levels in inputs.branching_sets(M):
            found = [C for q, m, C in sets if (q, m) == (p, M) and inputs.branching_levels(p, M, C) == levels]
            assert len(found) == padictiles.homogeneous_census_size(p, M, levels)
            assert all(padictiles.frame_branching_set(p, M, C) == frozenset(levels) for C in found)


def test_frontier_draws_every_stratum_and_a_fixed_search_part():
    one, two = inputs.frontier_inputs(3), inputs.frontier_inputs(4)

    def search_part(sets):
        small = 2**inputs.SEARCH_MAX_BRANCHING
        return sorted(s for s in sets if s[:2] == inputs.SEARCH_SCOPE and len(s[2]) <= small)

    assert search_part(one) == search_part(two) != []
    for p, M in inputs.FRONTIER_DRAWS:
        drawn = {inputs.branching_levels(q, m, C) for q, m, C in one if (q, m) == (p, M)}
        assert set(inputs.branching_sets(M)[:-1]) <= drawn


def test_self_time_on_a_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 6.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.enter("a")  # 0 .. 10
    tracer.enter("b")  # 1 .. 3
    tracer.exit()
    tracer.enter("c")  # 4 .. 6, with a child d at 4.5 .. 5
    tracer.enter("d")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.by_name() == {"a": (1, 6.0), "b": (1, 2.0), "c": (1, 1.5), "d": (1, 0.5)}
    assert tracer.parents[tracer.names.index("d")] == tracer.names.index("c")


def test_spans_with_one_parent_and_name_merge():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 9.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.enter("a")
    for _ in range(2):
        tracer.enter("b")
        tracer.exit()
    tracer.exit()
    assert len(tracer.names) == 3
    assert tracer.by_name() == {"a": (1, 6.0), "b": (2, 3.0)}


def test_instrument_sees_calls_from_inside_the_library_and_restores():
    original = padictiles.decide.frame_branching_set
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    try:
        ds = padictiles.DigitSet.make(padictiles.PrimeContext(2), 2, (0, 1))
        assert padictiles.is_tile_zmod(ds) is not None
        padictiles.decide.frame_branching_set(2, 2, (0, 1))
    finally:
        tracing.restore(patches)
    assert padictiles.decide.frame_branching_set is original
    metrics = tracing.layer_metrics(tracer)
    assert metrics["decide.is_tile_zmod.calls"] == 1
    assert metrics["decide.is_tile_zmod.positive_ratio"] == 1.0
    assert metrics["copen.frame_branching_set.calls"] == 1


def test_each_set_is_scaled_by_the_samples_around_it():
    ticks = iter([0.0, 0.0, 0.01, 0.01, 0.03, 0.07, 0.07, 0.07, 0.09, 0.09, 0.10])
    ref = reference.Reference(clock=lambda: next(ticks))
    ref.sample()  # the loop takes 0.01, ending at 0.01
    ref.tick()  # a set ends at 0.03: no sample due yet
    ref.tick()  # a set ends at 0.07: the loop takes 0.02, ending at 0.09
    ref.tick()  # a set ends at 0.10
    assert ref.samples == pytest.approx([0.01, 0.02])
    want = 2 * reference.REF_S / 0.03
    assert ref.mark_scales() == pytest.approx([want, want, reference.REF_S / 0.02])
    assert ref.scale() == pytest.approx(want)


def _census(tmp_path):
    path = str(tmp_path / "census.jsonl")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = padictiles.cli.main(["classify", "--p", "3", "--M", "2", "--exhaustive", "--json", "--out", path])
    return path, (code, out.getvalue())


def test_census_check_passes_the_seed_output(tmp_path):
    path, result = _census(tmp_path)
    assert workloads.check_census(padictiles, 3, 2, path, result) == 0


def test_a_corrupted_census_row_is_a_failure(tmp_path):
    path, result = _census(tmp_path)
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    positive = next(i for i, row in enumerate(rows) if row["is_tile"])
    rows[positive]["is_tile"] = False
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    assert workloads.check_census(padictiles, 3, 2, path, result) == 1


def test_a_crashed_census_fails_every_set(tmp_path):
    assert workloads.check_census(padictiles, 3, 2, str(tmp_path / "none"), RuntimeError("boom")) == 511
