"""Self-tests of the benchmark's own logic (no program run needed).

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

import batch
import common
import serving
import spans


# -- the seeded request generator -------------------------------------------

def _mix(seed: int) -> serving.MixGenerator:
    site_rounds = {
        "Penn": [(site, rnd) for site in range(40) for rnd in range(10)],
        "LU": [(site, rnd) for site in range(30) for rnd in range(5)],
    }
    return serving.MixGenerator(seed, "d" * 64, ["Penn", "LU"], site_rounds,
                                ["speed_parity", "path_stability"])


def test_same_seed_gives_the_same_requests():
    assert _mix(7).take(500) == _mix(7).take(500)


def test_another_seed_gives_other_requests():
    assert _mix(7).take(500) != _mix(8).take(500)


def test_mix_has_all_three_parts_and_unique_tail():
    mix = _mix(3)
    requests = mix.take(400)
    parts = {r.part for r in requests}
    assert parts == {"head", "tail", "observer"}
    tail = [r for r in requests if r.part == "tail"]
    assert len(set(tail)) == len(tail)
    assert sum(mix.counts.values()) == 400


def test_mix_follows_its_shares():
    mix = _mix(5)
    mix.take(2000)
    for part, share in (("head", serving.HEAD_SHARE),
                        ("tail", serving.TAIL_SHARE),
                        ("observer", serving.OBSERVER_SHARE)):
        assert abs(mix.counts[part] / 2000 - share) < 0.03


def test_max_rps_is_the_highest_rate_that_met_the_limit():
    def result(rate, met, tail_ms=1.0):
        return serving.RateResult(rate=rate, n=100, achieved_rps=rate,
                                  tail_ms=tail_ms, tail_q=99.0, p50_ms=0.5,
                                  late_p99_ms=0.1, met=met)

    steps = [result(100.0, True), result(112.0, True), result(125.4, False)]
    assert serving.max_rps(steps) == 112.0
    missed = [result(100.0, False, tail_ms=2 * serving.LIMIT_MS)]
    assert serving.max_rps(missed) == pytest.approx(50.0)


def test_rate_steps_are_at_most_fifteen_percent_apart():
    shares = serving.RATE_SHARES
    assert all(b / a <= 1.15 for a, b in zip(shares, shares[1:]))
    assert shares[0] == 0.5 and shares[-1] > 1.5


def test_speed_scale_states_times_at_reference_speed():
    fast = [common.UNIT_REFERENCE_S / 2] * 5
    assert common.scale_of(fast) == pytest.approx(2.0 ** common.SPEED_EXPONENT)
    probe = common.SpeedProbe()
    probe.samples, probe.times = [common.UNIT_REFERENCE_S / 2,
                                  common.UNIT_REFERENCE_S], [1.0, 2.0]
    assert probe.scale(until=1.5) == pytest.approx(common.scale_of(fast))
    assert probe.scale(until=0.5) == probe.scale()


# -- self-time arithmetic -----------------------------------------------------

def test_self_time_subtracts_children():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (partly outside); a has a grandchild [2, 3].
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],
        ["c", 8.0, 12.0, 0],
        ["a", 2.0, 3.0, 1],
    ]
    own = spans.self_times(tree)
    assert own["root"] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own["a"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["c"] == pytest.approx(4.0)
    assert spans.entries(tree, "a") == 1
    assert spans.coverage(tree, 0.0, 20.0) == pytest.approx(0.5)


def test_recorder_nests_spans_and_counts_calls():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", "inner", lambda: None)
    outer = recorder.wrap("outer", "outer", lambda: (inner(), inner()))
    outer()
    assert [s[3] for s in recorder.spans] == [-1, 0, 0]
    assert recorder.calls == {"outer": 1, "inner": 2}
    assert spans.self_times(recorder.spans)["outer"] == pytest.approx(3.0)


# -- metric names and limits ------------------------------------------------

def test_catalogue_follows_the_grammar():
    common.check_catalogue()


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in common.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in common.PER_LAYER]


@pytest.mark.parametrize("name", ["", "_lead", "has space", "x" * 65, "a:b"])
def test_bad_names_are_refused(name):
    bad = (*common.END_TO_END, common.Metric(name, "s", "lower", 0.1))
    with pytest.raises(ValueError):
        common.check_catalogue(end_to_end=bad)


def test_limits_are_enforced():
    many = tuple(common.Metric(f"m{i}", "s", "lower", 0.1) for i in range(16))
    with pytest.raises(ValueError):
        common.check_catalogue(
            end_to_end=(*many, common.Metric("setup_s", "s", "lower", 0.1)))
    layers = tuple(common.Metric(f"l{i}", "count", "lower") for i in range(129))
    with pytest.raises(ValueError):
        common.check_catalogue(per_layer=layers)
    with pytest.raises(ValueError):
        common.check_catalogue(
            end_to_end=(common.Metric("setup_s", "s", "lower", 0.3),))


def test_tail_quantile_needs_ten_samples_beyond():
    assert common.tail_quantile(1000) == 99.0
    assert common.tail_quantile(400) == 97.5
    assert common.tail_quantile(5) == 50.0


# -- failures count against what was attempted -------------------------------

def test_tampered_export_counts_as_failed(tmp_path: pathlib.Path):
    out = tmp_path / "export"
    out.mkdir()
    (out / "downloads.csv").write_text("site_id,speed\n1,2.5\n")
    stdout = b"repository digest: abc\n"
    reference = batch.faulted_facts(stdout, out)
    tally = batch.Tally()
    tally.record(batch.compare("first", batch.faulted_facts(stdout, out),
                               reference))
    (out / "downloads.csv").write_text("site_id,speed\n1,2.6\n")
    tally.record(batch.compare("second", batch.faulted_facts(stdout, out),
                               reference))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert common.failed_share(tally.attempted, tally.failed) == 0.5


def test_tampered_response_counts_as_failed():
    class Stub:
        tally = batch.Tally()

        class reference:
            @staticmethod
            def body(request):
                return b'{"ok":true}'

    request = serving.Request("head", "GET", "/campaigns/x")
    good = serving.Outcome(request, due=0.0, sent=0.0, done=0.001, status=200,
                           body=b'{"ok":true}')
    tampered = serving.Outcome(request, due=0.0, sent=0.0, done=0.001,
                               status=200, body=b'{"ok":false}')
    late = serving.Outcome(request, due=0.0, sent=0.0,
                           done=serving.DEADLINE_S + 1.0, status=200)
    refused = serving.Outcome(request, due=0.0, sent=0.0, done=0.001,
                              status=503)
    serving.ServeMixed.check(Stub, [good, tampered, late, refused])
    assert (Stub.tally.attempted, Stub.tally.failed) == (4, 3)
