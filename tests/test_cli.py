import json
import time
from math import comb

import pytest

from hlsixv.cli import main
from hlsixv.distributions import DiscreteDistribution


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sixv_exact_example(capsys):
    code, out, _ = run(
        capsys, "sixv", "exact", "--t", "0.25", "--a", "0.5", "--b", "0.5",
    )
    assert code == 0
    payload = json.loads(out)
    probs = {row["key"]: row["prob"] for row in payload["outcomes"]}
    assert probs["[]/[]"] == pytest.approx(0.8)
    assert probs["[1]/[]"] == pytest.approx(0.2)
    DiscreteDistribution.from_json_dict(payload).check_normalized(1e-10)


def test_missing_flag_exits_2(capsys):
    code, _, _ = run(capsys, "sixv", "exact", "--t", "0.25", "--a", "0.5")
    assert code == 2
    code, _, _ = run(capsys, "moments", "match", "--m", "1", "--N", "1")
    assert code == 2


def test_constraint_violation_exits_2(capsys):
    code, _, err = run(
        capsys, "sixv", "exact", "--t", "0.5", "--a", "1.5", "--b", "0.9"
    )
    assert code == 2
    assert ">= 1" in err


def test_partition_round_trip(capsys):
    code, out, _ = run(capsys, "partition", "to-string", "--parts", "6,3,3,1",
                       "--p", "4", "--m", "6")
    assert code == 0
    assert json.loads(out)["signs"] == "-+--++---+"
    code, out, _ = run(capsys, "partition", "from-string", "--signs=-+--++---+")
    assert json.loads(out)["partition"] == [6, 3, 3, 1]


def test_hl_support_distribution(capsys):
    code, out, _ = run(
        capsys, "hl", "support", "--t", "0.25", "--a", "0.5", "--b", "0.5"
    )
    assert code == 0
    payload = json.loads(out)
    probs = {row["key"]: row["prob"] for row in payload["outcomes"]}
    assert probs["[]/[]"] == pytest.approx(0.8, abs=1e-10)


def test_hl_unbuildable_row_cap_exits_2_fast(capsys):
    t0 = time.perf_counter()
    code, _, err = run(
        capsys, "hl", "support", "--t", "0.3", "--a", "0.3,0.3,0.3",
        "--b", "0.3,0.3,0.3", "--row-cap", "400",
    )
    assert code == 2
    assert f"has {comb(406, 6)} edges" in err
    assert time.perf_counter() - t0 < 1.0


def test_hl_exact_unbuildable_row_cap_exits_2_fast(capsys):
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "hl", "exact", "--t", "0.3", "--a", "0.3,0.3,0.3",
        "--b", "0.3,0.3,0.3", "--row-cap", "400",
    )
    assert code == 2
    assert out == ""
    assert f"has {comb(406, 6)} edges" in err
    assert time.perf_counter() - t0 < 1.0


def test_seed_determinism_byte_identical(capsys):
    args = ("hl", "sample", "--t", "0.3", "--a", "0.4,0.3", "--b", "0.4,0.3",
            "--samples", "5", "--seed", "11")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    _, out3, _ = run(capsys, *args[:-1], "12")
    assert out1 != out3


def test_hl_sample_stream_is_pinned(capsys):
    # one uniform per step, candidates in lattice edge order (SCHEMAS.md "Seeding")
    code, out, _ = run(capsys, "hl", "sample", "--t", "0.3", "--a", "0.4,0.3",
                       "--b", "0.4,0.3", "--samples", "5", "--seed", "11")
    assert code == 0
    assert json.loads(out) == [
        {"sample": i, "sequence": seq} for i, seq in enumerate([
            "[[], [], []]", "[[], [], []]", "[[1], [1], [1]]", "[[], [], []]",
            "[[], [], []]",
        ])
    ]


def test_rsk_run_and_csv_format(capsys):
    code, out, _ = run(
        capsys, "rsk", "run", "--rates", "1.0,0.5", "--t", "0.4",
        "--tmax", "1.0", "--snapshots", "0.5,1.0", "--seed", "2",
    )
    assert code == 0
    snaps = json.loads(out)
    assert len(snaps) == 2
    assert len(snaps[0]["levels"]) == 2
    code, out, _ = run(
        capsys, "sixv", "sample", "--t", "0.3", "--a", "0.5", "--b", "0.5",
        "--samples", "3", "--format", "csv", "--seed", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:2] == ["sample", "state_hash"]
    assert len(lines) == 4
    code, out, _ = run(
        capsys, "rsk", "run", "--rates", "1.0,0.5", "--t", "0.4",
        "--tmax", "1.0", "--format", "csv", "--seed", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time,level,row,new_value"


def test_rsk_event_trajectory_consistent_with_snapshot():
    events: list = []
    traj = rsk_run_with_events(events)
    arr_levels = [[0], [0, 0]]
    for _, level, row, newv in events:
        assert arr_levels[level - 1][row - 1] == newv - 1
        arr_levels[level - 1][row - 1] = newv
    assert arr_levels == traj[-1][1].levels


def rsk_run_with_events(events):
    from hlsixv import rsk

    return rsk.run_rsk((1.0, 0.8), 0.45, 3.0, seed=4, events=events)


# read before SetSystem stored each level as a floor plus extras
RSK_SETS_PINNED = [
    (("--rates", "1.0,0.8,0.6", "--t", "0.4", "--tmax", "8", "--seed", "7"),
     {"complements": [[0, 1, 2, 3], [0, 1, 2], [0, 1, 2, 4, 5, 6, 7, 8, 9]],
      "first_columns": [1, 2, 3]}),
    (("--rates", "1,1,1,1,1", "--t", "0.3", "--tmax", "6", "--seed", "11"),
     {"complements": [[0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 4, 5, 8, 9, 10],
                      [0, 11], [1, 2, 3, 4, 6, 7, 8, 12, 13],
                      [0, 1, 2, 9, 10, 14]],
      "first_columns": [1, 2, 3, 3, 4]}),
]


def _interval_levels(out):
    """The complement_intervals of `rsk sets` output, checked to be sorted,
    disjoint, non-adjacent [lo, hi] pairs, at most m on level m."""
    levels = json.loads(out)["complement_intervals"]
    for m, pairs in enumerate(levels, start=1):
        assert len(pairs) <= m
        bounds = [v for pair in pairs for v in pair]
        assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
    return levels


@pytest.mark.parametrize("args, expected", RSK_SETS_PINNED)
def test_rsk_sets_output_is_pinned(capsys, args, expected):
    code, out, _ = run(capsys, "rsk", "sets", *args)
    assert code == 0
    complements = [
        [x for lo, hi in pairs for x in range(lo, hi)] for pairs in _interval_levels(out)
    ]
    assert complements == expected["complements"]
    assert json.loads(out)["first_columns"] == expected["first_columns"]


def test_rsk_sets_output_stays_at_most_n_choose_2_pairs(capsys):
    """The complements are printed as intervals, at most n(n+1)/2 pairs on n
    levels whatever the horizon, where the values of every complement grew
    to 66 KB at --tmax 1000."""
    code, out, _ = run(capsys, "rsk", "sets", "--rates", "1,0.9,0.8,0.7,0.6",
                       "--t", "0.4", "--tmax", "1000", "--seed", "3")
    assert code == 0
    levels = _interval_levels(out)
    assert len(levels) == 5
    assert sum(len(pairs) for pairs in levels) <= 5 * 6 // 2
    assert max(hi for pairs in levels for _, hi in pairs) > 500


# read before the single-run samplers shared one level clock
RSK_RUN_PINNED = [
    (("--rates", "1.0,0.8,0.6", "--t", "0.4", "--tmax", "3", "--snapshots", "1,2.5",
      "--seed", "7"),
     [{"levels": [[1], [1, 0], [2, 0, 0]], "tau": 1.0},
      {"levels": [[6], [6, 2], [7, 2, 1]], "tau": 2.5}]),
    (("--rates", "1,1", "--t", "0.3", "--tmax", "4", "--snapshots", "0.5,2,4",
      "--seed", "11"),
     [{"levels": [[0], [0, 0]], "tau": 0.5}, {"levels": [[1], [1, 0]], "tau": 2.0},
      {"levels": [[3], [3, 2]], "tau": 4.0}]),
]

RSK_RUN_CSV_PINNED = [
    (("--rates", "1.0,0.5", "--t", "0.4", "--tmax", "2", "--seed", "2"),
     "time,level,row,new_value\n"
     "0.049345379773393934,1,1,1\n0.049345379773393934,2,1,1\n"
     "1.2039946698820483,2,2,1\n1.2438591327119453,1,1,2\n"
     "1.2438591327119453,2,1,2\n1.6789608656175583,2,2,2\n"
     "1.9855405702394275,1,1,3\n1.9855405702394275,2,1,3\n"),
    (("--rates", "0.7,1.2,0.9", "--t", "0.55", "--tmax", "1.5", "--seed", "5"),
     "time,level,row,new_value\n"
     "0.08295578979599914,1,1,1\n0.08295578979599914,2,1,1\n"
     "0.08295578979599914,3,1,1\n0.6064529954552782,1,1,2\n"
     "0.6064529954552782,2,1,2\n0.6064529954552782,3,1,2\n"
     "0.8597369909568293,2,2,1\n0.8597369909568293,3,2,1\n"
     "1.3444297984291156,1,1,3\n1.3444297984291156,2,1,3\n"
     "1.3444297984291156,3,1,3\n"),
]


def _push(time, site, src, dst):
    return {"clock_site": site, "dst": dst, "src": src, "time": time}


RSK_PUSHTASEP_PINNED = [
    (("--rates", "1,0.8,0.6,1.2", "--t", "0.35", "--tmax", "1.5", "--seed", "5"),
     {"events": [_push(0.012636716833411797, 4, 4, None),
                 _push(0.4780244432020829, 1, 1, 4),
                 _push(0.7296895088612148, 1, None, None),
                 _push(0.8885820365428393, 4, 4, None)],
      "occupied": [2, 3]}),
    (("--rates", "1,1,1", "--t", "0.6", "--tmax", "1", "--seed", "3"),
     {"events": [_push(0.07909526904767232, 1, 1, None),
                 _push(0.3038391797356628, 1, None, None),
                 _push(0.5192506164280187, 3, 3, None),
                 _push(0.5647418615529493, 1, None, None),
                 _push(0.5815563120383205, 3, None, None)],
      "occupied": [2]}),
]


@pytest.mark.parametrize("args, expected", RSK_RUN_PINNED)
def test_rsk_run_output_is_pinned(capsys, args, expected):
    code, out, _ = run(capsys, "rsk", "run", *args)
    assert code == 0
    assert json.loads(out) == expected


@pytest.mark.parametrize("args, expected", RSK_RUN_CSV_PINNED)
def test_rsk_run_csv_events_are_pinned(capsys, args, expected):
    code, out, _ = run(capsys, "rsk", "run", *args, "--format", "csv")
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("args, expected", RSK_PUSHTASEP_PINNED)
def test_rsk_pushtasep_output_is_pinned(capsys, args, expected):
    code, out, _ = run(capsys, "rsk", "pushtasep", *args)
    assert code == 0
    assert json.loads(out) == expected


@pytest.mark.parametrize("argv", [
    ("rsk", "pushtasep", "--rates", "", "--t", "0.3", "--tmax", "2"),
    ("rsk", "pushtasep", "--rates", "1,-1", "--t", "0.3", "--tmax", "2"),
    ("verify", "rsk", "--rates", "1,-1"),
    ("verify", "plancherel", "--rates", "1,-1"),
    ("sixv", "halfcont", "--rates", "1,-1", "--t", "0.4", "--query", "0.5",
     "--samples", "2"),
    ("sixv", "halfcont", "--rates", "1,0.5", "--t", "1.5", "--query", "0.5",
     "--samples", "2"),
    ("rsk", "run", "--rates", "1,1", "--t", "1", "--tmax", "2"),
    ("rsk", "sets", "--rates", "1,1", "--t", "0", "--tmax", "2"),
])
def test_clock_inputs_that_cannot_run_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if "1,-1" in argv or "" in argv:
        assert "need one positive rate per tracked level" in err
    else:
        assert "need 0 < t < 1" in err


@pytest.mark.parametrize("argv", [
    ("rsk", "sets", "--rates", "1,1", "--t", "0.3", "--tmax", "nan"),
    ("rsk", "sets", "--rates", "1,1", "--t", "0.3", "--tmax", "inf"),
    ("rsk", "pushtasep", "--rates", "1,1", "--t", "0.3", "--tmax", "inf"),
    ("rsk", "run", "--rates", "1,1", "--t", "0.3", "--tmax", "1e12"),
    ("verify", "rsk", "--taus", "0.5,nan"),
    ("verify", "rsk", "--taus", "0.5,inf"),
])
def test_clock_horizons_that_cannot_run_exit_2(capsys, argv):
    """Horizons that are not finite, or that expect more rings than
    MAX_EXPECTED_RINGS, are refused before any draw."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    if "1e12" in argv:
        assert "clock rings, more than" in err
    else:
        assert "need a finite time horizon" in err


@pytest.mark.parametrize("action, message", [
    ("sets", "need a time horizon >= 0, got -1.0"),
    ("pushtasep", "need a time horizon >= 0, got -1.0"),
    ("run", "need finite snapshot times >= 0, got -1.0"),
])
def test_negative_horizon_exits_2(capsys, action, message):
    """A --tmax below 0 is refused, where sets and pushtasep used to print
    the initial state; run's default snapshot is the horizon itself."""
    code, out, err = run(capsys, "rsk", action, "--rates", "1,1", "--t", "0.3",
                         "--tmax", "-1")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("snapshots", ["nan", "1,nan", "-1", "inf"])
def test_snapshot_times_that_cannot_run_exit_2(capsys, monkeypatch, snapshots):
    """A snapshot time that is not finite or is negative is refused before
    any draw, where a nan one used to be dropped without a word."""
    from hlsixv import _kernels

    def no_draw(*args):
        raise AssertionError("the clock ran")

    monkeypatch.setattr(_kernels, "_clock_rings", no_draw)
    code, out, err = run(capsys, "rsk", "run", "--rates", "1,1", "--t", "0.3",
                         "--tmax", "2", "--snapshots", snapshots)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "need finite snapshot times >= 0" in err


@pytest.mark.parametrize("action", ["run", "sets"])
@pytest.mark.parametrize("bad", [
    ("--rates", "1,-1"), ("--rates", "1,0"), ("--rates", "1,1", "--levels", "3"),
    ("--rates", ""),
])
def test_rsk_bad_rates_or_levels_exit_2(capsys, action, bad):
    code, out, err = run(capsys, "rsk", action, *bad, "--t", "0.3", "--tmax", "2")
    assert code == 2
    assert out == ""
    if "--levels" in bad:  # one level per rate: there is no --levels option
        assert "unrecognized arguments: --levels 3" in err
    else:
        assert "need one positive rate per tracked level" in err


def test_verify_subcommand_exit_codes(capsys):
    code, out, err = run(
        capsys, "verify", "support", "--t", "0.3", "--a", "0.4", "--b", "0.4",
        "--S", "+-",
    )
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["passed"]
    assert "PASS" in err
    # an infeasibly coarse Plancherel discretization must fail honestly
    code, out, err = run(
        capsys, "verify", "plancherel", "--rates", "1.0,0.8", "--t", "0.5",
        "--tau", "1.2", "--K", "4", "--samples", "4000", "--seed", "5",
    )
    assert code == 1
    assert "FAIL" in err


def test_verify_reports_byte_identical_modulo_runtime(capsys):
    args = ("verify", "support", "--t", "0.3", "--a", "0.4,0.3", "--b",
            "0.4,0.3", "--S", "+-+-", "--seed", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)

    def strip(s):
        rows = json.loads(s)
        for r in rows:
            r.pop("runtime", None)
        return rows

    assert strip(out1) == strip(out2)


def test_env_var_default_seed(capsys, monkeypatch):
    monkeypatch.setenv("HLSIXV_SEED", "11")
    _, out_env, _ = run(capsys, "hl", "sample", "--t", "0.3", "--a", "0.4",
                        "--b", "0.4", "--samples", "4")
    _, out_flag, _ = run(capsys, "hl", "sample", "--t", "0.3", "--a", "0.4",
                         "--b", "0.4", "--samples", "4", "--seed", "11")
    assert out_env == out_flag


def test_env_var_seed_that_is_no_int_exits_2(capsys, monkeypatch):
    """A bad HLSIXV_SEED is a usage error, where it used to end in a
    traceback with exit 1; --seed still takes precedence over it."""
    monkeypatch.setenv("HLSIXV_SEED", "x")
    argv = ("hl", "sample", "--t", "0.3", "--a", "0.4", "--b", "0.4")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "argument --seed: invalid int value: 'x'" in err
    code, _, _ = run(capsys, *argv, "--seed", "3")
    assert code == 0


def test_config_overrides_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t": 0.25}))
    code, out, _ = run(
        capsys, "--config", str(cfg), "sixv", "exact",
        "--t", "0.9", "--a", "0.5", "--b", "0.5",
    )
    assert code == 0
    probs = {r["key"]: r["prob"] for r in json.loads(out)["outcomes"]}
    assert probs["[]/[]"] == pytest.approx(0.8)  # t taken from the config


def test_output_file(capsys, tmp_path):
    path = tmp_path / "dist.json"
    code, out, _ = run(
        capsys, "sixv", "exact", "--t", "0.25", "--a", "0.5", "--b", "0.5",
        "--output", str(path),
    )
    assert code == 0 and out == ""
    payload = json.loads(path.read_text())
    assert payload["outcomes"]


def test_halfcont_cli(capsys):
    code, out, _ = run(
        capsys, "sixv", "halfcont", "--t", "0.4", "--rates", "1.0,0.6",
        "--tmax", "2.0", "--query", "0.5,1.5", "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["heights"]) == 2


@pytest.mark.parametrize("shape,expected", [
    (("--a", "0.5,0.35", "--b", "0.5,0.4"), [
        '0,1567037624,[2],"[2, 1, 0]"',
        '1,2990593004,[],"[2, 2, 1]"',
        '2,1567037624,[2],"[2, 1, 0]"',
        '3,2990593004,[],"[2, 2, 1]"',
    ]),
    (("--a", "0.5,0.35,0.4", "--b", "0.5,0.4,0.3", "--S", "+-++--"), [
        '0,4032291132,"[1, 1, 1]","[2, 2, 2, 2, 1]"',
        '1,2488836479,"[3, 1]","[3, 2, 2, 1, 0]"',
        '2,4032291132,"[1, 1, 1]","[2, 2, 2, 2, 1]"',
        '3,1452442851,"[1, 1]","[3, 2, 2, 2, 1]"',
    ]),
])
def test_sixv_sample_csv_is_pinned(capsys, shape, expected):
    # RandomState(seed), one uniform per run at every vertex, column by column
    # and bottom to top (SCHEMAS.md "Seeding")
    code, out, _ = run(capsys, "sixv", "sample", "--t", "0.35", *shape,
                       "--samples", "4", "--format", "csv", "--seed", "5")
    assert code == 0
    assert out.splitlines() == ["sample,state_hash,nu,heights"] + expected


@pytest.mark.parametrize("samples,query,expected", [
    ("1", "0.5,1.0,2.5", [[0, 1, 1], [0, 1, 1], [0, 1, 1]]),
    ("3", "2.5,0.5,1.0", [
        [[0, 1, 2], [0, 1, 2], [0, 1, 1]],
        [[1, 1, 2], [1, 1, 2], [0, 0, 1]],
        [[0, 1, 2], [0, 0, 1], [0, 0, 0]],
    ]),
])
def test_halfcont_output_is_pinned(capsys, samples, query, expected):
    # heights at the sorted query times; one run prints [times, rows]
    code, out, _ = run(capsys, "sixv", "halfcont", "--t", "0.4", "--rates",
                       "1.0,0.7,0.5", "--query", query, "--seed", "4",
                       "--samples", samples)
    assert code == 0
    payload = json.loads(out)
    assert payload["query_times"] == [float(q) for q in query.split(",")]
    assert payload["heights"] == expected


@pytest.mark.parametrize("samples", ["1", "2"])
def test_halfcont_checks_the_horizon_for_any_sample_count(capsys, samples):
    code, out, err = run(capsys, "sixv", "halfcont", "--t", "0.4", "--rates",
                         "1,0.5", "--tmax", "1", "--query", "2",
                         "--samples", samples)
    assert code == 2
    assert out == ""
    assert "query time beyond horizon" in err


def test_halfcont_needs_a_run(capsys):
    code, out, err = run(capsys, "sixv", "halfcont", "--t", "0.4", "--rates",
                         "1,0.5", "--query", "0.5", "--samples", "0")
    assert code == 2
    assert out == ""
    assert "--samples >= 1" in err


def test_verify_plancherel_level_beyond_the_rates_exits_2(capsys):
    code, out, err = run(capsys, "verify", "plancherel", "--rates", "1.0,0.8",
                         "--level-n", "3", "--samples", "20000", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "level 3 outside 1..2" in err


def test_verify_plancherel_at_a_deficit_floor_exits_2(capsys):
    """At K = 1986 the 2K law's deficit stops falling above the tolerance,
    which used to widen the row cap without end."""
    code, out, err = run(capsys, "verify", "plancherel", "--rates", "1.0,0.8",
                         "--t", "0.5", "--tau", "0.6", "--level-n", "2",
                         "--K", "1986", "--samples", "100", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "at row cap 24 is no lower than at cap 16" in err
    assert "rounding floor" in err


def _no_ensemble_draw(monkeypatch):
    """Make the lockstep driver's generator fail if any ensemble starts."""
    import numpy as np

    def no_draw(*args):
        raise AssertionError("an ensemble drew")

    monkeypatch.setattr(np.random, "RandomState", no_draw)


@pytest.mark.parametrize("action", ["rsk", "plancherel"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_ensembles_need_a_run(capsys, monkeypatch, action, samples):
    """--samples below 1 exits 2 before any draw, as in sixv halfcont, where
    0 used to divide by zero and -5 to reach numpy's shape check."""
    _no_ensemble_draw(monkeypatch)
    code, out, err = run(capsys, "verify", action, "--samples", samples)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"verify {action} requires --samples >= 1" in err


@pytest.mark.parametrize("count", ["0", "-5"])
@pytest.mark.parametrize("argv, flag", [
    (("hl", "sample", "--t", "0.3", "--a", "0.4", "--b", "0.4"), "--samples"),
    (("sixv", "sample", "--t", "0.3", "--a", "0.4", "--b", "0.4", "--format", "csv"),
     "--samples"),
    (("tboson", "exchange"), "--draws"),
    (("tboson", "yb"), "--trials"),
], ids=["hl-sample", "sixv-sample", "tboson-exchange", "tboson-yb"])
def test_counts_below_1_exit_2(capsys, monkeypatch, argv, flag, count):
    """A sample, draw or trial count below 1 exits 2 before any draw, where
    it used to print an empty payload, or a residual of 0.0 over no draws,
    and exit 0."""
    import numpy as np

    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(np.random, "RandomState", no_draw)
    code, out, err = run(capsys, *argv, f"{flag}={count}")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"{argv[0]} {argv[1]} requires {flag} >= 1" in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "rsk", "--taus=-0.5,1"), "need finite query times >= 0"),
    (("verify", "rsk", "--taus=-inf,1"), "need finite query times >= 0"),
    (("sixv", "halfcont", "--t", "0.4", "--rates", "1,0.5", "--query=-1,0.5",
      "--samples", "2"), "need finite query times >= 0"),
    (("verify", "plancherel", "--tau=-0.6"), "need tau >= 0"),
    (("verify", "plancherel", "--tau=nan"), "need tau >= 0"),
], ids=["rsk", "rsk-minus-inf", "halfcont", "plancherel", "plancherel-nan"])
def test_query_times_below_0_exit_2(capsys, monkeypatch, argv, message):
    """A negative query time is refused before any draw, where the empty
    start state used to be reported as the field at that time."""
    _no_ensemble_draw(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("K", ["0", "-3"])
def test_verify_plancherel_needs_K_at_least_1(capsys, monkeypatch, K):
    """--K below 1 exits 2 before any draw, where 0 used to divide by zero
    after the ensemble and -3 to name only the sign string."""
    _no_ensemble_draw(monkeypatch)
    code, out, err = run(capsys, "verify", "plancherel", "--K", K, "--samples", "100")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "need K >= 1" in err


def test_hl_row_cap_0_is_used(capsys):
    """--row-cap 0 runs at cap 0, where it used to fall back to the default."""
    code, out, _ = run(capsys, "hl", "support", "--t", "0.25", "--a", "0.5",
                       "--b", "0.5", "--row-cap", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["row_cap"] == 0
    assert [row["key"] for row in payload["outcomes"]] == ["[]/[]"]
    assert payload["mass_deficit"] == pytest.approx(0.2)


def test_hl_negative_row_cap_exits_2_naming_the_cap(capsys):
    code, out, err = run(capsys, "hl", "exact", "--t", "0.25", "--a", "0.5",
                         "--b", "0.5", "--row-cap", "-3")
    assert code == 2
    assert out == ""
    assert "need a row cap >= 0, got -3" in err


@pytest.mark.parametrize("points, bad", [("1", "'1'"), ("2,1;1,2,1", "'1,2,1'")])
def test_sixv_heights_names_a_malformed_point(capsys, points, bad):
    code, out, err = run(capsys, "sixv", "heights", "--t", "0.25", "--a", "0.5,0.4",
                         "--b", "0.5,0.4", "--points", points)
    assert code == 2
    assert out == ""
    assert f"point {bad} is not x,y" in err


def test_hl_support_widens_the_cap_to_the_realized_deficit(capsys):
    # many small b: the tail bound's cap 8 leaves a deficit of 3.3e-11
    code, out, _ = run(capsys, "hl", "support", "--t", "0.5", "--a", "1.0,0.8",
                       "--b", ",".join(["0.015"] * 24))
    assert code == 0
    payload = json.loads(out)
    assert payload["row_cap"] == 16
    assert payload["mass_deficit"] <= 1e-12


@pytest.mark.parametrize("argv", [
    ("match", "--m", "1", "--N", "3", "--t", "0.5", "--a", "0.4", "--b", "0.4"),
    ("hl", "--m", "1", "--N", "1", "--t", "1.5", "--a", "0.4", "--b", "0.4"),
    ("hl", "--m", "1", "--N", "1", "--t", "0.5", "--a", "0.4", "--b", "0.4",
     "--tol", "-1"),
    ("hl", "--m", "1", "--N", "1", "--t", "0.5", "--a", "0.4", "--b", "0.4",
     "--tol", "1e-20"),
])
def test_moments_inputs_that_cannot_run_exit_2(capsys, argv):
    code, out, err = run(capsys, "moments", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (("--m", "", "--N", "1"), "need at least one m"),
    (("--m", "1", "--N", "0"), "need N >= 1, got 0"),
], ids=["no-m", "N-0"])
def test_moments_without_an_m_or_a_column_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "moments", "hl", *argv,
                         "--t", "0.5", "--a", "0.4", "--b", "0.4")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (("--L", "0"), "need L >= 1, got 0"),
    (("--cap", "-1"), "need cap >= 0, got -1"),
], ids=["L-0", "cap-negative"])
def test_tboson_exchange_outside_its_bounds_exits_2(capsys, argv, message):
    code, out, err = run(capsys, "tboson", "exchange", *argv, "--draws", "1")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("side, argv", [
    ("hl", ("--t", "0.5", "--a", "0.4", "--b", "0.4")),
    ("sixv", ("--t", "0.9", "--a", "0.4", "--b", "0.4")),
])
def test_moments_ignore_the_b_beyond_N(capsys, side, argv):
    """A b past b_N leaves the contours, and so the moment, unchanged."""
    base = ("moments", side, "--m", "1", "--N", "1") + argv
    code, ref, _ = run(capsys, *base)
    assert code == 0
    unused = "5" if side == "hl" else "2.4"  # 1/(t b) inside the contour
    code, out, _ = run(capsys, *base[:-1], argv[-1] + "," + unused)
    assert code == 0
    assert json.loads(out) == json.loads(ref)


def _actions():
    """Every (command, action) pair of the parser, with its subparser."""
    import argparse

    from hlsixv.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, sp in sub.choices.items():
        action = next(a for a in sp._actions if a.dest == "action")
        for name in action.choices:
            yield command, name, sp


# the flags each command requires, at values every action of it can run
REQUIRED = {
    "hl": ("--t", "0.3", "--a", "0.4", "--b", "0.4"),
    "sixv": ("--t", "0.3", "--a", "0.4", "--b", "0.4"),
    "moments": ("--m", "1", "--N", "1", "--t", "0.5", "--a", "0.4", "--b", "0.4"),
    "rsk": ("--rates", "1,0.5", "--t", "0.4", "--tmax", "1"),
}
CSV_ACTIONS = {("hl", "sample"), ("sixv", "sample"), ("rsk", "run"),
               ("rsk", "pushtasep")}


@pytest.mark.parametrize("command, action", [
    (c, a) for c, a, _ in _actions() if (c, a) not in CSV_ACTIONS
])
def test_csv_format_without_a_csv_form_exits_2(capsys, monkeypatch, command, action):
    """--format csv on an action with no CSV form exits 2 before its handler
    runs, where it used to print Python reprs and exit 0."""
    from hlsixv import cli

    def no_work(args):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, f"_cmd_{command}", no_work)
    code, out, err = run(capsys, command, action, *REQUIRED.get(command, ()),
                         "--format", "csv")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "csv" in err


@pytest.mark.parametrize("argv", [
    ("hl", "sample", "--t", "0.3", "--a", "0.4,0.3", "--b", "0.4,0.3",
     "--samples", "5", "--seed", "11"),
    ("sixv", "sample", "--t", "0.35", "--a", "0.5,0.35", "--b", "0.5,0.4",
     "--samples", "4", "--seed", "5"),
    ("rsk", "run", "--rates", "1.0,0.5", "--t", "0.4", "--tmax", "2", "--seed", "2"),
    ("rsk", "pushtasep", "--rates", "1,0.8,0.6,1.2", "--t", "0.35", "--tmax", "1.5",
     "--seed", "5"),
], ids=lambda argv: " ".join(argv[:2]))
def test_csv_rows_parse_at_the_header_width(capsys, argv):
    """Each row of the four CSV actions reads back as many cells as the
    header, and the cells of sixv and hl sample hold their JSON."""
    import csv

    assert tuple(argv[:2]) in CSV_ACTIONS
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(out.splitlines())
    assert len(rows) >= 4
    assert all(len(row) == len(header) for row in rows)
    for row in rows:
        for col in ("sequence", "nu", "heights"):
            if col in header:
                assert isinstance(json.loads(row[header.index(col)]), list)


def test_csv_pushtasep_writes_null_src_and_dst_as_empty_cells(capsys):
    code, out, _ = run(capsys, "rsk", "pushtasep", "--rates", "1,1,1", "--t", "0.6",
                       "--tmax", "1", "--seed", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[:3] == ["time,clock_site,src,dst",
                                    "0.07909526904767232,1,1,",
                                    "0.3038391797356628,1,,"]


def test_csv_with_no_rows_still_has_its_header(capsys):
    code, out, _ = run(capsys, "rsk", "run", "--rates", "1,0.5", "--t", "0.4",
                       "--tmax", "1e-9", "--format", "csv")
    assert code == 0
    assert out == "time,level,row,new_value\n"


def test_every_flag_is_its_destination():
    """A config key names a flag by destination: --dest with - for _."""
    for _, _, sp in _actions():
        for action in sp._actions:
            for opt in action.option_strings:
                if opt.startswith("--") and opt != "--help":
                    assert opt == "--" + action.dest.replace("_", "-")


def _with_config(tmp_path, entries):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    return ("--config", str(cfg))


@pytest.mark.parametrize("entries, message", [
    ({"tt": 0.9}, "unrecognized arguments: --tt=0.9"),
    ({"action": "bogus"}, "unrecognized arguments: --action=bogus"),
    ({"t": "x"}, "argument --t: invalid float value: 'x'"),
    ({"output": None}, "'output' is null, not a string, a number or true"),
    ({"row_cap": False}, "'row_cap' is false"),
    ({"a": [0.5]}, "'a' is [0.5]"),
    ({"t": True}, "argument --t: expected one argument"),
    ({"samp": 3}, "unrecognized arguments: --samp=3"),
], ids=["unknown", "positional", "ill-typed", "null", "false", "list", "switch",
        "abbreviation"])
def test_config_entries_that_are_no_flag_exit_2(capsys, tmp_path, entries, message):
    """An entry that the same flag would refuse exits 2, where an unknown key
    used to be ignored, {"action": "bogus"} to run hl sample, and an ill-typed
    value to end in a traceback."""
    code, out, err = run(capsys, *_with_config(tmp_path, entries), "hl", "pi",
                         "--t", "0.3", "--a", "0.4", "--b", "0.4")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("entries, flags", [
    ({"t": "0.3"}, ("--t", "0.3")),
    ({"a": 0.5}, ("--a", "0.5")),
    ({"row_cap": 6, "a": "0.4,0.3"}, ("--row-cap", "6", "--a", "0.4,0.3")),
])
def test_config_entries_act_as_their_flags(capsys, tmp_path, entries, flags):
    argv = ("hl", "support", "--t", "0.25", "--a", "0.2", "--b", "0.4")
    code, out, _ = run(capsys, *_with_config(tmp_path, entries), *argv)
    assert code == 0
    code, expected, _ = run(capsys, *argv, *flags)
    assert code == 0
    assert out == expected


def test_config_gives_required_flags(capsys, tmp_path):
    """A config file can hold every flag a command requires, where the
    command line used to be parsed alone first and exit 2 without them."""
    entries = {"t": 0.3, "a": "0.4", "b": "0.4"}
    code, out, err = run(capsys, *_with_config(tmp_path, entries), "hl", "pi")
    assert code == 0, err
    code, expected, _ = run(capsys, "hl", "pi", "--t", "0.3", "--a", "0.4", "--b", "0.4")
    assert code == 0
    assert out == expected


def test_config_true_is_the_bare_switch(capsys, tmp_path):
    argv = ("sixv", "exact", "--t", "0.25", "--a", "2", "--b", "8")
    code, out, _ = run(capsys, *_with_config(tmp_path, {"native": True}), *argv)
    assert code == 0
    code, expected, _ = run(capsys, *argv, "--native")
    assert out == expected
    assert "converted_from_native" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ("sixv", "exact", "--M", "1", "--t", "0.25", "--a", "0.5", "--b", "0.5"),
    ("sixv", "exact", "--N", "1", "--t", "0.25", "--a", "0.5", "--b", "0.5"),
    ("moments", "hl", "--k", "1", "--m", "1", "--N", "1", "--t", "0.5",
     "--a", "0.4", "--b", "0.4"),
    ("verify", "all", "--level", "desk"),
    ("verify", "plancherel", "--level", "2"),  # not an abbreviation of --level-n
    ("verify", "support", "--format", "json"),
])
def test_flags_that_only_restated_an_input_are_gone(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"unrecognized arguments: {argv[2]} {argv[3]}" in err


def test_verify_rsk_needs_a_query_time(capsys, monkeypatch):
    _no_ensemble_draw(monkeypatch)
    code, out, err = run(capsys, "verify", "rsk", "--taus", "")
    assert code == 2
    assert out == ""
    assert "need at least one query time" in err
