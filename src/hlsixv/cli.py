"""Unified command line entry point.

Subcommands mirror the library modules: partition, hl, sixv, tboson, moments,
rsk, verify.  All randomness derives from one master seed (--seed, or the
HLSIXV_SEED environment variable) split per command through
numpy.random.SeedSequence([master, crc32(command-tag)]); identical
(config, seed) pairs therefore produce byte-identical JSON up to the
explicitly timing-valued fields (runtime).  --config FILE.json gives flags
by destination name, required ones too, parsed after the command line so
that they win over it.  --format csv is offered by the actions in
CSV_COLUMNS only.  Exit codes: 0 success, 1 a verification check failed, 2
usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import zlib

import numpy as np

from . import hl_process as hl
from . import moments as mo
from . import partitions as pt
from . import rsk
from . import six_vertex as sv
from . import tboson as tb
from . import verify as vf


def _floats(s: str) -> tuple:
    return tuple(float(x) for x in s.split(",") if x != "")


def _ints(s: str) -> tuple:
    return tuple(int(x) for x in s.split(",") if x != "")


def _points(s: str) -> list:
    points = []
    for p in filter(None, s.split(";")):
        points.append(tuple(int(v) for v in p.split(",")))
        if len(points[-1]) != 2:
            raise ValueError(f"point {p!r} is not x,y")
    return points


def split_seed(master: int, tag: str) -> int:
    """Documented seed-splitting scheme: child stream per command tag."""
    ss = np.random.SeedSequence([int(master), zlib.crc32(tag.encode())])
    return int(ss.generate_state(1)[0])


# the columns of each action with a CSV form, one row per sample or event
CSV_COLUMNS = {
    ("hl", "sample"): ("sample", "sequence"),
    ("sixv", "sample"): ("sample", "state_hash", "nu", "heights"),
    ("rsk", "run"): ("time", "level", "row", "new_value"),
    ("rsk", "pushtasep"): ("time", "clock_site", "src", "dst"),
}

# the count flag of each action that draws, refused below 1 before any draw
COUNT_FLAGS = {
    ("hl", "sample"): "samples",
    ("sixv", "sample"): "samples",
    ("sixv", "halfcont"): "samples",
    ("tboson", "yb"): "trials",
    ("tboson", "exchange"): "draws",
    ("verify", "rsk"): "samples",
    ("verify", "plancherel"): "samples",
}


def _emit(payload, args) -> None:
    buf = io.StringIO()
    if getattr(args, "format", "json") == "csv":
        writer = csv.DictWriter(buf, CSV_COLUMNS[args.command, args.action],
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(payload)
    else:
        buf.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.output:
        with open(args.output, "w") as f:
            f.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _signs(S, M, N) -> tuple:
    """The sign string --S, or the rectangular one of M pluses then N minuses."""
    return pt.parse_signs(S) if S else tuple([1] * M + [-1] * N)


# ---------------------------------------------------------------------------
# handlers


def _cmd_partition(args):
    if args.action == "conjugate":
        lam = pt.as_partition(_ints(args.parts))
        return 0, {"parts": list(lam), "conjugate": list(pt.conjugate(lam))}
    if args.action == "from-string":
        signs = pt.parse_signs(args.signs)
        p, m = pt.sign_counts(signs)
        return 0, {"signs": pt.signs_to_str(signs), "partition": list(pt.partition_from_string(signs, p, m))}
    lam = pt.as_partition(_ints(args.parts))
    return 0, {
        "partition": list(lam),
        "signs": pt.signs_to_str(pt.string_from_partition(lam, args.p, args.m)),
    }


def _cmd_hl(args):
    a, b = _floats(args.a), _floats(args.b)
    spec = hl.HLProcessSpec(t=args.t, a=a, b=b, S=_signs(args.S, len(a), len(b)))
    if args.action == "pi":
        return 0, {"pi": hl.normalization_pi(spec)}
    cap = hl.row_cap(spec) if args.row_cap is None else args.row_cap
    if args.action == "exact":
        dist = hl.exact_sequence_distribution(spec, cap)
        rows = sorted(
            (json.dumps([list(p) for p in seq]), v) for seq, v in dist.items()
        )
        return 0, {
            "outcomes": [{"key": k, "prob": v} for k, v in rows],
            "mass_deficit": dist.mass_deficit,
            "row_cap": cap,
        }
    if args.action == "support":
        out = hl.exact_support_distribution(spec, cap).to_json_dict()
        out["row_cap"] = cap
        return 0, out
    sampler = hl.SequenceSampler(spec, cap, split_seed(args.seed, "hl.sample"))
    rows = [
        {"sample": i, "sequence": json.dumps([list(p) for p in sampler.sample()])}
        for i in range(args.samples)
    ]
    return 0, rows


def _cmd_sixv(args):
    if args.action == "halfcont":
        rates = _floats(args.rates)
        taus = _floats(args.query)
        if not rates or not taus:
            raise ValueError("halfcont requires --rates and --query")
        if args.tmax is not None and max(taus) > args.tmax:
            raise ValueError("query time beyond horizon")
        ens = sv.half_continuous_height_ensemble(
            args.t, rates, taus, args.samples, split_seed(args.seed, "sixv.halfcont")
        )
        # one run prints its [times, rows] heights, more the [runs, times, rows] array
        heights = ens[0] if args.samples == 1 else ens
        return 0, {"query_times": list(taus), "heights": heights.tolist()}
    if not args.a or not args.b:
        raise ValueError(f"sixv {args.action} requires --a and --b")
    a, b = _floats(args.a), _floats(args.b)
    if args.native:
        params = sv.SixVertexParams.from_native(args.t, a, b)
        meta = {"converted_from_native": {"Q": args.t, "xi": list(a), "u": list(b)}}
    else:
        params = sv.SixVertexParams(t=args.t, a=a, b=b)
        meta = {}
    M, N = len(params.a), len(params.b)
    domain = sv.JaggedDomain(M, N, _signs(args.S, M, N))
    if args.action == "exact":
        dist = sv.exact_outgoing_distribution(params, domain)
        return 0, {**dist.to_json_dict(), **meta}
    if args.action == "heights":
        dist = sv.exact_joint_height_distribution(params, domain, _points(args.points))
        return 0, {**dist.to_json_dict(), **meta}
    # sample
    vert, horiz = sv.sample_edges(params, domain, args.samples,
                                  split_seed(args.seed, "sixv.sample"))
    occupied = sv.outgoing_occupancy(domain, vert, horiz)
    cut = domain.cut_points()[1 : M + N]
    heights = sv.edge_heights(domain, vert, [(x + 1, y) for x, y in cut])
    rows = []
    for i in range(args.samples):
        T = tuple(-1 if b else 1 for b in occupied[:, i])
        rows.append(
            {
                "sample": i,
                "state_hash": zlib.crc32(vert[:, i].tobytes() + horiz[:, i].tobytes()),
                "nu": json.dumps(list(pt.partition_from_string(T, M, N))),
                "heights": json.dumps(heights[:, i].tolist()),
            }
        )
    return 0, rows


def _cmd_tboson(args):
    if args.action == "yb":
        worst = tb.yang_baxter_max_residual(args.trials, split_seed(args.seed, "tboson.yb"))
        return 0, {"trials": args.trials, "max_residual": worst}
    if args.action == "exchange":
        rng = np.random.default_rng(split_seed(args.seed, "tboson.exchange"))
        whichs = [args.which] if args.which else ["CA", "CB", "DA", "DB"]
        worst = 0.0
        for _ in range(args.draws):
            a, b, t = (float(v) for v in rng.uniform(0.1, 0.9, size=3))
            for w in whichs:
                worst = max(worst, tb.verify_exchange_relation(w, args.L, args.cap, a, b, t))
        return 0, {"relations": whichs, "draws": args.draws, "max_residual": worst}
    val = tb.row_operator_element(
        args.kind, args.spectral, _ints(args.lam), _ints(args.mu), args.L, args.t
    )
    return 0, {"value": val}


def _cmd_moments(args):
    ms = _ints(args.m)
    k = len(ms)
    a, b = _floats(args.a), _floats(args.b)
    if args.action == "hl":
        return 0, mo.hl_moment(k, ms, args.N, args.t, a, b, tol=args.tol, full=True)
    if args.action == "sixv":
        params = sv.SixVertexParams(t=args.t, a=a, b=b)
        return 0, mo.sixv_moment(k, ms, args.N, params, tol=args.tol, full=True)
    lhs, rhs, diff = mo.moment_match_check(k, ms, args.N, args.t, a, b, tol=args.tol)
    return 0, {"hl_side": lhs, "sixv_side": rhs, "abs_diff": diff}


def _cmd_rsk(args):
    rates = _floats(args.rates)
    seedv = split_seed(args.seed, f"rsk.{args.action}")
    if args.action == "run":
        snaps = _floats(args.snapshots) if args.snapshots else (args.tmax,)
        if args.format == "csv":
            events: list = []
            rsk.run_rsk(rates, args.t, args.tmax, seedv, snaps, events=events)
            return 0, [dict(zip(CSV_COLUMNS["rsk", "run"], e)) for e in events]
        traj = rsk.run_rsk(rates, args.t, args.tmax, seedv, snaps)
        return 0, [
            {"tau": tau, "levels": [list(l) for l in arr.levels]} for tau, arr in traj
        ]
    if args.action == "pushtasep":
        events, state = rsk.run_pushtasep(rates, args.t, args.tmax, seedv)
        rows = [dict(zip(CSV_COLUMNS["rsk", "pushtasep"], e)) for e in events]
        if args.format == "csv":
            return 0, rows
        occupied = [i + 1 for i, o in enumerate(state.occupied) if o]
        return 0, {"events": rows, "occupied": occupied}
    sets = rsk.run_sets(rates, args.t, args.tmax, seedv)
    return 0, {
        "complement_intervals": sets.intervals,
        "first_columns": list(rsk.array_from_sets(sets).first_columns()),
    }


def _cmd_verify(args):
    if args.action == "all":
        reports = vf.run_all(seed=split_seed(args.seed, "verify.all"))
    elif args.action in ("support", "height"):
        check = vf.check_support_match if args.action == "support" else vf.check_height_match
        a, b = _floats(args.a), _floats(args.b)
        reports = [check(len(a), len(b), args.S, args.t, a, b)]
    elif args.action == "moments":
        ms = _ints(args.m)
        reports = [
            vf.check_moment_match(len(ms), ms, args.N, args.t, _floats(args.a), _floats(args.b))
        ]
    elif args.action == "rsk":
        reports = [
            vf.check_rsk_field(
                _floats(args.rates), args.t, _floats(args.taus), args.samples,
                split_seed(args.seed, "verify.rsk"),
            )
        ]
    else:
        reports = [
            vf.check_plancherel_marginal(
                _floats(args.rates), args.t, args.tau, args.level_n, args.K,
                args.samples, split_seed(args.seed, "verify.plancherel"),
            )
        ]
    sys.stderr.write(vf.summarize(reports) + "\n")
    code = 0 if all(r.passed for r in reports) else 1
    return code, [r.to_json_dict() for r in reports]


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # each parser matches flags whole, so that no flag, removed or unknown,
    # is read as an abbreviation of another
    p = argparse.ArgumentParser(prog="hlsixv", description=__doc__, allow_abbrev=False)
    p.add_argument("--config", help="JSON file of flags, parsed after the others")
    sub = p.add_subparsers(dest="command", required=True)

    # a string default goes through type=int, so a bad HLSIXV_SEED is a usage error
    env_seed = os.environ.get("HLSIXV_SEED", "0")

    def common(sp, seed=True, fmt=False):
        sp.add_argument("--output", help="write payload here instead of stdout")
        if fmt:
            sp.add_argument("--format", choices=["json", "csv"], default="json")
        if seed:
            sp.add_argument("--seed", type=int, default=env_seed)

    sp = sub.add_parser("partition", allow_abbrev=False)
    sp.add_argument("action", choices=["conjugate", "from-string", "to-string"])
    sp.add_argument("--parts", default="")
    sp.add_argument("--signs", default="")
    sp.add_argument("--p", type=int, default=0)
    sp.add_argument("--m", type=int, default=0)
    common(sp, seed=False)
    sp.set_defaults(func=_cmd_partition)

    sp = sub.add_parser("hl", allow_abbrev=False)
    sp.add_argument("action", choices=["pi", "exact", "support", "sample"])
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--S", default=None)
    sp.add_argument("--row-cap", dest="row_cap", type=int, default=None)
    sp.add_argument("--samples", type=int, default=1)
    common(sp, fmt=True)
    sp.set_defaults(func=_cmd_hl)

    sp = sub.add_parser("sixv", allow_abbrev=False)
    sp.add_argument("action", choices=["exact", "sample", "heights", "halfcont"])
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--a", default="")
    sp.add_argument("--b", default="")
    sp.add_argument("--S", default=None)
    sp.add_argument("--native", action="store_true",
                    help="interpret --t/--a/--b as native (Q, xi, u)")
    sp.add_argument("--points", default="")
    sp.add_argument("--rates", default="")
    sp.add_argument("--tmax", type=float, default=None)
    sp.add_argument("--query", default="")
    sp.add_argument("--samples", type=int, default=1)
    common(sp, fmt=True)
    sp.set_defaults(func=_cmd_sixv)

    sp = sub.add_parser("tboson", allow_abbrev=False)
    sp.add_argument("action", choices=["yb", "exchange", "rowelem"])
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--draws", type=int, default=100)
    sp.add_argument("--which", choices=["CA", "CB", "DA", "DB"], default=None)
    sp.add_argument("--L", type=int, default=3)
    sp.add_argument("--cap", type=int, default=3)
    sp.add_argument("--kind", choices=["A", "B", "Cbar", "Dbar"], default="A")
    sp.add_argument("--spectral", type=float, default=0.5)
    sp.add_argument("--lam", default="")
    sp.add_argument("--mu", default="")
    sp.add_argument("--t", type=float, default=0.5)
    common(sp)
    sp.set_defaults(func=_cmd_tboson)

    sp = sub.add_parser("moments", allow_abbrev=False)
    sp.add_argument("action", choices=["hl", "sixv", "match"])
    sp.add_argument("--m", required=True, help="m_1,m_2,... non-increasing")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    common(sp, seed=False)
    sp.set_defaults(func=_cmd_moments)

    sp = sub.add_parser("rsk", allow_abbrev=False)
    sp.add_argument("action", choices=["run", "pushtasep", "sets"])
    sp.add_argument("--rates", required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--snapshots", default="")
    common(sp, fmt=True)
    sp.set_defaults(func=_cmd_rsk)

    sp = sub.add_parser("verify", allow_abbrev=False)
    sp.add_argument(
        "action", choices=["all", "support", "height", "moments", "rsk", "plancherel"]
    )
    sp.add_argument("--t", type=float, default=0.5)
    sp.add_argument("--a", default="0.4")
    sp.add_argument("--b", default="0.4")
    sp.add_argument("--S", default="+-")
    sp.add_argument("--m", default="1")
    sp.add_argument("--N", type=int, default=1)
    sp.add_argument("--rates", default="1.0,0.8")
    sp.add_argument("--taus", default="0.7,1.4")
    sp.add_argument("--tau", type=float, default=0.6)
    sp.add_argument("--level-n", dest="level_n", type=int, default=2)
    sp.add_argument("--K", type=int, default=64)
    sp.add_argument("--samples", type=int, default=100000)
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    return p


def _config_flags(path) -> list:
    """The entries of a --config file as flags: {"row_cap": 8} gives
    --row-cap=8, and true the bare switch.  ValueError for a file that is not
    one JSON object, or a value that is not a string, a number or true."""
    try:
        with open(path) as f:
            entries = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"config: {exc}") from None
    if not isinstance(entries, dict):
        raise ValueError("config: need one JSON object")
    flags = []
    for key, val in entries.items():
        flag = "--" + key.replace("_", "-")
        if type(val) not in (str, int, float) and val is not True:
            raise ValueError(f"config: {key!r} is {json.dumps(val)}, "
                             "not a string, a number or true")
        flags.append(flag if val is True else f"{flag}={val}")
    return flags


def parse_and_dispatch(argv) -> int:
    parser = build_parser()
    # --config is found first, so that its entries can give required flags
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    try:
        config = pre.parse_known_args(argv)[0].config
        args = parser.parse_args([*argv, *_config_flags(config)] if config else argv)
        flag = COUNT_FLAGS.get((args.command, args.action))
        if flag and getattr(args, flag) < 1:
            raise ValueError(f"{args.command} {args.action} requires --{flag} >= 1")
        csv_asked = getattr(args, "format", "json") == "csv"
        if csv_asked and (args.command, args.action) not in CSV_COLUMNS:
            raise ValueError(f"{args.command} {args.action} has no csv format")
        code, payload = args.func(args)
    except SystemExit as exc:  # argparse printed a usage error, or the help
        return 2 if exc.code not in (0, None) else 0
    except (ValueError, mo.QuadratureError, hl.TruncationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(payload, args)
    return code


def main(argv=None) -> int:
    return parse_and_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
