"""Command-line front end.

Subcommands: gen, solve, dim, check, verify-paper.  Reports are JSON on
stdout with stable field names; timing and search statistics are informative
and excluded from determinism guarantees.

Exit codes: 0 success / all checks passed, 1 verification failure (a
verify-paper check that fails or raises), 2 usage or parse error (also a
vertex id outside the graph, a -k that is not a positive integer, or a
verify-paper --only prefix that is empty or matches no check id of the
level), 3 size-cap refusal, 4 internal invariant failure (a solver bug).

Limits: solve and dim take --max-n, the size cap (default 18 vertices), the
one limit a user sets; the solver's memo bound is the constant
game.MEMO_LIMIT.  verify-paper runs fixed instances and takes no limits.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

from . import families, game, graphio, resolve
from .errors import FamilyParameterError, InvariantError, MBResolveError, SizeCapError
from .graph import Graph, all_pairs_distances, twin_partition

def _positive(raw: str, what: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{what} must be a positive integer, got {raw!r}")
    return value


def _level(raw: str) -> int:
    """A truncation level from the command line: a positive integer."""
    return _positive(raw, "truncation level")


def _size_cap(raw: str) -> int:
    """A --max-n value: a positive integer, the largest graph order accepted."""
    return _positive(raw, "size cap")


def _level_or_all(raw: str) -> int | str:
    if raw == "all":
        return raw
    try:
        return _level(raw)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f'truncation level must be a positive integer or "all", got {raw!r}') from None


def _parse_params(args) -> dict:
    params = {}
    if getattr(args, "n", None) is not None:
        params["n"] = args.n
    if getattr(args, "beta", None) is not None:
        params["beta"] = args.beta
    if getattr(args, "alpha", None) is not None:
        params["alpha"] = args.alpha
    if getattr(args, "parts", None) is not None:
        try:
            params["parts"] = tuple(int(x) for x in args.parts.replace(" ", "").split(","))
        except ValueError:
            raise FamilyParameterError(f"--parts must be comma-separated integers, got {args.parts!r}") from None
    return params


def _load_source(args) -> tuple[Graph, dict]:
    """(graph, descriptor) from --family or --file."""
    if getattr(args, "family", None):
        spec = families.FamilySpec.make(args.family, **_parse_params(args))
        g = families.gen_family(spec)
        return g, {"family": spec.family, "params": dict(spec.params), "n": g.n}
    if getattr(args, "file", None):
        text = Path(args.file).read_text(encoding="utf-8")
        g = graphio.loads(text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
        return g, {"file": args.file, "sha256": digest, "n": g.n}
    raise MBResolveError("a graph source is required: --family <name> or --file <path>")


def _vertex_list(raw: str) -> list[int]:
    try:
        return [int(x) for x in raw.replace(" ", "").split(",") if x != ""]
    except ValueError:
        raise MBResolveError(f"expected comma-separated vertex ids, got {raw!r}") from None


def _pair_list(raw: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in raw.replace(" ", "").split(","):
        if not chunk:
            continue
        bits = chunk.split("-")
        if len(bits) != 2:
            raise MBResolveError(f'pairs must look like "0-2,1-3", got {raw!r}')
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise MBResolveError(f"pair endpoints must be integers, got {chunk!r}") from None
    return pairs


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _outcome_dict(out: game.GameOutcome) -> dict:
    return {
        "symbol": out.symbol.letter,
        "value": int(out.symbol),
        "m_game_winner": out.m_game_winner.value,
        "b_game_winner": out.b_game_winner.value,
    }


# -- subcommands -----------------------------------------------------------


def cmd_gen(args) -> int:
    spec = families.FamilySpec.make(args.family, **_parse_params(args))
    g = families.gen_family(spec)
    header = [
        f"family: {spec.describe()}",
        "labels name the construction roles of the documented vertex ids",
    ]
    content = (
        graphio.dumps_json(g)
        if args.format == "json"
        else graphio.dumps_text(g, header_comments=header)
    )
    if args.out:
        Path(args.out).write_text(content, encoding="utf-8")
        print(f"wrote {spec.describe()} (n={g.n}, edges={g.edge_count}) to {args.out}")
    else:
        sys.stdout.write(content)
    return 0


def cmd_solve(args) -> int:
    if args.counts and args.game != "both":
        raise MBResolveError("--counts needs --game both: the count names depend on both games' winners")
    g, descriptor = _load_source(args)
    resolve._require_size_cap(g.n, args.max_n)  # before the distances, which cost time and memory in n^2
    dm = all_pairs_distances(g)
    ks = list(range(1, dm.stable_level + 1)) if args.k == "all" else [args.k]
    per_k = []
    outcomes = []
    started = time.perf_counter()
    for k in ks:
        solver = game.GameSolver(g, dm, k, size_cap=args.max_n)
        t0 = time.perf_counter()
        entry: dict = {"k": k}
        if args.game == "both":
            out = solver.outcome()
            outcomes.append((k, out))
            entry["outcome"] = _outcome_dict(out)
            if args.counts:
                entry["counts"] = solver.move_counts(out).defined()
        else:
            maker_first = args.game == "m"
            won = solver.maker_wins(0, 0, maker_first, maker_first)
            entry["game"] = args.game
            entry["winner"] = (game.Player.MAKER if won else game.Player.BREAKER).value
        if args.certificates:
            cert = game.certificate_fast_path(g, dm, k)
            entry["certificate"] = None if cert is None else {
                "kind": cert.kind.value,
                "reason": cert.reason,
                "pairs": list(cert.pair_system.pairs) if cert.pair_system else None,
                "witnesses": list(cert.witnesses),
            }
        entry["timing"] = {"seconds": round(time.perf_counter() - t0, 6)}
        entry["stats"] = dataclasses.asdict(solver.stats)
        per_k.append(entry)
    report: dict = {"graph": descriptor, "k": args.k, "per_k": per_k}
    if args.k == "all" and args.game == "both":
        jumps = game.JumpReport.from_outcomes(outcomes).jumps
        report["jumps"] = [[k, prev.letter, cur.letter] for k, prev, cur in jumps]
    report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    _emit(report)
    return 0


def cmd_dim(args) -> int:
    g, descriptor = _load_source(args)
    resolve._require_size_cap(g.n, args.max_n)
    dm = all_pairs_distances(g)
    t0 = time.perf_counter()
    result = resolve.metric_dimension_k(dm, args.k, size_cap=args.max_n)
    _emit({
        "graph": descriptor,
        "k": args.k,
        "dim": result.value,
        "witness": list(result.witness),
        "timing": {"seconds": round(time.perf_counter() - t0, 6)},
    })
    return 0


def cmd_check(args) -> int:
    if args.gaps and args.set is None:
        raise MBResolveError("--gaps checks the landmarks of --set; give --set")
    g, descriptor = _load_source(args)
    dm = all_pairs_distances(g)
    report: dict = {"graph": descriptor}
    if args.twins:
        tp = twin_partition(g)
        report["twins"] = [
            {"vertices": list(cls), "kind": kind.value}
            for cls, kind in zip(tp.classes, tp.kinds)
        ]
    elif args.pairs is not None:
        k = _require_k(args)
        check = resolve.check_pair_system(dm, k, _pair_list(args.pairs))
        report["k"] = k
        report["classification"] = check.kind.value
        report["witnesses"] = list(check.witnesses)
    elif args.gaps:
        k = _require_k(args)
        # the gap conditions speak of runs between landmarks along 0-1-...-(n-1)-0
        if g.n < 3 or g.edges != {(v, v + 1) for v in range(g.n - 1)} | {(0, g.n - 1)}:
            raise MBResolveError(f"--gaps needs the cycle 0-1-...-{g.n - 1}-0 in vertex order")
        profile = resolve.GapProfile.from_landmarks(g.n, _vertex_list(args.set))
        report["k"] = k
        report["gaps"] = list(profile.gaps)
        report["gap_conditions_hold"] = resolve.cycle_gap_check(profile, k)
    elif args.set is not None:
        k = _require_k(args)
        check = resolve.is_resolving(dm, k, _vertex_list(args.set))
        report["k"] = k
        report["resolving"] = check.ok
        if not check.ok:
            report["unresolved_pair"] = list(check.unresolved)
    else:
        raise MBResolveError("check needs one of --set, --pairs, --twins")
    _emit(report)
    return 0


def _require_k(args) -> int:
    if args.k is None:
        raise MBResolveError("this check needs -k")
    return args.k


def cmd_verify_paper(args) -> int:
    from . import verify

    only = args.only.split(",") if args.only is not None else None
    suite = verify.run_suite(
        level=args.level,
        only=only,
        progress=sys.stderr if not args.quiet else None,
    )
    table = verify.format_table(suite)
    print(table)
    if args.report:
        Path(args.report).write_text(json.dumps(verify.suite_to_dict(suite), indent=2) + "\n", encoding="utf-8")
        print(f"report written to {args.report}")
    print(f"level: {args.level}; "
          f"{sum(1 for c in suite.checks if c.passed)}/{len(suite.checks)} checks passed")
    return 0 if suite.all_passed else 1


# -- parser ------------------------------------------------------------------


def _add_family_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="order parameter (path/cycle/complete/wheel)")
    p.add_argument("--beta", type=int, help="leaf count (star)")
    p.add_argument("--alpha", type=int, help="branch parameter (thm_a/thm_b/thm_e/thm_f/fig1)")
    p.add_argument("--parts", help='part sizes for multipartite, e.g. "3,3"')


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="generate the graph from a named family "
                                    f"({', '.join(families.family_names())})")
    _add_family_param_flags(p)
    p.add_argument("--file", help="read the graph from a text or JSON file")


def _add_max_n_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=_size_cap, help=f"size cap: the largest graph order accepted (default {resolve.DEFAULT_SIZE_CAP})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbresolve",
        description="Truncated-metric resolving sets and exhaustive Maker-Breaker resolving games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family graph and write it to a file")
    p.add_argument("--family", required=True)
    _add_family_param_flags(p)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve the game: outcome, winners, optional counts")
    _add_source_flags(p)
    p.add_argument("-k", "--k", required=True, type=_level_or_all,
                   help='truncation level, or "all" for 1..diameter-1')
    p.add_argument("--game", choices=["m", "b", "both"], default="both")
    p.add_argument("--counts", action="store_true", help="include optimal move counts (needs --game both)")
    p.add_argument("--certificates", action="store_true", help="include structural certificates")
    _add_max_n_flag(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("dim", help="exact distance-k metric dimension with a witness")
    _add_source_flags(p)
    p.add_argument("-k", "--k", required=True, type=_level)
    _add_max_n_flag(p)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("check", help="resolving / pair-system / twin / gap checks")
    _add_source_flags(p)
    p.add_argument("-k", "--k", type=_level)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--set", help="comma-separated landmark ids")
    mode.add_argument("--pairs", help='pair system, e.g. "0-2,1-3"')
    mode.add_argument("--twins", action="store_true", help="print twin classes")
    p.add_argument("--gaps", action="store_true", help="check the cycle gap conditions on --set (the graph must be the cycle 0-1-...-(n-1)-0)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify-paper", help="run the closed-form verification suite")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--report", help="write the machine-readable results here")
    p.add_argument("--only", help="comma-separated check id prefixes to run")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MBResolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
