"""Command-line surface for reproducible batch runs.

Subcommands: ingest, enumerate, order, shift, tangles, verify, homology.
Thresholds are always passed doubled (``--k2 3`` means k = 3/2) so that no
float parsing is involved.  The universe name alone picks the shift map
(``shifts.universe_map``; ``shift --to`` defaults to the other side, and to
``x`` from ``e``) and the default ``--ground-cap`` (set in ``tangles``).
Reports are deterministic JSON: same config and seed, byte-identical output;
``tangles`` and ``verify`` can print a CSV summary instead.  ``order`` and
``shift`` read ``--a``/``--b`` through ``GroundSet.named``, exactly as
reports print labels.

Exit codes: 0 success/verified, 1 violated invariant or counterexample,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .bigraph import (check_duality_wellformedness, from_dict, gen_planted,
                      gen_random, read_transactions_csv)
from .errors import ParseError, SepdualError, SideMismatch
from .homology import (BoundaryMatrix, find_decider, kernel_basis,
                       orientation_to_chain, tangle_kernel_check,
                       validate_decider)
from .orders import (UNIVERSES, HalfInt, order_of, order_side_edge_form,
                     universe_context)
from .separations import make_sep, sep_labels
from .shifts import _OTHER, universe_map
from .tangles import DEFAULT_MEMBER_CAP, build_system, enumerate_tangles
from .verify import ALL_THEOREMS, K2_GRID, report_json, run_corpus

#: Inclusive ranges of the numeric options; anything outside is a parse error.
_RANGES = {"nx": (0, math.inf), "ny": (0, math.inf), "p": (0, 1),
           "in_p": (0, 1), "cross_p": (0, 1), "k2": (0, math.inf),
           "member_cap": (0, math.inf), "ground_cap": (0, math.inf),
           "decider_bound": (0, math.inf)}


#: Options each generator reads, with their defaults.  They are parsed with
#: default None, so that an option no graph source reads can be refused.
_GENERATOR_OPTIONS = {
    "random": {"nx": 3, "ny": 3, "p": 0.5, "seed": 0},
    "planted": {"blocks": "3x3,3x3", "in_p": 1.0, "cross_p": 0.0, "seed": 0},
}


def _graph_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="transactions CSV (group,member) or graph JSON")
    p.add_argument("--generator", choices=tuple(_GENERATOR_OPTIONS))
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--p", type=float, help="edge probability")
    p.add_argument("--blocks", help="planted block sizes, e.g. 3x3,2x2")
    p.add_argument("--in-p", type=float, dest="in_p")
    p.add_argument("--cross-p", type=float, dest="cross_p")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the report (for ingest, the graph "
                                 "JSON dump) here instead of stdout")


def _system_options(p: argparse.ArgumentParser, search: bool) -> None:
    """Options of the commands that build S_k; ``search`` adds the search's."""
    p.add_argument("--universe", choices=UNIVERSES, default="x")
    p.add_argument("--k2", type=int, required=True, help="doubled threshold")
    p.add_argument("--ground-cap", type=int, default=None, dest="ground_cap",
                   help="largest ground set to scan (default set by universe)")
    if search:
        p.add_argument("--kind", choices=("tangle", "profile"), default="tangle")
        p.add_argument("--member-cap", type=int, default=DEFAULT_MEMBER_CAP,
                       dest="member_cap")


def _check_ranges(args) -> None:
    for name, (lo, hi) in _RANGES.items():
        values = getattr(args, name, None)
        for v in values if isinstance(values, list) else [values]:
            if v is not None and not lo <= v <= hi:
                flag = "--" + name.replace("_", "-")
                raise ParseError(f"{flag} {v} is outside [{lo}, {hi}]")


def _parse_blocks(text: str) -> list[tuple[int, int]]:
    blocks = []
    for part in text.split(","):
        sizes = [v.strip() for v in part.lower().split("x")]
        if len(sizes) != 2 or not all(v.isdigit() for v in sizes):
            raise ParseError(f"bad block {part!r} in --blocks; expected e.g. 3x3")
        blocks.append((int(sizes[0]), int(sizes[1])))
    return blocks


def _read_input(path: Path):
    try:
        if path.suffix == ".json":
            return from_dict(json.loads(path.read_text(encoding="utf-8-sig")))
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return read_transactions_csv(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError: undecodable text, bad JSON or duplicate labels;
        # RecursionError: JSON nested deeper than the decoder can follow
        raise ParseError(f"malformed input {path}: {exc!r}") from None


def _refuse(args, names, reason: str) -> None:
    """Refuse the first option of ``names`` that was given."""
    for name in names:
        if getattr(args, name, None) is not None:
            raise ParseError(f"--{name.replace('_', '-')} {reason}")


_SOURCE_OPTIONS = ("input", "generator", "nx", "ny", "p", "blocks", "in_p",
                   "cross_p", "seed")


def _load_graph(args):
    if args.input:
        _refuse(args, _SOURCE_OPTIONS[1:], "is not read with --input")
        path = Path(args.input)
        return _read_input(path), {"input": str(path)}
    if args.generator is None:
        raise SepdualError("no graph source: pass --input or --generator")
    reads = _GENERATOR_OPTIONS[args.generator]
    _refuse(args, [n for n in _SOURCE_OPTIONS[2:] if n not in reads],
            f"is not read by --generator {args.generator}")
    opts = {n: d if getattr(args, n) is None else getattr(args, n)
            for n, d in reads.items()}
    if args.generator == "random":
        g = gen_random(opts["nx"], opts["ny"], opts["p"], opts["seed"])
    else:
        g = gen_planted(_parse_blocks(opts["blocks"]), opts["in_p"],
                        opts["cross_p"], opts["seed"])
    return g, {"generator": args.generator, **opts}


def _read_sep(g, args):
    """The separation that ``--a`` and ``--b`` name: comma-separated labels,
    each read back exactly as reports print it (``GroundSet.named``).

    The sides must cover the ground set, so a ground set with a label that
    the split cannot return (empty, with a comma, or with spaces at an end)
    is refused before any name is read.
    """
    _, ground, _ = universe_context(g, args.universe)
    for name in ground.names(ground.full):
        if not name or "," in name or name != name.strip():
            raise SideMismatch(f"label {name!r} cannot be named in --a/--b, "
                               "which are split at commas and stripped of spaces")
    a, b = (ground.named(filter(None, (t.strip() for t in text.split(","))))
            for text in (args.a, args.b))
    return make_sep(ground, a, b)


def _emit(args, text: str) -> None:
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise SepdualError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _json_report(payload: dict, config: dict) -> str:
    payload = dict(payload)
    payload["version"] = __version__
    payload["config"] = config
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _system(args):
    """The graph, its source record and the S_k that the options name."""
    g, source = _load_graph(args)
    return g, source, build_system(g, args.universe, HalfInt(args.k2),
                                   cap=args.ground_cap)


def _search(args, g, system):
    kind = "tangle" if args.kind == "tangle" else "regular_profile"
    return enumerate_tangles(g, args.universe, HalfInt(args.k2), kind=kind,
                             member_cap=args.member_cap, system=system)


def cmd_ingest(args) -> int:
    g, _ = _load_graph(args)
    report = check_duality_wellformedness(g)
    print(f"|X|={g.x.n} |Y|={g.y.n} |E|={g.n_edges}")
    for side in ("x", "y"):
        ident = report[side]["identical"]
        comp = report[side]["complementary"]
        if ident:
            print(f"side {side}: identical neighbourhood classes: {ident}")
        if comp:
            print(f"side {side}: complementary neighbourhood classes: {comp}")
    if not any(report[s][k] for s in ("x", "y")
               for k in ("identical", "complementary")):
        print("all neighbourhood partitions distinct")
    if args.out:
        _emit(args, g.dump_json())
    return 0


def cmd_enumerate(args) -> int:
    _, source, system = _system(args)
    ground = system.ground
    members = [{**sep_labels(ground, s), "order2": o}
               for s, o in zip(system.members, system.orders2)]
    config = {"source": source, "universe": args.universe, "k2": args.k2}
    _emit(args, _json_report({"members": members, "count": len(members)}, config))
    return 0


def cmd_order(args) -> int:
    g, source = _load_graph(args)
    s = _read_sep(g, args)
    value = order_of(g, args.universe, s)
    payload = {"order2": value.doubled, "order": str(value)}
    if args.universe in ("x", "y"):
        payload["edge_form_order2"] = order_side_edge_form(
            g, s, args.universe).doubled
    config = {"source": source, "universe": args.universe,
              "a": args.a, "b": args.b}
    _emit(args, _json_report(payload, config))
    return 0


def cmd_shift(args) -> int:
    g, source = _load_graph(args)
    dest = args.to or ("x" if args.universe == "e" else _OTHER[args.universe])
    shift = universe_map(g, args.universe, dest)
    s = _read_sep(g, args)
    _, dest_ground, _ = universe_context(g, dest)
    payload = {**sep_labels(dest_ground, shift(s)), "universe": dest}
    config = {"source": source, "universe": args.universe, "a": args.a,
              "b": args.b, "to": args.to}
    _emit(args, _json_report(payload, config))
    return 0


def cmd_tangles(args) -> int:
    g, source, system = _system(args)
    found = _search(args, g, system)
    config = {"source": source, "universe": args.universe, "k2": args.k2,
              "kind": args.kind, "member_cap": args.member_cap}
    if args.format == "csv-summary":
        lines = ["index,member_count"]
        lines += [f"{i},{len(o.forward)}" for i, o in enumerate(found)]
        _emit(args, "\n".join(lines) + "\n")
    else:
        payload = {"count": len(found), "tangles": [o.to_dict() for o in found]}
        _emit(args, _json_report(payload, config))
    return 0


def cmd_verify(args) -> int:
    k2_grid = args.k2 if args.k2 else list(K2_GRID)
    if args.corpus:
        _refuse(args, (*_SOURCE_OPTIONS, "name"), "is not read with --corpus")
        graphs = None
    else:
        g, _ = _load_graph(args)
        graphs = [("graph" if args.name is None else args.name, g)]
    report = run_corpus(k2_grid=k2_grid, graphs=graphs,
                        theorems=args.theorem or None,
                        member_cap=args.member_cap)
    if args.format == "csv-summary":
        lines = ["theorem,graph_seed,k_doubled,outcome,hypothesis_count"]
        for c in report["cases"]:
            lines.append(f"{c['theorem']},{c['graph_seed']},{c['k_doubled']},"
                         f"{c['outcome']},{c['hypothesis_count']}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, report_json(report))
    return 0 if report["summary"]["counterexamples"] == 0 else 1


def cmd_homology(args) -> int:
    g, source, system = _system(args)
    bmat = BoundaryMatrix(system.ground.n, list(system.members))
    basis = kernel_basis(bmat)
    payload = {
        "n": bmat.n,
        "m": bmat.m,
        "matrix": bmat.rows(),
        "prop_vs": bmat.check_vs_duality(),
        "kernel_dim": len(basis),
        "kernel_basis": basis,
        "deciders": [],
    }
    bound = max(bmat.m, 1) if args.decider_bound is None else args.decider_bound
    for o in _search(args, g, system):
        lam = orientation_to_chain(o, bmat.seps)
        mu = find_decider(bmat, lam, bound=bound, mode=args.decider_mode,
                          constraint=args.mu_constraint)
        entry = {"lambda": lam, "mu": mu, "bound": bound,
                 "in_kernel": tangle_kernel_check(bmat, lam)}
        if mu is not None and args.decider_mode == "componentwise":
            entry["revalidated"] = validate_decider(bmat, lam, mu)
        payload["deciders"].append(entry)
    config = {"source": source, "universe": args.universe, "k2": args.k2,
              "kind": args.kind, "decider_mode": args.decider_mode}
    _emit(args, _json_report(payload, config))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sepdual",
        description="dual separation systems: orders, shifts, tangles, "
                    "theorem verification, homology")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, summary):
        p = sub.add_parser(name, help=summary)
        _graph_options(p)
        p.set_defaults(fn=fn)
        return p

    command("ingest", cmd_ingest, "load a graph and report wellformedness")

    p = command("enumerate", cmd_enumerate,
                "list the members of a low-order system")
    _system_options(p, search=False)

    order = command("order", cmd_order, "evaluate the order of one separation")
    shift = command("shift", cmd_shift, "shift one separation across the duality")
    for p in (order, shift):
        p.add_argument("--universe", choices=UNIVERSES, default="x")
        p.add_argument("--a", required=True, help="comma-separated labels")
        p.add_argument("--b", required=True)
    shift.add_argument("--to", choices=UNIVERSES,
                       help="target universe (default: the other side; x for e)")

    p = command("tangles", cmd_tangles, "enumerate tangles or regular profiles")
    _system_options(p, search=True)
    p.add_argument("--format", choices=("json", "csv-summary"), default="json")

    p = command("verify", cmd_verify, "run the theorem suite")
    p.add_argument("--format", choices=("json", "csv-summary"), default="json")
    p.add_argument("--corpus", action="store_true",
                   help="run on the shipped 50-graph corpus")
    p.add_argument("--name", help="graph name in the report")
    p.add_argument("--k2", type=int, action="append",
                   help="doubled threshold; repeatable (default grid 1 2 3 4)")
    p.add_argument("--theorem", action="append", choices=list(ALL_THEOREMS),
                   metavar="ID", help="theorem id; repeatable (default: all)")
    p.add_argument("--member-cap", type=int, default=DEFAULT_MEMBER_CAP,
                   dest="member_cap")

    p = command("homology", cmd_homology, "boundary matrix, kernel, deciders")
    _system_options(p, search=True)
    p.add_argument("--decider-mode", choices=("componentwise", "scalar"),
                   default="componentwise", dest="decider_mode")
    p.add_argument("--decider-bound", type=int, default=None,
                   dest="decider_bound")
    p.add_argument("--mu-constraint", choices=("nonneg", "zero_one", "sum_one"),
                   default=None, dest="mu_constraint")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_ranges(args)
        return args.fn(args)
    except SepdualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
