"""Command-line surface.

Subcommands: necklace | positroid | plabic | seeds | verify | sample.  Every
command takes a permutation spec, either cycle notation with an optional
fixed-point color suffix ("(135)(264)", "id:+,-,+") or the JSON encoding
{"image": [...], "colors": {...}}.  All sampling is driven by --rng-seed, so
output is reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from functools import cache

from . import cm, numeric
from .cluster import SEEDS_LIMIT, ExchangeGraph, Seed, exchange_graph, initial_seed
from .combinatorics import (
    DecoratedPermutation,
    DimensionError,
    ValidationError,
    alignments,
    connected_components,
    in_positroid,
    k_subsets,
    necklace_from_permutation,
    positroid_members,
)
from .plabic import (
    ReducednessError,
    bridge_graph_from_permutation,
    face_labels,
    quiver_from_graph,
    trips,
)


class SizeCapError(RuntimeError):
    """A permutation spec exceeds ``--n-cap``, the one size guard: library
    functions take no cap."""


USAGE_ERRORS = (
    ValidationError,
    DimensionError,
    SizeCapError,
    ReducednessError,
    numeric.ConstructionError,
)


def parse_permutation(spec: str, n_cap: int) -> DecoratedPermutation:
    """Parse a permutation spec, refusing n above ``n_cap``.

    Cycle notation is checked on its largest entry before the permutation of
    [n] is built, so a huge entry costs nothing.  Only comma-separated cycles
    hold entries above 9, and their digit runs (``int`` accepts "_" between
    digits) bound every entry.
    """
    spec = spec.strip()
    if spec.startswith("{"):
        try:
            sigma = DecoratedPermutation.from_json(json.loads(spec))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValidationError(f"bad permutation JSON: {exc}") from exc
    else:
        cycles = spec.partition(":")[0].split(")(")
        runs = (run for part in cycles if "," in part for run in re.findall(r"[\d_]+", part))
        largest = max((int(run.replace("_", "") or 0) for run in runs), default=0)
        if largest > n_cap:
            raise SizeCapError(f"entry {largest} exceeds --n-cap {n_cap}")
        sigma = DecoratedPermutation.from_cycle_string(spec)
    if sigma.n > n_cap:
        raise SizeCapError(f"n={sigma.n} exceeds --n-cap {n_cap}")
    return sigma


def emit(text: str, args: argparse.Namespace) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def render_json(data) -> str:
    return json.dumps(data, indent=2)


def pretty_cluster(seed: Seed, graph: ExchangeGraph, rendered: dict[tuple[int, ...], str]) -> list[str]:
    """The seed's variables as text, one per vertex: D<label> at a labelled
    seat, else the expansion of its g-vector in ``graph``, with [..] read as
    D...  ``rendered`` keeps the text per g-vector, so each is rendered once."""
    out, ids = [], seed.quiver.mutable_ids()
    for v in seed.quiver.vertices:
        if v.label is not None:
            out.append(f"D{v.label.label()}")
            continue
        g = seed.g_vectors[ids.index(v.id)]
        if g not in rendered:
            rendered[g] = str(graph.expansions[g]).replace("[", "D").replace("]", "")
        out.append(rendered[g])
    return out


def cmd_necklace(sigma: DecoratedPermutation, args: argparse.Namespace) -> int:
    necklace = necklace_from_permutation(sigma)
    positroid = positroid_members(necklace)
    labeling = face_labels(bridge_graph_from_permutation(sigma))
    data = {
        "permutation": sigma.to_json(),
        "n": sigma.n,
        "k": sigma.k,
        "necklace": necklace.to_json(),
        "positroid_size": len(positroid.members),
        "complement": sorted(s.to_json() for s in positroid.complement()),
        "components": len(connected_components(necklace)),
        "alignments": alignments(sigma),
        "faces": len(labeling.faces),
    }
    if args.fmt == "json":
        emit(render_json(data), args)
        return 0
    lines = [
        f"permutation   {sigma.to_cycle_string()}   (k={sigma.k}, n={sigma.n})",
        "necklace      " + " ".join(s.label() for s in necklace),
        f"positroid     {data['positroid_size']} members, "
        f"complement {{{', '.join(''.join(map(str, s)) for s in data['complement'])}}}",
        f"components    {data['components']}",
        f"alignments    {data['alignments']}",
        f"faces         {data['faces']}  (= k(n-k) - alignments + 1)",
    ]
    emit("\n".join(lines), args)
    return 0


def cmd_positroid(sigma: DecoratedPermutation, args: argparse.Namespace) -> int:
    necklace = necklace_from_permutation(sigma)
    n, k = sigma.n, sigma.k
    rows = []
    for lab in k_subsets(n, k):
        in_p = in_positroid(necklace, lab)
        rows.append(
            {
                "set": lab.to_json(),
                "inP": in_p,
                "inCMB": in_p,
                "inGPB": cm.in_gp_b(lab, necklace),
            }
        )
    if args.fmt == "json":
        emit(render_json(rows), args)
        return 0
    lines = [f"{'set':<12} {'inP':<6} {'inCMB':<6} {'inGPB':<6}"]
    for row in rows:
        lab = "".join(map(str, row["set"])) if n <= 9 else ",".join(map(str, row["set"]))
        lines.append(
            f"{lab:<12} {str(row['inP']).lower():<6} "
            f"{str(row['inCMB']).lower():<6} {str(row['inGPB']).lower():<6}"
        )
    emit("\n".join(lines), args)
    return 0


def cmd_plabic(sigma: DecoratedPermutation, args: argparse.Namespace) -> int:
    graph = bridge_graph_from_permutation(sigma)
    if args.fmt == "json":
        emit(render_json(graph.to_json()), args)
        return 0
    labeling = face_labels(graph)
    if args.fmt == "dot":
        emit(graph.to_dot(labeling), args)
        return 0
    lines = [
        f"plabic graph for {sigma.to_cycle_string()}: "
        f"{len(graph.colors)} internal vertices, {len(graph.edges)} edges",
        "trips:  " + "  ".join(f"{t.source}->{t.target}" for t in trips(graph)),
        "faces:",
    ]
    for face in labeling.faces:
        marks = f" boundary at {list(face.boundary_marks)}" if face.frozen else ""
        lines.append(f"  {face.label.label()}{marks}")
    emit("\n".join(lines), args)
    return 0


def cmd_seeds(sigma: DecoratedPermutation, args: argparse.Namespace) -> int:
    if args.limit < 1:
        raise ValidationError(f"--limit must be at least 1, got {args.limit}")
    graph = bridge_graph_from_permutation(sigma)
    seed = initial_seed(quiver_from_graph(graph))
    if args.fmt == "dot":
        emit(seed.quiver.to_dot(), args)
        return 0
    graph = seeds, complete, _, _ = exchange_graph(seed, limit=args.limit)
    rendered: dict[tuple[int, ...], str] = {}
    if args.fmt == "json":
        data = {
            "complete": complete,
            "count": len(seeds),
            "seeds": [
                {
                    "pure": member.is_pure_pluecker(),
                    "cluster": pretty_cluster(member, graph, rendered),
                    "seed": member.to_json(),
                }
                for member in seeds
            ],
        }
        emit(render_json(data), args)
        return 0
    lines = [f"{len(seeds)} seeds" + ("" if complete else " (partial: --limit reached)")]
    for idx, member in enumerate(seeds):
        tag = "pure" if member.is_pure_pluecker() else "mixed"
        lines.append(f"seed {idx} [{tag}]  {'  '.join(pretty_cluster(member, graph, rendered))}")
    emit("\n".join(lines), args)
    return 0


def _sample_points(graph, args: argparse.Namespace, rng: random.Random) -> list[numeric.CellPoint]:
    """``--points`` cell points of ``graph``, each from its own draw of ``rng``."""
    if args.points < 1:
        raise ValidationError(f"--points must be at least 1, got {args.points}")
    return [numeric.sample_cell_point(graph, rng_seed=rng.randrange(2**63)) for _ in range(args.points)]


def cmd_verify(sigma: DecoratedPermutation, args: argparse.Namespace) -> int:
    graph = bridge_graph_from_permutation(sigma)
    rng = random.Random(args.rng_seed)
    points = _sample_points(graph, args, rng)  # the generic matrices draw after the points
    necklace = necklace_from_permutation(sigma)
    seed = initial_seed(quiver_from_graph(graph))
    generic = [
        numeric.sample_generic_matrix(sigma.k, sigma.n, rng)
        for _ in range(max(2, min(20, args.points // 5)))
    ]
    report = numeric.verify_identities(necklace, seed, points, generic, corrupt=args.corrupt)
    emit(render_json(report), args)
    return 0 if report["passed"] else 1


def cmd_sample(sigma: DecoratedPermutation, args: argparse.Namespace) -> int:
    points = _sample_points(bridge_graph_from_permutation(sigma), args, random.Random(args.rng_seed))
    if args.fmt == "json":
        emit(render_json([p.to_json() for p in points]), args)
        return 0
    lines = []
    for idx, point in enumerate(points):
        lines.append(f"point {idx}  sources {point.sources.label()}")
        for row in point.matrix.rows:
            lines.append("  [" + "  ".join(str(x) for x in row) + "]")
    emit("\n".join(lines), args)
    return 0


HANDLERS = {
    "necklace": cmd_necklace,
    "positroid": cmd_positroid,
    "plabic": cmd_plabic,
    "seeds": cmd_seeds,
    "verify": cmd_verify,
    "sample": cmd_sample,
}

POINT_DEFAULTS = {"verify": 50, "sample": 1}


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="positroids",
        description="Positroid combinatorics: necklaces, plabic graphs, seeds, cell points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the formats each handler writes; the first is the default
    for name, formats, doc in [
        ("necklace", ["table", "json"], "necklace, complement, connectivity and dimension data"),
        ("positroid", ["table", "json"], "per k-set membership flags (positroid / CM / GP)"),
        ("plabic", ["table", "json", "dot"], "bridge-decomposition plabic graph"),
        ("seeds", ["table", "json", "dot"], "mutation class of the graph's seed"),
        ("verify", ["json"], "exact identity verification on sampled points"),
        ("sample", ["table", "json"], "sample boundary-measurement cell points"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("permutation", help='cycle notation, "id:+,-" style, or JSON')
        p.add_argument("--n-cap", type=int, default=12, dest="n_cap")
        p.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
        p.add_argument(
            "--format",
            choices=formats,
            default=formats[0],
            dest="fmt",
        )
        p.add_argument("--out", default=None, metavar="FILE")
        if name == "seeds":
            p.add_argument("--limit", type=int, default=SEEDS_LIMIT)
        if name in POINT_DEFAULTS:
            p.add_argument("--points", type=int, default=POINT_DEFAULTS[name])
        if name == "verify":
            p.add_argument(
                "--corrupt-seed",
                action="store_true",
                dest="corrupt",
                help=argparse.SUPPRESS,
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.n_cap < 1:
            raise ValidationError(f"--n-cap must be at least 1, got {args.n_cap}")
        sigma = parse_permutation(args.permutation, args.n_cap)
        return HANDLERS[args.command](sigma, args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
