"""The three workloads: their inputs, the timed operation and the check.

Each workload builds a fixed list of operations from the run seed.  ``run``
is the timed part and calls the package only through its public names (the
``positroids`` namespace and ``positroids.cli.main``); ``check`` runs after
the clock has stopped and compares the result with ``oracle``.  ``check``
returns True for an operation that failed the way a known fault makes it
fail, and raises ``Incorrect`` for any other wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from time import perf_counter

import oracle


class Incorrect(Exception):
    """The package returned a wrong result."""


class Tally:
    """Work done by one round, for the throughput metrics: graphs and seeds
    produced, with the seconds of the calls that produced them."""

    def __init__(self) -> None:
        self.graphs = 0
        self.graph_s = 0.0
        self.seeds = 0
        self.seed_s = 0.0
        self.checks = 0
        self.output_bytes = 0


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Incorrect(message)


class Closure:
    """Top cells of Gr(2,7), Gr(2,8), Gr(3,6) and Gr(3,7): square-move closure,
    seed mutation class and the brute-force noncrossing collections."""

    CELLS = ((2, 7), (2, 8), (3, 6), (3, 7))

    def __init__(self, package, seed: int) -> None:
        self.p = package
        rng = random.Random(seed)
        self.ops = [(k, n, oracle.generic_matrix(rng, k, n)) for k, n in self.CELLS]

    def run(self, op, tally: Tally):
        k, n, _ = op
        p = self.p
        sigma = p.DecoratedPermutation.of(oracle.top_cell_image(k, n))
        graph = p.bridge_graph_from_permutation(sigma)
        start = perf_counter()
        graphs, graphs_complete = p.graph_mutation_class(graph)
        mid = perf_counter()
        initial = p.initial_seed(p.quiver_from_graph(graph))
        seeds, seeds_complete = p.mutation_class(initial)
        end = perf_counter()
        brute = p.maximal_noncrossing_collections(p.necklace_from_permutation(sigma))
        tally.graphs += len(graphs)
        tally.graph_s += mid - start
        tally.seeds += len(seeds)
        tally.seed_s += end - mid
        return graphs, graphs_complete, initial, seeds, seeds_complete, brute

    def check(self, op, result, tally: Tally) -> bool:
        k, n, rows = op
        graphs, graphs_complete, initial, seeds, seeds_complete, brute = result
        cell = f"Gr({k},{n})"
        require(graphs_complete and seeds_complete, f"{cell}: a closure stopped early")
        require(len(graphs) == oracle.TOP_CELL_GRAPHS[k, n], f"{cell}: {len(graphs)} graphs")
        require(len(seeds) == oracle.TOP_CELL_SEEDS[k, n], f"{cell}: {len(seeds)} seeds")
        collections = {frozenset(lab.elements for lab in labeling.collection()) for _, labeling in graphs}
        require(len(collections) == len(graphs), f"{cell}: two graphs share a face label collection")
        require(
            collections == {frozenset(lab.elements for lab in c) for c in brute},
            f"{cell}: square-move closure disagrees with the noncrossing brute force",
        )
        # A seed is a Pluecker cluster when each variable, evaluated on a
        # generic matrix, equals one of its maximal minors.
        minors = oracle.all_minors(rows, n)
        subset_of = {value: cols for cols, value in minors.items()}
        assignment = {}
        for vertex in initial.quiver.vertices:
            symbol = initial.variable(vertex.id).single_symbol()
            require(symbol is not None, f"{cell}: initial variable {vertex.id} is not a symbol")
            assignment[symbol] = minors[vertex.label.elements]
        values: dict = {}
        pluecker = set()
        for seed in seeds:
            cluster = []
            for vid, poly in seed.variables:
                if poly not in values:
                    values[poly] = poly.evaluate(assignment)
                cluster.append(subset_of.get(values[poly]))
            if None not in cluster:
                pluecker.add(frozenset(cluster))
        require(pluecker == collections, f"{cell}: {len(pluecker)} Pluecker clusters, {len(graphs)} graphs")
        return False


class RankTwo:
    """Every rank-two decorated permutation with n <= 7: positroid, projective
    test, generator decompositions, and the resolution identities on sampled
    cell points."""

    POINTS = 3

    def __init__(self, package, seed: int) -> None:
        self.p = package
        rng = random.Random(seed)
        self.ops = []
        for n in range(2, 8):
            cells = [(image, colors) for image, colors in oracle.decorated_permutations(n) if oracle.rank(image, colors) == 2]
            if len(cells) != oracle.RANK_TWO_CELLS[n]:
                raise Incorrect(f"{len(cells)} rank-two cells for n={n}")
            self.ops += [(image, colors, [rng.randrange(2**32) for _ in range(self.POINTS)]) for image, colors in cells]

    def run(self, op, tally: Tally):
        image, colors, draws = op
        p = self.p
        sigma = p.DecoratedPermutation.of(image, colors)
        necklace = p.necklace_from_permutation(sigma)
        members = p.positroid_members(necklace).members
        todo = []
        for label in sorted(members, key=lambda s: s.elements):
            if not p.in_gp_b(label, necklace):
                todo.append((label, *p.k2_generator_decomposition(label, necklace)))
        graph = p.bridge_graph_from_permutation(sigma)
        points = [p.sample_cell_point(graph, rng_seed=draw) for draw in draws]
        mismatches = []
        for point in points:
            for label, j_set, l1, l2 in todo:
                lhs = p.minor(point.matrix, label) * p.minor(point.matrix, j_set)
                rhs = p.minor(point.matrix, l1) * p.minor(point.matrix, l2)
                if lhs != rhs:
                    mismatches.append(label)
        tally.checks += len(points) * len(todo)
        return sigma.k, necklace, members, todo, points, mismatches

    def check(self, op, result, tally: Tally) -> bool:
        image, colors, _ = op
        k, necklace, members, todo, points, mismatches = result
        cell = f"{image}{colors}"
        n = len(image)
        require(k == 2, f"{cell}: rank {k}")
        require(not mismatches, f"{cell}: resolution identity failed for {mismatches}")
        member_sets = {m.elements for m in members}
        zero_pattern = None
        for point in points:
            minors = oracle.all_minors(point.matrix.rows, n)
            require(all(v >= 0 for v in minors.values()), f"{cell}: sampled point is not totally nonnegative")
            zeros = frozenset(cols for cols, v in minors.items() if v == 0)
            require(zero_pattern in (None, zeros), f"{cell}: zero pattern changes within the cell")
            zero_pattern = zeros
            require(set(minors) - zeros == member_sets, f"{cell}: nonzero minors differ from the positroid")
            for label, j_set, l1, l2 in todo:
                lhs = minors[label.elements] * minors[j_set.elements]
                require(
                    lhs > 0 and lhs == minors[l1.elements] * minors[l2.elements],
                    f"{cell}: {label.elements} does not resolve through {j_set.elements}",
                )
        necklace_sets = [s.elements for s in necklace]
        outside = {m for m in member_sets if any(oracle.crossing(m, s, n) for s in necklace_sets)}
        require({t[0].elements for t in todo} == outside, f"{cell}: decomposed members differ from the crossing ones")
        return False


class Verify:
    """``positroids verify CELL`` through ``cli.main``, with its default 50
    points: fixed cells, seeded random cells stratified by n, k and
    dimension, and two k = 0 cells."""

    # cell -> (image, clusters)
    FIXED = {
        "(14)(25)(36)": (oracle.top_cell_image(3, 6), oracle.TOP_CELL_SEEDS[3, 6]),
        "(135)(264)": ((3, 6, 5, 2, 1, 4), 2),
        "(1357)(2468)": (oracle.top_cell_image(2, 8), oracle.TOP_CELL_SEEDS[2, 8]),
    }
    # Gr(0,1) and Gr(0,3): the package exits 2 ("matrix has 0 columns")
    # because RationalMatrix loses n when it has no rows.  They count as
    # failed operations until that fault is mended.
    K_ZERO = ("id:+", "id:+,+,+")
    # The cost of a cell grows steeply with n, k and dimension.  Drawing the
    # same number of cells from every (n, k, dimension) stratum keeps a
    # round's work, and its median operation, close to equal across seeds.
    DIMENSIONS = range(2, 6)
    SIZES = range(5, 8)
    PER_STRATUM = 2
    EXCHANGE = re.compile(r"exchange:.*@(\d+)$")

    def __init__(self, package, seed: int) -> None:
        self.p = package
        rng = random.Random(seed)
        strata: dict[tuple[int, int, int], list] = {}
        for n in self.SIZES:
            for image, colors in oracle.decorated_permutations(n):
                k = oracle.rank(image, colors)
                if 0 < k < n and (d := oracle.dimension(image, colors)) in self.DIMENSIONS:
                    strata.setdefault((n, k, d), []).append((image, colors))
        # random cells draw their points from the run seed; the fixed cells
        # run as documented, with the default --rng-seed 0
        self.ops = []
        for key in sorted(strata):
            for image, colors in rng.sample(strata[key], min(self.PER_STRATUM, len(strata[key]))):
                spec = json.dumps({"image": list(image), "colors": {str(i): c for i, c in sorted(colors.items())}})
                self.ops.append((spec, rng.randrange(2**31), oracle.cluster_rank(image, colors)))
        for spec, (image, _) in self.FIXED.items():
            self.ops.append((spec, 0, oracle.cluster_rank(image, {})))
        self.ops += [(spec, 0, 0) for spec in self.K_ZERO]

    def run(self, op, tally: Tally):
        spec, rng_seed, _ = op
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.p.cli.main(["verify", spec, "--rng-seed", str(rng_seed)])
        tally.seed_s += perf_counter() - start
        tally.output_bytes += len(out.getvalue().encode())
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result, tally: Tally) -> bool:
        spec, _, rank = op
        code, out, err = result
        if spec in self.K_ZERO and code == 2 and "0 columns" in err:
            return True
        require(code == 0, f"verify {spec}: exit {code}: {err.strip()}")
        report = json.loads(out)
        identities = report["identities"]
        require(report["passed"] and not any(e["failures"] for e in identities), f"verify {spec}: not passed")
        per_seed: dict[int, int] = {}
        for entry in identities:
            match = self.EXCHANGE.match(entry["name"])
            if match:
                per_seed[int(match.group(1))] = per_seed.get(int(match.group(1)), 0) + 1
        clusters = len(per_seed)
        # exchanges = clusters x rank, with the rank from the oracle: a cell
        # of rank 0 has no exchange relation, one of rank 1 is of type A1
        require(all(count == rank for count in per_seed.values()), f"verify {spec}: exchanges per seed differ from rank {rank}")
        require(sorted(per_seed) == list(range(clusters)), f"verify {spec}: seed indices are not 0..{clusters - 1}")
        expected = self.FIXED[spec][1] if spec in self.FIXED else {0: 0, 1: 2}.get(rank)
        require(expected in (None, clusters), f"verify {spec}: {clusters} clusters of rank {rank}, expected {expected}")
        require(rank == 0 or clusters > 0, f"verify {spec}: no exchange relation at rank {rank}")
        tally.seeds += clusters
        tally.checks += sum(e["points_checked"] for e in identities)
        return False

    def negative_control(self) -> None:
        """The hidden ``--corrupt-seed`` flag must make verification fail."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = self.p.cli.main(["verify", "(135)(264)", "--corrupt-seed"])
        require(code == 1, f"verify --corrupt-seed exited {code}, expected 1")


WORKLOADS = {"closure": Closure, "rank2": RankTwo, "verify": Verify}
