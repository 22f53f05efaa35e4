"""Seeded inputs and fixed job lists for the three benchmark workloads.

Only the standard library is used, so the inputs stay the same whatever the
program under test imports.  The same seed always gives the same graph6
lines, the same edge-list file and the same command lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

N = 64
GNP_PROBABILITIES = (0.10, 0.15, 0.20)
# free (unlabeled) trees on n = 2..14 vertices, OEIS A000055
FREE_TREE_COUNTS = {
    2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
    10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159,
}
TREE_NMAX = 14
EDGE_LIST_NAME = "cli_mix_edges.txt"
SCAN_OUT_NAME = "tree_scan.jsonl"


@dataclass(frozen=True)
class RawGraph:
    """A generated input: n vertices and a sorted edge list, as the
    benchmark knows it independently of the program under test."""

    label: str
    n: int
    edges: tuple[tuple[int, int], ...]
    degree: int | None = None  # set for regular graphs

    def adjacency(self) -> list[int]:
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj


@dataclass(frozen=True)
class Job:
    """One `python -m indpoly` process and what its output must satisfy."""

    name: str
    argv: tuple[str, ...]
    kind: str  # checker to apply: "poly", "ok", "identity", "scan"
    graph: RawGraph | None = None  # the graph behind a `poly` job, if known
    expect_n_m: tuple[int, int] | None = None  # (n, m) of a family `poly` job
    items: int = 1  # work items the job completes (trees for the scan)
    counted: bool = True  # replayed under cProfile by the traced run
    # names the recorded digest of a job whose output is the same at every
    # seed although its command line is not; others are keyed by command line
    golden_name: str | None = None
    files: dict = field(default_factory=dict, compare=False)  # {path: contents} it reads


# ---------------------------------------------------------------------------
# Graph generators
# ---------------------------------------------------------------------------


def random_regular(rng: random.Random, n: int, d: int, label: str) -> RawGraph:
    """Uniform random d-regular simple graph: configuration model, rejecting
    any pairing with a loop or a repeated edge."""
    if (n * d) % 2:
        raise ValueError("n*d must be even")
    points = [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = sorted(points[i:i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            return RawGraph(label, n, tuple(sorted(edges)), d)


def gnp(rng: random.Random, n: int, p: float, label: str) -> RawGraph:
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return RawGraph(label, n, edges)


def grid(rows: int, cols: int, label: str) -> RawGraph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return RawGraph(label, rows * cols, tuple(sorted(edges)))


def to_graph6(g: RawGraph) -> str:
    """graph6: size field (long form from 63 vertices), then the upper
    triangle column by column in 6-bit groups, each plus 63."""
    n = g.n
    out = [n + 63] if n <= 62 else [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    adj = g.adjacency()
    bits = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = value << 1 | b
        out.append(value + 63)
    return "".join(map(chr, out))


def to_edge_list(g: RawGraph) -> str:
    return "".join([f"{g.n} {len(g.edges)}\n"] + [f"{u} {v}\n" for u, v in g.edges])


def relabel(rng: random.Random, g: RawGraph) -> RawGraph:
    """The same graph under a random permutation of its vertices."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges))
    return replace(g, edges=edges)


# The hard64 structures are drawn once, from this fixed seed; the run's seed
# relabels their vertices.  The engine branches in label order, so each seed
# gives it new inputs and a new search, while the exact output stays the same.
# Fresh random structures differ too much in difficulty: over ten seeds the
# 4-regular graph's memo put the peak RSS anywhere from 108 to 148 MB, so the
# spread over seeds would measure the draw rather than the program.
STRUCTURE_SEED = 1


def hard64_graphs(seed: int) -> list[RawGraph]:
    rng = random.Random(STRUCTURE_SEED)
    graphs = [
        random_regular(rng, N, 3, "3reg-a"),
        random_regular(rng, N, 3, "3reg-b"),
        random_regular(rng, N, 4, "4reg"),
    ]
    graphs += [gnp(rng, N, p, f"gnp-{p:.2f}") for p in GNP_PROBABILITIES]
    graphs.append(grid(8, 8, "grid8x8"))
    labels = random.Random(seed)
    return [relabel(labels, g) for g in graphs]


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------


def _poly_g6(g: RawGraph) -> Job:
    return Job(f"poly-{g.label}", ("poly", "--g6", to_graph6(g)), "poly", graph=g)


# cProfile triples a job's time; 3reg-a already gives the counts of a
# 3-regular graph, so the other six graphs, one of each kind, are counted
_NOT_COUNTED = {"3reg-b"}


def hard64_jobs(seed: int) -> list[Job]:
    return [replace(_poly_g6(g), counted=g.label not in _NOT_COUNTED,
                    golden_name=f"hard64-{g.label}")
            for g in hard64_graphs(seed)]


def _scan(name: str, nmax: int, out_path: str) -> Job:
    argv = ("scan", "trees", "--nmax", str(nmax), "--jobs", "1", "--out", out_path)
    trees = sum(c for n, c in FREE_TREE_COUNTS.items() if n <= nmax)
    return Job(name, argv, "scan", items=trees)


def tree_scan_jobs(out_path: str) -> list[Job]:
    return [_scan("scan-trees", TREE_NMAX, out_path)]


# (spec, n, m) for `poly --family`; n and m are worked out by hand
_FAMILY_POLYS = (
    ("path:12", 12, 11),
    ("cycle:40", 40, 40),
    ("multipartite:1x26,8", 34, 561 - 28),
    ("gn:20", 41, 3 * 20 - 2 + 1),
    ("hn:25", 50, 3 * 25 - 2),
    ("star:30", 31, 30),
    ("T", 5, 4),
)

_IDENTITIES = (
    ("lex", "family:cycle:5", "family:path:4", None),
    ("lex", "family:complete:3", "family:gn:4", None),
    ("rooted", "family:cycle:9", "family:T1", "2"),
    ("join", "family:hn:10", "family:cycle:21", None),
    ("union", "family:gn:12", "family:multipartite:2x8,3", None),
)


def cli_mix_jobs(seed: int, edge_list_path: str) -> list[Job]:
    """The fixed call sequence; the edge-list job carries the file it reads."""
    rng = random.Random(seed)
    small = [gnp(rng, rng.randint(14, 20), 0.25, f"g6-{i}") for i in range(3)]
    listed = gnp(rng, 30, 0.15, "edge-list")
    jobs = [
        Job(f"poly-{spec}", ("poly", "--family", spec), "poly", expect_n_m=(n, m))
        for spec, n, m in _FAMILY_POLYS
    ]
    jobs += [_poly_g6(g) for g in small]
    jobs.append(Job("poly-file", ("poly", "--file", edge_list_path), "poly",
                    graph=listed, files={edge_list_path: to_edge_list(listed)}))
    for kind, g1, g2, root in _IDENTITIES:
        argv = ("product", kind, "--g1", g1, "--g2", g2)
        if root is not None:
            argv += ("--root", root)
        jobs.append(Job(f"product-{kind}-{g1}-{g2}", argv, "identity"))
    jobs += [
        Job("verify-thm22", ("verify", "thm22", "--samples", "500", "--seed", str(seed)), "ok"),
        Job("verify-thm52", ("verify", "thm52", "--nmax", "60"), "ok"),
        Job("verify-gn", ("verify", "gn", "--nmax", "31"), "ok"),
        Job("verify-closedform", ("verify", "closedform", "--n", "25", "--tol", "1e-6"), "ok"),
        Job("verify-prop26", ("verify", "prop26", "--g1", "family:cycle:4",
                              "--g2", "family:cycle:4"), "ok"),
        Job("verify-prop41", ("verify", "prop41", "--g", "family:path:6",
                              "--tree", "T", "--root", "4"), "ok"),
    ]
    return jobs


def probe_jobs(work_dir: str) -> list[Job]:
    """Short calls into every layer, appended to each traced replay so that
    no per-layer metric is empty on a workload that skips its layer."""
    return [
        _scan("probe-scan", 7, f"{work_dir}/probe_scan.jsonl"),
        Job("probe-family", ("poly", "--family", "path:6"), "poly", expect_n_m=(6, 5)),
        _poly_g6(grid(2, 3, "probe-g6")),
        Job("probe-lex", ("product", "lex", "--g1", "family:path:3", "--g2", "family:path:2"),
            "identity"),
        Job("probe-thm22", ("verify", "thm22", "--samples", "5", "--seed", "1"), "ok"),
        Job("probe-thm52", ("verify", "thm52", "--nmax", "3"), "ok"),
    ]


def self_check(seed: int) -> None:
    """Raise if the generator is not a pure function of the seed or breaks
    the stated sizes and degrees."""
    first = [to_graph6(g) for g in hard64_graphs(seed)]
    again = [to_graph6(g) for g in hard64_graphs(seed)]
    if first != again:
        raise AssertionError("same seed gave different graph6 lines")
    for g in hard64_graphs(seed):
        if g.n != N:
            raise AssertionError(f"{g.label}: n={g.n}, expected {N}")
        if g.degree is not None:
            degrees = {a.bit_count() for a in g.adjacency()}
            if degrees != {g.degree}:
                raise AssertionError(f"{g.label}: degrees {degrees}, expected {g.degree}")
    a = cli_mix_jobs(seed, EDGE_LIST_NAME)
    b = cli_mix_jobs(seed, EDGE_LIST_NAME)
    if [(j.argv, j.files) for j in a] != [(j.argv, j.files) for j in b]:
        raise AssertionError("same seed gave different cli_mix inputs")
