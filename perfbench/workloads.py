"""The four benchmark workloads.

Each workload has three halves that run in different processes:

- ``inputs(workdir, seed, smoke)`` runs in the benchmark parent.  It writes
  any input files and returns a JSON-able spec for the child.
- ``setup(spec)`` and ``work(state)`` run in the cold child.  ``setup`` is
  the part a CLI user pays before the search starts (name parsing, reading
  input files); ``work`` is the timed call into the package's public
  functions and returns a JSON-able answer.
- ``check(spec, answers, expected)`` runs in the parent, outside every timed
  region, and returns ``(attempted, failed, problems)``.

Nothing here imports ``ramsey`` at module level: the child imports this
module before it checks that ``ramsey`` was not yet imported.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"


def load_expected() -> dict:
    with open(EXPECTED) as fp:
        return json.load(fp)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


class Workload:
    name = ""
    cpus = 1  # CPUs the repetitions are pinned to

    def inputs(self, workdir: Path, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def setup(self, spec: dict):
        raise NotImplementedError

    def work(self, state):
        raise NotImplementedError

    def check(self, spec: dict, answers: list, expected: dict) -> tuple[int, int, list[str]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------

class SweepT1(Workload):
    """``ramsey verify --theorem t1``: r(C4, G) <= 2q+1 over every
    isolate-free G with 2 <= q <= 4 edges, jobs 1."""

    name = "sweep-t1"

    def inputs(self, workdir, seed, smoke):
        return {"q_max": 3 if smoke else 4}

    def setup(self, spec):
        from ramsey.bounds import sweep
        return sweep, spec["q_max"]

    def work(self, state):
        sweep, q_max = state
        result = sweep("t1", q_max=q_max, jobs=1)
        summary = result.summary_json()["summary"]
        return {
            "exact": {r.g6: r.exact for r in result.reports},
            "violations": summary["violations"],
            "incomplete": summary["incomplete"],
            "equality": sorted(summary["equality"]),
        }

    def check(self, spec, answers, expected):
        want = expected["sweep-t1"][str(spec["q_max"])]
        attempted = failed = 0
        problems = []
        for ans in answers:
            for g6, exact in want["exact"].items():
                attempted += 1
                if ans["exact"].get(g6) != exact:
                    failed += 1
                    problems.append(f"r(C4, {g6}) = {ans['exact'].get(g6)}, expected {exact}")
            attempted += 1
            summary_ok = (not ans["violations"] and not ans["incomplete"]
                          and ans["equality"] == sorted(want["equality"])
                          and len(ans["exact"]) == len(want["exact"]))
            if not summary_ok:
                failed += 1
                problems.append(f"sweep summary differs: {ans}")
        return attempted, failed, problems


# ---------------------------------------------------------------------------

class RamseyC4TwoK3(Workload):
    """``ramsey ramsey --red C4 --blue 2K3 --jobs 2``: r = 8 on the
    process-pool path."""

    name = "ramsey-c4-2k3-j2"
    cpus = 2

    def inputs(self, workdir, seed, smoke):
        return {"red": "C4", "blue": "K3" if smoke else "2K3", "jobs": 2}

    def setup(self, spec):
        from ramsey.families import graph_from_name
        return graph_from_name(spec["red"]), graph_from_name(spec["blue"]), spec["jobs"]

    def work(self, state):
        from ramsey.arrowing import coloring_to_text, ramsey_number_with_witness
        F, G, jobs = state
        r, witness = ramsey_number_with_witness(F, G, jobs=jobs)
        return {"r": r, "witness": coloring_to_text(witness)}

    def check(self, spec, answers, expected):
        from ramsey.arrowing import coloring_from_text, verify_coloring
        from ramsey.families import graph_from_name
        want = expected["ramsey"][f"{spec['red']}/{spec['blue']}"]
        committed = (HERE / want["witness_file"]).read_text()
        F, G = graph_from_name(spec["red"]), graph_from_name(spec["blue"])
        failed = 0
        problems = []
        for ans in answers:
            if ans["r"] != want["r"]:
                problems.append(f"r = {ans['r']}, expected {want['r']}")
            elif ans["witness"] != committed:
                problems.append("jobs-2 witness differs from the committed jobs-1 witness")
            elif not verify_coloring(coloring_from_text(ans["witness"]), F, G):
                problems.append("witness does not verify")
            else:
                continue
            failed += 1
        return len(answers), failed, problems


# ---------------------------------------------------------------------------

class EnumQ8(Workload):
    """``ramsey enumerate --edges 8``: 497 isolate-free classes."""

    name = "enum-q8"

    def inputs(self, workdir, seed, smoke):
        return {"q": 5 if smoke else 8}

    def setup(self, spec):
        from ramsey.enumeration import EnumFilter
        return EnumFilter(q=spec["q"])

    def work(self, state):
        from ramsey.enumeration import enumerate_graphs
        from ramsey.graphs import graph6_encode
        lines = [graph6_encode(g) for g in enumerate_graphs(state)]
        return {"count": len(lines), "digest": _digest(lines)}

    def check(self, spec, answers, expected):
        from ramsey.enumeration import EnumFilter, enumerate_graphs
        want = expected["enumeration"]
        q = spec["q"]
        problems = []
        failed = 0
        for ans in answers:
            if ans != {"count": want["counts"][str(q)], "digest": want["digests"][str(q)]}:
                failed += 1
                problems.append(f"q={q}: {ans} differs from the expected classes")
        # the smaller levels, once per run; a cap of 2q admits every
        # isolate-free graph with fewer than q edges, so one cap serves all
        levels_ok = True
        for k in range(q - 1, 0, -1):
            got = len(enumerate_graphs(EnumFilter(q=k, max_vertices=2 * q)))
            if got != want["counts"][str(k)]:
                levels_ok = False
                problems.append(f"q={k}: {got} classes, expected {want['counts'][str(k)]}")
        if not levels_ok:
            failed += 1
        return len(answers) + 1, failed, problems


# ---------------------------------------------------------------------------

def _star_text(q: int) -> str:
    n = 2 * q
    return f"n={n}\nred=" + ",".join(f"0-{i}" for i in range(1, n)) + "\n"


def _random_c4_free_text(rng: random.Random, n: int) -> str:
    """A K_n coloring whose red graph is a greedy random maximal C4-free
    graph that avoids a random perfect matching, so the blue graph holds
    floor(n/2) disjoint edges by construction."""
    perm = list(range(n))
    rng.shuffle(perm)
    matching = {frozenset(perm[i:i + 2]) for i in range(0, n - 1, 2)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if frozenset((i, j)) not in matching]
    rng.shuffle(pairs)
    nbr = [0] * n
    red = []
    for u, v in pairs:
        # (u, v) closes a red C4 iff u-x-y-v is a red path
        closes = any(nbr[x] & nbr[v] & ~(1 << u) for x in range(n) if (nbr[u] >> x) & 1 and x != v)
        if not closes:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            red.append((u, v))
    red.sort()
    return f"n={n}\nred=" + ",".join(f"{i}-{j}" for i, j in red) + "\n"


def _nx_verdict(text: str, red_name: str, blue_name: str) -> bool:
    """verify_coloring's verdict, recomputed with networkx."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher
    head, body = text.split("\n")[:2]
    n = int(head[2:])
    red = nx.empty_graph(n)
    red.add_edges_from(tuple(map(int, e.split("-"))) for e in body[4:].split(",") if e)
    blue = nx.complement(red)
    pattern = {"C4": nx.cycle_graph(4)}
    m = int(blue_name[:-2])  # "<m>K2"
    pattern[blue_name] = nx.Graph([(2 * i, 2 * i + 1) for i in range(m)])
    red_hit = GraphMatcher(red, pattern[red_name]).subgraph_is_monomorphic()
    return not red_hit and not GraphMatcher(blue, pattern[blue_name]).subgraph_is_monomorphic()


class WitnessCheck(Workload):
    """``verify_coloring`` on the valid star witnesses for (C4, qK2) and on
    seeded invalid colorings of K_10..K_12 with a C4-free red graph."""

    name = "witness-check"
    RANDOM_CASES = 1000

    def inputs(self, workdir, seed, smoke):
        rng = random.Random(seed)
        cases = [{"kind": "star", "q": q, "red": "C4", "blue": f"{q}K2", "coloring": _star_text(q)}
                 for q in (range(2, 4) if smoke else range(2, 6))]
        for _ in range(10 if smoke else self.RANDOM_CASES):
            n = rng.randint(10, 12)
            cases.append({"kind": "random", "red": "C4", "blue": f"{n // 2}K2",
                          "coloring": _random_c4_free_text(rng, n)})
        path = workdir / "witness-check.jsonl"
        with open(path, "w") as fp:
            for case in cases:
                fp.write(json.dumps(case) + "\n")
        return {"file": str(path)}

    def setup(self, spec):
        from ramsey.arrowing import coloring_from_text
        from ramsey.families import graph_from_name
        names = {}
        cases = []
        with open(spec["file"]) as fp:
            for line in fp:
                case = json.loads(line)
                for name in (case["red"], case["blue"]):
                    if name not in names:
                        names[name] = graph_from_name(name)
                cases.append((coloring_from_text(case["coloring"]),
                              names[case["red"]], names[case["blue"]]))
        return cases

    def work(self, state):
        from ramsey.arrowing import verify_coloring
        return {"verdicts": [verify_coloring(c, F, G) for c, F, G in state]}

    def check(self, spec, answers, expected):
        star_valid = expected["witness-check"]["star_valid"]
        want = []
        with open(spec["file"]) as fp:
            for line in fp:
                case = json.loads(line)
                if case["kind"] == "star":
                    # networkx needs about a minute for q = 5, so this verdict
                    # was computed with it once and stored
                    want.append(star_valid[str(case["q"])])
                else:
                    want.append(_nx_verdict(case["coloring"], case["red"], case["blue"]))
        attempted = failed = 0
        problems = []
        for ans in answers:
            got = ans["verdicts"]
            attempted += len(want)
            bad = [i for i, w in enumerate(want) if i >= len(got) or got[i] != w]
            failed += len(bad)
            problems += [f"case {i}: verdict {got[i] if i < len(got) else None}, "
                         f"networkx says {want[i]}" for i in bad[:5]]
        return attempted, failed, problems


WORKLOADS = {w.name: w for w in (SweepT1(), RamseyC4TwoK3(), EnumQ8(), WitnessCheck())}
