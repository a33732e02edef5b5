"""Minimum-cost flow by successive shortest paths, in primal-dual form.

The offline oracle's LP is a pure network flow (see `sim.offline_oracle`), so
it is solved here exactly, without an LP solver (R. K. Ahuja, T. L. Magnanti
and J. B. Orlin, *Network Flows*, 1993, ch. 9). Every arc cost is
nonnegative, so zero node potentials start dual feasible. Each phase runs
one multi-source Dijkstra over reduced costs, from every node with flow left
to send, and raises each potential by its distance, capped at the distance
of the nearest node still short of flow. Then it pushes flow along the
arcs of zero reduced cost until none is left: Dinic's blocking flows over
BFS levels, with a current-arc pointer per node.

Residual arcs are flat lists: arc ``a`` runs to ``head[a]`` and ``a ^ 1``
is its reverse, so the flow on an arc is its reverse's residual capacity.
Every loop is iterative, and there is no object per arc.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf, isfinite


def min_cost_flow(
    supply: list[float], arcs: list[tuple[int, int, float, float]]
) -> list[float] | None:
    """The flow on each arc of a cheapest flow that meets every node's supply.

    ``supply[v]`` is what node v sends out (negative: what it takes in), and
    the supplies sum to zero. ``arcs`` lists (tail, head, capacity, cost),
    with cost >= 0 and capacity possibly ``inf``. Returns None when no flow
    meets every supply. Flows closer than a 1e-12 share of the total supply
    to zero count as zero, and costs within a 1e-10 share of the largest
    cost as tied.
    """
    n = len(supply)
    head: list[int] = []
    cap: list[float] = []
    cost: list[float] = []
    for u, v, c, w in arcs:
        head += (v, u)
        cap += (c, 0.0)
        cost += (w, -w)
    adj: list[list[int]] = [[] for _ in range(n)]
    for a in range(len(head)):
        adj[head[a ^ 1]].append(a)
    excess = list(supply)
    eps = 1e-12 * (1.0 + sum(map(abs, supply)))
    tol = 1e-10 * (1.0 + max((w for w in cost if isfinite(w)), default=0.0))
    pi = [0.0] * n

    while any(e < -eps for e in excess):
        sources = [v for v in range(n) if excess[v] > eps]
        # Dijkstra from every source; stop at the nearest short node
        dist = [inf] * n
        for v in sources:
            dist[v] = 0.0
        heap = [(0.0, v) for v in sources]
        heapify(heap)
        done = [False] * n
        reach = None
        while heap:
            d, u = heappop(heap)
            if done[u]:
                continue
            if excess[u] < -eps:
                reach = d
                break
            done[u] = True
            pu = pi[u]
            for a in adj[u]:
                if cap[a] > eps:
                    v = head[a]
                    reduced = cost[a] + pu - pi[v]
                    nd = d + reduced if reduced > 0.0 else d
                    if nd < dist[v]:
                        dist[v] = nd
                        heappush(heap, (nd, v))
        if reach is None:
            return None  # a node is short, and nothing can reach it
        for v in range(n):
            pi[v] += min(dist[v], reach)

        # blocking flows along zero reduced cost until no short node is reachable
        while True:
            level = [-1] * n
            queue = [v for v in range(n) if excess[v] > eps]
            for v in queue:
                level[v] = 0
            sources = queue[:]
            reached = False
            for u in queue:
                lu, pu = level[u] + 1, pi[u]
                for a in adj[u]:
                    if cap[a] > eps:
                        v = head[a]
                        if level[v] < 0 and cost[a] + pu - pi[v] <= tol:
                            level[v] = lu
                            queue.append(v)
                            reached = reached or excess[v] < -eps
            if not reached:
                break
            current = [0] * n
            for s in sources:
                path: list[int] = []
                v = s
                while excess[s] > eps:
                    if excess[v] < -eps:  # push the path's bottleneck to v
                        f = min(excess[s], -excess[v])
                        for a in path:
                            f = min(f, cap[a])
                        excess[s] -= f
                        excess[v] += f
                        keep = len(path)
                        for k in range(len(path) - 1, -1, -1):
                            a = path[k]
                            cap[a] -= f
                            cap[a ^ 1] += f
                            if cap[a] <= eps:
                                keep = k
                        del path[keep:]  # back to the tail of the first saturated arc
                        v = head[path[-1]] if path else s
                        continue
                    av, i, lv, pv = adj[v], current[v], level[v] + 1, pi[v]
                    while i < len(av):
                        a = av[i]
                        if cap[a] > eps:
                            w = head[a]
                            if level[w] == lv and cost[a] + pv - pi[w] <= tol:
                                break
                        i += 1
                    current[v] = i
                    if i < len(av):
                        path.append(a)
                        v = w
                    elif path:  # dead end: retreat one arc
                        path.pop()
                        v = head[path[-1]] if path else s
                        current[v] += 1
                    else:
                        break
    return [cap[a + 1] for a in range(0, len(head), 2)]
