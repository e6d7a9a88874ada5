"""
Surviving a link failure
========================

Break a tree edge after consensus completes.  The severed half counts
itself, rejoins a neighboring cluster if it is too small, oversized
results re-run the splitting rule, and a fresh announce/exchange epoch
recomputes the consensus with only the affected clusters redoing their
aggregation work.
"""

from consim import SizeModel, TimingParams, make_topology, oracle
from consim.functions import MaxFunction
from consim.hybrid import FailureExperiment, check_cluster_discipline, \
    cluster_map
from consim.metrics import message_complexity

N, M = 14, 3
g = make_topology("random_connected", N, {"p": 0.5}, seed=21)
fn = MaxFunction(64)
values = [7 * (i + 1) % 101 for i in range(N)]
sm = SizeModel.for_network(N, 64, pool_size=g.pool_size)

exp = FailureExperiment(g, values, fn, M, timing=TimingParams(d=0.01, l=0.001),
                        seed=21, size_model=sm)
print(f"initial clusters: { {c: sorted(mem) for c, mem in cluster_map(exp.automata).items()} }")
print(f"initial outputs all equal oracle {oracle(fn, values)}:"
      f" {set(exp.initial_trace.outputs.values())}")

edge = exp.breakable_tree_edges()[0]
print(f"\nfailing tree edge {edge} ...")
repair = exp.fail_link(edge)
print(f"repair traffic: {message_complexity(repair)} messages")
print(f"clusters after repair: { {c: sorted(mem) for c, mem in cluster_map(exp.automata).items()} }")

rerun = exp.reconsensus()
print(f"\nrecomputed outputs: {set(rerun.outputs.values())}"
      f" (oracle {oracle(fn, values)})")
problems = check_cluster_discipline(exp.automata, N, M)
print(f"cluster-size discipline: {'ok' if not problems else problems}")
