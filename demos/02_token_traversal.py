"""
Token aggregation on a tree, message by message
===============================================

A depth-first token visits every node of a rooted tree twice: once to fold
the values toward the root, once to push the result back down.  Exactly
4(n-1) messages, never two in the air at once.
"""

from consim import SizeModel, TimingParams, make_topology, run
from consim.functions import MaxFunction
from consim.ghs import TokenConvergecastProtocol, root_tree
from consim.metrics import message_complexity, peak_bandwidth, time_complexity

N = 8
g = make_topology("random_tree", N, seed=4)
root = max(g.uids)
fn = MaxFunction(64)
sm = SizeModel.for_network(N, 64, pool_size=g.pool_size)
values = [3, 14, 15, 9, 2, 65, 35, 8]

trace = run(TokenConvergecastProtocol(root_tree(g, root)), g, values, fn=fn,
            timing=TimingParams(d=0.01, l=0.001), scheduler="adversarial",
            size_model=sm)

print(f"tree on {N} nodes rooted at {root}; values {values}\n")
for t, msg in trace.events.sent():
    arrow = {"token.compute": "ask ", "token.reply": "fold",
             "token.relay": "tell", "token.ack": "ok  "}[msg.mtype]
    print(f"t={t*1000:6.0f} ms  {arrow}  {msg.src:>2} -> {msg.dst:>2}"
          f"   ({msg.size_bits} bits)")

print(f"\nmessages: {message_complexity(trace)} = 4(n-1) = {4*(N-1)}")
print(f"duration: {time_complexity(trace):.2f} s = 4(n-1) * d")
print(f"peak bandwidth: {peak_bandwidth(trace)/1e3:.1f} kbps"
      " (a single message window)")
print(f"outputs: {sorted(set(trace.outputs.values()))}")
