"""Tunable cluster-based consensus: a four-phase algorithm with a cluster
parameter m that trades bandwidth against time.  m=1 degenerates into MST
construction plus token aggregation; m=n degenerates into per-node flooding
of singleton clusters.

Phase 1  grow a forest of minimum-weight trees with the MST machinery, but
         stop a fragment once its size reaches ceil(n/m) (sizes piggyback on
         report messages).  Stopped fragments absorb any later connect
         attempts, which can overshoot the target; the split phase trims the
         overshoot.  When a node learns its fragment is finished it
         broadcasts a done flag carrying the cluster id (the root's UID);
         the flag doubles as the tree re-orientation flood.  A node enters
         phase 2 once it and all its neighbors are done.
Phase 2  leaves-to-root descendant counting.  A non-root node whose branch
         exceeds floor(n/m) cuts loose and becomes a provisional cluster
         root; counting reports carry the cutting node's UID and branch size
         so the original root can undo the most recent adjacent cut if its
         own cluster would drop below ceil(n/(2m)).
Phase 3  every cluster announces its id with one broadcast per node (the
         flood also releases or reabsorbs provisional cut roots), then a
         leaves-up convergecast reports which foreign clusters each branch
         can reach; every node keeps the candidate next hops per cluster
         (lowest UID wins) as its routing table.  The root folds the
         cluster's consensus value with a token traversal.
Phase 4  flooding across clusters: roots exchange (cluster id, size, value)
         triples, routed hop-by-hop along phase-3 tables; each root forwards
         newly learned triples once per neighbor cluster.  Cluster sizes
         let a root detect completion: when the known sizes sum to n it
         folds the global value, outputs, and disseminates inside its
         cluster with the token relay/ack pass.  When every neighbor
         cluster is reachable by a direct root-to-root edge (always true
         for singleton clusters), the per-destination copies collapse into
         one broadcast.

Recovery from a single link failure: the two sides of a broken tree edge
recount themselves (collecting rejoin candidates on the way), a half below
the size floor rejoins an adjacent foreign cluster over its best surviving
edge, oversized results re-run the splitting rule, and a failed non-tree
edge just prunes routing candidates.  The experiment driver then starts a
fresh announce/discovery/exchange epoch in which only clusters whose
membership changed recompute their value.
"""

from __future__ import annotations

import math
from functools import reduce

from .engine import Protocol, Simulation
from .errors import ConfigError, InvariantViolation, StaleRoutingEntry
from .ghs import BRANCH, FOUND, INF_W, GhsAutomaton, TokenPass
from .topology import edge_weight, fail_link

EPOCH_BITS = 8  # phase-3/4 and recovery messages carry an epoch byte
# in-cluster token pass: compute/reply fold the cluster value in phase 3,
# relay/ack disseminate the global value in phase 4
TOKEN_TYPES = ("p3.compute", "p3.reply", "p4.relay", "p4.ack")


class HybridAutomaton(GhsAutomaton):
    MSG_PREFIX = "p1"
    REPORT_UIDS = 4  # recipient + edge weight + subtree count

    def __init__(self, ctx, m):
        super().__init__(ctx, mode=None)
        n = ctx.n
        self.m = m
        self.threshold = math.ceil(n / m)
        self.cap = max(1, n // m)          # cut when a branch exceeds this
        self.floor_size = math.ceil(n / (2 * m))
        # phase 1 results
        self.parent: int | None = None
        self.cluster_id: int | None = None
        self.neighbor_done: dict[int, int] = {}
        # phase 2
        self.started_p2 = False
        self.p2_reported = False
        self.child_counts: dict[int, int] = {}
        self.cut_children: dict[int, int] = {}
        self.latest_cut: tuple | None = None  # (arrival seq, uid, size)
        self._cut_seq = 0
        self.is_cut_root = False
        self.awaiting_release = False
        self.old_parent: int | None = None
        self.undo_exception: int | None = None
        self.cluster_size: int | None = None
        # phase 3 / 4
        self.epoch = 0
        self.announced_epoch = -1
        self.neighbor_cluster: dict[int, tuple[int, int]] = {}  # peer -> (cid, epoch)
        self.disc_candidates: dict[int, set] = {}
        self.disc_pending: set = set()
        self.disc_sent = False
        self.routing: dict[int, int] = {}
        self.neighbor_clusters: set = set()
        self.token: TokenPass | None = None
        self.cluster_value = None
        self.value_dirty = True
        self.value_table: dict[int, tuple[int, object]] = {}
        self.pair_from: dict[int, int] = {}
        self.pending_pairs: list = []
        self.p4_ready = False
        self.global_final = None
        # recovery
        self.pf_active = False
        self.pf_initiator = False
        self.pf_joining = False
        self.pf_pending: set = set()
        self.pf_count = 0
        self.pf_cand: tuple | None = None      # (weight, node, peer)
        self.pf_cand_child: int | None = None  # child that reported it
        self.pf_join_size = 0
        self.pf_undo: int | None = None
        self.pf_token: tuple | None = None
        self._pf_pass = 0

    # ------------------------------------------------------------------
    # phase 1: bounded fragment growth
    # ------------------------------------------------------------------

    def _wakeup(self, out):
        self.state = FOUND
        if self.threshold <= 1 or not self.ctx.neighbors:
            self._finalize_p1(self.ctx.uid, None, out)
            return
        best = min(self.ctx.neighbors, key=self._w)
        self.edge_state[best] = BRANCH
        out.append(self._m("connect0", dst=best, payload=(0,), uids=1))

    def _report_payload(self):
        return (self.best_wt, 1 + self.count_acc)

    def _core_decide(self, peer_w, peer_count, src, out):
        my_count = 1 + self.count_acc
        frag_size = my_count + peer_count
        exhausted = peer_w == INF_W and self.best_wt == INF_W
        if frag_size >= self.threshold or exhausted:
            root = max(self.ctx.uid, src)
            parent = None if root == self.ctx.uid else src
            self._finalize_p1(root, parent, out)
        elif peer_w > self.best_wt:
            self._change_root(out)

    def _finalize_p1(self, root_uid, parent, out):
        """Phase 1 is locally complete: this node roots cluster `root_uid`
        (parent None) or hangs below `parent` in it."""
        self.halted = True
        self.is_root = parent is None
        self.root_uid = root_uid
        self.cluster_id = root_uid
        self.parent = parent
        if self.ctx.neighbors:
            out.append(self._m("done", payload=(self.cluster_id,), uids=1))
        self._drain(out)  # deferred connects/tests resolve under done rules
        self._maybe_start_p2(out)

    def children(self):
        # a cut root keeps the severed edge in branch state (an undo may
        # restore it), but its old parent is never a child
        kids = [p for p, s in self.edge_state.items()
                if s == BRANCH and p != self.parent and p != self.old_parent]
        return tuple(sorted(kids))

    def _members(self):
        """Children that still belong to this cluster."""
        return tuple(u for u in self.children() if u not in self.cut_children)

    def _handle_after_done(self, tag, msg, src, out) -> bool:
        if tag in ("connect", "connect0"):
            # a fragment that kept merging ran into our finished cluster:
            # absorb it (the split phase trims any overshoot)
            self.edge_state[src] = BRANCH
            out.append(self._m("absorb", dst=src,
                               payload=(self.cluster_id,), uids=2))
            return True
        if tag == "test":
            # finished clusters answer any probe: the tester is never ours
            out.append(self._m("accept", dst=src, uids=1))
            return True
        return False

    def _dispatch(self, msg, src, out):
        prefix, tag = msg.mtype.split(".", 1)
        if prefix == "p1" and tag == "done":
            self._on_p1_done(msg, src, out)
        elif prefix == "p1" and tag == "absorb":
            self._on_p1_absorb(msg, src, out)
        elif prefix == "p2":
            self._on_p2(tag, msg, src, out)
        elif prefix in ("p3", "p4"):
            self._on_later_phase(msg, src, out)
        elif prefix == "pf":
            self._on_pf(tag, msg, src, out)
        else:
            super()._dispatch(msg, src, out)

    def _on_p1_done(self, msg, src, out):
        cid = msg.payload[0]
        self.neighbor_done[src] = cid
        if not self.halted and self.edge_state.get(src) == BRANCH:
            self._finalize_p1(cid, src, out)
        else:
            self._maybe_start_p2(out)

    def _on_p1_absorb(self, msg, src, out):
        if self.halted:
            return  # already adopted via the done flood
        self._finalize_p1(msg.payload[0], src, out)

    # ------------------------------------------------------------------
    # phase 2: descendant counting and splitting
    # ------------------------------------------------------------------

    def _maybe_start_p2(self, out):
        if (not self.halted or self.started_p2
                or any(nb not in self.neighbor_done
                       for nb in self.ctx.neighbors)):
            return
        self.started_p2 = True
        self._maybe_count(out)

    def _maybe_count(self, out):
        if not self.started_p2 or self.p2_reported:
            return
        if any(c not in self.child_counts for c in self.children()):
            return
        self.p2_reported = True
        count = 1 + sum(self.child_counts.values())
        if self.is_root:
            self.cluster_size = count
            if count < self.floor_size and self.latest_cut is not None:
                _, cut_uid, cut_size = self.latest_cut
                self.cluster_size += cut_size
                self.undo_exception = cut_uid
                self._begin_announce(cut_uid, out)
            else:
                self._begin_announce(None, out)
            return
        if count > self.cap:
            # too many descendants: start a new cluster and cut loose
            self._become_cut_root(count)
            out.append(self.ctx.message("p2.cut", dst=self.old_parent,
                                        payload=(count,), uids=2))
            return
        cut_uid, cut_size = (self.latest_cut[1], self.latest_cut[2]) \
            if self.latest_cut else (None, 0)
        out.append(self.ctx.message("p2.count", dst=self.parent,
                                    payload=(count, cut_uid, cut_size), uids=4))

    def _become_cut_root(self, count):
        self.is_cut_root = True
        self.awaiting_release = True
        self.old_parent = self.parent
        self.parent = None
        self.is_root = True
        self.cluster_id = self.ctx.uid
        self.root_uid = self.ctx.uid
        self.cluster_size = count
        self.value_dirty = True

    def _on_p2(self, tag, msg, src, out):
        if tag == "count":
            count, cut_uid, cut_size = msg.payload
            self.child_counts[src] = count
            if cut_uid is not None:
                self._note_cut(cut_uid, cut_size)
        elif tag == "cut":
            self.child_counts[src] = 0
            self.cut_children[src] = msg.payload[0]
            self._note_cut(src, msg.payload[0])
        else:
            raise InvariantViolation(f"unknown p2 tag {tag}")
        self._maybe_count(out)

    def _note_cut(self, uid, size):
        self._cut_seq += 1
        self.latest_cut = (self._cut_seq, uid, size)

    # ------------------------------------------------------------------
    # phase 3: announce, discovery, in-cluster aggregation
    # ------------------------------------------------------------------

    def _begin_announce(self, undo_uid, out):
        if undo_uid is not None and undo_uid in self.cut_children:
            del self.cut_children[undo_uid]  # that branch rejoins us
        self.announced_epoch = self.epoch
        self.token = None
        self.p4_ready = False
        self._reset_discovery()
        if self.ctx.live_neighbors():
            out.append(self.ctx.message(
                "p3.announce", payload=(self.cluster_id, undo_uid, self.epoch),
                uids=2, extra=EPOCH_BITS))
        self._maybe_report_discovery(out)

    def _reset_discovery(self):
        self.disc_candidates = {}
        self.disc_pending = set(self._members())
        self.disc_sent = False
        self.routing = {}
        self.neighbor_clusters = set()

    def _on_announce(self, msg, src, out):
        cid, undo_uid, epoch = msg.payload
        self.neighbor_cluster[src] = (cid, epoch)
        if src == self.parent and self.announced_epoch < epoch:
            # our own cluster's flood, moving from the root toward leaves
            self.epoch = epoch
            self.cluster_id = cid
            self.root_uid = cid
            self._begin_announce(undo_uid, out)
        elif (self.awaiting_release and src == self.old_parent
              and epoch >= self.epoch):
            self.awaiting_release = False
            self.epoch = epoch
            if undo_uid == self.ctx.uid:
                # the original root pulled us back in
                self.is_cut_root = False
                self.is_root = False
                self.parent = self.old_parent
                self.old_parent = None
                self.cluster_id = cid
                self.root_uid = cid
            self._begin_announce(None, out)
        else:
            self._maybe_report_discovery(out)

    def _discovery_gate(self) -> bool:
        if self.disc_sent or self.announced_epoch != self.epoch:
            return False
        if self.disc_pending:
            return False
        for nb in self.ctx.live_neighbors():
            got = self.neighbor_cluster.get(nb)
            if got is None or got[1] < self.epoch:
                return False
        return True

    def _maybe_report_discovery(self, out):
        if not self._discovery_gate():
            return
        self.disc_sent = True
        for nb in self.ctx.live_neighbors():
            cid = self.neighbor_cluster[nb][0]
            if cid != self.cluster_id:
                self.disc_candidates.setdefault(cid, set()).add(nb)
        self.routing = {cid: min(cands)
                        for cid, cands in self.disc_candidates.items()}
        self.neighbor_clusters = set(self.routing)
        if self.is_root:
            self._start_cluster_value(out)
        else:
            ids = tuple(sorted(self.neighbor_clusters))
            out.append(self.ctx.message("p3.clusters", dst=self.parent,
                                        payload=(ids, self.epoch),
                                        uids=1 + len(ids), extra=EPOCH_BITS))

    def _on_clusters(self, msg, src, out):
        ids, epoch = msg.payload
        if epoch != self.epoch or src not in self._members():
            return
        for cid in ids:
            if cid != self.cluster_id:
                self.disc_candidates.setdefault(cid, set()).add(src)
        self.disc_pending.discard(src)
        self._maybe_report_discovery(out)

    def _start_cluster_value(self, out):
        if not self.value_dirty and self.cluster_value is not None:
            self._enter_p4(out)
            return
        self.token = TokenPass(self.ctx, None, self._members(),
                               TOKEN_TYPES)
        msgs, event = self.token.start_compute(
            self.ctx.fn.initial(self.ctx.value))
        out.extend(msgs)
        self._root_token_event(event, out)

    def _root_token_event(self, event, out):
        if event is None:
            return
        if event[0] == "computed":
            self.cluster_value = event[1]
            self.value_dirty = False
            self._enter_p4(out)
        # "terminated" at the root: dissemination finished, nothing left to do

    # ------------------------------------------------------------------
    # phase 4: flooding across clusters
    # ------------------------------------------------------------------

    def _enter_p4(self, out):
        # pairs from faster clusters may have arrived already: merge, do not
        # reset (the table is cleared only when a new epoch starts)
        self.value_table[self.cluster_id] = (self.cluster_size,
                                             self.cluster_value)
        self.pair_from[self.cluster_id] = self.cluster_id
        self.pending_pairs.append(self.cluster_id)
        self.p4_ready = True
        self._check_global(out)
        self._flush_pairs(out)

    def _all_routes_direct_to_roots(self) -> bool:
        return all(self.routing.get(c) == c for c in self.neighbor_clusters)

    def _pair_batch(self, cids):
        return tuple((c,) + self.value_table[c] for c in sorted(cids))

    def _flush_pairs(self, out):
        if not self.p4_ready:
            return  # keep the backlog until discovery has built the routes
        cids = [c for c in self.pending_pairs if c in self.value_table]
        self.pending_pairs = []
        if not cids or not self.neighbor_clusters:
            return
        if self._all_routes_direct_to_roots():
            batch = self._pair_batch(cids)
            out.append(self.ctx.message(
                "p4.share", payload=(self.cluster_id, batch, self.epoch),
                uids=1 + 2 * len(batch), values=len(batch), extra=EPOCH_BITS))
            return
        for dest in sorted(self.neighbor_clusters):
            send = [c for c in cids if c != dest and self.pair_from[c] != dest]
            if send:
                out.append(self._values_msg(self._hop(dest), (
                    dest, self.cluster_id, self._pair_batch(send), self.epoch)))

    def _hop(self, dest):
        hop = self.routing.get(dest)
        if hop is None:
            raise StaleRoutingEntry(
                f"node {self.ctx.uid} has no route toward cluster {dest}")
        return hop

    def _values_msg(self, dst, payload):
        """A routed batch of (cluster, size, value) triples, payload
        (dest cluster, source cluster, batch, epoch)."""
        batch = payload[2]
        return self.ctx.message("p4.values", dst=dst, payload=payload,
                                uids=3 + 2 * len(batch), values=len(batch),
                                extra=EPOCH_BITS)

    def _ingest_pairs(self, src_cluster, batch, out):
        new = []
        for cid, size, value in batch:
            if cid not in self.value_table:
                self.value_table[cid] = (size, value)
                self.pair_from[cid] = src_cluster
                new.append(cid)
        if new:
            self.pending_pairs.extend(new)
            self.ctx.request_flush()
            self._check_global(out)

    def _check_global(self, out):
        if self.global_final is not None:
            return
        total = sum(size for size, _ in self.value_table.values())
        if total < self.ctx.n:
            return
        if total != self.ctx.n:
            raise InvariantViolation("cluster sizes overshoot the node count")
        fn = self.ctx.fn
        self.global_final = fn.finalize(reduce(
            fn.combine, [self.value_table[c][1] for c in sorted(self.value_table)]))
        self.output = fn.decode(self.global_final)
        if self.token is None:  # cluster value was reused, no compute pass ran
            self.token = TokenPass(self.ctx, None, self._members(),
                                   TOKEN_TYPES)
        msgs, _event = self.token.start_relay(self.global_final)
        out.extend(msgs)

    def on_flush(self):
        out = []
        self._flush_pairs(out)
        return out

    def _on_later_phase(self, msg, src, out):
        mtype = msg.mtype
        if mtype == "p3.announce":
            self._on_announce(msg, src, out)
        elif mtype == "p3.clusters":
            self._on_clusters(msg, src, out)
        elif mtype in TOKEN_TYPES:
            if self.token is None:
                self.token = TokenPass(self.ctx, self.parent, self._members(),
                                       TOKEN_TYPES)
            msgs, event = self.token.handle(msg, src)
            out.extend(msgs)
            if event is None:
                return
            if self.is_root:
                self._root_token_event(event, out)
            elif event[0] == "terminated":
                self.output = self.ctx.fn.decode(event[1])
        elif mtype == "p4.share":
            src_cluster, batch, epoch = msg.payload
            if self.is_root and epoch == self.epoch and \
                    src_cluster != self.cluster_id:
                self._ingest_pairs(src_cluster, batch, out)
        elif mtype == "p4.values":
            self._on_routed_values(msg, out)
        else:
            raise InvariantViolation(f"unknown message {mtype}")

    def _on_routed_values(self, msg, out):
        dest, src_cluster, batch, epoch = msg.payload
        if epoch != self.epoch:
            return
        if dest == self.cluster_id and self.is_root:
            self._ingest_pairs(src_cluster, batch, out)
        elif dest == self.cluster_id:
            out.append(self._values_msg(self.parent, msg.payload))
        else:
            out.append(self._values_msg(self._hop(dest), msg.payload))

    # ------------------------------------------------------------------
    # recovery from a single link failure
    # ------------------------------------------------------------------

    def on_link_down(self, peer):
        out = []
        self.neighbor_done.pop(peer, None)
        self.neighbor_cluster.pop(peer, None)
        touched = [cid for cid, cands in self.disc_candidates.items()
                   if peer in cands]
        for cid in touched:
            self.disc_candidates[cid].discard(peer)
        if peer == self.old_parent:
            # the cut boundary is gone for good; the cut stands
            self.awaiting_release = False
            self.old_parent = None
            self.edge_state.pop(peer, None)
            self._route_repair(peer, touched, out)
        elif peer == self.parent:
            # child side of a broken tree edge: we lead the lower half
            self.edge_state[peer] = "basic"
            self.parent = None
            self.is_root = True
            self.pf_initiator = True
            self.value_dirty = True
            self._pf_start_count(out)
        elif peer in self.cut_children:
            # boundary toward a branch that already cut loose: no members lost
            self.cut_children.pop(peer, None)
            self.child_counts.pop(peer, None)
            self.edge_state.pop(peer, None)
            self._route_repair(peer, touched, out)
        elif self.edge_state.get(peer) == BRANCH:
            # parent side: drop the branch and have the root recount
            self.edge_state[peer] = "basic"
            self.child_counts.pop(peer, None)
            self._recount("pf.branch_lost", (self.epoch,), 1, out)
        else:
            self.edge_state.pop(peer, None)
            self._route_repair(peer, touched, out)
        return out

    def _route_repair(self, peer, touched, out):
        """Re-point routing entries that used the lost edge; tell the parent
        when a destination becomes unreachable through this branch."""
        for cid in touched:
            if self.routing.get(cid) == peer:
                cands = self.disc_candidates.get(cid) or set()
                if cands:
                    self.routing[cid] = min(cands)
                else:
                    self.routing.pop(cid, None)
                    self.neighbor_clusters.discard(cid)
                    if not self.is_root and self.parent is not None:
                        out.append(self.ctx.message(
                            "pf.route_dead", dst=self.parent,
                            payload=(cid, self.epoch), uids=2,
                            extra=EPOCH_BITS))

    def _pf_start_count(self, out, token=None):
        if token is None:
            # a fresh pass; replies from any earlier pass must not mix in
            self._pf_pass += 1
            token = (self.ctx.uid, self._pf_pass)
        self.pf_token = token
        self.pf_active = True
        self.pf_pending = set(self._members())
        self.pf_count = 0
        self.pf_cand = None
        self.pf_cand_child = None
        self.latest_cut = None  # only cuts from this pass are undoable
        if self.pf_pending:
            out.append(self.ctx.message("pf.count_req",
                                        payload=(token, self.epoch),
                                        uids=3, extra=EPOCH_BITS))
        self._pf_maybe_report(out)

    def _pf_own_candidate(self):
        best = None
        for nb in self.ctx.live_neighbors():
            got = self.neighbor_cluster.get(nb)
            if got and got[0] != self.cluster_id:
                w = edge_weight(self.ctx.uid, nb)
                if best is None or w < best[0]:
                    best = (w, self.ctx.uid, nb)
        return best

    def _pf_maybe_report(self, out):
        if not self.pf_active or self.pf_pending:
            return
        self.pf_active = False
        count = 1 + self.pf_count
        cand = self._pf_own_candidate()
        if self.pf_cand is not None and (cand is None or self.pf_cand < cand):
            cand = self.pf_cand
        if not self.pf_initiator:
            if count > self.cap:
                # splitting rule, re-applied during recovery
                self._become_cut_root(count)
                out.append(self.ctx.message(
                    "pf.cut", dst=self.old_parent,
                    payload=(count, self.pf_token, self.epoch),
                    uids=4, extra=EPOCH_BITS))
                return
            out.append(self.ctx.message("pf.count", dst=self.parent,
                                        payload=(count, cand, self.pf_token,
                                                 self.epoch),
                                        uids=6, extra=EPOCH_BITS))
            return
        # initiating root: decide what this part becomes
        self.pf_initiator = False
        self.cluster_size = count
        if count < self.floor_size and self.latest_cut is not None:
            # a cut from this very pass shrank us too far: take it back
            _, cut_uid, cut_size = self.latest_cut
            self.cluster_size = count + cut_size
            self.pf_undo = cut_uid
            self.undo_exception = cut_uid
        elif count < self.floor_size and cand is not None:
            self.pf_join_size = count
            self.pf_joining = True
            self._pf_forward_join(cand, count, out)
            return
        # members may carry a stale cluster id after the break
        self._rename(self.ctx.uid, self.epoch, "pf.newid", out)

    def _pf_forward_join(self, cand, size, out):
        _w, x, y = cand
        if x == self.ctx.uid:
            out.append(self.ctx.message("pf.join_req", dst=y,
                                        payload=(size, self.epoch), uids=2,
                                        extra=EPOCH_BITS))
        else:
            # the winning candidate propagated up through pf_cand_child
            out.append(self.ctx.message("pf.join", dst=self.pf_cand_child,
                                        payload=(cand, size, self.epoch),
                                        uids=4, extra=EPOCH_BITS))

    def _on_pf(self, tag, msg, src, out):
        if tag == "count_req":
            token, _epoch = msg.payload
            if src == self.parent and self.edge_state.get(src) == BRANCH:
                self.pf_initiator = False
                self._pf_start_count(out, token=token)
        elif tag == "count":
            count, cand, token, _epoch = msg.payload
            if token != self.pf_token:
                return  # reply from a superseded counting pass
            self.pf_count += count
            if cand is not None:
                cand = tuple(cand)
                if self.pf_cand is None or cand < self.pf_cand:
                    self.pf_cand = cand
                    self.pf_cand_child = src
            self.pf_pending.discard(src)
            self._pf_maybe_report(out)
        elif tag == "cut":
            count, token, _epoch = msg.payload
            if token != self.pf_token:
                return
            self.child_counts[src] = 0
            self.cut_children[src] = count
            self._note_cut(src, count)
            self.pf_pending.discard(src)
            self._pf_maybe_report(out)
        elif tag == "branch_lost":
            self._recount("pf.branch_lost", msg.payload, 1, out)
        elif tag == "join":
            cand, size, _epoch = msg.payload
            self.pf_joining = True
            self._pf_forward_join(tuple(cand), size, out)
        elif tag == "join_req":
            size, epoch = msg.payload
            self.edge_state[src] = BRANCH
            if src == self.old_parent:
                self.old_parent = None  # a severed cut boundary is rejoined
            self.cut_children.pop(src, None)
            self.child_counts.pop(src, None)
            out.append(self.ctx.message("pf.join_ack", dst=src,
                                        payload=(self.cluster_id, epoch),
                                        uids=2, extra=EPOCH_BITS))
            # absorbed nodes may push branches past the cap: the root
            # recounts and re-applies the splitting rule
            self._recount("pf.size_up", (size, epoch), 2, out)
        elif tag == "join_ack":
            self._reroot(src, *msg.payload, out)
        elif tag == "adopt":
            cid, epoch = msg.payload
            joined_half = not self.is_root or self.pf_joining
            if self.edge_state.get(src) == BRANCH and joined_half \
                    and self.cluster_id != cid:
                # the joined half re-roots toward the attachment point
                self._reroot(src, cid, epoch, out)
        elif tag == "newid":
            cid, epoch = msg.payload
            if src == self.parent and self.edge_state.get(src) == BRANCH \
                    and self.cluster_id != cid:
                self._rename(cid, epoch, "pf.newid", out)
        elif tag == "size_up":
            self._recount("pf.size_up", msg.payload, 2, out)
        elif tag == "route_dead":
            cid, _epoch = msg.payload
            self.disc_candidates.get(cid, set()).discard(src)
            self._route_repair(src, [cid], out)
        else:
            raise InvariantViolation(f"unknown pf tag {tag}")

    def _recount(self, mtype, payload, uids, out):
        """Membership changed below this node: the root recounts its part,
        any other node passes the news toward the root."""
        self.value_dirty = True
        if self.is_root:
            self.pf_initiator = True
            self._pf_start_count(out)
        else:
            out.append(self.ctx.message(mtype, dst=self.parent,
                                        payload=payload, uids=uids,
                                        extra=EPOCH_BITS))

    def _reroot(self, parent, cid, epoch, out):
        """Hang this node under `parent` in cluster `cid` and pass the
        adoption on to the members below."""
        self.edge_state[parent] = BRANCH
        if parent == self.old_parent:
            self.old_parent = None  # a severed cut boundary is rejoined
        self.cut_children.pop(parent, None)
        self.parent = parent
        self.is_root = False
        self.pf_joining = False
        self._rename(cid, epoch, "pf.adopt", out)

    def _rename(self, cid, epoch, mtype, out):
        """Join cluster `cid` and pass the news (`mtype`) to the members
        below."""
        self.cluster_id = cid
        self.root_uid = cid
        if self._members():
            out.append(self.ctx.message(mtype, payload=(cid, epoch), uids=1,
                                        extra=EPOCH_BITS))

    # re-consensus epoch, started by the experiment driver ---------------

    def begin_epoch(self, epoch):
        out = []
        if not self.is_root or self.awaiting_release:
            return out
        self.epoch = epoch
        self.global_final = None
        self.value_table = {}
        self.pair_from = {}
        self.pending_pairs = []
        self.p4_ready = False
        undo, self.pf_undo = self.pf_undo, None
        self._begin_announce(undo, out)
        return out


class HybridProtocol(Protocol):
    """Cluster-based consensus tuned by m (1 = one cluster, n = singletons)."""

    name = "hybrid"
    hierarchical_only = True

    def __init__(self, m: int):
        if m < 1:
            raise ConfigError("m must be at least 1")
        self.m = m

    def validate(self, graph, fn, scheduler):
        if self.m > graph.n:
            raise ConfigError("m cannot exceed the node count")

    def automaton(self, ctx):
        return HybridAutomaton(ctx, self.m)


# -- structural checks and the failure-experiment driver ---------------------


def cluster_map(automata) -> dict[int, set]:
    clusters: dict[int, set] = {}
    for uid, a in automata.items():
        clusters.setdefault(a.cluster_id, set()).add(uid)
    return clusters


def _depth(automata, uid):
    d, cur, seen = 0, uid, set()
    while automata[cur].parent is not None:
        if cur in seen:
            raise InvariantViolation("parent pointers form a cycle")
        seen.add(cur)
        cur = automata[cur].parent
        d += 1
    return d


def branch_sizes(automata) -> dict[int, int]:
    """Within-cluster branch (node plus descendants) size per node."""
    sizes = {uid: 1 for uid in automata}
    for uid in sorted(automata, key=lambda u: _depth(automata, u),
                      reverse=True):
        p = automata[uid].parent
        if p is not None:
            sizes[p] += sizes[uid]
    return sizes


def check_cluster_discipline(automata, n, m) -> list[str]:
    """Structural invariants of the final forest; returns violations.

    Every cluster must be a rooted tree named after its root, and any
    non-root node with a branch above floor(n/m) must be covered by a
    recorded undo exception (the one cut the original root may take back).
    """
    problems = []
    cap = max(1, n // m)
    clusters = cluster_map(automata)
    undo_roots = {a.undo_exception for a in automata.values()
                  if a.undo_exception is not None}
    for cid, members in clusters.items():
        if cid not in members:
            problems.append(f"cluster {cid} does not contain its root")
            continue
        if automata[cid].parent is not None:
            problems.append(f"root {cid} has a parent")
        for uid in members:
            p = automata[uid].parent
            if uid != cid and (p is None or p not in members):
                problems.append(f"node {uid} of cluster {cid} has parent {p}")
    sizes = branch_sizes(automata)
    for uid, a in automata.items():
        if a.parent is not None and sizes[uid] > cap and uid not in undo_roots:
            problems.append(
                f"non-root node {uid} keeps a branch of {sizes[uid]} > {cap}")
    return problems


class FailureExperiment:
    """Run to completion, fail one link, repair, then recompute.

    Keeps the three traces (initial consensus, structural repair, renewed
    consensus) plus the shared automata for structural inspection.  The
    failure is injected after the first consensus completes; recovering an
    execution that is still mid-flight is out of scope.
    """

    def __init__(self, graph, values, fn, m, *, timing=None, seed=0,
                 scheduler="lockstep", size_model=None):
        self.graph = graph
        self.fn = fn
        self.m = m
        self.sim = Simulation(HybridProtocol(m), graph, values, fn=fn,
                              timing=timing, scheduler=scheduler, seed=seed,
                              size_model=size_model)
        self.initial_trace = self.sim.run()
        self.repair_trace = None
        self.rerun_trace = None

    @property
    def automata(self):
        return self.sim.automata

    def fail_link(self, edge, at=None):
        u, v = edge
        failed_graph = fail_link(self.graph, edge)  # raises if it disconnects
        if at is None:
            at = self.initial_trace.last_output_time() + self.sim.timing.d
        repair = self._continue(at, require_outputs=False)
        repair.schedule_link_down(u, v, at)
        self.repair_trace = repair.run()
        self.graph = failed_graph
        self.sim = repair
        return self.repair_trace

    def reconsensus(self):
        epoch = 1 + max(a.epoch for a in self.sim.automata.values())
        for a in self.sim.automata.values():
            a.output = None
        if self.repair_trace is not None and self.repair_trace.events:
            start = self.repair_trace.events[-1].t + self.sim.timing.d
        else:
            start = self.sim.start_time
        start = round(start / self.sim.timing.d) * self.sim.timing.d
        rerun = self._continue(start)
        for uid in sorted(self.sim.automata):
            a = self.sim.automata[uid]
            if a.parent is None and not a.awaiting_release:
                rerun.schedule_kick(uid, "begin_epoch", (epoch,), at=start)
        self.rerun_trace = rerun.run()
        self.sim = rerun
        return self.rerun_trace

    def _continue(self, start, require_outputs=True):
        """A follow-on execution over the current automata and graph."""
        return Simulation(self.sim.protocol, self.graph, self.sim.values,
                          fn=self.fn, timing=self.sim.timing,
                          scheduler=self.sim.scheduler, seed=self.sim.seed + 1,
                          size_model=self.sim.size_model,
                          automata=self.sim.automata, start_time=start,
                          require_outputs=require_outputs)
