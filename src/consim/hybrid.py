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
         root; counting reports carry the UID and branch size of the latest
         cut the sender heard of, its child's or one passed up from any
         depth, so the original root can undo the latest cut in its tree,
         adjacent or not, if its own cluster would drop below ceil(n/(2m)).
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

`HybridAutomaton.HANDLERS` routes each message type to its handler; phase 1
reuses GHS's MST handlers under the `p1.` prefix.
"""

from __future__ import annotations

import math
from functools import reduce

from .engine import REL_TOL, Protocol, Simulation
from .errors import (ConfigError, InvariantViolation, StaleRoutingEntry,
                     WouldDisconnect)
from .ghs import BRANCH, INF_W, GhsAutomaton, TokenPass
from .topology import edge_weight, fail_link

# in-cluster token pass: compute/reply fold the cluster value in phase 3,
# relay/ack disseminate the global value in phase 4
TOKEN_TYPES = ("p3.compute", "p3.reply", "p4.relay", "p4.ack")


class HybridAutomaton(GhsAutomaton):
    MSG_PREFIX = "p1"

    def __init__(self, ctx, m):
        super().__init__(ctx)
        n = ctx.n
        self.threshold = math.ceil(n / m)
        self.cap = max(1, n // m)          # cut when a branch exceeds this
        self.floor_size = math.ceil(n / (2 * m))
        # phase 1 results
        self.halted = False
        self.parent: int | None = None
        self.cluster_id: int | None = None
        self.neighbor_done: set = set()  # neighbors whose done flag came
        # phase 2
        self.p2_reported = False
        self.child_counts: dict[int, int] = {}  # read until p2_reported
        self.cut_children: set = set()  # children that cut loose
        self.latest_cut: tuple | None = None  # (uid, size) of the last cut
        self.awaiting_release = False
        self.old_parent: int | None = None
        self.undo_exception: int | None = None
        self.cluster_size: int | None = None
        # phase 3 / 4
        self.epoch = 0
        self.announced_epoch = -1
        self.neighbor_cluster: dict[int, tuple[int, int]] = {}  # peer -> (cid, epoch)
        # how many neighbor_cluster entries are of _fresh_epoch or later
        self._fresh = 0
        self._fresh_epoch = 0
        self.disc_candidates: dict[int, set] = {}
        self.disc_pending: set = set()
        self.disc_sent = False
        self.routing: dict[int, int] = {}  # neighbour cluster -> next hop
        self.token: TokenPass | None = None
        self.cluster_value = None  # None until computed, and once stale
        self.value_table: dict[int, tuple[int, object]] = {}
        self.pair_from: dict[int, int] = {}
        self.pending_pairs: list = []
        self.p4_ready = False
        # recovery
        self.pf_active = False
        self.pf_joining = False
        self.pf_pending: set = set()
        self.pf_count = 0
        self.pf_cand: tuple | None = None      # (weight, node, peer)
        self.pf_cand_child: int | None = None  # child that reported it
        self.pf_undo: int | None = None
        self.pf_token: tuple | None = None
        self._pf_pass = 0

    @property
    def is_root(self) -> bool:
        return self.parent is None

    # ------------------------------------------------------------------
    # phase 1: bounded fragment growth
    # ------------------------------------------------------------------

    def _wakeup(self, out):
        if self.threshold > 1:
            super()._wakeup(out)
        else:  # ceil(n/m) = 1: every node roots a cluster of its own
            self._finalize_p1(self.ctx.uid, None, out)

    def _report_payload(self):
        return (self.best_wt, 1 + self.count_acc)

    def _core_decide(self, peer_w, peer_count, src, out):
        frag_size = 1 + self.count_acc + peer_count
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
        self.cluster_id = root_uid
        self.parent = parent
        if self.ctx.neighbors:
            out.append(self._m("done", payload=(self.cluster_id,)))
        self._drain(out)  # deferred connects/tests resolve under done rules
        self._maybe_count(out)

    def children(self):
        # a cut root keeps the severed edge in branch state (an undo may
        # restore it), but its old parent is never a child
        return tuple(sorted(p for p in self._branch_peers()
                            if p not in (self.parent, self.old_parent)))

    def _members(self):
        """Children that still belong to this cluster."""
        return tuple(u for u in self.children() if u not in self.cut_children)

    def _on_p1_connect(self, msg, src, out):
        if not self.halted:
            self._on_connect(msg, src, out)
        else:  # absorb a fragment that kept merging; phase 2 trims overshoot
            self.edge_state[src] = BRANCH
            out.append(self._m("absorb", src, (self.cluster_id,)))

    def _on_p1_test(self, msg, src, out):
        if not self.halted:
            self._on_test(msg, src, out)
        else:  # finished clusters answer any probe: the tester is never ours
            out.append(self._m("accept", src))

    def _on_p1_done(self, msg, src, out):
        self.neighbor_done.add(src)
        if not self.halted and self.edge_state.get(src) == BRANCH:
            self._finalize_p1(msg.payload[0], src, out)
        else:
            self._maybe_count(out)

    def _on_p1_absorb(self, msg, src, out):
        if not self.halted:  # else already adopted via the done flood
            self._finalize_p1(msg.payload[0], src, out)

    # ------------------------------------------------------------------
    # phase 2: descendant counting and splitting
    # ------------------------------------------------------------------

    def _maybe_count(self, out):
        """Phase 2 starts once this node and all its neighbors are done."""
        if (not self.halted or self.p2_reported
                or len(self.neighbor_done) < len(self.ctx.neighbors)
                or any(c not in self.child_counts for c in self.children())):
            return
        self.p2_reported = True
        count = 1 + sum(self.child_counts.values())
        if self.is_root:
            self._begin_announce(self._take_back(count), out)
        elif not self._cut_loose(count, "p2.cut", (count,), out):
            cut_uid, cut_size = self.latest_cut or (None, 0)
            out.append(self.ctx.message("p2.count", self.parent,
                                        (count, cut_uid, cut_size)))

    # the splitting rule, shared by phase 2 and recovery

    def _cut_loose(self, count, mtype, payload, out) -> bool:
        """A branch of more than `cap` nodes starts a cluster of its own
        and tells its old parent (`mtype`); returns whether it did."""
        if count <= self.cap:
            return False
        self.awaiting_release = True
        self.old_parent = self.parent
        self.parent = None
        self.cluster_id = self.ctx.uid
        self.cluster_size = count
        self.cluster_value = None
        out.append(self.ctx.message(mtype, self.old_parent, payload))
        return True

    def _note_cut(self, child, size):
        """The old parent's side of a cut: `child` left with `size` nodes."""
        self.child_counts[child] = 0
        self.cut_children.add(child)
        self.latest_cut = (child, size)

    def _take_back(self, count):
        """A root whose own count is below the floor takes back the latest
        cut; sets the cluster size and returns the cut root taken back, or
        None."""
        self.cluster_size = count
        if count >= self.floor_size or self.latest_cut is None:
            return None
        cut_uid, cut_size = self.latest_cut
        self.cluster_size += cut_size
        self.undo_exception = cut_uid
        return cut_uid

    def _on_p2_count(self, msg, src, out):
        count, cut_uid, cut_size = msg.payload
        self.child_counts[src] = count
        if cut_uid is not None:
            self.latest_cut = (cut_uid, cut_size)
        self._maybe_count(out)

    def _on_p2_cut(self, msg, src, out):
        self._note_cut(src, msg.payload[0])
        self._maybe_count(out)

    # ------------------------------------------------------------------
    # phase 3: announce, discovery, in-cluster aggregation
    # ------------------------------------------------------------------

    def _begin_announce(self, undo_uid, out):
        self.cut_children.discard(undo_uid)  # that branch rejoins us
        self.announced_epoch = self.epoch
        self.token = None
        self.p4_ready = False
        self.disc_candidates = {}
        self.disc_pending = set(self._members())
        self.disc_sent = False
        self.routing = {}
        if self.ctx.live_neighbors():
            out.append(self.ctx.message("p3.announce", payload=(
                self.cluster_id, undo_uid, self.epoch)))
        self._maybe_report_discovery(out)

    def _on_announce(self, msg, src, out):
        cid, undo_uid, epoch = msg.payload
        self._note_cluster(src, (cid, epoch))
        if src == self.parent and self.announced_epoch < epoch:
            # our own cluster's flood, moving from the root toward leaves
            self.epoch = epoch
            self.cluster_id = cid
            self._begin_announce(undo_uid, out)
        elif (self.awaiting_release and src == self.old_parent
              and epoch >= self.epoch):
            self.awaiting_release = False
            self.epoch = epoch
            if undo_uid == self.ctx.uid:
                # the original root pulled us back in
                self.parent = self.old_parent
                self.old_parent = None
                self.cluster_id = cid
            self._begin_announce(None, out)
        else:
            self._maybe_report_discovery(out)

    def _note_cluster(self, peer, entry):
        """Set peer's neighbor_cluster entry, or drop it if entry is None,
        keeping the count of entries current at _fresh_epoch."""
        old = self.neighbor_cluster.get(peer)
        if old is not None and old[1] >= self._fresh_epoch:
            self._fresh -= 1
        if entry is None:
            self.neighbor_cluster.pop(peer, None)
        else:
            self.neighbor_cluster[peer] = entry
            self._fresh += entry[1] >= self._fresh_epoch

    def _discovery_gate(self) -> bool:
        if (self.disc_sent or self.disc_pending
                or self.announced_epoch != self.epoch):
            return False
        neighbor_cluster, epoch = self.neighbor_cluster, self.epoch
        if self._fresh_epoch != epoch:  # recounted once per epoch
            self._fresh_epoch = epoch
            self._fresh = sum(e >= epoch for _, e in neighbor_cluster.values())
        if self._fresh < len(self.ctx.live):
            return False  # some live neighbor's entry is missing or stale
        # an entry can outlive its link until on_link_down runs, so the
        # count only rules the gate out; check the live set once it may open
        for nb in self.ctx.live:  # every live neighbor: no order needed
            got = neighbor_cluster.get(nb)
            if got is None or got[1] < epoch:
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
        if self.is_root:
            self._start_cluster_value(out)
        else:
            ids = tuple(sorted(self.routing))
            out.append(self.ctx.message("p3.clusters", self.parent,
                                        (ids, self.epoch), len(ids)))

    def _on_clusters(self, msg, src, out):
        ids, epoch = msg.payload
        if epoch != self.epoch or src not in self._members():
            raise InvariantViolation(  # members report in the parent's epoch
                f"p3.clusters from non-member {src} or epoch {epoch}")
        for cid in ids:
            if cid != self.cluster_id:
                self.disc_candidates.setdefault(cid, set()).add(src)
        self.disc_pending.discard(src)
        self._maybe_report_discovery(out)

    def _start_cluster_value(self, out):
        if self.cluster_value is not None:
            self._enter_p4(out)
            return
        msgs, event = self._token().start_compute(
            self.ctx.fn.initial(self.ctx.value))
        out.extend(msgs)
        self._token_event(event, out)

    def _token(self) -> TokenPass:
        """This epoch's in-cluster token pass, built on first use."""
        if self.token is None:
            self.token = TokenPass(self.ctx, self.parent, self._members(),
                                   TOKEN_TYPES)
        return self.token

    def _token_event(self, event, out):
        """A finished fold (only a root has one) is the cluster value; a
        finished relay carries the global value (a root output it already)."""
        if event is None:
            return
        if event[0] == "computed":
            self.cluster_value = event[1]
            self._enter_p4(out)
        else:
            self.output = self.ctx.fn.decode(event[1])

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

    def _pair_batch(self, cids):
        return tuple((c,) + self.value_table[c] for c in sorted(cids))

    def _flush_pairs(self, out):
        if not self.p4_ready:
            return  # keep the backlog until discovery has built the routes
        cids = [c for c in self.pending_pairs if c in self.value_table]
        self.pending_pairs = []
        if not cids or not self.routing:
            return
        if all(hop == c for c, hop in self.routing.items()):
            # every neighbor cluster's root is a neighbor: one broadcast
            batch = self._pair_batch(cids)
            out.append(self.ctx.message("p4.share", None, (
                self.cluster_id, batch, self.epoch), len(batch)))
            return
        for dest in sorted(self.routing):
            send = [c for c in cids if c != dest and self.pair_from[c] != dest]
            if send:
                batch = self._pair_batch(send)
                out.append(self.ctx.message("p4.values", self._hop(dest), (
                    dest, self.cluster_id, batch, self.epoch), len(batch)))

    def _hop(self, dest):
        hop = self.routing.get(dest)
        if hop is None:
            raise StaleRoutingEntry(
                f"node {self.ctx.uid} has no route toward cluster {dest}")
        return hop

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
        # sizes reach n with the last triple in, so a later new one overshoots
        total = sum(size for size, _ in self.value_table.values())
        if total < self.ctx.n:
            return
        if total != self.ctx.n:
            raise InvariantViolation("cluster sizes overshoot the node count")
        fn = self.ctx.fn
        final = fn.finalize(reduce(
            fn.combine, [self.value_table[c][1] for c in sorted(self.value_table)]))
        self.output = fn.decode(final)
        # built here when the cluster value was reused and no compute ran
        msgs, _event = self._token().start_relay(final)
        out.extend(msgs)

    def on_flush(self):
        out = []
        self._flush_pairs(out)
        return out

    def _on_token_pass(self, msg, src, out):
        msgs, event = self._token().handle(msg, src)
        out.extend(msgs)
        self._token_event(event, out)

    def _on_share(self, msg, src, out):
        src_cluster, batch, epoch = msg.payload
        if self.is_root and epoch == self.epoch and \
                src_cluster != self.cluster_id:
            self._ingest_pairs(src_cluster, batch, out)

    def _on_routed_values(self, msg, src, out):
        """Ingest a routed batch at its cluster's root, else pass it on."""
        dest, src_cluster, batch, epoch = msg.payload
        if epoch != self.epoch:
            raise InvariantViolation(  # each hop's route is from this epoch
                f"p4.values of epoch {epoch} in epoch {self.epoch}")
        if dest == self.cluster_id and self.is_root:
            self._ingest_pairs(src_cluster, batch, out)
            return
        hop = self.parent if dest == self.cluster_id else self._hop(dest)
        out.append(self.ctx.message("p4.values", hop, msg.payload, len(batch)))

    # ------------------------------------------------------------------
    # recovery from a single link failure
    # ------------------------------------------------------------------

    def on_link_down(self, peer):
        if self.output is None:
            raise InvariantViolation(
                f"link to {peer} failed before node {self.ctx.uid} output; "
                f"hybrid recovers only after consensus completes")
        out = []
        self._note_cluster(peer, None)
        touched = [cid for cid, cands in self.disc_candidates.items()
                   if peer in cands]
        for cid in touched:
            self.disc_candidates[cid].discard(peer)
        if peer == self.parent:
            # child side of a broken tree edge: we lead the lower half
            self._reopen(peer)
            self.parent = None
            self.cluster_value = None
            self._pf_start_count(out)
        elif peer in self._members():
            # parent side: drop the branch and have the root recount
            self._reopen(peer)
            self._recount("pf.branch_lost", (self.epoch,), out)
        else:
            # a non-tree edge or a cut boundary, on either side: no members
            # lost, and a cut across it stands
            if peer == self.old_parent:
                self.awaiting_release = False
                self.old_parent = None
            self.cut_children.discard(peer)
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
                    if self.parent is not None:
                        out.append(self.ctx.message(
                            "pf.route_dead", self.parent, (cid, self.epoch)))

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
                                        payload=(token, self.epoch)))
        self._pf_maybe_report(out)

    def _pf_own_candidate(self):
        """(weight, self, peer) of the cheapest edge to a foreign cluster:
        the first foreign neighbour, as neighbour order is weight order."""
        for nb in self.ctx.live_neighbors():
            got = self.neighbor_cluster.get(nb)
            if got and got[0] != self.cluster_id:
                return self._w(nb), self.ctx.uid, nb
        return None

    def _pf_maybe_report(self, out):
        if not self.pf_active or self.pf_pending:
            return
        self.pf_active = False
        count = 1 + self.pf_count
        cand = self._pf_own_candidate()
        if self.pf_cand is not None and (cand is None or self.pf_cand < cand):
            cand = self.pf_cand
        if self.pf_token[0] != self.ctx.uid:  # a pass an ancestor started
            # the splitting rule, re-applied during recovery
            if not self._cut_loose(count, "pf.cut",
                                   (count, self.pf_token, self.epoch), out):
                out.append(self.ctx.message("pf.count", self.parent, (
                    count, cand, self.pf_token, self.epoch)))
            return
        # initiating root: decide what this part becomes; only a cut from
        # this very pass can be taken back
        undo = self._take_back(count)
        if undo is not None:
            self.pf_undo = undo
        elif count < self.floor_size and cand is not None:
            self.pf_joining = True
            self._pf_forward_join(cand, count, out)
            return
        # members may carry a stale cluster id after the break
        self._rename(self.ctx.uid, self.epoch, "pf.newid", out)

    def _pf_forward_join(self, cand, size, out):
        _w, x, y = cand
        if x == self.ctx.uid:
            out.append(self.ctx.message("pf.join_req", y, (size, self.epoch)))
        else:
            # the winning candidate propagated up through pf_cand_child
            out.append(self.ctx.message("pf.join", self.pf_cand_child,
                                        (cand, size, self.epoch)))

    def _on_count_req(self, msg, src, out):
        token, _epoch = msg.payload
        if src == self.parent and self.edge_state.get(src) == BRANCH:
            self._pf_start_count(out, token=token)

    def _on_pf_count(self, msg, src, out):
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

    def _on_pf_cut(self, msg, src, out):
        self._note_cut(src, msg.payload[0])  # a superseded pass's cut stands
        self.pf_pending.discard(src)
        self._pf_maybe_report(out)

    def _on_join(self, msg, src, out):
        cand, size, _epoch = msg.payload
        self.pf_joining = True
        self._pf_forward_join(tuple(cand), size, out)

    def _on_join_req(self, msg, src, out):
        size, epoch = msg.payload
        self._attach(src)
        out.append(self.ctx.message("pf.join_ack", src,
                                    (self.cluster_id, epoch)))
        # absorbed nodes may push branches past the cap: the root recounts
        # and re-applies the splitting rule
        self._recount("pf.size_up", (size, epoch), out)

    def _on_join_ack(self, msg, src, out):
        self._reroot(src, *msg.payload, out)

    def _on_adopt(self, msg, src, out):
        cid, epoch = msg.payload
        joined_half = not self.is_root or self.pf_joining
        if self.edge_state.get(src) == BRANCH and joined_half \
                and self.cluster_id != cid:
            # the joined half re-roots toward the attachment point
            self._reroot(src, cid, epoch, out)

    def _on_newid(self, msg, src, out):
        cid, epoch = msg.payload
        if src == self.parent and self.edge_state.get(src) == BRANCH \
                and self.cluster_id != cid:
            self._rename(cid, epoch, "pf.newid", out)

    def _on_route_dead(self, msg, src, out):
        cid, _epoch = msg.payload
        self.disc_candidates.get(cid, set()).discard(src)
        self._route_repair(src, [cid], out)

    def _on_recount(self, msg, src, out):
        """pf.branch_lost or pf.size_up: pass the news on toward the root."""
        self._recount(msg.mtype, msg.payload, out)

    def _recount(self, mtype, payload, out):
        """Membership changed below this node: the root recounts its part,
        any other node passes the news toward the root."""
        self.cluster_value = None
        if self.is_root:
            self._pf_start_count(out)
        else:
            out.append(self.ctx.message(mtype, self.parent, payload))

    def _attach(self, peer):
        """Make the edge to `peer` a tree edge of this node's cluster."""
        self.edge_state[peer] = BRANCH
        if peer == self.old_parent:
            self.old_parent = None  # a severed cut boundary is rejoined
        self.cut_children.discard(peer)

    def _reroot(self, parent, cid, epoch, out):
        """Hang this node under `parent` in cluster `cid` and pass the
        adoption on to the members below."""
        self._attach(parent)
        self.parent = parent
        self.pf_joining = False
        self._rename(cid, epoch, "pf.adopt", out)

    def _rename(self, cid, epoch, mtype, out):
        """Join cluster `cid` and pass the news (`mtype`) to the members
        below."""
        self.cluster_id = cid
        if self._members():
            out.append(self.ctx.message(mtype, payload=(cid, epoch)))

    # re-consensus epoch, kicked at each root not awaiting release --------

    def begin_epoch(self, epoch):
        out = []
        self.epoch = epoch
        self.value_table = {}
        self.pair_from = {}
        self.pending_pairs = []
        undo, self.pf_undo = self.pf_undo, None
        self._begin_announce(undo, out)
        return out

    HANDLERS = {
        # MST construction, but a finished cluster answers connects and tests
        # (a level-0 connect, sent at wakeup, is resolved before its receiver
        # can halt)
        **{f"p1.{tag}": h for tag, h in GhsAutomaton.MST_HANDLERS.items()},
        "p1.connect": _on_p1_connect, "p1.test": _on_p1_test,
        "p1.done": _on_p1_done, "p1.absorb": _on_p1_absorb,
        "p2.count": _on_p2_count, "p2.cut": _on_p2_cut,
        "p3.announce": _on_announce, "p3.clusters": _on_clusters,
        **dict.fromkeys(TOKEN_TYPES, _on_token_pass),
        "p4.share": _on_share, "p4.values": _on_routed_values,
        "pf.count_req": _on_count_req, "pf.count": _on_pf_count,
        "pf.cut": _on_pf_cut, "pf.join": _on_join, "pf.join_req": _on_join_req,
        "pf.join_ack": _on_join_ack, "pf.adopt": _on_adopt,
        "pf.newid": _on_newid, "pf.route_dead": _on_route_dead,
        "pf.branch_lost": _on_recount, "pf.size_up": _on_recount,
    }


class HybridProtocol(Protocol):
    """Cluster-based consensus tuned by m (1 = one cluster, n = singletons)."""

    name = "hybrid"
    hierarchical_only = True

    def __init__(self, m: int):
        if m < 1:
            raise ConfigError("m must be at least 1")
        self.m = m

    def validate(self, graph, fn):
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


def branch_sizes(automata) -> dict[int, int]:
    """Within-cluster branch (node plus descendants) size per node, summed
    from the leaves up: a node passes its size on once its children have."""
    sizes = {uid: 1 for uid in automata}
    waiting = dict.fromkeys(automata, 0)  # children yet to pass theirs on
    for a in automata.values():
        if a.parent is not None:
            waiting[a.parent] += 1
    done = [uid for uid, k in waiting.items() if not k]
    for uid in done:  # grows as parents become ready
        p = automata[uid].parent
        if p is not None:
            sizes[p] += sizes[uid]
            waiting[p] -= 1
            if not waiting[p]:
                done.append(p)
    if len(done) < len(automata):
        raise InvariantViolation("parent pointers form a cycle")
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
    """Run to completion, fail one link, repair, then recompute; later
    failures repeat the last two steps.

    Keeps the initial consensus's trace, the latest failure's structural
    repair and its renewed consensus (None until `reconsensus` runs), plus
    the shared automata for structural inspection.  Each failure is
    injected after the latest consensus completes; recovering an execution
    that is still mid-flight is out of scope.
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

    def breakable_tree_edges(self) -> list:
        """Sorted forest edges whose removal keeps the graph connected."""
        breakable = []
        for edge in sorted({edge_weight(u, a.parent)
                            for u, a in self.automata.items()
                            if a.parent is not None}):
            try:
                fail_link(self.graph, edge)
            except WouldDisconnect:
                continue
            breakable.append(edge)
        return breakable

    def fail_link(self, edge, at=None):
        if self.repair_trace is not None and self.rerun_trace is None:
            raise ConfigError("the pending repair needs its reconsensus first")
        u, v = edge
        failed_graph = fail_link(self.graph, edge)  # raises if it disconnects
        done = (self.rerun_trace or self.initial_trace).last_output_time()
        d = self.sim.timing.d  # done, a float k * d, may round up
        if at is None:
            at = done + d
        elif not (done - d * REL_TOL <= at < math.inf):
            raise ConfigError(f"a link failure at t={at!r} must be finite and "
                              f"not before the consensus ends at t={done!r}")
        grid = self.sim.timing.boundary(at)
        if abs(grid - at) <= d * REL_TOL:  # a boundary up to rounding
            at = grid
        repair = self._continue(at)
        repair.schedule_link_down(u, v, at)
        self.repair_trace, self.rerun_trace = repair.run(), None
        self.graph = failed_graph
        self.sim = repair
        return self.repair_trace

    def reconsensus(self):
        if self.repair_trace is None or self.rerun_trace is not None:
            raise ConfigError("reconsensus needs a link failure first")
        epoch = 1 + max(a.epoch for a in self.sim.automata.values())
        for a in self.sim.automata.values():
            a.output = None
        # a full window after the repair's last record, at least
        start = self.sim.timing.boundary(self.repair_trace.last_time()
                                         + self.sim.timing.d)
        rerun = self._continue(start)
        for uid, a in self.sim.automata.items():  # in uid order
            if a.parent is None and not a.awaiting_release:
                rerun.schedule_kick(uid, "begin_epoch", (epoch,), at=start)
        self.rerun_trace = rerun.run()
        self.sim = rerun
        return self.rerun_trace

    def _continue(self, start):
        """A follow-on execution over the current automata and graph."""
        return Simulation(self.sim.protocol, self.graph, self.sim.values,
                          fn=self.fn, timing=self.sim.timing,
                          scheduler=self.sim.scheduler,
                          seed=self.sim.seed + 1,
                          size_model=self.sim.size_model,
                          automata=self.sim.automata, start_time=start)
