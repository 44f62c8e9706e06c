//! The multi-neighbor RIB plumbing: import policy, the decision
//! process, Loc-RIB maintenance, and export diffing against
//! Adj-RIB-Out.
//!
//! [`RoutingCore`] is the routing half of a BGP speaker with the
//! session machinery cut away: it never sees bytes or timers, only
//! parsed [`UpdateMsg`]s and peer up/down edges, and it answers with
//! [`RibOp`]s — UPDATEs to send (unencoded; the host picks the wire
//! encoding per the peer's negotiated capabilities) and best-route
//! changes for the host's FIB. Both the simulator's speaker and the
//! `dbgpd` daemon wrap this same core, which is what makes the
//! oracle-vs-daemon bit-match meaningful.

use crate::config::{NeighborConfig, PeerId};
use crate::decision::{self, Candidate};
use crate::rib::{AdjRibIn, AdjRibOut, LocRib, LocRibEntry, RouteSource};
use crate::route::Route;
use crate::session::{Millis, SessionSummary};
use dbgp_rib::{recycle, PrefixTrie};
use dbgp_telemetry::{SelectionReason, SinkHandle, TraceKind};
use dbgp_wire::message::UpdateMsg;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix, WireError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A RIB-level side effect the host must act on, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RibOp {
    /// Send this UPDATE to this peer. The host encodes it with the
    /// peer's negotiated 4-octet-AS setting.
    Announce(PeerId, UpdateMsg),
    /// The best route for a prefix changed (`None` = now unreachable).
    /// The host's data plane should update its FIB.
    BestRouteChanged(Ipv4Prefix, Option<LocRibEntry>),
}

struct PeerEntry {
    cfg: NeighborConfig,
    /// Set while the session is Established; carries the negotiated
    /// capabilities and the peer's router ID for the decision process.
    summary: Option<SessionSummary>,
    /// The last eBGP export built for this peer: the installed route it
    /// was built from (held, so that its address cannot be reused while
    /// the entry lives) and what the peer is sent for it. Routes are
    /// immutable behind their `Arc` and a neighbor's configuration
    /// never changes, so the same installed route always exports the
    /// same way; every NLRI of a multi-NLRI UPDATE installs one
    /// interned route, which makes this one slot a refcount bump per
    /// prefix where there was a deep clone. Only consulted when the
    /// export policy has no clauses: a clause may match on the prefix.
    last_export: Option<(Arc<Route>, Arc<Route>)>,
    /// Adj-RIB-Out changes not yet emitted; empty between calls.
    staged: Staged,
}

/// Adj-RIB-Out changes toward one peer since the last
/// [`RoutingCore::flush_staged`]. Every flush point sits where a prefix
/// can have changed at most once for a peer — after one section of one
/// inbound UPDATE, after one `peer_down` — so a prefix is staged at most
/// once and a flush never both withdraws and announces it.
#[derive(Default)]
struct Staged {
    withdrawn: Vec<Ipv4Prefix>,
    /// Announcements as runs sharing one exported route, in the order
    /// the prefixes changed. A prefix joins the last run or opens a new
    /// one — never an earlier run — so staging is O(1) per prefix.
    runs: Vec<(Arc<Route>, Vec<Ipv4Prefix>)>,
}

/// The sans-IO routing core of a BGP speaker.
pub struct RoutingCore {
    asn: u32,
    router_id: Ipv4Addr,
    peers: BTreeMap<PeerId, PeerEntry>,
    adj_in: AdjRibIn,
    loc_rib: LocRib,
    adj_out: AdjRibOut,
    originated: PrefixTrie<Arc<Route>>,
    sink: SinkHandle,
    node_label: u32,
    /// Exports answered from a peer's `last_export` / built afresh.
    exports_shared: u64,
    exports_computed: u64,
    /// Exports dropped because their attribute block fills a frame.
    exports_oversize: u64,
    /// UPDATEs emitted, and the NLRI and withdrawn prefixes in them.
    updates_out: u64,
    nlri_out: u64,
    withdrawn_out: u64,
    /// Reusable decision-scratch buffers — always empty between calls;
    /// the `'static` parameters are placeholders [`dbgp_rib::recycle`]
    /// swaps for the borrow while `select_best` has the (empty) vecs
    /// checked out.
    scratch_arcs: Vec<&'static Arc<Route>>,
    scratch_cands: Vec<Candidate<'static>>,
}

impl RoutingCore {
    /// A routing core for AS `asn` with the given router ID.
    pub fn new(asn: u32, router_id: Ipv4Addr) -> Self {
        RoutingCore {
            asn,
            router_id,
            peers: BTreeMap::new(),
            adj_in: AdjRibIn::new(),
            loc_rib: LocRib::new(),
            adj_out: AdjRibOut::new(),
            originated: PrefixTrie::new(),
            sink: SinkHandle::none(),
            node_label: 0,
            exports_shared: 0,
            exports_computed: 0,
            exports_oversize: 0,
            updates_out: 0,
            nlri_out: 0,
            withdrawn_out: 0,
            scratch_arcs: Vec::new(),
            scratch_cands: Vec::new(),
        }
    }

    /// Exports that reused the route already built for the same
    /// installed route and peer — every NLRI after the first of an
    /// attribute block.
    pub fn exports_shared(&self) -> u64 {
        self.exports_shared
    }

    /// Exports that built a new route: the first of an attribute block
    /// toward an eBGP peer, and every one a policy clause may rewrite.
    /// (A transparent iBGP export forwards the installed route itself
    /// and counts as neither.)
    pub fn exports_computed(&self) -> u64 {
        self.exports_computed
    }

    /// Exports not sent because the attribute block left no room for
    /// one NLRI in a 4096-byte frame; the peer was sent a withdrawal.
    pub fn exports_oversize(&self) -> u64 {
        self.exports_oversize
    }

    /// UPDATEs handed to the host so far.
    pub fn updates_out(&self) -> u64 {
        self.updates_out
    }

    /// NLRI prefixes in those UPDATEs.
    pub fn nlri_out(&self) -> u64 {
        self.nlri_out
    }

    /// Withdrawn prefixes in those UPDATEs.
    pub fn withdrawn_out(&self) -> u64 {
        self.withdrawn_out
    }

    /// Attach a telemetry sink; `node_label` identifies this speaker in
    /// recorded decision events.
    pub fn set_telemetry(&mut self, sink: SinkHandle, node_label: u32) {
        self.sink = sink;
        self.node_label = node_label;
    }

    /// Our AS number.
    pub fn asn(&self) -> u32 {
        self.asn
    }

    /// Our router ID.
    pub fn router_id(&self) -> Ipv4Addr {
        self.router_id
    }

    /// Register a neighbor. Panics if the peer ID is already used.
    pub fn add_peer(&mut self, id: PeerId, cfg: NeighborConfig) {
        assert!(!self.peers.contains_key(&id), "duplicate peer {id}");
        self.peers.insert(
            id,
            PeerEntry { cfg, summary: None, last_export: None, staged: Staged::default() },
        );
    }

    /// The neighbor configuration for a peer.
    pub fn peer_cfg(&self, id: PeerId) -> Option<&NeighborConfig> {
        self.peers.get(&id).map(|p| &p.cfg)
    }

    /// True while the session with `id` is up (between
    /// [`peer_up`](Self::peer_up) and [`peer_down`](Self::peer_down)).
    pub fn is_established(&self, id: PeerId) -> bool {
        self.peers.get(&id).is_some_and(|p| p.summary.is_some())
    }

    /// The session summary recorded at [`peer_up`](Self::peer_up).
    pub fn summary(&self, id: PeerId) -> Option<SessionSummary> {
        self.peers.get(&id).and_then(|p| p.summary)
    }

    /// The session with `id` reached Established: record the negotiated
    /// summary and compute the initial table transfer.
    pub fn peer_up(&mut self, id: PeerId, summary: SessionSummary) -> Vec<RibOp> {
        let mut out = Vec::new();
        if let Some(peer) = self.peers.get_mut(&id) {
            peer.summary = Some(summary);
            // Initial table transfer: advertise our whole view, batching
            // prefixes that export the same attribute block into shared
            // multi-NLRI UPDATEs.
            self.initial_table_dump(id, &mut out);
        }
        out
    }

    /// The session with `id` went down: flush its RIB state and
    /// re-decide every prefix it contributed.
    pub fn peer_down(&mut self, now: Millis, id: PeerId) -> Vec<RibOp> {
        let mut out = Vec::new();
        if let Some(peer) = self.peers.get_mut(&id) {
            peer.summary = None;
            peer.last_export = None;
            self.adj_out.clear_peer(id);
            for prefix in self.adj_in.drop_peer(id) {
                self.redecide(now, prefix, &mut out);
            }
            self.flush_staged(&mut out);
        }
        out
    }

    /// Process an UPDATE received from `id`.
    ///
    /// The returned ops are valid even when an error is also returned
    /// (withdrawals processed before the failure still count); a
    /// `Some(err)` means the session must be torn down, mirroring the
    /// RFC 4271 §6.3 treatment of malformed attribute blocks.
    pub fn update(
        &mut self,
        now: Millis,
        id: PeerId,
        update: UpdateMsg,
    ) -> (Vec<RibOp>, Option<WireError>) {
        let mut out = Vec::new();
        for prefix in &update.withdrawn {
            if self.adj_in.remove(id, prefix).is_some() {
                self.redecide(now, *prefix, &mut out);
            }
        }
        // Flushed between the two sections: a prefix both withdrawn and
        // announced by this UPDATE must end announced at every peer, and
        // within one flush withdrawals precede announcements.
        self.flush_staged(&mut out);
        if update.nlri.is_empty() {
            return (out, None);
        }
        let Ok(route) = Route::from_attrs(&update.attributes) else {
            // Wire validation already guarantees mandatory attributes;
            // treat any residual failure as a session-level error.
            return (
                out,
                Some(WireError::MissingWellKnownAttribute(dbgp_wire::attrs::code::ORIGIN)),
            );
        };
        // Receiver-side loop detection (RFC 4271 §9.1.2): a path carrying
        // our own AS is invisible to the decision process.
        let looped = route.as_path.contains(self.asn);
        let peer_as = self.peers[&id].cfg.peer_as;
        // One attribute block per UPDATE: every NLRI the import policy
        // leaves untouched shares this interned route.
        let route = Arc::new(route);
        let transparent = {
            let import = &self.peers[&id].cfg.import;
            import.clauses.is_empty() && import.default_permit
        };
        for prefix in &update.nlri {
            if looped {
                if self.adj_in.remove(id, prefix).is_some() {
                    self.redecide(now, *prefix, &mut out);
                }
                continue;
            }
            if transparent {
                self.adj_in.insert(id, *prefix, Arc::clone(&route));
            } else {
                let mut candidate = (*route).clone();
                let import = &self.peers[&id].cfg.import;
                if import.apply(prefix, &mut candidate, peer_as) {
                    let interned =
                        if candidate == *route { Arc::clone(&route) } else { Arc::new(candidate) };
                    self.adj_in.insert(id, *prefix, interned);
                } else if self.adj_in.remove(id, prefix).is_none() {
                    continue; // rejected and never stored: nothing changes
                }
            }
            self.redecide(now, *prefix, &mut out);
        }
        self.flush_staged(&mut out);
        (out, None)
    }

    /// Originate a prefix locally and propagate it.
    pub fn originate(&mut self, now: Millis, prefix: Ipv4Prefix) -> Vec<RibOp> {
        let mut out = Vec::new();
        let route = Arc::new(Route::originated(self.router_id));
        self.originated.insert(prefix, route);
        self.redecide(now, prefix, &mut out);
        self.flush_staged(&mut out);
        out
    }

    /// Stop originating a prefix.
    pub fn withdraw_origin(&mut self, now: Millis, prefix: Ipv4Prefix) -> Vec<RibOp> {
        let mut out = Vec::new();
        if self.originated.remove(&prefix).is_some() {
            self.redecide(now, prefix, &mut out);
            self.flush_staged(&mut out);
        }
        out
    }

    /// Read access to the Loc-RIB.
    pub fn loc_rib(&self) -> &LocRib {
        &self.loc_rib
    }

    /// Read access to the Adj-RIB-In.
    pub fn adj_rib_in(&self) -> &AdjRibIn {
        &self.adj_in
    }

    // ----- internals ----------------------------------------------------

    /// Re-run the decision process for one prefix and propagate any
    /// change. Always a scan of every candidate: RFC 4271's
    /// same-neighbour-AS MED rule makes the comparison intransitive
    /// (`decision::tests::med_default_is_intransitive`), so "loses to
    /// the installed best" proves nothing about the next winner.
    fn redecide(&mut self, now: Millis, prefix: Ipv4Prefix, out: &mut Vec<RibOp>) {
        let explain = self.sink.enabled();
        let (new_entry, why, n_candidates) = self.select_best(&prefix, explain);
        let changed = match (self.loc_rib.get(&prefix), &new_entry) {
            (None, None) => false,
            (Some(old), Some(new)) => old != new,
            _ => true,
        };
        if !changed {
            return;
        }
        if explain {
            let (selected, neighbor_as, path, hops) = match &new_entry {
                Some(entry) => {
                    let nas = match entry.source {
                        RouteSource::Peer(pid) => Some(self.peers[&pid].cfg.peer_as),
                        RouteSource::Local => None,
                    };
                    (
                        true,
                        nas,
                        entry.route.as_path.to_string(),
                        entry.route.as_path.hop_count() as u32,
                    )
                }
                None => (false, None, String::new(), 0),
            };
            self.sink.record_at(
                now,
                self.node_label,
                self.sink.ambient_parent(),
                TraceKind::Decision {
                    prefix,
                    selected,
                    neighbor_as,
                    path,
                    hops,
                    candidates: n_candidates,
                    why,
                },
            );
        }
        match new_entry.clone() {
            Some(entry) => {
                self.loc_rib.insert(prefix, entry);
            }
            None => {
                self.loc_rib.remove(&prefix);
            }
        }
        out.push(RibOp::BestRouteChanged(prefix, new_entry));
        let ids: Vec<PeerId> = self.peers.keys().copied().collect();
        for id in ids {
            if self.is_established(id) {
                self.propagate_to(id, prefix);
            }
        }
    }

    fn select_best(
        &mut self,
        prefix: &Ipv4Prefix,
        explain: bool,
    ) -> (Option<LocRibEntry>, SelectionReason, u32) {
        // Check out the reusable scratch buffers (only the capacity
        // allocations are recycled).
        let mut arcs: Vec<&Arc<Route>> = recycle(std::mem::take(&mut self.scratch_arcs));
        let mut candidates: Vec<Candidate<'_>> = recycle(std::mem::take(&mut self.scratch_cands));
        // The decision process borrows plain `&Route` views; `arcs` keeps
        // the interned handles in lockstep so the winner is retained by
        // refcount bump, not deep clone.
        if let Some(route) = self.originated.get(prefix) {
            arcs.push(route);
            candidates.push(Candidate::local(route));
        }
        for (peer_id, route) in self.adj_in.candidates(prefix) {
            let peer = &self.peers[&peer_id];
            arcs.push(route);
            candidates.push(Candidate {
                route,
                source: RouteSource::Peer(peer_id),
                peer_as: peer.cfg.peer_as,
                ebgp: !peer.cfg.is_ibgp(),
                peer_router_id: peer.summary.map(|s| s.peer_id).unwrap_or(Ipv4Addr(u32::MAX)),
            });
        }
        let n = candidates.len() as u32;
        let picked = if explain {
            decision::best_explain(&candidates)
        } else {
            decision::best(&candidates).map(|i| (i, SelectionReason::ModulePreference))
        };
        let result = match picked {
            Some((i, why)) => (
                Some(LocRibEntry { route: Arc::clone(arcs[i]), source: candidates[i].source }),
                why,
                n,
            ),
            None => (None, SelectionReason::Unreachable, n),
        };
        // Check the scratch buffers back in, empty again.
        self.scratch_arcs = recycle(arcs);
        self.scratch_cands = recycle(candidates);
        result
    }

    /// Compute what `peer` should see for `prefix`, diff against
    /// Adj-RIB-Out, and stage the change if there is one.
    fn propagate_to(&mut self, id: PeerId, prefix: Ipv4Prefix) {
        let export = self.export_route(id, &prefix);
        let changed = match &export {
            Some(route) => self.adj_out.advertise(id, prefix, route),
            None => self.adj_out.withdraw(id, &prefix),
        };
        if !changed {
            return;
        }
        let staged = &mut self.peers.get_mut(&id).expect("propagating to a known peer").staged;
        match (export, staged.runs.last_mut()) {
            (None, _) => staged.withdrawn.push(prefix),
            (Some(route), Some((run, members))) if Arc::ptr_eq(run, &route) || **run == *route => {
                members.push(prefix)
            }
            (Some(route), _) => staged.runs.push((route, vec![prefix])),
        }
    }

    /// Emit everything staged: per peer in ascending `PeerId`, the
    /// withdrawals ([`UpdateMsg::pack_withdrawals`]) and then one
    /// [`UpdateMsg::pack_announcements`] per run in staging order, so
    /// the output is a function of the calls made and nothing else.
    ///
    /// A run whose attribute block cannot share a 4096-byte frame with
    /// one NLRI cannot be sent at all. Its prefixes leave the peer's
    /// Adj-RIB-Out and join the withdrawals — right if the peer held an
    /// older route, harmless if it held none.
    fn flush_staged(&mut self, out: &mut Vec<RibOp>) {
        for (&id, peer) in self.peers.iter_mut() {
            let staged = &mut peer.staged;
            if staged.withdrawn.is_empty() && staged.runs.is_empty() {
                continue;
            }
            let four_octet = peer.summary.is_some_and(|s| s.four_octet);
            let ibgp = peer.cfg.is_ibgp();
            let first = out.len();
            for (route, members) in staged.runs.drain(..) {
                match UpdateMsg::pack_announcements(&members, route.to_attrs(ibgp), four_octet) {
                    Some(updates) => {
                        self.nlri_out += members.len() as u64;
                        out.extend(updates.into_iter().map(|u| RibOp::Announce(id, u)));
                    }
                    None => {
                        self.exports_oversize += members.len() as u64;
                        for prefix in &members {
                            self.adj_out.withdraw(id, prefix);
                        }
                        staged.withdrawn.extend(members);
                    }
                }
            }
            self.withdrawn_out += staged.withdrawn.len() as u64;
            let withdrawals = UpdateMsg::pack_withdrawals(&staged.withdrawn);
            staged.withdrawn.clear();
            out.splice(first..first, withdrawals.into_iter().map(|u| RibOp::Announce(id, u)));
            self.updates_out += (out.len() - first) as u64;
        }
    }

    /// Initial table transfer toward a freshly-established peer: walk
    /// the Loc-RIB in prefix order, group prefixes whose exported
    /// routes are identical, and emit one multi-NLRI UPDATE run per
    /// group. Groups keep first-seen (ascending prefix) order, so the
    /// wire bytes are deterministic.
    fn initial_table_dump(&mut self, id: PeerId, out: &mut Vec<RibOp>) {
        let prefixes: Vec<Ipv4Prefix> = self.loc_rib.iter().map(|(p, _)| *p).collect();
        let mut groups: Vec<(Arc<Route>, Vec<Ipv4Prefix>)> = Vec::new();
        for prefix in prefixes {
            let Some(route) = self.export_route(id, &prefix) else { continue };
            if !self.adj_out.advertise(id, prefix, &route) {
                continue;
            }
            // Linear probe over existing groups; distinct attribute
            // blocks in one table number in the dozens, not thousands,
            // and ptr_eq short-circuits the interned common case.
            match groups.iter_mut().find(|(g, _)| Arc::ptr_eq(g, &route) || **g == *route) {
                Some((_, members)) => members.push(prefix),
                None => groups.push((route, vec![prefix])),
            }
        }
        self.peers.get_mut(&id).expect("dumping to a known peer").staged.runs = groups;
        self.flush_staged(out);
    }

    /// The route to advertise to `peer` for `prefix`, or `None` to
    /// withdraw/suppress.
    fn export_route(&mut self, id: PeerId, prefix: &Ipv4Prefix) -> Option<Arc<Route>> {
        let entry = self.loc_rib.get(prefix)?;
        let peer = &self.peers[&id];
        match entry.source {
            // Split horizon: never send a route back to its source.
            RouteSource::Peer(src) if src == id => return None,
            // No iBGP reflection: iBGP-learned routes do not go to other
            // iBGP peers (we are not a route reflector).
            RouteSource::Peer(src) => {
                let src_ibgp = self.peers[&src].cfg.is_ibgp();
                if src_ibgp && peer.cfg.is_ibgp() {
                    return None;
                }
            }
            RouteSource::Local => {}
        }
        let export = &peer.cfg.export;
        if export.clauses.is_empty() {
            if !export.default_permit {
                return None;
            }
            // iBGP forwards the route unmodified: the interned Loc-RIB
            // route is shared as-is.
            if peer.cfg.is_ibgp() {
                return Some(Arc::clone(&entry.route));
            }
            if let Some((installed, exported)) = &peer.last_export {
                if Arc::ptr_eq(installed, &entry.route) {
                    self.exports_shared += 1;
                    return Some(Arc::clone(exported));
                }
            }
            self.exports_computed += 1;
            let exported = Arc::new(entry.route.for_ebgp_export(self.asn, peer.cfg.local_addr));
            let memo = (Arc::clone(&entry.route), Arc::clone(&exported));
            self.peers.get_mut(&id).expect("looked up above").last_export = Some(memo);
            return Some(exported);
        }
        // A clause may match on the prefix or rewrite the route: built
        // per prefix.
        self.exports_computed += 1;
        let mut route = if peer.cfg.is_ibgp() {
            (*entry.route).clone()
        } else {
            entry.route.for_ebgp_export(self.asn, peer.cfg.local_addr)
        };
        export.apply(prefix, &mut route, peer.cfg.peer_as).then(|| Arc::new(route))
    }
}
