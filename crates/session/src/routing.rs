//! The multi-neighbor RIB plumbing: loop detection, the decision
//! process, Loc-RIB maintenance, and export diffing against
//! Adj-RIB-Out.
//!
//! [`RoutingCore`] is the routing half of a BGP speaker with the
//! session machinery cut away: it never sees bytes or timers, only
//! parsed [`UpdateMsg`]s and peer up/down edges (the `now` every entry
//! point takes, as every sans-IO call in this crate does, is not read:
//! nothing here is timed yet), and it answers with [`RibOp`]s — UPDATEs
//! to send (unencoded; the host picks the wire encoding per the peer's
//! negotiated capabilities) and best-route changes, each with why the
//! new best won, for the host's FIB and trace. [`crate::host::Host`] puts it behind the
//! session cores; the `dbgpd` daemon, its in-process oracle and
//! `dbgp-bgp`'s `Speaker` all drive that one assembly, which is what
//! makes the oracle-vs-daemon bit-match meaningful.
//!
//! All route state is one table with one `Entry` per prefix — the
//! shape `dbgp-core`'s `DbgpSpeaker` has: an announced NLRI walks the
//! trie once (`get_or_insert_with`), a withdrawn one at most twice
//! (`get_mut`, then `remove` if that left the entry idle), and the
//! decision, the Loc-RIB install, the exports and the Adj-RIB-Out diff
//! all run on the entry that walk found.

use crate::config::{NeighborConfig, PeerId};
use crate::decision::{self, Candidate};
use crate::rib::{Entry, LocRibEntry, RouteSource};
use crate::route::Route;
use crate::session::{Millis, SessionSummary};
use dbgp_rib::PrefixTrie;
use dbgp_telemetry::{Selection, SelectionReason};
use dbgp_wire::message::UpdateMsg;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix, WireError};
use std::collections::{hash_map, BTreeMap, HashMap};
use std::sync::Arc;

/// A RIB-level side effect the host must act on, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RibOp {
    /// Send this UPDATE to this peer. The host encodes it with the
    /// peer's negotiated 4-octet-AS setting.
    Announce(PeerId, UpdateMsg),
    /// The best route for a prefix changed (`None` = now unreachable),
    /// and why the new one won. The host's data plane should update its
    /// FIB.
    BestRouteChanged(Ipv4Prefix, Option<LocRibEntry>, Selection),
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
    /// prefix where there was a deep clone.
    last_export: Option<(Arc<Route>, Arc<Route>)>,
    /// Adj-RIB-Out changes not yet emitted; empty between calls.
    staged: Staged,
}

/// Adj-RIB-Out changes toward one peer since the last
/// [`Pipeline::flush_staged`]. Every flush point sits where a prefix
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

/// The one prefix-keyed store. The entry sits inline in the trie node
/// (measured against a boxed entry in EXPERIMENTS.md, "Prefix-major
/// classic core").
type Table = PrefixTrie<Entry>;

/// The sans-IO routing core of a BGP speaker.
pub struct RoutingCore {
    /// All route state: one entry per prefix holding the routes
    /// received and sent per peer, the originated route and the
    /// installed best.
    table: Table,
    /// Everything not keyed by prefix. A struct of its own so that the
    /// pipeline can hold one table entry and `&mut` the rest at once.
    pipe: Pipeline,
}

/// The core minus its table: identity, peers and counters, and the
/// pipeline steps as methods on one [`Entry`].
struct Pipeline {
    asn: u32,
    router_id: Ipv4Addr,
    peers: BTreeMap<PeerId, PeerEntry>,
    /// Entries with an installed best: `loc_rib().len()` in O(1).
    installed: usize,
    stats: Counters,
    /// The decision process's input, reused from call to call.
    scratch: Vec<Candidate>,
}

#[derive(Default)]
struct Counters {
    /// Exports answered from a peer's `last_export` / built afresh.
    exports_shared: u64,
    exports_computed: u64,
    /// Exports dropped because their attribute block fills a frame.
    exports_oversize: u64,
    /// UPDATEs emitted, and the NLRI and withdrawn prefixes in them.
    updates_out: u64,
    nlri_out: u64,
    withdrawn_out: u64,
}

/// Read view of the Loc-RIB: the installed best of every prefix.
#[derive(Clone, Copy)]
pub struct LocRibView<'a>(&'a RoutingCore);

impl<'a> LocRibView<'a> {
    /// Number of installed routes.
    pub fn len(&self) -> usize {
        self.0.pipe.installed
    }

    /// True when no route is installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The installed best for `prefix`.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&'a LocRibEntry> {
        self.0.table.get(prefix)?.best.as_ref()
    }

    /// Every installed route, in ascending prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a Ipv4Prefix, &'a LocRibEntry)> + 'a {
        self.0.table.iter().filter_map(|(p, e)| Some((p, e.best.as_ref()?)))
    }

    /// Arena bytes of the one per-prefix table (which the Adj-RIBs
    /// share: [`AdjRibInView::memory_bytes`] adds only the slot heap).
    pub fn memory_bytes(&self) -> usize {
        self.0.table.memory_bytes()
    }
}

/// Read view of the Adj-RIB-In: the loop-free routes each peer sent.
#[derive(Clone, Copy)]
pub struct AdjRibInView<'a>(&'a RoutingCore);

impl<'a> AdjRibInView<'a> {
    /// Every `(peer, route)` stored for `prefix`, ascending by peer.
    pub fn candidates(
        &self,
        prefix: &Ipv4Prefix,
    ) -> impl Iterator<Item = (PeerId, &'a Arc<Route>)> + 'a {
        self.0.table.get(prefix).into_iter().flat_map(|e| e.slots.candidates())
    }

    /// True when no peer's route is stored.
    pub fn is_empty(&self) -> bool {
        self.0.table.values().all(|e| e.slots.candidates().next().is_none())
    }

    /// Heap bytes of the per-prefix slot vectors (Adj-RIB-In and
    /// Adj-RIB-Out together). The trie arena the entries sit in is
    /// [`LocRibView::memory_bytes`]; the sum counts the table once.
    pub fn memory_bytes(&self) -> usize {
        self.0.table.values().map(|e| e.slots.heap_bytes()).sum()
    }
}

impl RoutingCore {
    /// A routing core for AS `asn` with the given router ID.
    pub fn new(asn: u32, router_id: Ipv4Addr) -> Self {
        RoutingCore {
            table: Table::new(),
            pipe: Pipeline {
                asn,
                router_id,
                peers: BTreeMap::new(),
                installed: 0,
                stats: Counters::default(),
                scratch: Vec::new(),
            },
        }
    }

    /// Exports that reused the route already built for the same
    /// installed route and peer — every NLRI after the first of an
    /// attribute block.
    pub fn exports_shared(&self) -> u64 {
        self.pipe.stats.exports_shared
    }

    /// Exports that built a new route: the first of an attribute block
    /// toward an eBGP peer. (An iBGP export forwards the installed route
    /// itself and counts as neither.)
    pub fn exports_computed(&self) -> u64 {
        self.pipe.stats.exports_computed
    }

    /// Exports not sent because the attribute block left no room for
    /// one NLRI in a 4096-byte frame; the peer was sent a withdrawal.
    pub fn exports_oversize(&self) -> u64 {
        self.pipe.stats.exports_oversize
    }

    /// UPDATEs handed to the host so far.
    pub fn updates_out(&self) -> u64 {
        self.pipe.stats.updates_out
    }

    /// NLRI prefixes in those UPDATEs.
    pub fn nlri_out(&self) -> u64 {
        self.pipe.stats.nlri_out
    }

    /// Withdrawn prefixes in those UPDATEs.
    pub fn withdrawn_out(&self) -> u64 {
        self.pipe.stats.withdrawn_out
    }

    /// Our AS number.
    pub fn asn(&self) -> u32 {
        self.pipe.asn
    }

    /// Our router ID.
    pub fn router_id(&self) -> Ipv4Addr {
        self.pipe.router_id
    }

    /// Register a neighbor. Panics if the peer ID is already used.
    pub fn add_peer(&mut self, id: PeerId, cfg: NeighborConfig) {
        let entry = PeerEntry { cfg, summary: None, last_export: None, staged: Staged::default() };
        assert!(self.pipe.peers.insert(id, entry).is_none(), "duplicate peer {id}");
    }

    /// The neighbor configuration for a peer.
    pub fn peer_cfg(&self, id: PeerId) -> Option<&NeighborConfig> {
        self.pipe.peers.get(&id).map(|p| &p.cfg)
    }

    /// True while the session with `id` is up (between
    /// [`peer_up`](Self::peer_up) and [`peer_down`](Self::peer_down)).
    pub fn is_established(&self, id: PeerId) -> bool {
        self.summary(id).is_some()
    }

    /// The session summary recorded at [`peer_up`](Self::peer_up).
    pub fn summary(&self, id: PeerId) -> Option<SessionSummary> {
        self.pipe.peers.get(&id).and_then(|p| p.summary)
    }

    /// The session with `id` reached Established: record the negotiated
    /// summary and compute the initial table transfer — every installed
    /// route in ascending prefix order, prefixes whose exported routes
    /// are identical grouped (first-seen order, so the wire bytes are
    /// deterministic) into one multi-NLRI UPDATE run per group.
    pub fn peer_up(&mut self, id: PeerId, summary: SessionSummary) -> Vec<RibOp> {
        let Self { table, pipe } = self;
        let mut out = Vec::new();
        // Out of the map for the walk, so that each route's source peer
        // can be looked up beside it.
        let Some(mut peer) = pipe.peers.remove(&id) else { return out };
        peer.summary = Some(summary);
        let mut groups: Vec<(Arc<Route>, Vec<Ipv4Prefix>)> = Vec::new();
        // Each group's position in `groups`, by route value: a table can
        // hold as many distinct attribute blocks as prefixes.
        let mut group_of: HashMap<Arc<Route>, usize> = HashMap::new();
        table.for_each_mut(|prefix, entry| {
            let Some(best) = &entry.best else { return };
            let src_ibgp = pipe.source_is_ibgp(best.source);
            let Some(route) = peer.export(id, best, src_ibgp, pipe.asn, &mut pipe.stats) else {
                return;
            };
            if !entry.slots.advertise(id, &route) {
                return;
            }
            match group_of.entry(route) {
                hash_map::Entry::Occupied(group) => groups[*group.get()].1.push(*prefix),
                hash_map::Entry::Vacant(slot) => {
                    groups.push((Arc::clone(slot.key()), vec![*prefix]));
                    slot.insert(groups.len() - 1);
                }
            }
        });
        peer.staged.runs = groups;
        pipe.peers.insert(id, peer);
        pipe.flush_staged(table, &mut out);
        out
    }

    /// The session with `id` went down: flush its RIB state and
    /// re-decide every prefix it contributed, in ascending prefix order.
    pub fn peer_down(&mut self, _now: Millis, id: PeerId) -> Vec<RibOp> {
        let Self { table, pipe } = self;
        let mut out = Vec::new();
        let Some(peer) = pipe.peers.get_mut(&id) else { return out };
        peer.summary = None;
        peer.last_export = None;
        let mut idle = Vec::new();
        table.for_each_mut(|prefix, entry| {
            entry.slots.withdraw(id);
            if entry.slots.unreceive(id).is_some() {
                pipe.redecide(entry, *prefix, &mut out);
            }
            if entry.is_idle() {
                idle.push(*prefix);
            }
        });
        for prefix in idle {
            table.remove(&prefix);
        }
        pipe.flush_staged(table, &mut out);
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
        _now: Millis,
        id: PeerId,
        update: UpdateMsg,
    ) -> (Vec<RibOp>, Option<WireError>) {
        let Self { table, pipe } = self;
        let mut out = Vec::new();
        for prefix in &update.withdrawn {
            pipe.unreceive(table, id, *prefix, &mut out);
        }
        // Flushed between the two sections: a prefix both withdrawn and
        // announced by this UPDATE must end announced at every peer, and
        // within one flush withdrawals precede announcements.
        pipe.flush_staged(table, &mut out);
        if update.nlri.is_empty() {
            return (out, None);
        }
        // Wire validation already guarantees the mandatory attributes;
        // a block built in process may still lack one, which is a
        // session-level error naming the attribute.
        let mut route = match Route::from_attrs(&update.attributes) {
            Ok(route) => route,
            Err(err) => return (out, Some(err)),
        };
        route.bgp.import(!pipe.peers[&id].cfg.is_ibgp());
        // Receiver-side loop detection (RFC 4271 §9.1.2): a path carrying
        // our own AS is invisible to the decision process, and implicitly
        // withdraws whatever the peer had advertised for each prefix.
        if route.as_path.contains(pipe.asn) {
            for prefix in &update.nlri {
                pipe.unreceive(table, id, *prefix, &mut out);
            }
        } else {
            // One attribute block per UPDATE: every NLRI shares this
            // interned route.
            let route = Arc::new(route);
            for prefix in &update.nlri {
                // The one table walk of an announce: everything below
                // runs on this entry.
                let entry = table.get_or_insert_with(*prefix, Entry::default);
                entry.slots.receive(id, Arc::clone(&route));
                pipe.redecide(entry, *prefix, &mut out);
            }
        }
        pipe.flush_staged(table, &mut out);
        (out, None)
    }

    /// Originate a prefix locally and propagate it.
    pub fn originate(&mut self, _now: Millis, prefix: Ipv4Prefix) -> Vec<RibOp> {
        let Self { table, pipe } = self;
        let mut out = Vec::new();
        let entry = table.get_or_insert_with(prefix, Entry::default);
        entry.originated = Some(Arc::new(Route::originated(pipe.router_id)));
        pipe.redecide(entry, prefix, &mut out);
        pipe.flush_staged(table, &mut out);
        out
    }

    /// Stop originating a prefix.
    pub fn withdraw_origin(&mut self, _now: Millis, prefix: Ipv4Prefix) -> Vec<RibOp> {
        let Self { table, pipe } = self;
        let mut out = Vec::new();
        pipe.on_existing(table, prefix, |pipe, entry| {
            if entry.originated.take().is_some() {
                pipe.redecide(entry, prefix, &mut out);
            }
        });
        pipe.flush_staged(table, &mut out);
        out
    }

    /// Read access to the Loc-RIB.
    pub fn loc_rib(&self) -> LocRibView<'_> {
        LocRibView(self)
    }

    /// Read access to the Adj-RIB-In.
    pub fn adj_rib_in(&self) -> AdjRibInView<'_> {
        AdjRibInView(self)
    }

    /// Prefixes anything is known about (received, originated,
    /// installed or sent).
    pub fn prefixes(&self) -> usize {
        self.table.len()
    }

    /// Resident bytes of the whole table: trie arena plus slot vectors.
    pub fn rib_bytes(&self) -> usize {
        self.loc_rib().memory_bytes() + self.adj_rib_in().memory_bytes()
    }
}

impl PeerEntry {
    /// The route to advertise to this peer (`id`) now that `best` is
    /// installed, or `None` to withdraw/suppress. `src_ibgp`: `best` was
    /// learned over iBGP.
    fn export(
        &mut self,
        id: PeerId,
        best: &LocRibEntry,
        src_ibgp: bool,
        asn: u32,
        stats: &mut Counters,
    ) -> Option<Arc<Route>> {
        // Split horizon: never send a route back to its source. No iBGP
        // reflection: iBGP-learned routes do not go to other iBGP peers
        // (we are not a route reflector).
        if best.source == RouteSource::Peer(id) || (src_ibgp && self.cfg.is_ibgp()) {
            return None;
        }
        // iBGP forwards the route unmodified: the interned Loc-RIB route
        // is shared as-is.
        if self.cfg.is_ibgp() {
            return Some(Arc::clone(&best.route));
        }
        if let Some((installed, exported)) = &self.last_export {
            if Arc::ptr_eq(installed, &best.route) {
                stats.exports_shared += 1;
                return Some(Arc::clone(exported));
            }
        }
        stats.exports_computed += 1;
        let exported = Arc::new(best.route.for_ebgp_export(asn, self.cfg.local_addr));
        self.last_export = Some((Arc::clone(&best.route), Arc::clone(&exported)));
        Some(exported)
    }
}

impl Pipeline {
    /// Was a route from `source` learned over iBGP? (`peer_up` asks with
    /// the dumped-to peer out of the map; split horizon answers for it.)
    fn source_is_ibgp(&self, source: RouteSource) -> bool {
        match source {
            RouteSource::Peer(src) => self.peers.get(&src).is_some_and(|p| p.cfg.is_ibgp()),
            RouteSource::Local => false,
        }
    }

    /// Run `f` on `prefix`'s entry, if there is one, and reclaim the
    /// entry if that left it idle: a withdrawal's two walks.
    fn on_existing(
        &mut self,
        table: &mut Table,
        prefix: Ipv4Prefix,
        f: impl FnOnce(&mut Self, &mut Entry),
    ) {
        let Some(entry) = table.get_mut(&prefix) else { return };
        f(self, entry);
        if entry.is_idle() {
            table.remove(&prefix);
        }
    }

    /// `id` no longer offers a route for `prefix` (withdrawn or looped).
    fn unreceive(
        &mut self,
        table: &mut Table,
        id: PeerId,
        prefix: Ipv4Prefix,
        out: &mut Vec<RibOp>,
    ) {
        self.on_existing(table, prefix, |pipe, entry| {
            if entry.slots.unreceive(id).is_some() {
                pipe.redecide(entry, prefix, out);
            }
        });
    }

    /// Re-run the decision process for one prefix and, if the best
    /// changed, install it and stage what every established peer
    /// should now see (export, diff against Adj-RIB-Out), in ascending
    /// `PeerId`. Always a scan of every candidate: RFC 4271's
    /// same-neighbour-AS MED rule makes the comparison intransitive
    /// (`tests/classic_decision.rs` closes the three-route cycle), so
    /// "loses to the installed best" proves nothing about the next
    /// winner.
    fn redecide(&mut self, entry: &mut Entry, prefix: Ipv4Prefix, out: &mut Vec<RibOp>) {
        let Some((new_best, selection)) = self.select_best(entry) else { return };
        self.installed += usize::from(new_best.is_some());
        self.installed -= usize::from(entry.best.is_some());
        entry.best = new_best.clone();
        out.push(RibOp::BestRouteChanged(prefix, new_best, selection));
        let src_ibgp = entry.best.as_ref().is_some_and(|b| self.source_is_ibgp(b.source));
        for (&id, peer) in self.peers.iter_mut().filter(|(_, p)| p.summary.is_some()) {
            let export = entry
                .best
                .as_ref()
                .and_then(|b| peer.export(id, b, src_ibgp, self.asn, &mut self.stats));
            let changed = match &export {
                Some(route) => entry.slots.advertise(id, route),
                None => entry.slots.withdraw(id),
            };
            if !changed {
                continue;
            }
            let staged = &mut peer.staged;
            match (export, staged.runs.last_mut()) {
                (None, _) => staged.withdrawn.push(prefix),
                (Some(route), Some((run, members)))
                    if Arc::ptr_eq(run, &route) || **run == *route =>
                {
                    members.push(prefix)
                }
                (Some(route), _) => staged.runs.push((route, vec![prefix])),
            }
        }
    }

    /// The decision process over one entry's candidates. `None` when it
    /// selects what is installed already; otherwise the new best, why it
    /// won and against how many.
    fn select_best(&mut self, entry: &Entry) -> Option<(Option<LocRibEntry>, Selection)> {
        let candidates = &mut self.scratch;
        candidates.clear();
        if entry.originated.is_some() {
            candidates.push(Candidate::LOCAL);
        }
        for (peer_id, route) in entry.slots.candidates() {
            let peer = &self.peers[&peer_id];
            candidates.push(Candidate {
                local: false,
                local_pref: route.effective_local_pref(),
                hops: route.as_path.hop_count(),
                origin: route.origin,
                med: route.bgp.med.unwrap_or(0),
                // RFC 4271 §9.1.2.2(c): the neighbouring AS is the
                // path's, not the relaying peer's (over iBGP, our own).
                neighbor_as: route.as_path.first_as().unwrap_or(peer.cfg.peer_as),
                ebgp: !peer.cfg.is_ibgp(),
                router_id: peer.summary.map_or(Ipv4Addr(u32::MAX), |s| s.peer_id),
                peer: peer_id.0,
            });
        }
        let winner = decision::best(candidates);
        // The candidates are values; fetch the winner's interned route
        // again by its source, so it is kept by refcount bump.
        let new_best = winner.map(|i| {
            let (route, source) = match candidates[i] {
                Candidate { local: true, .. } => (entry.originated.as_ref(), RouteSource::Local),
                Candidate { peer, .. } => {
                    (entry.slots.received(PeerId(peer)), RouteSource::Peer(PeerId(peer)))
                }
            };
            let route = Arc::clone(route.expect("winner was enumerated from the entry"));
            LocRibEntry { route, source }
        });
        // Only a changed best is announced, so only it is explained.
        (entry.best != new_best).then(|| {
            let why = match winner {
                Some(i) => decision::explain(candidates, i),
                None => SelectionReason::Unreachable,
            };
            (new_best, Selection { why, candidates: candidates.len() as u32 })
        })
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
    fn flush_staged(&mut self, table: &mut Table, out: &mut Vec<RibOp>) {
        let stats = &mut self.stats;
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
                        stats.nlri_out += members.len() as u64;
                        out.extend(updates.into_iter().map(|u| RibOp::Announce(id, u)));
                    }
                    None => {
                        stats.exports_oversize += members.len() as u64;
                        for prefix in &members {
                            // Installed (it was just exported), so the
                            // entry exists and stays.
                            if let Some(entry) = table.get_mut(prefix) {
                                entry.slots.withdraw(id);
                            }
                        }
                        staged.withdrawn.extend(members);
                    }
                }
            }
            stats.withdrawn_out += staged.withdrawn.len() as u64;
            let withdrawals = UpdateMsg::pack_withdrawals(&staged.withdrawn);
            staged.withdrawn.clear();
            out.splice(first..first, withdrawals.into_iter().map(|u| RibOp::Announce(id, u)));
            stats.updates_out += (out.len() - first) as u64;
        }
    }
}
