//! The D-BGP speaker: the full IA-processing pipeline of the paper's
//! Figure 5, steps 1–7.
//!
//! One speaker stands for one AS (the paper's centralized-control model;
//! distributed per-router control composes identically because the
//! pipeline is per-advertisement). The speaker is sans-IO: feed it IAs
//! and withdrawals from neighbors, and it returns the IAs/withdrawals to
//! send plus data-plane notifications.
//!
//! Pipeline walk-through (numbers match Figure 5):
//!
//! 1. **Global import filters** — loop detection over the mixed
//!    AS/island path vector, operator protocol blacklist.
//! 2. The IA is stored in the **IA DB** and handed to the **protocol
//!    extractor**, which determines the active protocol for the prefix.
//! 3. The active **decision module**'s import filter screens candidates.
//! 4. The module's path-selection algorithm picks the best path.
//! 5. The module's export filter (and every other resident module's) will
//!    run when the new IA is built.
//! 6. The **IA factory** builds the outgoing IA from the stored incoming
//!    one — pass-through by construction.
//! 7. **Global export filters** apply island declaration/abstraction and
//!    stripping, and the IA goes to each neighbor.

use crate::factory::{self, FactoryContext};
use crate::filters::{self, FilterConfig, IslandConfig, RejectReason};
use crate::iadb::IaDb;
use crate::module::{BgpDecision, CandidateIa, DecisionModule, ImportContext};
use crate::neighbor::{DbgpNeighbor, NeighborId, PeerClass};
use dbgp_rib::{recycle, AdjRib, PrefixTrie};
use dbgp_telemetry::{SelectionReason, SinkHandle, TraceKind};
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, ProtocolId};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Speaker-level configuration.
#[derive(Debug, Clone)]
pub struct DbgpConfig {
    /// Our AS number.
    pub asn: u32,
    /// Island membership, if any.
    pub island: Option<IslandConfig>,
    /// Global filter settings.
    pub filters: FilterConfig,
    /// The default active protocol (per §3.3 only one protocol selects
    /// paths for a given address range).
    pub active: ProtocolId,
    /// Per-prefix-range overrides of the active protocol; the
    /// longest-matching override wins.
    pub active_overrides: Vec<(Ipv4Prefix, ProtocolId)>,
}

impl DbgpConfig {
    /// A plain BGP-speaking D-BGP AS (the default state of a gulf AS).
    pub fn gulf(asn: u32) -> Self {
        DbgpConfig {
            asn,
            island: None,
            filters: FilterConfig::default(),
            active: ProtocolId::BGP,
            active_overrides: Vec::new(),
        }
    }

    /// An island member running `active` as its selection protocol.
    pub fn island_member(asn: u32, island: IslandConfig, active: ProtocolId) -> Self {
        DbgpConfig {
            asn,
            island: Some(island),
            filters: FilterConfig::default(),
            active,
            active_overrides: Vec::new(),
        }
    }
}

/// The best path currently installed for a prefix.
#[derive(Debug, Clone, Eq)]
pub struct Chosen {
    /// The neighbor the winning IA came from; `None` for locally
    /// originated prefixes.
    pub neighbor: Option<NeighborId>,
    /// The winning *incoming* IA (our own AS not yet prepended), shared
    /// with the IA DB entry it was selected from.
    pub ia: Arc<Ia>,
}

impl PartialEq for Chosen {
    fn eq(&self, other: &Self) -> bool {
        self.neighbor == other.neighbor && (Arc::ptr_eq(&self.ia, &other.ia) || self.ia == other.ia)
    }
}

/// Outputs of the speaker, to be executed by the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbgpOutput {
    /// Advertise this IA to the neighbor. The `Arc` is shared across the
    /// fan-out (and with the Adj-RIB-Out), so hosts can key encode
    /// caches on pointer identity.
    SendIa(NeighborId, Arc<Ia>),
    /// Withdraw this prefix from the neighbor.
    SendWithdraw(NeighborId, Ipv4Prefix),
    /// The locally installed best path changed (`None` = unreachable);
    /// the data plane should be updated.
    BestChanged(Ipv4Prefix, Option<Chosen>),
    /// An incoming IA was rejected by the global import filter.
    Rejected(NeighborId, Ipv4Prefix, RejectReason),
}

/// A D-BGP speaker for one AS.
pub struct DbgpSpeaker {
    cfg: DbgpConfig,
    neighbors: BTreeMap<NeighborId, DbgpNeighbor>,
    modules: BTreeMap<ProtocolId, Box<dyn DecisionModule>>,
    iadb: IaDb,
    loc: PrefixTrie<Chosen>,
    originated: PrefixTrie<Arc<Ia>>,
    adj_out: AdjRib<NeighborId, Ia>,
    /// Built-outgoing-IA cache, used only when every resident module's
    /// export is uniform: one entry per (prefix, neighbor-in-island,
    /// speaks-dbgp) class, valid while `chosen` is still the installed
    /// best path (pointer identity; holding the `Arc` pins the
    /// allocation so a match can never be a stale reuse).
    out_cache: BTreeMap<(Ipv4Prefix, bool, bool), OutCacheEntry>,
    /// Count of IAs processed (for the stress benchmarks).
    processed: u64,
    /// Telemetry sink; the default no-op handle costs one branch per
    /// instrumentation site.
    sink: SinkHandle,
    /// Host-assigned label (node index) stamped on emitted events.
    node_label: u32,
    /// Master switch for the incremental decision fast path (on by
    /// default; tests flip it off to compare against full scans).
    incremental: bool,
    /// Full candidate scans skipped by the incremental fast path.
    fast_path_hits: u64,
    /// The `selection_epoch()` the active module reported at each
    /// prefix's last full scan. Only nonzero epochs are stored, so
    /// stateless modules (epoch constant 0) never touch the map and the
    /// fast-path check degenerates to an `is_empty()` test.
    decision_epochs: BTreeMap<Ipv4Prefix, u64>,
    /// Reusable candidate-view buffer for `select` — always empty
    /// between calls; the `'static` parameter is a placeholder
    /// [`dbgp_rib::recycle`] swaps for the borrow while the (empty) vec
    /// is checked out.
    scratch: Vec<CandidateIa<'static>>,
    /// Cached conjunction of every resident module's
    /// `export_is_uniform()`, refreshed on `register_module`. When true,
    /// an unchanged best path implies every rebuilt export is
    /// byte-identical, so the fast path may skip the fan-out entirely.
    all_uniform: bool,
}

/// Render an IA's path vector for telemetry ("near far" order, space
/// separated; empty string for an origin IA).
pub fn render_path(ia: &Ia) -> String {
    let parts: Vec<String> = ia.path_vector.iter().map(|e| e.to_string()).collect();
    parts.join(" ")
}

/// One cached factory product.
struct OutCacheEntry {
    /// The chosen incoming IA this was built from.
    chosen: Arc<Ia>,
    /// The built outgoing IA (class stripping already applied).
    built: Arc<Ia>,
}

impl DbgpSpeaker {
    /// Create a speaker with the baseline BGP decision module
    /// pre-registered.
    pub fn new(cfg: DbgpConfig) -> Self {
        let mut speaker = DbgpSpeaker {
            cfg,
            neighbors: BTreeMap::new(),
            modules: BTreeMap::new(),
            iadb: IaDb::new(),
            loc: PrefixTrie::new(),
            originated: PrefixTrie::new(),
            adj_out: AdjRib::new(),
            out_cache: BTreeMap::new(),
            processed: 0,
            sink: SinkHandle::none(),
            node_label: 0,
            incremental: true,
            fast_path_hits: 0,
            decision_epochs: BTreeMap::new(),
            scratch: Vec::new(),
            all_uniform: true,
        };
        speaker.register_module(Box::new(BgpDecision::new()));
        speaker
    }

    /// Our AS number.
    pub fn asn(&self) -> u32 {
        self.cfg.asn
    }

    /// Attach a telemetry sink. `node_label` (typically the host's node
    /// index) is stamped on every event this speaker emits. Decision and
    /// loop-drop events chain to the sink's ambient parent, which the
    /// host points at the triggering decode/origination event.
    pub fn set_telemetry(&mut self, sink: SinkHandle, node_label: u32) {
        self.sink = sink;
        self.node_label = node_label;
    }

    /// Our configuration.
    pub fn config(&self) -> &DbgpConfig {
        &self.cfg
    }

    /// Register a protocol's decision module (replacing any previous one
    /// for the same protocol).
    pub fn register_module(&mut self, module: Box<dyn DecisionModule>) {
        self.modules.insert(module.protocol(), module);
        // A new module may change what exports look like.
        self.out_cache.clear();
        self.all_uniform = self.modules.values().all(|m| m.export_is_uniform());
        // Epochs recorded under the previous module set no longer prove
        // anything: poison every installed prefix so the next arrival
        // takes a full scan and re-records. (`u64::MAX` is reserved —
        // `selection_epoch` must never return it — so the mismatch is
        // guaranteed even against a stateless replacement's epoch 0.)
        for prefix in self.loc.keys() {
            self.decision_epochs.insert(*prefix, u64::MAX);
        }
    }

    /// Enable/disable the incremental decision fast path (enabled by
    /// default). With it off every arrival takes the full candidate
    /// scan, which the equivalence tests use as the reference.
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
    }

    /// Full candidate scans the incremental fast path has avoided.
    pub fn full_scans_avoided(&self) -> u64 {
        self.fast_path_hits
    }

    /// Mutable access to a registered module (for out-of-band delivery
    /// and inspection).
    pub fn module_mut(&mut self, protocol: ProtocolId) -> Option<&mut (dyn DecisionModule + '_)> {
        self.modules.get_mut(&protocol).map(|b| b.as_mut() as &mut dyn DecisionModule)
    }

    /// Add a neighbor.
    pub fn add_neighbor(&mut self, id: NeighborId, neighbor: DbgpNeighbor) -> Vec<DbgpOutput> {
        self.neighbors.insert(id, neighbor);
        // Initial table transfer: the new neighbor gets our whole view.
        let prefixes: Vec<Ipv4Prefix> = self.loc.keys().copied().collect();
        let mut out = Vec::new();
        self.with_neighbors(|this, neighbors| {
            let neighbor = &neighbors[&id];
            for prefix in prefixes {
                this.propagate_one(neighbors, id, neighbor, prefix, &mut out);
            }
        });
        out
    }

    /// Remove a neighbor (session loss): flush its IAs and re-decide.
    pub fn neighbor_down(&mut self, id: NeighborId) -> Vec<DbgpOutput> {
        self.neighbors.remove(&id);
        self.adj_out.clear_peer(id);
        let mut out = Vec::new();
        for prefix in self.iadb.drop_peer(id) {
            self.redecide(prefix, &mut out);
        }
        out
    }

    /// The active protocol for a prefix (longest matching override, else
    /// the default).
    pub fn active_protocol(&self, prefix: &Ipv4Prefix) -> ProtocolId {
        self.cfg
            .active_overrides
            .iter()
            .filter(|(range, _)| range.covers(prefix))
            .max_by_key(|(range, _)| range.len())
            .map(|(_, p)| *p)
            .unwrap_or(self.cfg.active)
    }

    /// Switch the default active protocol and re-run selection everywhere
    /// (an island "deploying" a new protocol).
    pub fn set_active_protocol(&mut self, protocol: ProtocolId) -> Vec<DbgpOutput> {
        self.cfg.active = protocol;
        self.out_cache.clear();
        let mut out = Vec::new();
        let mut prefixes = self.iadb.prefixes();
        prefixes.extend(self.originated.keys().copied());
        prefixes.sort();
        prefixes.dedup();
        for prefix in prefixes {
            self.redecide(prefix, &mut out);
        }
        out
    }

    /// Originate a prefix. Every resident module gets to decorate the
    /// origin IA (attach portals, pathlets, within-island paths,
    /// attestations, ...).
    pub fn originate(&mut self, prefix: Ipv4Prefix, next_hop: Ipv4Addr) -> Vec<DbgpOutput> {
        let mut ia = Ia::originate(prefix, next_hop);
        let local_as = self.cfg.asn;
        for module in self.modules.values_mut() {
            module.decorate_origin(&mut ia, local_as);
        }
        self.originated.insert(prefix, Arc::new(ia));
        let mut out = Vec::new();
        self.redecide(prefix, &mut out);
        out
    }

    /// Originate a fully custom IA (tests and replacement protocols use
    /// this to control descriptors precisely).
    pub fn originate_ia(&mut self, ia: Ia) -> Vec<DbgpOutput> {
        let prefix = ia.prefix;
        self.originated.insert(prefix, Arc::new(ia));
        let mut out = Vec::new();
        self.redecide(prefix, &mut out);
        out
    }

    /// Stop originating a prefix.
    pub fn withdraw_origin(&mut self, prefix: Ipv4Prefix) -> Vec<DbgpOutput> {
        let mut out = Vec::new();
        if self.originated.remove(&prefix).is_some() {
            self.redecide(prefix, &mut out);
        }
        out
    }

    /// Process one received IA — pipeline steps 1–7.
    pub fn receive_ia(&mut self, from: NeighborId, mut ia: Ia) -> Vec<DbgpOutput> {
        self.processed += 1;
        let mut out = Vec::new();
        if !self.neighbors.contains_key(&from) {
            return out;
        }
        // (1) Global import filters.
        if let Err(reason) =
            filters::global_import(&self.cfg.filters, self.cfg.asn, self.cfg.island, &mut ia)
        {
            if self.sink.enabled() {
                let from_as = self.neighbors.get(&from).map_or(0, |n| n.asn);
                self.sink.record_now(
                    self.node_label,
                    self.sink.ambient_parent(),
                    TraceKind::LoopDrop {
                        prefix: ia.prefix,
                        from_as,
                        reason: format!("{reason:?}"),
                    },
                );
            }
            out.push(DbgpOutput::Rejected(from, ia.prefix, reason));
            // A looped IA implicitly withdraws whatever this neighbor
            // previously advertised for the prefix.
            if self.iadb.remove(from, &ia.prefix).is_some() {
                self.redecide(ia.prefix, &mut out);
            }
            return out;
        }
        let prefix = ia.prefix;
        // Incremental fast path: a candidate provably strictly worse
        // than the installed best (from a different neighbor) cannot
        // change the selection — store it and skip the full scan.
        if self.incremental && self.arrival_cannot_win(from, &ia) {
            self.fast_path_hits += 1;
            self.iadb.insert(from, ia);
            // With every export uniform, an unchanged best implies every
            // rebuilt outgoing IA is byte-identical and the Adj-RIB-Out
            // diff would suppress the whole fan-out — skip it. Otherwise
            // a new candidate can still alter what resident modules
            // export (e.g. Wiser's bookkeeping), so re-evaluate.
            if !self.all_uniform {
                self.propagate_all(prefix, &mut out);
            }
            return out;
        }
        // (2) Store in the IA DB.
        self.iadb.insert(from, ia);
        // (3)-(7) Extract, decide, build, filter, send.
        let changed = self.redecide(prefix, &mut out);
        // Even when the best path is unchanged, a new candidate can
        // alter what resident modules export (e.g. R-BGP's failover
        // path, Wiser's bookkeeping), so re-evaluate exports; the
        // Adj-RIB-Out diff suppresses no-op sends, keeping the protocol
        // quiescent.
        if !changed {
            self.propagate_all(prefix, &mut out);
        }
        out
    }

    /// Process a withdrawal from a neighbor.
    pub fn receive_withdraw(&mut self, from: NeighborId, prefix: Ipv4Prefix) -> Vec<DbgpOutput> {
        let mut out = Vec::new();
        if self.iadb.remove(from, &prefix).is_some() {
            // Removing a candidate that is not the installed best leaves
            // a first-minimal selection unchanged; skip the re-scan.
            if self.incremental && self.withdrawal_cannot_matter(from, prefix) {
                self.fast_path_hits += 1;
                if !self.all_uniform {
                    self.propagate_all(prefix, &mut out);
                }
                return out;
            }
            let changed = self.redecide(prefix, &mut out);
            if !changed {
                self.propagate_all(prefix, &mut out);
            }
        }
        out
    }

    /// The installed best path for a prefix.
    pub fn best(&self, prefix: &Ipv4Prefix) -> Option<&Chosen> {
        self.loc.get(prefix)
    }

    /// Iterate the full local routing table.
    pub fn routes(&self) -> impl Iterator<Item = (&Ipv4Prefix, &Chosen)> {
        self.loc.iter()
    }

    /// Read access to the IA database.
    pub fn iadb(&self) -> &IaDb {
        &self.iadb
    }

    /// Number of IAs fed through the pipeline so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    // ----- internals ----------------------------------------------------

    /// Returns whether the installed best path changed.
    fn redecide(&mut self, prefix: Ipv4Prefix, out: &mut Vec<DbgpOutput>) -> bool {
        let (new_chosen, reason, candidates) = self.select(prefix);
        let changed = self.loc.get(&prefix) != new_chosen.as_ref();
        if !changed {
            return false;
        }
        match new_chosen.clone() {
            Some(chosen) => {
                self.loc.insert(prefix, chosen);
            }
            None => {
                self.loc.remove(&prefix);
            }
        }
        if self.sink.enabled() {
            let (selected, neighbor_as, path, hops) = match &new_chosen {
                Some(c) => (
                    true,
                    c.neighbor.and_then(|n| self.neighbors.get(&n)).map(|n| n.asn),
                    render_path(&c.ia),
                    c.ia.hop_count() as u32,
                ),
                None => (false, None, String::new(), 0),
            };
            self.sink.record_now(
                self.node_label,
                self.sink.ambient_parent(),
                TraceKind::Decision {
                    prefix,
                    selected,
                    neighbor_as,
                    path,
                    hops,
                    candidates,
                    why: reason,
                },
            );
        }
        out.push(DbgpOutput::BestChanged(prefix, new_chosen));
        self.propagate_all(prefix, out);
        true
    }

    /// Steps 5–7 for every neighbor, in neighbor-id order.
    fn propagate_all(&mut self, prefix: Ipv4Prefix, out: &mut Vec<DbgpOutput>) {
        self.with_neighbors(|this, neighbors| {
            for (&id, neighbor) in neighbors {
                this.propagate_one(neighbors, id, neighbor, prefix, out);
            }
        });
    }

    /// Lend the neighbor map to `f` beside `&mut self`, so a fan-out can
    /// walk it while the speaker's other tables change — no copy of the
    /// ids, no second lookup per neighbor. The map is moved out for the
    /// call (three words; an empty `BTreeMap` allocates nothing) and put
    /// back after, so `f` must read neighbors through its argument:
    /// `self.neighbors` is empty while it runs.
    fn with_neighbors(&mut self, f: impl FnOnce(&mut Self, &BTreeMap<NeighborId, DbgpNeighbor>)) {
        let neighbors = std::mem::take(&mut self.neighbors);
        f(self, &neighbors);
        self.neighbors = neighbors;
    }

    /// The active module for a prefix, resolved with the same baseline
    /// fallback `select` uses.
    fn module_key(&self, prefix: &Ipv4Prefix) -> ProtocolId {
        let active = self.active_protocol(prefix);
        if self.modules.contains_key(&active) {
            active
        } else {
            ProtocolId::BGP
        }
    }

    /// Fast-path test for an arriving IA: true when storing it provably
    /// cannot change the installed best path, so the full candidate
    /// scan (and export rebuild, when all exports are uniform) can be
    /// skipped. Sound because:
    ///
    /// - a locally originated prefix short-circuits `select` before any
    ///   module runs, so no stored candidate is ever consulted;
    /// - otherwise the active module must declare `incremental_safe`
    ///   (first-minimal selection under `compare_candidates`), the
    ///   recorded `selection_epoch` must match (no key-affecting state
    ///   drift since the last full scan), the arrival must come from a
    ///   neighbor other than the best's source (a re-advertisement
    ///   replaces the incumbent itself), and the challenger must be
    ///   rejected by the module's import filter or compare strictly
    ///   worse than the incumbent — either way the minimal set, and
    ///   hence the first minimum, is unchanged.
    fn arrival_cannot_win(&mut self, from: NeighborId, ia: &Ia) -> bool {
        let prefix = ia.prefix;
        if self.originated.get(&prefix).is_some() {
            return true;
        }
        let Some(chosen) = self.loc.get(&prefix) else {
            // Nothing installed: any acceptable arrival wins.
            return false;
        };
        let Some(best_neighbor) = chosen.neighbor else {
            return false;
        };
        if best_neighbor == from {
            return false;
        }
        let Some(from_as) = self.neighbors.get(&from).map(|n| n.asn) else {
            return false;
        };
        let Some(best_as) = self.neighbors.get(&best_neighbor).map(|n| n.asn) else {
            return false;
        };
        let recorded = if self.decision_epochs.is_empty() {
            0
        } else {
            self.decision_epochs.get(&prefix).copied().unwrap_or(0)
        };
        let key = self.module_key(&prefix);
        let incumbent_ia = Arc::clone(&chosen.ia);
        let Some(module) = self.modules.get_mut(&key) else {
            return false;
        };
        if !module.incremental_safe() || module.selection_epoch() != recorded {
            return false;
        }
        // The module's import filter sees the arrival exactly as a full
        // scan would (its side effects must land either way); a rejected
        // candidate can never win.
        if !module.accept(ImportContext { neighbor: from, neighbor_as: from_as, prefix, ia }) {
            return true;
        }
        let challenger = CandidateIa { neighbor: from, neighbor_as: from_as, ia };
        let incumbent =
            CandidateIa { neighbor: best_neighbor, neighbor_as: best_as, ia: &incumbent_ia };
        module.compare_candidates(prefix, &challenger, &incumbent) == Ordering::Greater
    }

    /// Fast-path test for a withdrawal already removed from the IA DB:
    /// true when the withdrawn candidate provably was not the installed
    /// best, so removing it cannot change a first-minimal selection.
    fn withdrawal_cannot_matter(&mut self, from: NeighborId, prefix: Ipv4Prefix) -> bool {
        if self.originated.get(&prefix).is_some() {
            return true;
        }
        let Some(chosen) = self.loc.get(&prefix) else {
            // No installed best: with epoch-stable state a re-scan of
            // the (shrunken) candidate set still selects nothing, but
            // that reasoning leans on accept idempotence alone; the
            // case is rare enough to just take the full scan.
            return false;
        };
        if chosen.neighbor == Some(from) {
            return false;
        }
        let recorded = if self.decision_epochs.is_empty() {
            0
        } else {
            self.decision_epochs.get(&prefix).copied().unwrap_or(0)
        };
        let key = self.module_key(&prefix);
        let Some(module) = self.modules.get(&key) else {
            return false;
        };
        module.incremental_safe() && module.selection_epoch() == recorded
    }

    /// Steps 3–4: extract the active protocol's information and run its
    /// decision module over the candidates. Also returns why the winner
    /// won (only computed in depth while telemetry records) and how many
    /// candidates were considered.
    fn select(&mut self, prefix: Ipv4Prefix) -> (Option<Chosen>, SelectionReason, u32) {
        let explain = self.sink.enabled();
        // Locally originated prefixes always win (they are "ours").
        if let Some(ia) = self.originated.get(&prefix) {
            return (
                Some(Chosen { neighbor: None, ia: Arc::clone(ia) }),
                SelectionReason::LocalOrigin,
                1,
            );
        }
        let active = self.active_protocol(&prefix);
        // An active protocol without a registered module falls back to
        // the baseline -- matching §3.5's "switch between the baseline's
        // algorithm and the new protocol's" mitigation, and keeping a
        // misconfigured speaker connected.
        let key = if self.modules.contains_key(&active) { active } else { ProtocolId::BGP };
        if !self.modules.contains_key(&key) {
            return (None, SelectionReason::Unreachable, 0);
        }
        // Check out the reusable candidate buffer (only the capacity
        // allocation is recycled).
        let mut views: Vec<CandidateIa<'_>> = recycle(std::mem::take(&mut self.scratch));
        let module = self.modules.get_mut(&key).expect("presence checked above");
        let neighbors = &self.neighbors;
        for (n, ia) in self.iadb.candidates(&prefix) {
            let Some(asn) = neighbors.get(&n).map(|nb| nb.asn) else { continue };
            let c = CandidateIa { neighbor: n, neighbor_as: asn, ia: ia.as_ref() };
            if module.accept(ImportContext {
                neighbor: c.neighbor,
                neighbor_as: c.neighbor_as,
                prefix,
                ia: c.ia,
            }) {
                views.push(c);
            }
        }
        let count = views.len() as u32;
        let result = match module.select_best(prefix, &views) {
            Some(best) => {
                let reason = if explain {
                    module.explain_best(prefix, &views, best)
                } else {
                    SelectionReason::ModulePreference
                };
                // The winner's view borrows the IA DB entry; re-fetch the
                // stored `Arc` to intern it into `Chosen`.
                let winner = views[best];
                let arc = self
                    .iadb
                    .get(winner.neighbor, &prefix)
                    .expect("winner was enumerated from the IA DB");
                (
                    Some(Chosen { neighbor: Some(winner.neighbor), ia: Arc::clone(arc) }),
                    reason,
                    count,
                )
            }
            None => (None, SelectionReason::Unreachable, count),
        };
        // Fence the incremental fast path on the key state this scan
        // used. Stateless modules report a constant 0 and (with no
        // stateful module resident) never touch the map.
        let epoch = module.selection_epoch();
        debug_assert_ne!(epoch, u64::MAX, "u64::MAX is the reserved poison epoch");
        if epoch != 0 {
            self.decision_epochs.insert(prefix, epoch);
        } else if !self.decision_epochs.is_empty() {
            self.decision_epochs.remove(&prefix);
        }
        // Check the scratch buffer back in, empty again.
        self.scratch = recycle(views);
        result
    }

    /// Steps 5–7 for one neighbor: build (or withdraw) and send. Runs
    /// inside [`Self::with_neighbors`], hence the `neighbors` argument.
    fn propagate_one(
        &mut self,
        neighbors: &BTreeMap<NeighborId, DbgpNeighbor>,
        id: NeighborId,
        neighbor: &DbgpNeighbor,
        prefix: Ipv4Prefix,
        out: &mut Vec<DbgpOutput>,
    ) {
        // Gao-Rexford valley-free export: a route learned from a provider
        // or lateral peer never goes back "up" or "sideways". Both ends of
        // the decision must be class-annotated to participate; locally
        // originated routes (no learned-from neighbor) export everywhere.
        let mut policy_vetoed = false;
        let export = self.loc.get(&prefix).and_then(|chosen| {
            // Split horizon: never send a path back to its source.
            if chosen.neighbor == Some(id) {
                return None;
            }
            if self.cfg.filters.valley_free {
                let learned_up = chosen
                    .neighbor
                    .and_then(|src| neighbors.get(&src))
                    .and_then(|n| n.class)
                    .is_some_and(|c| c != PeerClass::Customer);
                let target_up = neighbor.class.is_some_and(|c| c != PeerClass::Customer);
                if learned_up && target_up {
                    policy_vetoed = true;
                    return None;
                }
            }
            Some(Arc::clone(&chosen.ia))
        });
        match export {
            Some(chosen_ia) => {
                let neighbor_in_island = self.cfg.island.is_some() && neighbor.same_island;
                let class = (prefix, neighbor_in_island, neighbor.speaks_dbgp);
                // With uniform exports the factory product depends only
                // on (chosen IA, neighbor class): build once per class
                // and share the Arc across the whole fan-out.
                let cacheable = self.all_uniform;
                if let Some(entry) = self.out_cache.get(&class) {
                    if cacheable && Arc::ptr_eq(&entry.chosen, &chosen_ia) {
                        let ia = Arc::clone(&entry.built);
                        self.stage_send(id, prefix, ia, out);
                        return;
                    }
                }
                let ctx = FactoryContext {
                    local_as: self.cfg.asn,
                    island: self.cfg.island,
                    filters: &self.cfg.filters,
                    neighbor: id,
                    neighbor_as: neighbor.asn,
                    neighbor_in_island,
                };
                let modules =
                    self.modules.values_mut().map(|b| b.as_mut() as &mut dyn DecisionModule);
                let mut ia = match factory::build_outgoing(&chosen_ia, ctx, modules) {
                    Ok(ia) => ia,
                    Err(_) => return,
                };
                // Transitional mode (§3.5): legacy BGP neighbors get the
                // IA with every extra field dropped.
                if !neighbor.speaks_dbgp {
                    ia.retain_protocols(&[ProtocolId::BGP]);
                    ia.memberships.clear();
                    ia.island_descriptors.clear();
                }
                let ia = Arc::new(ia);
                if cacheable {
                    self.out_cache
                        .insert(class, OutCacheEntry { chosen: chosen_ia, built: Arc::clone(&ia) });
                }
                self.stage_send(id, prefix, ia, out);
            }
            None => {
                // Nothing to export: drop this prefix's cached builds so
                // they don't pin dead IAs. A policy veto is per-neighbor
                // — the chosen IA is still exported to customers, whose
                // cached builds must survive the fan-out.
                if !policy_vetoed {
                    for in_island in [false, true] {
                        for speaks in [false, true] {
                            self.out_cache.remove(&(prefix, in_island, speaks));
                        }
                    }
                }
                if self.adj_out.withdraw(id, &prefix) {
                    out.push(DbgpOutput::SendWithdraw(id, prefix));
                }
            }
        }
    }

    /// Emit `SendIa` only when the Adj-RIB-Out diff says the outgoing IA
    /// differs from what the neighbor already has.
    fn stage_send(
        &mut self,
        id: NeighborId,
        prefix: Ipv4Prefix,
        ia: Arc<Ia>,
        out: &mut Vec<DbgpOutput>,
    ) {
        if self.adj_out.advertise(id, prefix, &ia) {
            out.push(DbgpOutput::SendIa(id, ia));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_wire::ia::dkey;
    use dbgp_wire::{IslandId, PathElem};

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn nh(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    /// A chain of D-BGP speakers: speakers[i] peers with speakers[i+1].
    /// Messages pump synchronously until quiescent.
    struct Chain {
        speakers: Vec<DbgpSpeaker>,
    }

    impl Chain {
        /// Build a chain from per-AS configs. Neighbor IDs: for speaker
        /// i, neighbor 0 is i-1 (toward head) and neighbor 1 is i+1.
        fn new(mut cfgs: Vec<DbgpConfig>, same_island_links: &[bool]) -> Chain {
            let asns: Vec<u32> = cfgs.iter().map(|c| c.asn).collect();
            let mut speakers: Vec<DbgpSpeaker> = cfgs.drain(..).map(DbgpSpeaker::new).collect();
            for i in 0..speakers.len() {
                if i > 0 {
                    let mut n = DbgpNeighbor::dbgp(asns[i - 1]);
                    n.same_island = same_island_links[i - 1];
                    speakers[i].add_neighbor(NeighborId(0), n);
                }
                if i + 1 < speakers.len() {
                    let mut n = DbgpNeighbor::dbgp(asns[i + 1]);
                    n.same_island = same_island_links[i];
                    speakers[i].add_neighbor(NeighborId(1), n);
                }
            }
            Chain { speakers }
        }

        /// Execute outputs from speaker `idx`, forwarding sends along the
        /// chain until quiescent.
        fn pump(&mut self, idx: usize, outputs: Vec<DbgpOutput>) {
            let mut work: Vec<(usize, DbgpOutput)> =
                outputs.into_iter().map(|o| (idx, o)).collect();
            while let Some((at, output)) = work.pop() {
                match output {
                    DbgpOutput::SendIa(n, ia) => {
                        let (to, from_id) = if n == NeighborId(0) {
                            (at - 1, NeighborId(1))
                        } else {
                            (at + 1, NeighborId(0))
                        };
                        let outs = self.speakers[to].receive_ia(from_id, (*ia).clone());
                        work.extend(outs.into_iter().map(|o| (to, o)));
                    }
                    DbgpOutput::SendWithdraw(n, prefix) => {
                        let (to, from_id) = if n == NeighborId(0) {
                            (at - 1, NeighborId(1))
                        } else {
                            (at + 1, NeighborId(0))
                        };
                        let outs = self.speakers[to].receive_withdraw(from_id, prefix);
                        work.extend(outs.into_iter().map(|o| (to, o)));
                    }
                    _ => {}
                }
            }
        }

        fn originate(&mut self, idx: usize, prefix: Ipv4Prefix) {
            let outs = self.speakers[idx].originate(prefix, nh(idx as u8));
            self.pump(idx, outs);
        }
    }

    fn gulf_chain(asns: &[u32]) -> Chain {
        let cfgs = asns.iter().map(|&a| DbgpConfig::gulf(a)).collect();
        Chain::new(cfgs, &vec![false; asns.len()])
    }

    #[test]
    fn ia_propagates_along_chain_with_path_growth() {
        let mut chain = gulf_chain(&[1, 2, 3, 4]);
        chain.originate(0, p("128.6.0.0/16"));
        let best = chain.speakers[3].best(&p("128.6.0.0/16")).unwrap();
        assert_eq!(
            best.ia.path_vector,
            vec![PathElem::As(3), PathElem::As(2), PathElem::As(1)],
            "AS 4 receives the path with every upstream AS prepended"
        );
    }

    #[test]
    fn foreign_descriptors_pass_through_gulf() {
        // Origin attaches a Wiser cost + SCION island descriptor; the
        // pure-BGP gulf ASes (2, 3) must pass them through to AS 4.
        let mut chain = gulf_chain(&[1, 2, 3, 4]);
        let ia = Ia::builder(p("128.6.0.0/16"), nh(0))
            .path_descriptor(
                ProtocolId::WISER,
                dkey::WISER_PATH_COST,
                100u64.to_be_bytes().to_vec(),
            )
            .island_descriptor(
                IslandId(500),
                ProtocolId::SCION,
                dkey::SCION_PATHS,
                b"br1 br2".to_vec(),
            )
            .build()
            .unwrap();
        let outs = chain.speakers[0].originate_ia(ia);
        chain.pump(0, outs);
        let best = chain.speakers[3].best(&p("128.6.0.0/16")).unwrap();
        assert!(best.ia.path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST).is_some());
        assert_eq!(best.ia.island_descriptors.len(), 1);
        assert!(best.ia.protocols_on_path().contains(&ProtocolId::SCION));
    }

    #[test]
    fn gulf_pass_through_shares_the_frame_bytes() {
        // A foreign path descriptor, island descriptor and unknown
        // record arrive in one frame; the gulf speaker reads none of
        // them, so what it sends on must point at the very same bytes.
        let mut ia = Ia::builder(p("128.6.0.0/16"), nh(0))
            .as_hop(1)
            .path_descriptor(ProtocolId(100), 1, vec![0x5a; 4096])
            .island_descriptor(IslandId(500), ProtocolId::SCION, dkey::SCION_PATHS, vec![7; 64])
            .build()
            .unwrap();
        ia.unknown_records
            .push(dbgp_wire::ia::UnknownRecord { tag: 4242, data: vec![9; 32].into() });
        let frame = ia.encode();
        let span = frame.as_ptr_range();
        let received = Ia::decode(frame.clone()).unwrap();
        let pointers = |ia: &Ia| {
            let mut ptrs: Vec<*const u8> = Vec::new();
            ptrs.extend(ia.path_descriptors.iter().map(|d| d.value.as_ptr()));
            ptrs.extend(ia.island_descriptors.iter().map(|d| d.value.as_ptr()));
            ptrs.extend(ia.unknown_records.iter().map(|r| r.data.as_ptr()));
            ptrs
        };
        let arrived = pointers(&received);
        assert_eq!(arrived.len(), 3);
        assert!(arrived.iter().all(|p| span.contains(p)), "decode copied a payload");

        let mut gulf = DbgpSpeaker::new(DbgpConfig::gulf(2));
        gulf.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));
        gulf.add_neighbor(NeighborId(1), DbgpNeighbor::dbgp(3));
        let outs = gulf.receive_ia(NeighborId(0), received);
        let sent: Vec<&Arc<Ia>> = outs
            .iter()
            .filter_map(|o| match o {
                DbgpOutput::SendIa(NeighborId(1), ia) => Some(ia),
                _ => None,
            })
            .collect();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].path_vector[0], PathElem::As(2), "our AS was prepended");
        assert_eq!(pointers(sent[0]), arrived, "pass-through copied a payload");
        // The stored copies (IA DB entry, installed best) share them too.
        assert_eq!(pointers(&gulf.best(&p("128.6.0.0/16")).unwrap().ia), arrived);
    }

    #[test]
    fn blacklisting_gulf_as_strips_protocol() {
        // Gulf AS 3 blacklists Wiser: AS 4 must not see the cost, but
        // must still see the SCION descriptor.
        let mut cfgs: Vec<DbgpConfig> = [1, 2, 3, 4].iter().map(|&a| DbgpConfig::gulf(a)).collect();
        cfgs[2].filters.strip_protocols = vec![ProtocolId::WISER];
        let mut chain = Chain::new(cfgs, &[false; 4]);
        let ia = Ia::builder(p("128.6.0.0/16"), nh(0))
            .path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST, 1u64.to_be_bytes().to_vec())
            .island_descriptor(IslandId(500), ProtocolId::SCION, dkey::SCION_PATHS, vec![1])
            .build()
            .unwrap();
        let outs = chain.speakers[0].originate_ia(ia);
        chain.pump(0, outs);
        let best = chain.speakers[3].best(&p("128.6.0.0/16")).unwrap();
        assert!(best.ia.path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST).is_none());
        assert_eq!(best.ia.island_descriptors.len(), 1);
    }

    #[test]
    fn as_loop_rejected_and_counts_as_withdraw() {
        let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(5));
        speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(6));
        let mut good = Ia::originate(p("10.0.0.0/8"), nh(1));
        good.prepend_as(6);
        let outs = speaker.receive_ia(NeighborId(0), good);
        assert!(matches!(outs[0], DbgpOutput::BestChanged(_, Some(_))));
        // Same neighbor now sends a looped IA for the prefix.
        let mut looped = Ia::originate(p("10.0.0.0/8"), nh(1));
        looped.prepend_as(5);
        looped.prepend_as(6);
        let outs = speaker.receive_ia(NeighborId(0), looped);
        assert!(matches!(outs[0], DbgpOutput::Rejected(_, _, RejectReason::AsLoop)));
        assert!(
            matches!(outs[1], DbgpOutput::BestChanged(_, None)),
            "previous route implicitly withdrawn"
        );
        assert!(speaker.best(&p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn island_members_declare_and_egress_abstracts() {
        // Chain: AS1 (origin, gulf) - AS2,AS3 (island 900, abstraction) -
        // AS4 (gulf). AS4 must see [I900, 1].
        let island = IslandConfig { id: IslandId(900), abstraction: true };
        let cfgs = vec![
            DbgpConfig::gulf(1),
            DbgpConfig::island_member(2, island, ProtocolId::BGP),
            DbgpConfig::island_member(3, island, ProtocolId::BGP),
            DbgpConfig::gulf(4),
        ];
        // Links: 1-2 (cross), 2-3 (same island), 3-4 (cross).
        let mut chain = Chain::new(cfgs, &[false, true, false]);
        chain.originate(0, p("128.6.0.0/16"));
        // Inside the island, AS 3 sees full member detail.
        let at3 = chain.speakers[2].best(&p("128.6.0.0/16")).unwrap();
        assert_eq!(at3.ia.path_vector, vec![PathElem::As(2), PathElem::As(1)]);
        assert_eq!(at3.ia.island_of(0), Some(IslandId(900)));
        // Outside, AS 4 sees the abstracted island.
        let at4 = chain.speakers[3].best(&p("128.6.0.0/16")).unwrap();
        assert_eq!(at4.ia.path_vector, vec![PathElem::Island(IslandId(900)), PathElem::As(1)]);
        assert_eq!(at4.ia.hop_count(), 2, "island counts one hop");
    }

    #[test]
    fn declared_island_without_abstraction_keeps_members_visible() {
        let island = IslandConfig { id: IslandId(900), abstraction: false };
        let cfgs = vec![
            DbgpConfig::gulf(1),
            DbgpConfig::island_member(2, island, ProtocolId::BGP),
            DbgpConfig::island_member(3, island, ProtocolId::BGP),
            DbgpConfig::gulf(4),
        ];
        let mut chain = Chain::new(cfgs, &[false, true, false]);
        chain.originate(0, p("128.6.0.0/16"));
        let at4 = chain.speakers[3].best(&p("128.6.0.0/16")).unwrap();
        assert_eq!(at4.ia.path_vector, vec![PathElem::As(3), PathElem::As(2), PathElem::As(1)]);
        // Membership annotations tell AS 4 which entries are the island —
        // requirement G-R4's "how to layer headers" information.
        assert_eq!(at4.ia.island_of(0), Some(IslandId(900)));
        assert_eq!(at4.ia.island_of(1), Some(IslandId(900)));
        assert_eq!(at4.ia.island_of(2), None);
    }

    #[test]
    fn withdrawal_propagates_through_chain() {
        let mut chain = gulf_chain(&[1, 2, 3]);
        chain.originate(0, p("10.0.0.0/8"));
        assert!(chain.speakers[2].best(&p("10.0.0.0/8")).is_some());
        let outs = chain.speakers[0].withdraw_origin(p("10.0.0.0/8"));
        chain.pump(0, outs);
        assert!(chain.speakers[2].best(&p("10.0.0.0/8")).is_none());
        assert!(chain.speakers[1].best(&p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn legacy_neighbor_gets_stripped_ia() {
        let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(2));
        speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));
        speaker.add_neighbor(NeighborId(1), DbgpNeighbor::legacy(3));
        let ia = Ia::builder(p("10.0.0.0/8"), nh(1))
            .as_hop(1)
            .path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST, vec![1])
            .island_descriptor(IslandId(5), ProtocolId::SCION, dkey::SCION_PATHS, vec![2])
            .build()
            .unwrap();
        let outs = speaker.receive_ia(NeighborId(0), ia);
        let sent = outs
            .iter()
            .find_map(|o| match o {
                DbgpOutput::SendIa(NeighborId(1), ia) => Some(ia),
                _ => None,
            })
            .expect("legacy neighbor still gets baseline reachability");
        assert!(sent.path_descriptors.is_empty());
        assert!(sent.island_descriptors.is_empty());
        assert_eq!(sent.path_vector, vec![PathElem::As(2), PathElem::As(1)]);
    }

    #[test]
    fn baseline_only_mode_models_bgp_internet() {
        // With baseline_only_export set (the §6.3 BGP-baseline case), a
        // gulf AS drops all new-protocol information even for D-BGP
        // neighbors.
        let mut cfg = DbgpConfig::gulf(2);
        cfg.filters.baseline_only_export = true;
        let mut speaker = DbgpSpeaker::new(cfg);
        speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));
        speaker.add_neighbor(NeighborId(1), DbgpNeighbor::dbgp(3));
        let ia = Ia::builder(p("10.0.0.0/8"), nh(1))
            .as_hop(1)
            .path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST, vec![1])
            .build()
            .unwrap();
        let outs = speaker.receive_ia(NeighborId(0), ia);
        let sent = outs
            .iter()
            .find_map(|o| match o {
                DbgpOutput::SendIa(NeighborId(1), ia) => Some(ia),
                _ => None,
            })
            .unwrap();
        assert!(sent.path_descriptors.is_empty());
    }

    #[test]
    fn split_horizon_suppresses_echo() {
        let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(2));
        speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));
        let mut ia = Ia::originate(p("10.0.0.0/8"), nh(1));
        ia.prepend_as(1);
        let outs = speaker.receive_ia(NeighborId(0), ia);
        assert!(
            !outs.iter().any(|o| matches!(o, DbgpOutput::SendIa(NeighborId(0), _))),
            "no echo to source"
        );
    }

    #[test]
    fn valley_free_vetoes_upward_and_lateral_exports() {
        let mut cfg = DbgpConfig::gulf(2);
        cfg.filters.valley_free = true;
        let mut speaker = DbgpSpeaker::new(cfg);
        speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1).with_class(PeerClass::Provider));
        speaker.add_neighbor(NeighborId(1), DbgpNeighbor::dbgp(3).with_class(PeerClass::Provider));
        speaker.add_neighbor(NeighborId(2), DbgpNeighbor::dbgp(4).with_class(PeerClass::Peer));
        speaker.add_neighbor(NeighborId(3), DbgpNeighbor::dbgp(5).with_class(PeerClass::Customer));
        speaker.add_neighbor(NeighborId(4), DbgpNeighbor::dbgp(6)); // unannotated
        let mut ia = Ia::originate(p("10.0.0.0/8"), nh(1));
        ia.prepend_as(1);
        let outs = speaker.receive_ia(NeighborId(0), ia);
        let sent_to = |id: u32| {
            outs.iter().any(|o| matches!(o, DbgpOutput::SendIa(n, _) if *n == NeighborId(id)))
        };
        // Provider-learned: only the customer and the unannotated
        // adjacency may hear about it.
        assert!(!sent_to(1), "provider-learned route must not go to another provider");
        assert!(!sent_to(2), "provider-learned route must not go to a lateral peer");
        assert!(sent_to(3), "customers always hear provider-learned routes");
        assert!(sent_to(4), "unannotated adjacencies are exempt from the policy");
        // Locally originated prefixes export everywhere.
        let outs = speaker.originate(p("172.16.0.0/12"), nh(2));
        for id in 0..=4u32 {
            assert!(
                outs.iter().any(|o| matches!(o, DbgpOutput::SendIa(n, _) if *n == NeighborId(id))),
                "own prefix must reach neighbor {id}"
            );
        }
        // Customer-learned routes go everywhere (that's what transit is).
        let mut cfg = DbgpConfig::gulf(7);
        cfg.filters.valley_free = true;
        let mut transit = DbgpSpeaker::new(cfg);
        transit.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(8).with_class(PeerClass::Customer));
        transit.add_neighbor(NeighborId(1), DbgpNeighbor::dbgp(9).with_class(PeerClass::Provider));
        let mut ia = Ia::originate(p("192.168.0.0/16"), nh(8));
        ia.prepend_as(8);
        let outs = transit.receive_ia(NeighborId(0), ia);
        assert!(
            outs.iter().any(|o| matches!(o, DbgpOutput::SendIa(NeighborId(1), _))),
            "customer-learned route is exported upward"
        );
    }

    #[test]
    fn better_path_replaces_and_readvertises() {
        let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(9));
        speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));
        speaker.add_neighbor(NeighborId(1), DbgpNeighbor::dbgp(2));
        speaker.add_neighbor(NeighborId(2), DbgpNeighbor::dbgp(3));
        let mut long = Ia::originate(p("10.0.0.0/8"), nh(1));
        long.prepend_as(50);
        long.prepend_as(1);
        speaker.receive_ia(NeighborId(0), long);
        assert_eq!(speaker.best(&p("10.0.0.0/8")).unwrap().neighbor, Some(NeighborId(0)));
        let mut short = Ia::originate(p("10.0.0.0/8"), nh(2));
        short.prepend_as(2);
        let outs = speaker.receive_ia(NeighborId(1), short);
        assert_eq!(speaker.best(&p("10.0.0.0/8")).unwrap().neighbor, Some(NeighborId(1)));
        // Neighbor 2 (uninvolved) must get the replacement advertisement.
        assert!(outs.iter().any(|o| matches!(o, DbgpOutput::SendIa(NeighborId(2), _))));
    }

    #[test]
    fn neighbor_down_flushes_routes() {
        let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(9));
        speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));
        let mut ia = Ia::originate(p("10.0.0.0/8"), nh(1));
        ia.prepend_as(1);
        speaker.receive_ia(NeighborId(0), ia);
        assert!(speaker.best(&p("10.0.0.0/8")).is_some());
        let outs = speaker.neighbor_down(NeighborId(0));
        assert!(matches!(outs[0], DbgpOutput::BestChanged(_, None)));
        assert!(speaker.best(&p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn late_neighbor_gets_table_transfer() {
        let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(9));
        speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));
        let mut ia = Ia::originate(p("10.0.0.0/8"), nh(1));
        ia.prepend_as(1);
        speaker.receive_ia(NeighborId(0), ia);
        let outs = speaker.add_neighbor(NeighborId(1), DbgpNeighbor::dbgp(2));
        assert!(outs.iter().any(|o| matches!(o, DbgpOutput::SendIa(NeighborId(1), _))));
    }

    #[test]
    fn active_protocol_overrides_by_longest_match() {
        let mut cfg = DbgpConfig::gulf(9);
        cfg.active_overrides =
            vec![(p("10.0.0.0/8"), ProtocolId::WISER), (p("10.5.0.0/16"), ProtocolId::SCION)];
        let speaker = DbgpSpeaker::new(cfg);
        assert_eq!(speaker.active_protocol(&p("10.5.1.0/24")), ProtocolId::SCION);
        assert_eq!(speaker.active_protocol(&p("10.9.0.0/16")), ProtocolId::WISER);
        assert_eq!(speaker.active_protocol(&p("192.168.0.0/16")), ProtocolId::BGP);
    }

    /// A pair of identically configured speakers, one with the
    /// incremental fast path disabled, fed the same inputs.
    fn fast_slow_pair() -> (DbgpSpeaker, DbgpSpeaker) {
        let mk = || {
            let mut s = DbgpSpeaker::new(DbgpConfig::gulf(9));
            s.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));
            s.add_neighbor(NeighborId(1), DbgpNeighbor::dbgp(2));
            s.add_neighbor(NeighborId(2), DbgpNeighbor::dbgp(3));
            s
        };
        let fast = mk();
        let mut slow = mk();
        slow.set_incremental(false);
        (fast, slow)
    }

    fn hops_ia(nexthop: u8, hops: &[u32]) -> Ia {
        let mut ia = Ia::originate(p("10.0.0.0/8"), nh(nexthop));
        for &h in hops.iter().rev() {
            ia.prepend_as(h);
        }
        ia
    }

    #[test]
    fn strictly_worse_arrival_takes_fast_path_with_identical_outputs() {
        let (mut fast, mut slow) = fast_slow_pair();
        let good = hops_ia(1, &[1]);
        assert_eq!(
            fast.receive_ia(NeighborId(0), good.clone()),
            slow.receive_ia(NeighborId(0), good)
        );
        // Two hops from a different neighbor: provably strictly worse.
        let worse = hops_ia(2, &[2, 50]);
        assert_eq!(
            fast.receive_ia(NeighborId(1), worse.clone()),
            slow.receive_ia(NeighborId(1), worse)
        );
        assert_eq!(fast.full_scans_avoided(), 1);
        assert_eq!(slow.full_scans_avoided(), 0);
        // Withdrawing the non-best candidate is also a provable no-op.
        assert_eq!(
            fast.receive_withdraw(NeighborId(1), p("10.0.0.0/8")),
            slow.receive_withdraw(NeighborId(1), p("10.0.0.0/8"))
        );
        assert_eq!(fast.full_scans_avoided(), 2);
        // Withdrawing the best forces the full scan on both.
        assert_eq!(
            fast.receive_withdraw(NeighborId(0), p("10.0.0.0/8")),
            slow.receive_withdraw(NeighborId(0), p("10.0.0.0/8"))
        );
        assert_eq!(fast.full_scans_avoided(), 2);
        assert_eq!(fast.best(&p("10.0.0.0/8")), slow.best(&p("10.0.0.0/8")));
    }

    #[test]
    fn best_source_readvertisement_takes_full_scan() {
        let (mut fast, mut slow) = fast_slow_pair();
        fast.receive_ia(NeighborId(0), hops_ia(1, &[1]));
        slow.receive_ia(NeighborId(0), hops_ia(1, &[1]));
        // The best's own source re-advertises a longer path: the
        // incumbent itself is replaced, so the fast path must not fire
        // and selection must move to the other candidate.
        fast.receive_ia(NeighborId(1), hops_ia(2, &[2, 60]));
        slow.receive_ia(NeighborId(1), hops_ia(2, &[2, 60]));
        let long = hops_ia(1, &[1, 70, 71]);
        assert_eq!(
            fast.receive_ia(NeighborId(0), long.clone()),
            slow.receive_ia(NeighborId(0), long)
        );
        assert_eq!(fast.best(&p("10.0.0.0/8")).unwrap().neighbor, Some(NeighborId(1)));
        assert_eq!(fast.best(&p("10.0.0.0/8")), slow.best(&p("10.0.0.0/8")));
        assert_eq!(fast.full_scans_avoided(), 1, "only the strictly-worse arrival fast-paths");
    }

    #[test]
    fn originated_prefix_arrivals_fast_path_without_module_involvement() {
        let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(9));
        speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));
        speaker.originate(p("10.0.0.0/8"), nh(9));
        let outs = speaker.receive_ia(NeighborId(0), hops_ia(1, &[1]));
        assert!(outs.is_empty(), "a learned route never displaces a local origination");
        assert_eq!(speaker.full_scans_avoided(), 1);
        assert_eq!(speaker.best(&p("10.0.0.0/8")).unwrap().neighbor, None);
        // Withdrawing the origination re-scans and promotes the stored IA.
        let outs = speaker.withdraw_origin(p("10.0.0.0/8"));
        assert!(outs.iter().any(|o| matches!(o, DbgpOutput::BestChanged(_, Some(_)))));
        assert_eq!(speaker.best(&p("10.0.0.0/8")).unwrap().neighbor, Some(NeighborId(0)));
    }

    #[test]
    fn module_swap_poisons_fast_path_until_rescan() {
        let (mut fast, mut slow) = fast_slow_pair();
        for s in [&mut fast, &mut slow] {
            s.receive_ia(NeighborId(0), hops_ia(1, &[1]));
            s.receive_ia(NeighborId(1), hops_ia(2, &[2, 50]));
            // Replacing the active module invalidates the recorded
            // decision state; the next arrival must take a full scan
            // even though the new module is also incremental-safe.
            s.register_module(Box::new(BgpDecision::new()));
        }
        let worse = hops_ia(3, &[3, 51, 52]);
        assert_eq!(
            fast.receive_ia(NeighborId(2), worse.clone()),
            slow.receive_ia(NeighborId(2), worse)
        );
        assert_eq!(fast.full_scans_avoided(), 1, "post-swap arrival full-scans");
        // The full scan re-recorded the epoch; the fast path is live again.
        fast.receive_ia(NeighborId(2), hops_ia(3, &[3, 51, 53]));
        assert_eq!(fast.full_scans_avoided(), 2);
    }
}
