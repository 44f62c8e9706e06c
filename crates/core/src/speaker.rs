//! The D-BGP speaker: the full IA-processing pipeline of the paper's
//! Figure 5, steps 1–7.
//!
//! One speaker stands for one AS (the paper's centralized-control model;
//! distributed per-router control composes identically because the
//! pipeline is per-advertisement). The speaker is sans-IO: feed it IAs
//! and withdrawals from neighbors, and it returns the IAs/withdrawals to
//! send plus data-plane notifications — each best-path change with why
//! the winner won, so that a host keeping a trace has nothing to ask.
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
use crate::iadb::{IaDb, PrefixEntry};
use crate::module::{explain_best, BgpDecision, CandidateIa, DecisionModule, ImportContext};
use crate::neighbor::{DbgpNeighbor, NeighborId, PeerClass};
use dbgp_rib::recycle;
use dbgp_telemetry::{Selection, SelectionReason};
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, ProtocolId};
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
    /// A new best path was installed for `chosen.ia.prefix`, and why it
    /// won; the data plane should be updated.
    BestChanged(Chosen, Selection),
    /// The prefix lost its best path and has no other.
    Unreachable(Ipv4Prefix, Selection),
    /// An incoming IA was rejected by the global import filter.
    Rejected(NeighborId, Ipv4Prefix, RejectReason),
}

/// A D-BGP speaker for one AS.
pub struct DbgpSpeaker {
    /// All route state: one entry per prefix holding the IAs received
    /// and sent per neighbor, the originated IA, the installed best, the
    /// exports built from it and the decision epoch.
    table: IaDb,
    /// Everything not keyed by prefix. A struct of its own so that the
    /// pipeline can hold one table entry and `&mut` the rest at once.
    pipe: Pipeline,
}

/// The speaker minus its table: configuration, neighbors, modules and
/// counters, and the pipeline steps as methods on one [`PrefixEntry`].
struct Pipeline {
    cfg: DbgpConfig,
    neighbors: BTreeMap<NeighborId, DbgpNeighbor>,
    modules: BTreeMap<ProtocolId, Box<dyn DecisionModule>>,
    /// Count of IAs processed (for the stress benchmarks).
    processed: u64,
    /// Master switch for the incremental decision fast path (on by
    /// default; tests flip it off to compare against full scans).
    incremental: bool,
    /// Full candidate scans skipped by the incremental fast path.
    fast_path_hits: u64,
    /// Exports served from an entry's per-class cache / built by the
    /// factory.
    exports_shared: u64,
    exports_built: u64,
    /// Reusable candidate-view buffer for `select` — always empty
    /// between calls; the `'static` parameter is a placeholder
    /// [`dbgp_rib::recycle`] swaps for the borrow while the (empty) vec
    /// is checked out.
    scratch: Vec<CandidateIa<'static>>,
    /// Cached conjunction of every resident module's
    /// `export_is_uniform()`, refreshed on `register_module`. When true,
    /// an unchanged best path implies every rebuilt export is
    /// byte-identical, so the fast path may skip the fan-out entirely,
    /// and the factory product depends only on (chosen IA, neighbor
    /// class), so entries cache it.
    all_uniform: bool,
}

/// Render an IA's path vector ("near far" order, space separated;
/// empty string for an origin IA).
pub fn render_path(ia: &Ia) -> String {
    let parts: Vec<String> = ia.path_vector.iter().map(|e| e.to_string()).collect();
    parts.join(" ")
}

impl DbgpSpeaker {
    /// Create a speaker with the baseline BGP decision module
    /// pre-registered.
    pub fn new(cfg: DbgpConfig) -> Self {
        let pipe = Pipeline {
            cfg,
            neighbors: BTreeMap::new(),
            modules: BTreeMap::new(),
            processed: 0,
            incremental: true,
            fast_path_hits: 0,
            exports_shared: 0,
            exports_built: 0,
            scratch: Vec::new(),
            all_uniform: true,
        };
        let mut speaker = DbgpSpeaker { table: IaDb::new(), pipe };
        speaker.register_module(Box::new(BgpDecision::new()));
        speaker
    }

    /// Our AS number.
    pub fn asn(&self) -> u32 {
        self.pipe.cfg.asn
    }

    /// Our configuration.
    pub fn config(&self) -> &DbgpConfig {
        &self.pipe.cfg
    }

    /// Register a protocol's decision module (replacing any previous one
    /// for the same protocol).
    pub fn register_module(&mut self, module: Box<dyn DecisionModule>) {
        let pipe = &mut self.pipe;
        pipe.modules.insert(module.protocol(), module);
        pipe.all_uniform = pipe.modules.values().all(|m| m.export_is_uniform());
        self.table.entries.for_each_mut(|_, entry| {
            // A new module may change what exports look like.
            entry.built = Default::default();
            // Epochs recorded under the previous module set no longer
            // prove anything: poison every installed prefix so the next
            // arrival takes a full scan and re-records. (`u64::MAX` is
            // reserved — `selection_epoch` must never return it — so the
            // mismatch is guaranteed even against a stateless
            // replacement's epoch 0.)
            if entry.chosen.is_some() {
                entry.epoch = u64::MAX;
            }
        });
    }

    /// Enable/disable the incremental decision fast path (enabled by
    /// default). With it off every arrival takes the full candidate
    /// scan, which the equivalence tests use as the reference.
    pub fn set_incremental(&mut self, on: bool) {
        self.pipe.incremental = on;
    }

    /// Full candidate scans the incremental fast path has avoided.
    pub fn full_scans_avoided(&self) -> u64 {
        self.pipe.fast_path_hits
    }

    /// Outgoing IAs handed to more than one neighbor: exports served
    /// from a prefix's per-neighbor-class cache instead of the factory.
    pub fn exports_shared(&self) -> u64 {
        self.pipe.exports_shared
    }

    /// Outgoing IAs the factory built (the cache declined or was cold).
    pub fn exports_built(&self) -> u64 {
        self.pipe.exports_built
    }

    /// Mutable access to a registered module (for out-of-band delivery
    /// and inspection).
    pub fn module_mut(&mut self, protocol: ProtocolId) -> Option<&mut (dyn DecisionModule + '_)> {
        self.pipe.modules.get_mut(&protocol).map(|b| b.as_mut() as &mut dyn DecisionModule)
    }

    /// Add a neighbor.
    pub fn add_neighbor(&mut self, id: NeighborId, neighbor: DbgpNeighbor) -> Vec<DbgpOutput> {
        let Self { table, pipe } = self;
        pipe.neighbors.insert(id, neighbor);
        // Initial table transfer: the new neighbor gets our whole view.
        let mut out = Vec::new();
        pipe.with_neighbors(|pipe, neighbors| {
            let neighbor = &neighbors[&id];
            table.entries.for_each_mut(|prefix, entry| {
                if entry.chosen.is_some() {
                    pipe.propagate_one(neighbors, id, neighbor, entry, *prefix, &mut out);
                }
            });
        });
        out
    }

    /// Remove a neighbor (session loss): flush its IAs and re-decide.
    pub fn neighbor_down(&mut self, id: NeighborId) -> Vec<DbgpOutput> {
        let Self { table, pipe } = self;
        pipe.neighbors.remove(&id);
        let mut out = Vec::new();
        let mut idle = Vec::new();
        table.entries.for_each_mut(|prefix, entry| {
            entry.slots.withdraw(id);
            if entry.slots.unreceive(id).is_some() {
                pipe.redecide(entry, *prefix, &mut out);
            }
            if entry.is_idle() {
                idle.push(*prefix);
            }
        });
        for prefix in idle {
            table.entries.remove(&prefix);
        }
        out
    }

    /// The active protocol for a prefix (longest matching override, else
    /// the default).
    pub fn active_protocol(&self, prefix: &Ipv4Prefix) -> ProtocolId {
        self.pipe.active_protocol(prefix)
    }

    /// Switch the default active protocol and re-run selection everywhere
    /// (an island "deploying" a new protocol).
    pub fn set_active_protocol(&mut self, protocol: ProtocolId) -> Vec<DbgpOutput> {
        let Self { table, pipe } = self;
        pipe.cfg.active = protocol;
        let mut out = Vec::new();
        // Every entry has a received or originated IA (else it would
        // have been idle and reclaimed), so this is every known prefix.
        table.entries.for_each_mut(|prefix, entry| {
            entry.built = Default::default();
            pipe.redecide(entry, *prefix, &mut out);
        });
        out
    }

    /// Originate a prefix. Every resident module gets to decorate the
    /// origin IA (attach portals, pathlets, within-island paths,
    /// attestations, ...).
    pub fn originate(&mut self, prefix: Ipv4Prefix, next_hop: Ipv4Addr) -> Vec<DbgpOutput> {
        let mut ia = Ia::originate(prefix, next_hop);
        let local_as = self.pipe.cfg.asn;
        for module in self.pipe.modules.values_mut() {
            module.decorate_origin(&mut ia, local_as);
        }
        self.originate_ia(ia)
    }

    /// Originate a fully custom IA (tests and replacement protocols use
    /// this to control descriptors precisely).
    pub fn originate_ia(&mut self, ia: Ia) -> Vec<DbgpOutput> {
        let prefix = ia.prefix;
        let entry = self.table.entry(prefix);
        entry.originated = Some(Arc::new(ia));
        let mut out = Vec::new();
        self.pipe.redecide(entry, prefix, &mut out);
        out
    }

    /// Stop originating a prefix.
    pub fn withdraw_origin(&mut self, prefix: Ipv4Prefix) -> Vec<DbgpOutput> {
        let mut out = Vec::new();
        self.on_existing(prefix, |pipe, entry| {
            if entry.originated.take().is_some() {
                pipe.redecide(entry, prefix, &mut out);
            }
        });
        out
    }

    /// Process one received IA — pipeline steps 1–7.
    pub fn receive_ia(&mut self, from: NeighborId, mut ia: Ia) -> Vec<DbgpOutput> {
        self.pipe.processed += 1;
        let mut out = Vec::new();
        let Some(from_as) = self.pipe.neighbors.get(&from).map(|n| n.asn) else {
            return out;
        };
        let prefix = ia.prefix;
        // (1) Global import filters.
        let cfg = &self.pipe.cfg;
        if let Err(reason) = filters::global_import(&cfg.filters, cfg.asn, cfg.island, &mut ia) {
            out.push(DbgpOutput::Rejected(from, prefix, reason));
            // A looped IA implicitly withdraws whatever this neighbor
            // previously advertised for the prefix.
            self.on_existing(prefix, |pipe, entry| {
                if entry.slots.unreceive(from).is_some() {
                    pipe.redecide(entry, prefix, &mut out);
                }
            });
            return out;
        }
        // The one table walk of an announce: everything below runs on
        // this entry.
        let Self { table, pipe } = self;
        let entry = table.entry(prefix);
        // Incremental fast path: a candidate provably strictly worse
        // than the installed best (from a different neighbor) cannot
        // change the selection — store it and skip the full scan.
        let best_stands = pipe.best_stands(entry, prefix, from, Some((&ia, from_as)));
        // (2) Store in the IA DB.
        entry.slots.receive(from, Arc::new(ia));
        // (3)-(7) Extract, decide, build, filter, send.
        pipe.settle(entry, prefix, best_stands, &mut out);
        out
    }

    /// Process a withdrawal from a neighbor.
    pub fn receive_withdraw(&mut self, from: NeighborId, prefix: Ipv4Prefix) -> Vec<DbgpOutput> {
        let mut out = Vec::new();
        self.on_existing(prefix, |pipe, entry| {
            if entry.slots.unreceive(from).is_some() {
                let best_stands = pipe.best_stands(entry, prefix, from, None);
                pipe.settle(entry, prefix, best_stands, &mut out);
            }
        });
        out
    }

    /// The installed best path for a prefix.
    pub fn best(&self, prefix: &Ipv4Prefix) -> Option<&Chosen> {
        self.table.entries.get(prefix)?.chosen.as_ref()
    }

    /// Iterate the full local routing table.
    pub fn routes(&self) -> impl Iterator<Item = (&Ipv4Prefix, &Chosen)> {
        self.table.entries.iter().filter_map(|(p, e)| Some((p, e.chosen.as_ref()?)))
    }

    /// Read access to the IA database.
    pub fn iadb(&self) -> &IaDb {
        &self.table
    }

    /// Number of IAs fed through the pipeline so far.
    pub fn processed(&self) -> u64 {
        self.pipe.processed
    }

    /// Run `f` on `prefix`'s entry, if there is one, and reclaim the
    /// entry if that left it idle: a withdrawal's two walks.
    fn on_existing(&mut self, prefix: Ipv4Prefix, f: impl FnOnce(&mut Pipeline, &mut PrefixEntry)) {
        let Some(entry) = self.table.entries.get_mut(&prefix) else { return };
        f(&mut self.pipe, entry);
        if entry.is_idle() {
            self.table.entries.remove(&prefix);
        }
    }
}

impl Pipeline {
    /// After a candidate was stored or removed. When the fast path
    /// proved the best stands, only re-evaluate exports — and not even
    /// that if every export is uniform: an unchanged best then implies
    /// every rebuilt outgoing IA is byte-identical and the Adj-RIB-Out
    /// diff would suppress the whole fan-out. Otherwise re-decide; if the
    /// best did not change (a change fans out itself) the new candidate
    /// set can still alter what resident modules export (e.g. R-BGP's
    /// failover path, Wiser's bookkeeping), so re-evaluate exports: the
    /// diff suppresses no-op sends, keeping the protocol quiescent.
    fn settle(
        &mut self,
        entry: &mut PrefixEntry,
        prefix: Ipv4Prefix,
        best_stands: bool,
        out: &mut Vec<DbgpOutput>,
    ) {
        self.fast_path_hits += u64::from(best_stands);
        let fan_out =
            if best_stands { !self.all_uniform } else { !self.redecide(entry, prefix, out) };
        if fan_out {
            self.propagate_all(entry, prefix, out);
        }
    }

    /// Returns whether the installed best path changed.
    fn redecide(
        &mut self,
        entry: &mut PrefixEntry,
        prefix: Ipv4Prefix,
        out: &mut Vec<DbgpOutput>,
    ) -> bool {
        let Some((new_chosen, selection)) = self.select(entry, prefix) else {
            return false;
        };
        entry.chosen = new_chosen.clone();
        entry.built = Default::default();
        out.push(match new_chosen {
            Some(chosen) => DbgpOutput::BestChanged(chosen, selection),
            None => DbgpOutput::Unreachable(prefix, selection),
        });
        self.propagate_all(entry, prefix, out);
        true
    }

    /// Steps 5–7 for every neighbor, in neighbor-id order.
    fn propagate_all(
        &mut self,
        entry: &mut PrefixEntry,
        prefix: Ipv4Prefix,
        out: &mut Vec<DbgpOutput>,
    ) {
        self.with_neighbors(|this, neighbors| {
            for (&id, neighbor) in neighbors {
                this.propagate_one(neighbors, id, neighbor, entry, prefix, out);
            }
        });
    }

    /// Lend the neighbor map to `f` beside `&mut self`, so a fan-out can
    /// walk it while modules and counters change — no copy of the ids,
    /// no second lookup per neighbor. The map is moved out for the call
    /// (three words; an empty `BTreeMap` allocates nothing) and put
    /// back after, so `f` must read neighbors through its argument:
    /// `self.neighbors` is empty while it runs.
    fn with_neighbors(&mut self, f: impl FnOnce(&mut Self, &BTreeMap<NeighborId, DbgpNeighbor>)) {
        let neighbors = std::mem::take(&mut self.neighbors);
        f(self, &neighbors);
        self.neighbors = neighbors;
    }

    /// See [`DbgpSpeaker::active_protocol`].
    fn active_protocol(&self, prefix: &Ipv4Prefix) -> ProtocolId {
        self.cfg
            .active_overrides
            .iter()
            .filter(|(range, _)| range.covers(prefix))
            .max_by_key(|(range, _)| range.len())
            .map(|(_, p)| *p)
            .unwrap_or(self.cfg.active)
    }

    /// The active module for a prefix. An active protocol without a
    /// registered module falls back to the baseline -- matching §3.5's
    /// "switch between the baseline's algorithm and the new protocol's"
    /// mitigation, and keeping a misconfigured speaker connected.
    fn module_key(&self, prefix: &Ipv4Prefix) -> ProtocolId {
        let active = self.active_protocol(prefix);
        if self.modules.contains_key(&active) {
            active
        } else {
            ProtocolId::BGP
        }
    }

    /// Fast-path test for `from`'s IA about to be replaced by `arrival`
    /// (the IA and `from`'s AS), or just withdrawn (`None`): true when
    /// that provably cannot change the installed best path, so the full
    /// candidate scan (and export rebuild, when all exports are uniform)
    /// can be skipped. Sound because:
    ///
    /// - a locally originated prefix short-circuits `select` before any
    ///   module runs, so no stored candidate is ever consulted;
    /// - otherwise the active module must declare `incremental_safe`
    ///   (the winner is the minimum `rank`), the recorded
    ///   `selection_epoch` must match (no rank-affecting state drift
    ///   since the last full scan) and `from` must not be the best's
    ///   source (a re-advertisement replaces the incumbent, a withdrawal
    ///   removes it). Removing any other candidate leaves the minimum in
    ///   place; an arriving challenger must be rejected by the module's
    ///   import filter or rank strictly worse than the incumbent —
    ///   either way the minimum is unchanged.
    fn best_stands(
        &mut self,
        entry: &PrefixEntry,
        prefix: Ipv4Prefix,
        from: NeighborId,
        arrival: Option<(&Ia, u32)>,
    ) -> bool {
        if !self.incremental {
            return false;
        }
        if entry.originated.is_some() {
            return true;
        }
        // Nothing installed: any acceptable arrival wins; and that a
        // withdrawal still selects nothing leans on accept idempotence
        // alone — rare enough to just take the full scan.
        let Some(Chosen { neighbor: Some(best), ia: incumbent_ia }) = &entry.chosen else {
            return false;
        };
        if *best == from {
            return false;
        }
        let key = self.module_key(&prefix);
        let Some(module) = self.modules.get_mut(&key) else {
            return false;
        };
        if !module.incremental_safe() || module.selection_epoch() != entry.epoch {
            return false;
        }
        let Some((ia, from_as)) = arrival else {
            return true;
        };
        let Some(best_as) = self.neighbors.get(best).map(|n| n.asn) else {
            return false;
        };
        // The module's import filter sees the arrival exactly as a full
        // scan would (its side effects must land either way); a rejected
        // candidate can never win.
        if !module.accept(ImportContext { neighbor: from, neighbor_as: from_as, prefix, ia }) {
            return true;
        }
        let challenger = CandidateIa { neighbor: from, neighbor_as: from_as, ia };
        let incumbent = CandidateIa { neighbor: *best, neighbor_as: best_as, ia: incumbent_ia };
        module.rank(prefix, &challenger) > module.rank(prefix, &incumbent)
    }

    /// Steps 3–4: extract the active protocol's information and run its
    /// decision module over the candidates. `None` when that selects
    /// what is installed already; otherwise the new best path, why it
    /// won and against how many.
    fn select(
        &mut self,
        entry: &mut PrefixEntry,
        prefix: Ipv4Prefix,
    ) -> Option<(Option<Chosen>, Selection)> {
        // The two selections that consult no candidate.
        let changed = |new: Option<Chosen>, why, candidates| {
            (entry.chosen != new).then_some((new, Selection { why, candidates }))
        };
        // Locally originated prefixes always win (they are "ours").
        if let Some(ia) = &entry.originated {
            let ours = Chosen { neighbor: None, ia: Arc::clone(ia) };
            return changed(Some(ours), SelectionReason::LocalOrigin, 1);
        }
        let key = self.module_key(&prefix);
        let Some(module) = self.modules.get_mut(&key) else {
            return changed(None, SelectionReason::Unreachable, 0);
        };
        // Check out the reusable candidate buffer (only the capacity
        // allocation is recycled).
        let mut views: Vec<CandidateIa<'_>> = recycle(std::mem::take(&mut self.scratch));
        for (n, ia) in entry.slots.candidates() {
            let Some(asn) = self.neighbors.get(&n).map(|nb| nb.asn) else { continue };
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
        let candidates = views.len() as u32;
        let best = module.select_best(prefix, &views);
        // The winner's view borrows the stored IA; re-fetch its `Arc` to
        // intern it into `Chosen`.
        let new = best.map(|best| {
            let neighbor = views[best].neighbor;
            let arc = entry.slots.received(neighbor).expect("winner was enumerated from the entry");
            Chosen { neighbor: Some(neighbor), ia: Arc::clone(arc) }
        });
        // Only a changed best is announced, so only it is explained.
        let result = (entry.chosen != new).then(|| {
            let why = match best {
                Some(best) => explain_best(module.as_mut(), prefix, &views, best),
                None => SelectionReason::Unreachable,
            };
            (new, Selection { why, candidates })
        });
        // Check the scratch buffer back in, empty again.
        self.scratch = recycle(views);
        // Fence the incremental fast path on the key state this scan
        // used (stateless modules report a constant 0).
        entry.epoch = module.selection_epoch();
        debug_assert_ne!(entry.epoch, u64::MAX, "u64::MAX is the reserved poison epoch");
        result
    }

    /// Steps 5–7 for one neighbor: build (or withdraw) and send. Runs
    /// inside [`Self::with_neighbors`], hence the `neighbors` argument.
    fn propagate_one(
        &mut self,
        neighbors: &BTreeMap<NeighborId, DbgpNeighbor>,
        id: NeighborId,
        neighbor: &DbgpNeighbor,
        entry: &mut PrefixEntry,
        prefix: Ipv4Prefix,
        out: &mut Vec<DbgpOutput>,
    ) {
        let export = entry.chosen.as_ref().filter(|chosen| {
            // Split horizon: never send a path back to its source.
            if chosen.neighbor == Some(id) {
                return false;
            }
            // Gao-Rexford valley-free export: a route learned from a
            // provider or lateral peer never goes back "up" or
            // "sideways". Both ends of the decision must be
            // class-annotated to participate; locally originated routes
            // (no learned-from neighbor) export everywhere.
            let up = |n: &DbgpNeighbor| n.class.is_some_and(|c| c != PeerClass::Customer);
            let learned_up = || chosen.neighbor.and_then(|src| neighbors.get(&src)).is_some_and(up);
            !(self.cfg.filters.valley_free && up(neighbor) && learned_up())
        });
        let Some(chosen) = export else {
            if entry.slots.withdraw(id) {
                out.push(DbgpOutput::SendWithdraw(id, prefix));
            }
            return;
        };
        let neighbor_in_island = self.cfg.island.is_some() && neighbor.same_island;
        let class = usize::from(neighbor_in_island) * 2 + usize::from(neighbor.speaks_dbgp);
        // With uniform exports the factory product depends only on
        // (chosen IA, neighbor class): build once per class and share
        // the Arc across the whole fan-out and every later one, until
        // the best changes.
        let ia = if let Some(built) = &entry.built[class] {
            self.exports_shared += 1;
            Arc::clone(built)
        } else {
            self.exports_built += 1;
            let ctx = FactoryContext {
                local_as: self.cfg.asn,
                island: self.cfg.island,
                filters: &self.cfg.filters,
                neighbor: id,
                neighbor_as: neighbor.asn,
                neighbor_in_island,
            };
            let modules = self.modules.values_mut().map(|b| b.as_mut() as &mut dyn DecisionModule);
            let Ok(mut ia) = factory::build_outgoing(&chosen.ia, ctx, modules) else { return };
            // Transitional mode (§3.5): legacy BGP neighbors get the
            // IA with every extra field dropped.
            if !neighbor.speaks_dbgp {
                ia.retain_protocols(&[ProtocolId::BGP]);
                ia.memberships.clear();
                ia.island_descriptors.clear();
            }
            let ia = Arc::new(ia);
            if self.all_uniform {
                entry.built[class] = Some(Arc::clone(&ia));
            }
            ia
        };
        // Emit `SendIa` only when the Adj-RIB-Out diff says the outgoing
        // IA differs from what the neighbor already has.
        if entry.slots.advertise(id, &ia) {
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
        let frame = ia.encode().into_bytes();
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
        for (id, asn) in [(1, 3), (2, 4), (3, 5)] {
            gulf.add_neighbor(NeighborId(id), DbgpNeighbor::dbgp(asn));
        }
        let outs = gulf.receive_ia(NeighborId(0), received);
        let sent: Vec<&Arc<Ia>> = outs
            .iter()
            .filter_map(|o| match o {
                DbgpOutput::SendIa(to, ia) if *to != NeighborId(0) => Some(ia),
                _ => None,
            })
            .collect();
        assert_eq!(sent.len(), 3, "one advertisement per downstream neighbor");
        for ia in sent {
            assert_eq!(ia.path_vector[0], PathElem::As(2), "our AS was prepended");
            assert_eq!(pointers(ia), arrived, "pass-through copied a payload");
            // What goes on the wire is a new head and the tail bytes as
            // they arrived: the one frame serves every neighbor.
            let out = crate::DbgpUpdate::encode_frame(&[], &[ia.encode()]);
            let chunks: Vec<&[u8]> = out.chunks().collect();
            assert_eq!(chunks.len(), 2, "a written head and a shared tail");
            assert!(!span.contains(&chunks[0].as_ptr()), "the head is fresh");
            let tail = chunks[1].as_ptr_range();
            assert!(span.start < tail.start && tail.end == span.end, "the tail was copied");
            assert!(chunks[1].len() > 4096 + 64 + 32);
            assert_eq!(out.into_bytes(), crate::DbgpUpdate::announce((**ia).clone()).encode());
        }
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
        assert!(matches!(outs[0], DbgpOutput::BestChanged(..)));
        // Same neighbor now sends a looped IA for the prefix.
        let mut looped = Ia::originate(p("10.0.0.0/8"), nh(1));
        looped.prepend_as(5);
        looped.prepend_as(6);
        let outs = speaker.receive_ia(NeighborId(0), looped);
        assert!(matches!(outs[0], DbgpOutput::Rejected(_, _, RejectReason::AsLoop)));
        assert!(
            matches!(outs[1], DbgpOutput::Unreachable(..)),
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
        // Each change says why the new best won, and against how many.
        let explained = |outs: &[DbgpOutput]| match &outs[0] {
            DbgpOutput::BestChanged(chosen, selection) => (chosen.neighbor, *selection),
            other => panic!("expected a best change first, got {other:?}"),
        };
        let outs = speaker.receive_ia(NeighborId(0), long);
        assert_eq!(
            explained(&outs),
            (Some(NeighborId(0)), Selection { why: SelectionReason::OnlyCandidate, candidates: 1 })
        );
        assert_eq!(speaker.best(&p("10.0.0.0/8")).unwrap().neighbor, Some(NeighborId(0)));
        let mut short = Ia::originate(p("10.0.0.0/8"), nh(2));
        short.prepend_as(2);
        let outs = speaker.receive_ia(NeighborId(1), short);
        assert_eq!(
            explained(&outs),
            (Some(NeighborId(1)), Selection { why: SelectionReason::ShortestPath, candidates: 2 })
        );
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
        assert!(matches!(outs[0], DbgpOutput::Unreachable(..)));
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
}
