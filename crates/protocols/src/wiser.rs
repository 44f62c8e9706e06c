//! Wiser (Mahajan, Wetherall, Anderson — NSDI'07) deployed over D-BGP:
//! the paper's worked example of a *critical fix* (§2.2, §3.4, §6.1).
//!
//! Wiser extends BGP with a per-path *cost* that downstream ASes
//! accumulate; selecting the lowest-cost path lets ASes limit ingress
//! traffic. Because a cheating AS could inflate its internal costs,
//! Wiser is a *two-way* protocol: neighbouring Wiser islands periodically
//! exchange the total costs they receive from each other and use the
//! ratio to scale incoming costs into their own currency.
//!
//! Over D-BGP:
//! * the path cost rides in a path descriptor
//!   ([`dkey::WISER_PATH_COST`]) and crosses gulfs via pass-through;
//! * each island advertises a *cost-exchange portal* address in an
//!   island descriptor ([`dkey::WISER_PORTAL`]), so islands separated by
//!   a gulf can still run the two-way exchange out-of-band (§3.4) —
//!   until the first report arrives the scaling factor "must be guessed"
//!   (the paper's words); we guess 1.0;
//! * everything else (loop detection, dissemination) is inherited from
//!   the shared IA machinery. This whole file is the analogue of the 255
//!   lines of per-protocol code the paper reports for Wiser.

use dbgp_core::module::{
    best_by_rank, CandidateIa, DecisionModule, ExportContext, ImportContext, Rank,
};
use dbgp_wire::ia::dkey;
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, IslandId, ProtocolId};
use std::collections::HashMap;

/// Fixed-point denominator for scaling factors (3 decimal digits).
const SCALE_ONE: u64 = 1000;

/// Read a Wiser path cost from an IA, if present.
pub fn path_cost(ia: &Ia) -> Option<u64> {
    ia.path_descriptor_u64(ProtocolId::WISER, dkey::WISER_PATH_COST)
}

/// Set (replacing) the Wiser path cost on an IA.
pub fn set_path_cost(ia: &mut Ia, cost: u64) {
    ia.set_path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST, cost.to_be_bytes().to_vec());
}

/// All Wiser cost-exchange portals advertised along an IA's path.
pub fn portals(ia: &Ia) -> Vec<(IslandId, Ipv4Addr)> {
    ia.island_addrs(ProtocolId::WISER, dkey::WISER_PORTAL).collect()
}

/// An out-of-band cost report: "I am AS `reporter`, and the Wiser costs
/// I received from your island total `sum` over `count` paths."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostReport {
    /// The reporting AS.
    pub reporter: u32,
    /// Sum of received costs.
    pub sum: u64,
    /// Number of paths the sum covers.
    pub count: u64,
}

impl CostReport {
    /// Serialize for the out-of-band channel.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20);
        out.extend_from_slice(&self.reporter.to_be_bytes());
        out.extend_from_slice(&self.sum.to_be_bytes());
        out.extend_from_slice(&self.count.to_be_bytes());
        out
    }

    /// Parse from the out-of-band channel.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        if data.len() != 20 {
            return None;
        }
        Some(CostReport {
            reporter: u32::from_be_bytes(data[0..4].try_into().unwrap()),
            sum: u64::from_be_bytes(data[4..12].try_into().unwrap()),
            count: u64::from_be_bytes(data[12..20].try_into().unwrap()),
        })
    }
}

/// The Wiser decision module.
#[derive(Debug, Clone)]
pub struct WiserModule {
    /// Our island ID (used for the portal island descriptor).
    island: IslandId,
    /// Our cost-exchange portal address, advertised in island
    /// descriptors.
    portal: Ipv4Addr,
    /// Our internal cost of carrying traffic, added at each export.
    internal_cost: u64,
    /// Per-upstream-AS scaling factor, fixed-point over [`SCALE_ONE`].
    /// 1.0 until a cost report teaches us better.
    scale: HashMap<u32, u64>,
    /// Latest cost received per (neighbour AS, prefix): the basis of our
    /// outgoing cost reports. Keyed per prefix so re-running selection
    /// (which re-consults `accept`) never double-counts a path.
    received: HashMap<(u32, Ipv4Prefix), u64>,
    /// Sum/count of costs we advertised toward each neighbouring AS.
    sent: HashMap<u32, (u64, u64)>,
    /// Which neighbour AS supplied the currently chosen path per prefix,
    /// so the export filter can apply the right scaling factor.
    chosen_source: HashMap<Ipv4Prefix, u32>,
    /// Selection-epoch fence: bumped whenever `scale` changes, because
    /// the selection key reads it. All other mutable state (`received`,
    /// `sent`, `chosen_source`) never feeds the key.
    epoch: u64,
}

impl WiserModule {
    /// Create a Wiser module for an island member.
    pub fn new(island: IslandId, portal: Ipv4Addr, internal_cost: u64) -> Self {
        WiserModule {
            island,
            portal,
            internal_cost,
            scale: HashMap::new(),
            received: HashMap::new(),
            sent: HashMap::new(),
            chosen_source: HashMap::new(),
            epoch: 0,
        }
    }

    /// The scaling factor currently applied to costs from `neighbor_as`
    /// (fixed-point over 1000; 1000 = 1.0).
    pub fn scale_for(&self, neighbor_as: u32) -> u64 {
        self.scale.get(&neighbor_as).copied().unwrap_or(SCALE_ONE)
    }

    fn scaled_cost(&self, neighbor_as: u32, cost: u64) -> u64 {
        cost.saturating_mul(self.scale_for(neighbor_as)) / SCALE_ONE
    }

    /// The cost report this module would send to the island it hears
    /// costs from via `neighbor_as` (used by the out-of-band exchange).
    pub fn make_report(&self, local_as: u32, neighbor_as: u32) -> CostReport {
        let (sum, count) = self
            .received
            .iter()
            .filter(|((asn, _), _)| *asn == neighbor_as)
            .fold((0u64, 0u64), |(s, c), (_, &cost)| (s.saturating_add(cost), c + 1));
        CostReport { reporter: local_as, sum, count }
    }

    fn attach_portal(&self, ia: &mut Ia) {
        ia.ensure_island_descriptor(self.island, ProtocolId::WISER, dkey::WISER_PORTAL, || {
            self.portal.octets().to_vec()
        });
    }
}

impl DecisionModule for WiserModule {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::WISER
    }

    fn accept(&mut self, ctx: ImportContext<'_>) -> bool {
        if let Some(cost) = path_cost(ctx.ia) {
            // Idempotent: selection re-consults accept() on every
            // redecide, so record the latest cost per path rather than
            // accumulating.
            self.received.insert((ctx.neighbor_as, ctx.prefix), cost);
        }
        true
    }

    // Lowest scaled cost; paths without a cost rank as if free is
    // unknowable — they sort after costed paths so Wiser information is
    // used whenever it exists.
    fn rank(&mut self, _prefix: Ipv4Prefix, c: &CandidateIa<'_>) -> Rank {
        let cost = path_cost(c.ia).map(|raw| self.scaled_cost(c.neighbor_as, raw));
        Rank::lower(cost.unwrap_or(u64::MAX), c)
    }

    fn select_best(&mut self, prefix: Ipv4Prefix, candidates: &[CandidateIa<'_>]) -> Option<usize> {
        let best = best_by_rank(self, prefix, candidates)?;
        self.chosen_source.insert(prefix, candidates[best].neighbor_as);
        Some(best)
    }

    fn export(&mut self, ia: &mut Ia, ctx: ExportContext) {
        // New cost = scale(received cost) + our internal cost. The
        // incoming cost is whatever descriptor the chosen IA carried
        // (already copied through by the factory).
        let incoming = path_cost(ia).unwrap_or(0);
        let source = self.chosen_source.get(&ctx.prefix).copied().unwrap_or(0);
        let outgoing = self.scaled_cost(source, incoming).saturating_add(self.internal_cost);
        set_path_cost(ia, outgoing);
        self.attach_portal(ia);
        let slot = self.sent.entry(ctx.neighbor_as).or_insert((0, 0));
        slot.0 = slot.0.saturating_add(outgoing);
        slot.1 += 1;
    }

    fn decorate_origin(&mut self, ia: &mut Ia, _local_as: u32) {
        set_path_cost(ia, 0);
        self.attach_portal(ia);
    }

    /// Receive a neighbour island's cost report and recompute the
    /// scaling factor for costs arriving from it:
    /// `scale = (what we advertised to them) / (what they say they
    /// received from us)`, the normalization of Mahajan et al. §4.2 that
    /// makes the two islands' cost currencies comparable and defeats
    /// unilateral inflation.
    fn deliver_oob(&mut self, from: u32, payload: &[u8]) {
        let Some(report) = CostReport::from_bytes(payload) else { return };
        let (sent_sum, sent_count) = self.sent.get(&from).copied().unwrap_or((0, 0));
        if report.sum == 0 || report.count == 0 || sent_count == 0 {
            return;
        }
        let our_avg = sent_sum / sent_count;
        let their_avg = report.sum / report.count;
        if their_avg == 0 {
            return;
        }
        let scale = (our_avg.saturating_mul(SCALE_ONE)) / their_avg;
        self.scale.insert(from, scale.max(1));
        // The selection key just moved for every path from `from`:
        // invalidate the incremental fast path until each prefix's next
        // full scan re-records the epoch.
        self.epoch += 1;
    }

    // `accept` records the latest received cost — idempotent by
    // construction (see comment there) and never read by `rank`; the
    // only state `rank` reads is `scale`, fenced by the epoch bump in
    // `deliver_oob`. The `chosen_source` bookkeeping in `select_best` is
    // export-only state, and a skipped scan means the winner (hence its
    // source AS) is unchanged.
    fn incremental_safe(&self) -> bool {
        true
    }

    fn selection_epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_core::NeighborId;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ia_with_cost(hops: &[u32], cost: u64) -> Ia {
        let mut ia = Ia::originate(p("128.6.0.0/16"), Ipv4Addr::new(9, 9, 9, 9));
        for &h in hops.iter().rev() {
            ia.prepend_as(h);
        }
        set_path_cost(&mut ia, cost);
        ia
    }

    fn module() -> WiserModule {
        WiserModule::new(IslandId(7), Ipv4Addr::new(163, 42, 5, 0), 10)
    }

    #[test]
    fn cost_descriptor_roundtrip() {
        let ia = ia_with_cost(&[1], 12345);
        assert_eq!(path_cost(&ia), Some(12345));
        let decoded = Ia::decode(ia.encode().into_bytes()).unwrap();
        assert_eq!(path_cost(&decoded), Some(12345));
    }

    #[test]
    fn set_cost_replaces_existing() {
        let mut ia = ia_with_cost(&[1], 5);
        set_path_cost(&mut ia, 9);
        assert_eq!(path_cost(&ia), Some(9));
        let n = ia.path_descriptors().iter().filter(|d| d.key == dkey::WISER_PATH_COST).count();
        assert_eq!(n, 1);
    }

    #[test]
    fn selects_lowest_cost_even_if_longer() {
        // The Figure-1 scenario: shortest path has the highest cost.
        let mut m = module();
        let cheap_long = ia_with_cost(&[1, 2, 3], 50);
        let costly_short = ia_with_cost(&[4], 500);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 4, ia: &costly_short },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 1, ia: &cheap_long },
        ];
        assert_eq!(m.select_best(p("128.6.0.0/16"), &cands), Some(1));
    }

    #[test]
    fn costless_paths_rank_last() {
        let mut m = module();
        let costed = ia_with_cost(&[1, 2, 3, 4], 1_000_000);
        let mut costless = Ia::originate(p("128.6.0.0/16"), Ipv4Addr::new(9, 9, 9, 9));
        costless.prepend_as(5);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 5, ia: &costless },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 1, ia: &costed },
        ];
        assert_eq!(m.select_best(p("128.6.0.0/16"), &cands), Some(1));
    }

    #[test]
    fn export_accumulates_internal_cost_and_attaches_portal() {
        let mut m = module();
        let mut ia = ia_with_cost(&[1], 100);
        m.export(
            &mut ia,
            ExportContext {
                neighbor: NeighborId(0),
                neighbor_as: 42,
                local_as: 7,
                prefix: p("128.6.0.0/16"),
            },
        );
        assert_eq!(path_cost(&ia), Some(110));
        assert_eq!(portals(&ia), vec![(IslandId(7), Ipv4Addr::new(163, 42, 5, 0))]);
    }

    #[test]
    fn origin_decoration_sets_zero_cost() {
        let mut m = module();
        let mut ia = Ia::originate(p("128.6.0.0/16"), Ipv4Addr::new(9, 9, 9, 9));
        m.decorate_origin(&mut ia, 7);
        assert_eq!(path_cost(&ia), Some(0));
        assert_eq!(portals(&ia).len(), 1);
    }

    #[test]
    fn cost_report_roundtrip() {
        let report = CostReport { reporter: 65000, sum: 12345, count: 17 };
        assert_eq!(CostReport::from_bytes(&report.to_bytes()), Some(report));
        assert_eq!(CostReport::from_bytes(&[1, 2, 3]), None);
    }

    #[test]
    fn oob_report_recalibrates_scale() {
        let mut m = module();
        // We advertised costs averaging 200 to AS 42...
        for cost in [150u64, 250] {
            let mut ia = ia_with_cost(&[1], cost - 10);
            m.export(
                &mut ia,
                ExportContext {
                    neighbor: NeighborId(0),
                    neighbor_as: 42,
                    local_as: 7,
                    prefix: p("128.6.0.0/16"),
                },
            );
        }
        // ...and AS 42's island reports receiving an average of 400 from
        // us (their currency runs 2x hot). Scale becomes 0.5.
        let report = CostReport { reporter: 42, sum: 800, count: 2 };
        m.deliver_oob(42, &report.to_bytes());
        assert_eq!(m.scale_for(42), 500, "0.5 in fixed-point");
        // Costs from AS 42 are now halved before comparison.
        let mut inflated = module();
        inflated.scale.insert(42, 500);
        let from_42 = ia_with_cost(&[42], 1000);
        let from_1 = ia_with_cost(&[1, 2], 700);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 42, ia: &from_42 },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 1, ia: &from_1 },
        ];
        // Scaled: 42 -> 500, 1 -> 700: the inflated path wins after
        // normalization.
        assert_eq!(inflated.select_best(p("128.6.0.0/16"), &cands), Some(0));
    }

    #[test]
    fn report_reflects_received_costs() {
        let mut m = module();
        let ia = ia_with_cost(&[42], 300);
        m.accept(ImportContext {
            neighbor: NeighborId(0),
            neighbor_as: 42,
            prefix: p("128.6.0.0/16"),
            ia: &ia,
        });
        let report = m.make_report(7, 42);
        assert_eq!(report, CostReport { reporter: 7, sum: 300, count: 1 });
    }

    #[test]
    fn bad_oob_payload_ignored() {
        let mut m = module();
        m.deliver_oob(42, b"junk");
        assert_eq!(m.scale_for(42), SCALE_ONE);
    }

    #[test]
    fn portal_not_duplicated() {
        let m = module();
        let mut ia = ia_with_cost(&[1], 5);
        m.attach_portal(&mut ia);
        m.attach_portal(&mut ia);
        assert_eq!(portals(&ia).len(), 1);
    }
}
