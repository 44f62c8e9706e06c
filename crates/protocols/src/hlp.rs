//! HLP (Subramanian et al., SIGCOMM'05) over D-BGP: a hybrid
//! link-state / path-vector replacement protocol — Table 1's last row
//! and the §3.1/§3.2 motivating case for island-ID abstraction.
//!
//! HLP islands run link-state *internally* (flooded LSAs + shortest-path
//! computation) and path-vector externally. Because their within-island
//! paths "cannot be expressed in a path vector", such islands **must**
//! list only their island ID in the shared path vector (paper §3.2) —
//! D-BGP's loop detection then works at island granularity for them.
//!
//! Pieces:
//! * [`Lsa`] — a router's link-state advertisement with sequence-number
//!   supersession, flooded over the intra-island channel;
//! * [`LinkStateDb`] — the LSDB with Dijkstra shortest paths;
//! * [`HlpModule`] — the decision module one island member runs:
//!   external candidates are ranked by (external hop count, internal
//!   link-state distance to the member that presented them), and the
//!   module exposes the island's HLP path costs in a path descriptor
//!   ([`dkey::WISER_PATH_COST`]'s HLP analogue lives under its own key).

use bytes::{Buf, Bytes, BytesMut};
use dbgp_core::module::{CandidateIa, DecisionModule, ExportContext, Rank};
use dbgp_wire::varint::{get_uvarint, put_uvarint};
use dbgp_wire::{Ia, Ipv4Prefix, IslandId, ProtocolId};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Descriptor key for HLP's accumulated path cost (it disseminates
/// "path costs" per Table 1).
pub const HLP_PATH_COST: u16 = 30;

/// A link-state advertisement: one router's view of its links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lsa {
    /// Originating router.
    pub router: u32,
    /// Monotonic sequence number; higher supersedes.
    pub seq: u64,
    /// (neighbor router, link cost) pairs.
    pub links: Vec<(u32, u64)>,
}

impl Lsa {
    /// Serialize for flooding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, self.router as u64);
        put_uvarint(&mut buf, self.seq);
        put_uvarint(&mut buf, self.links.len() as u64);
        for (n, c) in &self.links {
            put_uvarint(&mut buf, *n as u64);
            put_uvarint(&mut buf, *c);
        }
        buf.to_vec()
    }

    /// Parse a flooded LSA.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut buf = Bytes::copy_from_slice(data);
        let router = get_uvarint(&mut buf).ok()? as u32;
        let seq = get_uvarint(&mut buf).ok()?;
        let n = get_uvarint(&mut buf).ok()? as usize;
        if n > data.len() {
            return None;
        }
        let mut links = Vec::with_capacity(n);
        for _ in 0..n {
            let neighbor = get_uvarint(&mut buf).ok()? as u32;
            let cost = get_uvarint(&mut buf).ok()?;
            links.push((neighbor, cost));
        }
        (!buf.has_remaining()).then_some(Lsa { router, seq, links })
    }
}

/// Reusable Dijkstra working state. `select_best` costs every external
/// candidate with a link-state distance, so the heap and settled set
/// are kept (cleared, not dropped) between runs instead of being
/// reallocated per call.
#[derive(Debug, Clone, Default)]
struct DijkstraScratch {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    visited: HashSet<u32>,
}

/// The link-state database one island member maintains.
#[derive(Debug, Clone, Default)]
pub struct LinkStateDb {
    lsas: HashMap<u32, Lsa>,
    /// Interior-mutable so the read-only query API stays `&self` (the
    /// scratch never outlives one query; queries don't nest).
    scratch: RefCell<DijkstraScratch>,
}

impl LinkStateDb {
    /// An empty LSDB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Integrate a flooded LSA. Returns `true` if it was new or
    /// superseded an older one (and should be re-flooded), `false` if
    /// stale.
    pub fn integrate(&mut self, lsa: Lsa) -> bool {
        match self.lsas.get(&lsa.router) {
            Some(existing) if existing.seq >= lsa.seq => false,
            _ => {
                self.lsas.insert(lsa.router, lsa);
                true
            }
        }
    }

    /// Number of routers known.
    pub fn len(&self) -> usize {
        self.lsas.len()
    }

    /// True if no LSAs are stored.
    pub fn is_empty(&self) -> bool {
        self.lsas.is_empty()
    }

    /// Dijkstra from `source`: cost to every reachable router.
    pub fn shortest_paths(&self, source: u32) -> HashMap<u32, u64> {
        let mut dist = HashMap::new();
        self.run_dijkstra(source, None, &mut dist);
        dist
    }

    /// Cost from `source` to `target`, if reachable. Stops as soon as
    /// `target` settles rather than exploring the whole island.
    pub fn distance(&self, source: u32, target: u32) -> Option<u64> {
        let mut dist = HashMap::new();
        self.run_dijkstra(source, Some(target), &mut dist);
        dist.get(&target).copied()
    }

    /// Dijkstra with an explicit settled set: a popped router that is
    /// already settled is a stale heap entry and is skipped outright,
    /// and settled neighbors are never re-relaxed (their distance is
    /// final), so each router's adjacency is expanded exactly once.
    fn run_dijkstra(&self, source: u32, target: Option<u32>, dist: &mut HashMap<u32, u64>) {
        let mut scratch = self.scratch.borrow_mut();
        let DijkstraScratch { heap, visited } = &mut *scratch;
        heap.clear();
        visited.clear();
        dist.insert(source, 0);
        heap.push(Reverse((0, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if !visited.insert(u) {
                continue;
            }
            if target == Some(u) {
                break;
            }
            let Some(lsa) = self.lsas.get(&u) else { continue };
            for &(v, cost) in &lsa.links {
                if visited.contains(&v) {
                    continue;
                }
                let nd = d.saturating_add(cost);
                if nd < dist.get(&v).copied().unwrap_or(u64::MAX) {
                    dist.insert(v, nd);
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    }
}

/// Read the HLP path cost from an IA.
pub fn hlp_cost(ia: &Ia) -> Option<u64> {
    ia.path_descriptor_u64(ProtocolId::HLP, HLP_PATH_COST)
}

fn set_hlp_cost(ia: &mut Ia, cost: u64) {
    ia.set_path_descriptor(ProtocolId::HLP, HLP_PATH_COST, cost.to_be_bytes().to_vec());
}

/// The HLP decision module for one island member AS.
///
/// `member_of` maps fellow island members' AS numbers to their router
/// IDs in the LSDB, so external candidates presented by a member can be
/// costed with the member's link-state distance.
pub struct HlpModule {
    /// Our island.
    pub island: IslandId,
    /// Our router ID in the island's link-state graph.
    pub router: u32,
    lsdb: LinkStateDb,
    member_routers: HashMap<u32, u32>,
    /// Cost of our own ingress (added at export, like HLP's path costs).
    internal_cost: u64,
    seq: u64,
    /// Selection-epoch fence: bumped whenever the LSDB or the member
    /// map changes, because the selection key's internal-distance term
    /// reads both.
    epoch: u64,
}

impl HlpModule {
    /// Create a module for an island member.
    pub fn new(island: IslandId, router: u32, internal_cost: u64) -> Self {
        HlpModule {
            island,
            router,
            lsdb: LinkStateDb::new(),
            member_routers: HashMap::new(),
            internal_cost,
            seq: 0,
            epoch: 0,
        }
    }

    /// Declare that fellow member `asn` is router `router` in the LSDB.
    pub fn register_member(&mut self, asn: u32, router: u32) {
        self.member_routers.insert(asn, router);
        self.epoch += 1;
    }

    /// The LSDB (for inspection and flooding integration).
    pub fn lsdb(&self) -> &LinkStateDb {
        &self.lsdb
    }

    /// Produce our next own-LSA describing `links` (neighbor router,
    /// cost), with a fresh sequence number.
    pub fn make_lsa(&mut self, links: Vec<(u32, u64)>) -> Lsa {
        self.seq += 1;
        let lsa = Lsa { router: self.router, seq: self.seq, links };
        self.lsdb.integrate(lsa.clone());
        self.epoch += 1;
        lsa
    }

    /// Handle a flooded LSA (also reachable through
    /// [`DecisionModule::deliver_oob`]). Returns whether to re-flood.
    pub fn receive_lsa(&mut self, lsa: Lsa) -> bool {
        let fresh = self.lsdb.integrate(lsa);
        if fresh {
            // The link-state distances the selection key reads may have
            // shifted; stale LSAs change nothing and keep the fence.
            self.epoch += 1;
        }
        fresh
    }

    fn internal_distance_to(&self, member_as: u32) -> u64 {
        self.member_routers
            .get(&member_as)
            .and_then(|&r| self.lsdb.distance(self.router, r))
            .unwrap_or(0)
    }
}

impl DecisionModule for HlpModule {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::HLP
    }

    // Accumulated HLP cost (external) plus our link-state distance to
    // the member that presented the candidate.
    fn rank(&mut self, _prefix: Ipv4Prefix, c: &CandidateIa<'_>) -> Rank {
        let external = hlp_cost(c.ia).unwrap_or(0);
        let internal = self.internal_distance_to(c.neighbor_as);
        Rank::lower(external.saturating_add(internal), c)
    }

    fn export(&mut self, ia: &mut Ia, _ctx: ExportContext) {
        let incoming = hlp_cost(ia).unwrap_or(0);
        set_hlp_cost(ia, incoming.saturating_add(self.internal_cost));
    }

    fn decorate_origin(&mut self, ia: &mut Ia, _local_as: u32) {
        set_hlp_cost(ia, 0);
    }

    fn deliver_oob(&mut self, _from: u32, payload: &[u8]) {
        if let Some(lsa) = Lsa::from_bytes(payload) {
            self.receive_lsa(lsa);
        }
    }

    // `accept` is the side-effect-free default; `rank` reads `lsdb` and
    // `member_routers`, both fenced by the epoch bumps above.
    // `internal_cost` is export-only.
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
    use dbgp_wire::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn lsa_codec_roundtrip() {
        let lsa = Lsa { router: 7, seq: 42, links: vec![(8, 10), (9, 3)] };
        assert_eq!(Lsa::from_bytes(&lsa.to_bytes()), Some(lsa));
        assert_eq!(Lsa::from_bytes(&[0xff; 2]), None);
    }

    #[test]
    fn lsdb_sequence_supersession() {
        let mut db = LinkStateDb::new();
        assert!(db.integrate(Lsa { router: 1, seq: 2, links: vec![(2, 5)] }));
        assert!(!db.integrate(Lsa { router: 1, seq: 1, links: vec![(2, 99)] }), "stale");
        assert!(!db.integrate(Lsa { router: 1, seq: 2, links: vec![(2, 99)] }), "same seq");
        assert!(db.integrate(Lsa { router: 1, seq: 3, links: vec![(2, 1)] }));
        assert_eq!(db.distance(1, 2), Some(1));
    }

    #[test]
    fn dijkstra_finds_shortest_paths() {
        // 1 --5-- 2 --1-- 4
        //  \--1-- 3 --1--/
        let mut db = LinkStateDb::new();
        db.integrate(Lsa { router: 1, seq: 1, links: vec![(2, 5), (3, 1)] });
        db.integrate(Lsa { router: 2, seq: 1, links: vec![(1, 5), (4, 1)] });
        db.integrate(Lsa { router: 3, seq: 1, links: vec![(1, 1), (4, 1)] });
        db.integrate(Lsa { router: 4, seq: 1, links: vec![(2, 1), (3, 1)] });
        assert_eq!(db.distance(1, 4), Some(2), "via router 3");
        assert_eq!(db.distance(1, 2), Some(3), "via 3 and 4 beats the direct 5");
        assert_eq!(db.distance(1, 99), None);
    }

    /// A graph engineered to push the same router into the heap several
    /// times with improving distances (the stale entries must be
    /// skipped, not re-expanded), queried repeatedly so the reused
    /// scratch state is proven to reset between runs.
    #[test]
    fn dijkstra_skips_stale_entries_and_reuses_scratch() {
        let mut db = LinkStateDb::new();
        db.integrate(Lsa { router: 1, seq: 1, links: vec![(2, 10), (3, 1)] });
        db.integrate(Lsa { router: 3, seq: 1, links: vec![(2, 2), (4, 20)] });
        db.integrate(Lsa { router: 2, seq: 1, links: vec![(4, 1)] });
        db.integrate(Lsa { router: 4, seq: 1, links: vec![] });
        for round in 0..3 {
            assert_eq!(db.distance(1, 2), Some(3), "1-3-2 beats direct (round {round})");
            assert_eq!(db.distance(1, 4), Some(4), "1-3-2-4 beats 1-3-4 (round {round})");
            let all = db.shortest_paths(1);
            assert_eq!(all.get(&3), Some(&1));
            assert_eq!(all.get(&2), Some(&3));
            assert_eq!(all.get(&4), Some(&4));
        }
        assert_eq!(db.distance(1, 99), None, "unreachable after scratch reuse");
    }

    #[test]
    fn module_floods_and_ranks_by_hybrid_cost() {
        // Island members: us (router 1), A (router 2, AS 200), B
        // (router 3, AS 300). Link-state: we are close to B, far from A.
        let mut m = HlpModule::new(IslandId(5), 1, 4);
        m.register_member(200, 2);
        m.register_member(300, 3);
        m.make_lsa(vec![(2, 50), (3, 1)]);
        m.deliver_oob(0, &Lsa { router: 2, seq: 1, links: vec![(1, 50)] }.to_bytes());
        m.deliver_oob(0, &Lsa { router: 3, seq: 1, links: vec![(1, 1)] }.to_bytes());
        assert_eq!(m.lsdb().len(), 3);

        // Two candidates with equal external cost: the one presented by
        // the link-state-closer member must win despite a longer
        // external hop count.
        let mut via_a = Ia::originate(p("10.0.0.0/8"), Ipv4Addr(1));
        via_a.prepend_as(200);
        set_hlp_cost(&mut via_a, 10);
        let mut via_b = Ia::originate(p("10.0.0.0/8"), Ipv4Addr(2));
        via_b.prepend_as(999);
        via_b.prepend_as(300);
        set_hlp_cost(&mut via_b, 10);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 200, ia: &via_a },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 300, ia: &via_b },
        ];
        assert_eq!(m.select_best(p("10.0.0.0/8"), &cands), Some(1));
    }

    #[test]
    fn export_accumulates_cost() {
        let mut m = HlpModule::new(IslandId(5), 1, 7);
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr(1));
        m.decorate_origin(&mut ia, 1);
        assert_eq!(hlp_cost(&ia), Some(0));
        m.export(
            &mut ia,
            ExportContext {
                neighbor: NeighborId(0),
                neighbor_as: 42,
                local_as: 1,
                prefix: p("10.0.0.0/8"),
            },
        );
        assert_eq!(hlp_cost(&ia), Some(7));
        let decoded = Ia::decode(ia.encode().into_bytes()).unwrap();
        assert_eq!(hlp_cost(&decoded), Some(7));
    }

    #[test]
    fn reflooding_stops_on_stale_lsas() {
        let mut m = HlpModule::new(IslandId(5), 1, 0);
        let lsa = Lsa { router: 9, seq: 5, links: vec![] };
        assert!(m.receive_lsa(lsa.clone()), "first sight: reflood");
        assert!(!m.receive_lsa(lsa), "second sight: drop (flood terminates)");
    }
}
