//! Pathlet Routing (Godfrey et al., SIGCOMM'09) deployed over D-BGP: the
//! paper's worked example of a *replacement protocol* (§2.4, §6.1,
//! Figures 6–8).
//!
//! Pathlet Routing advertises *pathlets* — path fragments named by
//! forwarding IDs (FIDs) — that sources concatenate into end-to-end
//! routes encoded in packet headers. Over D-BGP:
//!
//! * within an island, pathlets travel in the protocol's own
//!   advertisement format ([`PathletAd`], one pathlet per advertisement,
//!   as in our Beagle-equivalent implementation);
//! * at island egress, an **egress translation module** packs the
//!   exportable pathlets into an IA island descriptor
//!   ([`dkey::PATHLET_PATHLETS`]) so they can cross gulfs;
//! * at island ingress, an **ingress translation module** unpacks IAs
//!   back into pathlet advertisements;
//! * a **redistribution module** synthesizes plain-BGP reachability for
//!   destinations covered by pathlets so gulf ASes can still route
//!   (paper §3.3 and the Figure-8 experiment).
//!
//! This file is the analogue of the 509 + 293 lines the paper reports
//! for basic Pathlet Routing plus its across-gulf deployment.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dbgp_core::module::{best_by_rank, CandidateIa, DecisionModule, ExportContext, Rank};
use dbgp_wire::ia::{dkey, IslandDescriptor};
use dbgp_wire::varint::{get_uvarint, put_uvarint};
use dbgp_wire::{Ia, Ipv4Prefix, IslandId, ProtocolId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One endpoint of a pathlet hop: a router, or a delegated destination
/// prefix (the `9: (dr4, 131.1.4.0/24)` form of the paper's Figure 7).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathletNode {
    /// A (border) router, by opaque ID.
    Router(u32),
    /// A destination prefix this pathlet terminates at.
    Dest(Ipv4Prefix),
}

/// A pathlet: a named fragment from one node to another.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pathlet {
    /// Forwarding ID sources put in packet headers to use this pathlet.
    pub fid: u32,
    /// Start node.
    pub from: PathletNode,
    /// End node.
    pub to: PathletNode,
}

impl Pathlet {
    /// A router-to-router pathlet.
    pub fn between(fid: u32, from: u32, to: u32) -> Self {
        Pathlet { fid, from: PathletNode::Router(from), to: PathletNode::Router(to) }
    }

    /// A pathlet terminating at a destination prefix.
    pub fn to_dest(fid: u32, from: u32, dest: Ipv4Prefix) -> Self {
        Pathlet { fid, from: PathletNode::Router(from), to: PathletNode::Dest(dest) }
    }
}

fn encode_node(buf: &mut BytesMut, node: &PathletNode) {
    match node {
        PathletNode::Router(id) => {
            buf.put_u8(0);
            put_uvarint(buf, *id as u64);
        }
        PathletNode::Dest(prefix) => {
            buf.put_u8(1);
            prefix.encode(buf);
        }
    }
}

fn decode_node(buf: &mut Bytes) -> Option<PathletNode> {
    if !buf.has_remaining() {
        return None;
    }
    match buf.get_u8() {
        0 => Some(PathletNode::Router(get_uvarint(buf).ok()? as u32)),
        1 => Some(PathletNode::Dest(Ipv4Prefix::decode(buf).ok()?)),
        _ => None,
    }
}

/// Encode a pathlet set into the island-descriptor wire form.
pub fn encode_pathlets(pathlets: &[Pathlet]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    put_uvarint(&mut buf, pathlets.len() as u64);
    for p in pathlets {
        put_uvarint(&mut buf, p.fid as u64);
        encode_node(&mut buf, &p.from);
        encode_node(&mut buf, &p.to);
    }
    buf.to_vec()
}

/// Decode a pathlet set from the island-descriptor wire form.
pub fn decode_pathlets(data: &[u8]) -> Option<Vec<Pathlet>> {
    let mut buf = Bytes::copy_from_slice(data);
    let n = get_uvarint(&mut buf).ok()? as usize;
    if n > data.len() {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let fid = get_uvarint(&mut buf).ok()? as u32;
        let from = decode_node(&mut buf)?;
        let to = decode_node(&mut buf)?;
        out.push(Pathlet { fid, from, to });
    }
    buf.has_remaining().then_some(()).map_or(Some(out), |_| None)
}

/// Pathlet Routing's own intra-island advertisement: one pathlet, flooded
/// hop by hop (the paper's basic implementation carries "individual
/// pathlets" per advertisement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathletAd {
    /// The island originating the pathlet.
    pub island: IslandId,
    /// The pathlet itself.
    pub pathlet: Pathlet,
}

/// The packet header a source builds: the FID sequence to traverse.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PathletHeader {
    /// Forwarding IDs, first to pop at the front.
    pub fids: Vec<u32>,
}

impl PathletHeader {
    /// Serialize for the data plane.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, self.fids.len() as u64);
        for fid in &self.fids {
            put_uvarint(&mut buf, *fid as u64);
        }
        buf.to_vec()
    }

    /// Parse from the data plane.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut buf = Bytes::copy_from_slice(data);
        let n = get_uvarint(&mut buf).ok()? as usize;
        if n > data.len() {
            return None;
        }
        let mut fids = Vec::with_capacity(n);
        for _ in 0..n {
            fids.push(get_uvarint(&mut buf).ok()? as u32);
        }
        Some(PathletHeader { fids })
    }
}

/// A database of known pathlets with end-to-end composition.
#[derive(Debug, Clone, Default)]
pub struct PathletDb {
    pathlets: BTreeMap<u32, Pathlet>,
    by_from: HashMap<PathletNode, Vec<u32>>,
}

impl PathletDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a pathlet.
    pub fn insert(&mut self, pathlet: Pathlet) {
        if let Some(old) = self.pathlets.insert(pathlet.fid, pathlet.clone()) {
            if let Some(v) = self.by_from.get_mut(&old.from) {
                v.retain(|f| *f != old.fid);
            }
        }
        self.by_from.entry(pathlet.from.clone()).or_default().push(pathlet.fid);
    }

    /// Number of known pathlets.
    pub fn len(&self) -> usize {
        self.pathlets.len()
    }

    /// True if no pathlets are known.
    pub fn is_empty(&self) -> bool {
        self.pathlets.is_empty()
    }

    /// Look up a pathlet by FID.
    pub fn get(&self, fid: u32) -> Option<&Pathlet> {
        self.pathlets.get(&fid)
    }

    /// All pathlets, FID order.
    pub fn iter(&self) -> impl Iterator<Item = &Pathlet> {
        self.pathlets.values()
    }

    /// Every distinct FID-sequence from `start` to a destination covered
    /// by `dest`, found by depth-first composition (cycle-free, capped at
    /// `max_paths` results).
    pub fn compose(&self, start: u32, dest: &Ipv4Prefix, max_paths: usize) -> Vec<PathletHeader> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        let mut visited = HashSet::new();
        self.dfs(&PathletNode::Router(start), dest, &mut stack, &mut visited, &mut out, max_paths);
        out
    }

    fn dfs(
        &self,
        at: &PathletNode,
        dest: &Ipv4Prefix,
        stack: &mut Vec<u32>,
        visited: &mut HashSet<PathletNode>,
        out: &mut Vec<PathletHeader>,
        max_paths: usize,
    ) {
        if out.len() >= max_paths {
            return;
        }
        if let PathletNode::Dest(covered) = at {
            if covered == dest || covered.covers(dest) {
                out.push(PathletHeader { fids: stack.clone() });
            }
            return;
        }
        if !visited.insert(at.clone()) {
            return;
        }
        if let Some(fids) = self.by_from.get(at) {
            let mut fids = fids.clone();
            fids.sort_unstable();
            for fid in fids {
                let pathlet = &self.pathlets[&fid];
                stack.push(fid);
                self.dfs(&pathlet.to, dest, stack, visited, out, max_paths);
                stack.pop();
            }
        }
        visited.remove(at);
    }
}

/// Ingress translation (paper §3.3): unpack a received IA into the
/// pathlet advertisements the intra-island protocol floods.
pub fn ingress_translate(ia: &Ia) -> Vec<PathletAd> {
    let mut out = Vec::new();
    for d in ia.island_descriptors_for(ProtocolId::PATHLET) {
        if d.key != dkey::PATHLET_PATHLETS {
            continue;
        }
        if let Some(pathlets) = decode_pathlets(&d.value) {
            for pathlet in pathlets {
                out.push(PathletAd { island: d.island, pathlet });
            }
        }
    }
    out
}

/// Egress translation (paper §3.3): pack pathlets into the island
/// descriptor attached to an outgoing IA.
pub fn egress_translate(island: IslandId, pathlets: &[Pathlet]) -> IslandDescriptor {
    IslandDescriptor::new(
        island,
        ProtocolId::PATHLET,
        dkey::PATHLET_PATHLETS,
        encode_pathlets(pathlets),
    )
}

/// The Pathlet Routing decision module for an island border AS.
#[derive(Debug, Clone)]
pub struct PathletModule {
    /// Our island.
    island: IslandId,
    /// Our border router's ID (composition starts here).
    border_router: u32,
    /// Pathlets we expose to the rest of the Internet.
    own_pathlets: Vec<Pathlet>,
    /// Everything we have learned (own + ingress-translated).
    db: PathletDb,
    /// Cap on composed paths per destination, mirroring the paper's
    /// ten-paths-per-inter-island-path experiment cap.
    max_paths: usize,
}

impl PathletModule {
    /// Create a module for an island border AS.
    pub fn new(island: IslandId, border_router: u32, own_pathlets: Vec<Pathlet>) -> Self {
        let mut db = PathletDb::new();
        for p in &own_pathlets {
            db.insert(p.clone());
        }
        PathletModule { island, border_router, own_pathlets, db, max_paths: 10 }
    }

    /// The pathlet database (own + learned).
    pub fn db(&self) -> &PathletDb {
        &self.db
    }

    /// Learn a pathlet from the intra-island protocol or a translated IA.
    pub fn learn(&mut self, ad: PathletAd) {
        self.db.insert(ad.pathlet);
    }

    /// Compose end-to-end headers toward `dest`.
    pub fn routes_to(&self, dest: &Ipv4Prefix) -> Vec<PathletHeader> {
        self.db.compose(self.border_router, dest, self.max_paths)
    }

    /// Redistribution module (paper §3.3): the set of destination
    /// prefixes reachable through known pathlets, which the border AS
    /// re-originates into plain BGP so gulf ASes keep baseline
    /// connectivity.
    pub fn redistributed_prefixes(&self) -> Vec<Ipv4Prefix> {
        let mut out: Vec<Ipv4Prefix> = self
            .db
            .iter()
            .filter_map(|p| match &p.to {
                PathletNode::Dest(prefix) => Some(*prefix),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

impl DecisionModule for PathletModule {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::PATHLET
    }

    // Prefer the IA that exposes the most pathlets (more route choice).
    fn rank(&mut self, _prefix: Ipv4Prefix, c: &CandidateIa<'_>) -> Rank {
        let pathlet_count: usize =
            c.ia.island_descriptors_for(ProtocolId::PATHLET)
                .filter(|d| d.key == dkey::PATHLET_PATHLETS)
                .filter_map(|d| decode_pathlets(&d.value))
                .map(|v| v.len())
                .sum();
        Rank::higher(pathlet_count as u64, c)
    }

    fn select_best(&mut self, prefix: Ipv4Prefix, candidates: &[CandidateIa<'_>]) -> Option<usize> {
        // Ingress translation: learn every candidate's pathlets.
        for c in candidates {
            for ad in ingress_translate(c.ia) {
                self.db.insert(ad.pathlet);
            }
        }
        best_by_rank(self, prefix, candidates)
    }

    fn export(&mut self, ia: &mut Ia, _ctx: ExportContext) {
        // Egress translation: attach our own exportable pathlets if not
        // already present.
        let already = ia
            .island_descriptors_for(ProtocolId::PATHLET)
            .any(|d| d.island == self.island && d.key == dkey::PATHLET_PATHLETS);
        if !already && !self.own_pathlets.is_empty() {
            ia.with_records(|r| {
                r.island_descriptors.push(egress_translate(self.island, &self.own_pathlets))
            });
        }
    }

    fn decorate_origin(&mut self, ia: &mut Ia, _local_as: u32) {
        if !self.own_pathlets.is_empty() {
            ia.with_records(|r| {
                r.island_descriptors.push(egress_translate(self.island, &self.own_pathlets))
            });
        }
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

    fn d() -> Ipv4Prefix {
        p("131.1.4.0/24")
    }

    #[test]
    fn pathlet_codec_roundtrip() {
        let pathlets = vec![
            Pathlet::between(1, 100, 200),
            Pathlet::to_dest(9, 200, d()),
            Pathlet::between(5, 200, 400),
        ];
        let encoded = encode_pathlets(&pathlets);
        assert_eq!(decode_pathlets(&encoded), Some(pathlets));
    }

    #[test]
    fn pathlet_codec_rejects_garbage() {
        assert_eq!(decode_pathlets(&[0xff; 3]), None);
    }

    #[test]
    fn header_codec_roundtrip() {
        let h = PathletHeader { fids: vec![3, 6, 8] };
        assert_eq!(PathletHeader::from_bytes(&h.to_bytes()), Some(h));
    }

    #[test]
    fn db_composes_figure7_paths() {
        // Island D of the paper's Figure 7:
        //   1: (dr1, dr2)   3: (dr1, dr3)   5: (dr2, dr4)
        //   4: (dr3, dr4)   9: (dr4, 131.1.4.0/24)
        // Two distinct dr1 -> dest paths must compose: [1,5,9] and [3,4,9].
        let mut db = PathletDb::new();
        for pathlet in [
            Pathlet::between(1, 1, 2),
            Pathlet::between(3, 1, 3),
            Pathlet::between(5, 2, 4),
            Pathlet::between(4, 3, 4),
            Pathlet::to_dest(9, 4, d()),
        ] {
            db.insert(pathlet);
        }
        let mut headers = db.compose(1, &d(), 10);
        headers.sort_by(|a, b| a.fids.cmp(&b.fids));
        assert_eq!(
            headers,
            vec![PathletHeader { fids: vec![1, 5, 9] }, PathletHeader { fids: vec![3, 4, 9] },]
        );
    }

    #[test]
    fn compose_handles_cycles() {
        let mut db = PathletDb::new();
        db.insert(Pathlet::between(1, 1, 2));
        db.insert(Pathlet::between(2, 2, 1)); // cycle back
        db.insert(Pathlet::to_dest(3, 2, d()));
        let headers = db.compose(1, &d(), 10);
        assert_eq!(headers, vec![PathletHeader { fids: vec![1, 3] }]);
    }

    #[test]
    fn compose_respects_max_paths_cap() {
        let mut db = PathletDb::new();
        // 4 parallel 1->2 pathlets and 4 parallel 2->dest pathlets: 16
        // combinations, capped at 10.
        for i in 0..4 {
            db.insert(Pathlet::between(10 + i, 1, 2));
            db.insert(Pathlet::to_dest(20 + i, 2, d()));
        }
        assert_eq!(db.compose(1, &d(), 10).len(), 10);
        assert_eq!(db.compose(1, &d(), 100).len(), 16);
    }

    #[test]
    fn covering_prefix_matches_more_specific_dest() {
        let mut db = PathletDb::new();
        db.insert(Pathlet::to_dest(1, 1, p("131.1.0.0/16")));
        assert_eq!(db.compose(1, &p("131.1.4.0/24"), 10).len(), 1);
        assert_eq!(db.compose(1, &p("131.2.0.0/24"), 10).len(), 0);
    }

    #[test]
    fn translation_roundtrip_through_ia() {
        let island = IslandId(700);
        let pathlets = vec![Pathlet::between(1, 1, 2), Pathlet::to_dest(9, 2, d())];
        let mut ia = Ia::originate(d(), Ipv4Addr::new(9, 9, 9, 9));
        ia.with_records(|r| r.island_descriptors.push(egress_translate(island, &pathlets)));
        // Cross a gulf: encode + decode the IA.
        let ia = Ia::decode(ia.encode().into_bytes()).unwrap();
        let ads = ingress_translate(&ia);
        assert_eq!(ads.len(), 2);
        assert!(ads.iter().all(|ad| ad.island == island));
        assert_eq!(ads[0].pathlet, pathlets[0]);
        assert_eq!(ads[1].pathlet, pathlets[1]);
    }

    #[test]
    fn module_learns_and_composes_across_islands() {
        // Island G exposes 1->2 and an inter-island pathlet 8: (2, dr50);
        // island D exposes 9: (50, dest). Our border router is 1.
        let mut module = PathletModule::new(IslandId(1), 1, vec![]);
        module.learn(PathletAd { island: IslandId(2), pathlet: Pathlet::between(7, 1, 2) });
        module.learn(PathletAd { island: IslandId(2), pathlet: Pathlet::between(8, 2, 50) });
        module.learn(PathletAd { island: IslandId(3), pathlet: Pathlet::to_dest(9, 50, d()) });
        let headers = module.routes_to(&d());
        assert_eq!(headers, vec![PathletHeader { fids: vec![7, 8, 9] }]);
    }

    #[test]
    fn module_export_attaches_own_pathlets_once() {
        let own = vec![Pathlet::between(1, 1, 2)];
        let mut module = PathletModule::new(IslandId(5), 1, own);
        let mut ia = Ia::originate(d(), Ipv4Addr::new(9, 9, 9, 9));
        let ctx =
            ExportContext { neighbor: NeighborId(0), neighbor_as: 42, local_as: 7, prefix: d() };
        module.export(&mut ia, ctx);
        module.export(&mut ia, ctx);
        let n = ia
            .island_descriptors_for(ProtocolId::PATHLET)
            .filter(|desc| desc.island == IslandId(5))
            .count();
        assert_eq!(n, 1);
    }

    #[test]
    fn module_select_prefers_more_pathlets() {
        let mut module = PathletModule::new(IslandId(1), 1, vec![]);
        let mut rich = Ia::originate(d(), Ipv4Addr::new(9, 9, 9, 9));
        rich.prepend_as(10);
        rich.with_records(|r| {
            r.island_descriptors.push(egress_translate(
                IslandId(2),
                &[Pathlet::between(1, 1, 2), Pathlet::to_dest(2, 2, d())],
            ))
        });
        let mut poor = Ia::originate(d(), Ipv4Addr::new(8, 8, 8, 8));
        poor.prepend_as(11);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 11, ia: &poor },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 10, ia: &rich },
        ];
        assert_eq!(module.select_best(d(), &cands), Some(1));
        // Selection also ingress-translated both candidates' pathlets.
        assert_eq!(module.db().len(), 2);
    }

    #[test]
    fn redistribution_lists_dest_prefixes() {
        let mut module = PathletModule::new(IslandId(1), 1, vec![]);
        module.learn(PathletAd { island: IslandId(2), pathlet: Pathlet::to_dest(9, 4, d()) });
        module.learn(PathletAd {
            island: IslandId(2),
            pathlet: Pathlet::to_dest(8, 4, p("10.0.0.0/8")),
        });
        module.learn(PathletAd { island: IslandId(2), pathlet: Pathlet::between(1, 1, 4) });
        assert_eq!(module.redistributed_prefixes(), vec![p("10.0.0.0/8"), d()]);
    }

    #[test]
    fn db_replacing_fid_updates_index() {
        let mut db = PathletDb::new();
        db.insert(Pathlet::between(1, 1, 2));
        db.insert(Pathlet::between(1, 3, 4)); // same FID, new endpoints
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(1), Some(&Pathlet::between(1, 3, 4)));
        db.insert(Pathlet::to_dest(2, 4, d()));
        assert_eq!(db.compose(3, &d(), 10).len(), 1);
        assert_eq!(db.compose(1, &d(), 10).len(), 0, "old edge removed");
    }
}
