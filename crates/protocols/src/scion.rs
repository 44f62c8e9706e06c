//! A SCION-like path-based replacement protocol (paper §2.4, Figure 3).
//!
//! The property D-BGP must rescue (Figure 3): a path-based island exposes
//! *multiple* within-island paths to a destination, but redistributing
//! into BGP keeps only one. Over D-BGP, the island encodes its full path
//! set in an island descriptor ([`dkey::SCION_PATHS`]); sources in other
//! islands extract it, choose a within-island path, and encode it in a
//! packet header, encapsulated in IPv4 to cross the gulf (§3.4).
//!
//! Paths are expressed at border-router granularity (`br70 br50 br10
//! br1` in the paper's Figure 4), so islands reveal nothing about their
//! interior topology beyond the routers sources must name.

use bytes::{Buf, Bytes, BytesMut};
use dbgp_core::module::{CandidateIa, DecisionModule, ExportContext, Rank};
use dbgp_wire::ia::dkey;
use dbgp_wire::varint::{get_uvarint, put_uvarint};
use dbgp_wire::{Ia, Ipv4Prefix, IslandId, ProtocolId};

/// A set of within-island paths, each a sequence of border-router IDs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PathSet {
    /// The paths, destination-side router last.
    pub paths: Vec<Vec<u32>>,
}

impl PathSet {
    /// Encode into an island-descriptor value.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, self.paths.len() as u64);
        for path in &self.paths {
            put_uvarint(&mut buf, path.len() as u64);
            for router in path {
                put_uvarint(&mut buf, *router as u64);
            }
        }
        buf.to_vec()
    }

    /// Decode from an island-descriptor value.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut buf = Bytes::copy_from_slice(data);
        let npaths = get_uvarint(&mut buf).ok()? as usize;
        if npaths > data.len() {
            return None;
        }
        let mut paths = Vec::with_capacity(npaths);
        for _ in 0..npaths {
            let len = get_uvarint(&mut buf).ok()? as usize;
            if len > data.len() {
                return None;
            }
            let mut path = Vec::with_capacity(len);
            for _ in 0..len {
                path.push(get_uvarint(&mut buf).ok()? as u32);
            }
            paths.push(path);
        }
        (!buf.has_remaining()).then_some(PathSet { paths })
    }
}

/// Extract every SCION island's path set from an IA.
pub fn path_sets(ia: &Ia) -> Vec<(IslandId, PathSet)> {
    ia.island_descriptors_for(ProtocolId::SCION)
        .filter(|d| d.key == dkey::SCION_PATHS)
        .filter_map(|d| PathSet::from_bytes(&d.value).map(|ps| (d.island, ps)))
        .collect()
}

/// Total number of within-island paths an IA exposes (the Figure-9
/// "extra paths" quantity), per-island counts capped at `cap`.
pub fn total_paths(ia: &Ia, cap: usize) -> usize {
    path_sets(ia).iter().map(|(_, ps)| ps.paths.len().min(cap)).sum()
}

/// The path-based forwarding header a source constructs (§3.4): the
/// chosen within-island router sequence, carried inside an IPv4
/// encapsulation across gulfs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScionHeader {
    /// Router IDs to traverse inside the island.
    pub hops: Vec<u32>,
}

impl ScionHeader {
    /// Serialize for encapsulation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, self.hops.len() as u64);
        for hop in &self.hops {
            put_uvarint(&mut buf, *hop as u64);
        }
        buf.to_vec()
    }

    /// Parse at an island ingress.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut buf = Bytes::copy_from_slice(data);
        let n = get_uvarint(&mut buf).ok()? as usize;
        if n > data.len() {
            return None;
        }
        let mut hops = Vec::with_capacity(n);
        for _ in 0..n {
            hops.push(get_uvarint(&mut buf).ok()? as u32);
        }
        Some(ScionHeader { hops })
    }
}

/// The SCION-like decision module for an island border AS.
#[derive(Debug, Clone)]
pub struct ScionModule {
    island: IslandId,
    /// The within-island paths this border AS exposes.
    own_paths: PathSet,
    /// Per-island path cap (the experiments use 10).
    cap: usize,
}

impl ScionModule {
    /// Create the module with the paths this island will expose.
    pub fn new(island: IslandId, own_paths: PathSet) -> Self {
        ScionModule { island, own_paths, cap: 10 }
    }

    /// Pick a within-island path from a received IA for the given
    /// upstream island and build the forwarding header for it.
    pub fn choose_path(ia: &Ia, island: IslandId) -> Option<ScionHeader> {
        let sets = path_sets(ia);
        let (_, set) = sets.into_iter().find(|(id, _)| *id == island)?;
        // Shortest exposed path; a real deployment would apply policy.
        let hops = set.paths.into_iter().min_by_key(|p| p.len())?;
        Some(ScionHeader { hops })
    }

    fn attach(&self, ia: &mut Ia) {
        // No paths of our own, nothing to attach.
        if !self.own_paths.paths.is_empty() {
            ia.ensure_island_descriptor(self.island, ProtocolId::SCION, dkey::SCION_PATHS, || {
                self.own_paths.to_bytes()
            });
        }
    }
}

impl DecisionModule for ScionModule {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::SCION
    }

    // Path-based archetype: prefer the inter-island path exposing the
    // most within-island paths.
    fn rank(&mut self, _prefix: Ipv4Prefix, c: &CandidateIa<'_>) -> Rank {
        Rank::higher(total_paths(c.ia, self.cap) as u64, c)
    }

    fn export(&mut self, ia: &mut Ia, _ctx: ExportContext) {
        self.attach(ia);
    }

    fn decorate_origin(&mut self, ia: &mut Ia, _local_as: u32) {
        self.attach(ia);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_core::NeighborId;
    use dbgp_wire::ia::IslandDescriptor;
    use dbgp_wire::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn two_path_set() -> PathSet {
        // The Figure-4 SCION descriptor: br70 br50 br10 br1 and
        // br70 br20 br5 br1.
        PathSet { paths: vec![vec![70, 50, 10, 1], vec![70, 20, 5, 1]] }
    }

    #[test]
    fn path_set_codec_roundtrip() {
        let ps = two_path_set();
        assert_eq!(PathSet::from_bytes(&ps.to_bytes()), Some(ps));
        assert_eq!(PathSet::from_bytes(&[0xff; 2]), None);
    }

    #[test]
    fn empty_path_set_roundtrips() {
        let ps = PathSet::default();
        assert_eq!(PathSet::from_bytes(&ps.to_bytes()), Some(ps));
    }

    #[test]
    fn header_codec_roundtrip() {
        let h = ScionHeader { hops: vec![70, 50, 10, 1] };
        assert_eq!(ScionHeader::from_bytes(&h.to_bytes()), Some(h));
    }

    #[test]
    fn both_figure3_paths_survive_the_gulf() {
        // The Figure-3 failure D-BGP fixes: both within-island paths must
        // reach the source intact after wire transit.
        let mut module = ScionModule::new(IslandId(800), two_path_set());
        let mut ia = Ia::originate(p("131.3.0.0/24"), Ipv4Addr::new(9, 9, 9, 9));
        module.decorate_origin(&mut ia, 1);
        let ia = Ia::decode(ia.encode().into_bytes()).unwrap();
        let sets = path_sets(&ia);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].1.paths.len(), 2, "both paths visible, unlike plain BGP");
    }

    #[test]
    fn choose_path_picks_shortest_and_builds_header() {
        let mut set = two_path_set();
        set.paths.push(vec![70, 1]); // a shorter one
        let mut ia = Ia::originate(p("131.3.0.0/24"), Ipv4Addr::new(9, 9, 9, 9));
        ia.with_records(|r| {
            r.island_descriptors.push(IslandDescriptor::new(
                IslandId(800),
                ProtocolId::SCION,
                dkey::SCION_PATHS,
                set.to_bytes(),
            ))
        });
        let header = ScionModule::choose_path(&ia, IslandId(800)).unwrap();
        assert_eq!(header.hops, vec![70, 1]);
        assert_eq!(ScionModule::choose_path(&ia, IslandId(999)), None);
    }

    #[test]
    fn total_paths_caps_per_island() {
        let big = PathSet { paths: (0..25).map(|i| vec![i, i + 1]).collect() };
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        ia.with_records(|r| {
            for (island, set) in [(1, big), (2, two_path_set())] {
                r.island_descriptors.push(IslandDescriptor::new(
                    IslandId(island),
                    ProtocolId::SCION,
                    dkey::SCION_PATHS,
                    set.to_bytes(),
                ));
            }
        });
        assert_eq!(total_paths(&ia, 10), 12);
    }

    #[test]
    fn module_prefers_richer_path_exposure() {
        let mut module = ScionModule::new(IslandId(1), PathSet::default());
        let mut rich = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        rich.prepend_as(5);
        rich.prepend_as(6);
        rich.with_records(|r| {
            r.island_descriptors.push(IslandDescriptor::new(
                IslandId(2),
                ProtocolId::SCION,
                dkey::SCION_PATHS,
                two_path_set().to_bytes(),
            ))
        });
        let mut poor = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(2, 2, 2, 2));
        poor.prepend_as(7);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 7, ia: &poor },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 5, ia: &rich },
        ];
        assert_eq!(
            module.select_best(p("10.0.0.0/8"), &cands),
            Some(1),
            "two exposed paths beat a shorter exposure-free route"
        );
    }
}
