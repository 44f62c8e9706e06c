#![warn(missing_docs)]

//! Synthetic routing workloads for the §5 stress test.
//!
//! The paper replayed 150,000-advertisement traces per peer collected
//! from RIPE RIS against Quagga and Beagle. RIS archives are an external
//! data dependency, so we substitute a generator calibrated to the same
//! public characterizations the paper's Table 2 cites (DESIGN.md §2):
//! prefix lengths concentrated at /24 and /16–/22, AS-path lengths of
//! 3–5 hops, and a long tail of larger paths. What the stress test
//! actually measures — per-advertisement serialization and pipeline cost
//! as a function of message count and IA payload size — depends only on
//! these shape parameters, which the generator controls explicitly.

pub mod policy;

use dbgp_wire::attrs::{AsPath, Origin, PathAttribute};
use dbgp_wire::ia::{dkey, IslandDescriptor, PathDescriptor};
use dbgp_wire::message::UpdateMsg;
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, IslandId, ProtocolId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic generator of BGP-shaped workloads.
pub struct WorkloadGen {
    rng: StdRng,
    /// Counter for /24-and-longer prefixes (strided by /24 blocks).
    next24: u32,
    /// Counter for prefixes of length 16-23 (strided by /16 blocks).
    next16: u32,
    /// Counter for prefixes of length 12-15 (strided by /12 blocks).
    next_short: u32,
    /// Counter for prefixes of length 8-11 (strided by /8 blocks).
    next8: u32,
}

impl WorkloadGen {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        WorkloadGen {
            rng: StdRng::seed_from_u64(seed),
            next24: 0,
            next16: 0,
            next_short: 0,
            next8: 0,
        }
    }

    /// A fresh, globally unique prefix with a RIPE-like length
    /// distribution: mode /24 (~55% of the real table), secondary mass
    /// at /16–/23, a more-specific tail, and a thin /8–/15 head — the
    /// full /8–/24 mix a real table carries.
    ///
    /// Uniqueness is guaranteed by striding each draw into its own
    /// address block: /24s consume successive /24 blocks from
    /// `1.0.0.0` up, /16–/23 successive /16 blocks from `64.0.0.0`,
    /// /12–/15 successive /12 blocks from `193.0.0.0`, and /8–/11
    /// successive /8 blocks from `249.0.0.0`.
    pub fn prefix(&mut self) -> Ipv4Prefix {
        let mut len = match self.rng.gen_range(0..100) {
            0..=54 => 24,                          // ~55% of the real table
            55..=69 => self.rng.gen_range(20..24), // /20-/23
            70..=84 => self.rng.gen_range(16..20), // /16-/19
            85..=92 => self.rng.gen_range(25..29), // more-specifics
            93..=97 => self.rng.gen_range(12..16), // short prefixes
            _ => self.rng.gen_range(8..12),        // legacy /8-/11 head
        };
        // Each length class draws from its own address pool; when a
        // shorter-mask pool is exhausted (IPv4 only holds seven spare
        // /8s here, ~65k /16s), degrade the mask to the next-longer
        // class instead of wrapping into duplicates — mirroring how
        // few short prefixes the real table has.
        const POOL8_BLOCKS: u32 = 0x7; // 0xF900_0000..0xFFFF_FFFF
        const POOL16_BLOCKS: u32 = 0x8000; // 0x4000_0000..0xC000_0000
        const POOL_SHORT_BLOCKS: u32 = 0x380; // 0xC100_0000..0xF900_0000
        if (8..12).contains(&len) && self.next8 >= POOL8_BLOCKS {
            len = 12;
        }
        if (12..16).contains(&len) && self.next_short >= POOL_SHORT_BLOCKS {
            len = 16;
        }
        if (16..24).contains(&len) && self.next16 >= POOL16_BLOCKS {
            len = 24;
        }
        let base = if len >= 24 {
            let block = self.next24;
            self.next24 += 1;
            assert!(block < 0x3F_0000, "24-bit prefix pool exhausted (~4.1M prefixes)");
            0x0100_0000u32 + (block << 8)
        } else if len >= 16 {
            let block = self.next16;
            self.next16 += 1;
            0x4000_0000u32 + (block << 16)
        } else if len >= 12 {
            let block = self.next_short;
            self.next_short += 1;
            0xC100_0000u32 + (block << 20)
        } else {
            let block = self.next8;
            self.next8 += 1;
            0xF900_0000u32 + (block << 24)
        };
        Ipv4Prefix::new(Ipv4Addr(base), len).expect("len <= 32")
    }

    /// An AS path with the paper's Table-2 length distribution (PL 3–5,
    /// plus a tail).
    pub fn as_path(&mut self) -> AsPath {
        let len = match self.rng.gen_range(0..100) {
            0..=19 => 3,
            20..=59 => 4,
            60..=84 => 5,
            85..=94 => 6,
            _ => self.rng.gen_range(7..12),
        };
        let ases: Vec<u32> = (0..len).map(|_| self.rng.gen_range(1..400_000)).collect();
        AsPath::from_sequence(ases)
    }

    /// One classic BGP UPDATE announcing a fresh prefix.
    pub fn update(&mut self) -> UpdateMsg {
        let prefix = self.prefix();
        let attrs = self.attr_block();
        UpdateMsg::announce(vec![prefix], attrs)
    }

    /// A trace of `n` classic UPDATEs (the Quagga-side stress input).
    pub fn update_trace(&mut self, n: usize) -> Vec<UpdateMsg> {
        (0..n).map(|_| self.update()).collect()
    }

    /// One shared path-attribute block (origin, path, next hop, MED).
    fn attr_block(&mut self) -> Vec<PathAttribute> {
        vec![
            PathAttribute::Origin(Origin::Igp),
            PathAttribute::AsPath(self.as_path()),
            PathAttribute::NextHop(Ipv4Addr(self.rng.gen())),
            PathAttribute::Med(self.rng.gen_range(0..100)),
        ]
    }

    /// A full routing table of `routes` distinct prefixes as multi-NLRI
    /// UPDATEs: prefixes are drawn with the RIPE-like length mix of
    /// [`prefix`](Self::prefix), grouped into runs that share one
    /// path-attribute block (real tables announce many prefixes per
    /// attribute set), and each run is split at the 4096-byte frame
    /// limit by [`UpdateMsg::pack_announcements`].
    pub fn full_table(&mut self, routes: usize) -> Vec<UpdateMsg> {
        let mut out = Vec::new();
        let mut remaining = routes;
        while remaining > 0 {
            // Run lengths average ~8 prefixes per attribute set, the
            // order of magnitude RIS dumps show per distinct path.
            let run = (1 + self.rng.gen_range(0..16usize)).min(remaining);
            let nlri: Vec<Ipv4Prefix> = (0..run).map(|_| self.prefix()).collect();
            let attrs = self.attr_block();
            out.extend(
                UpdateMsg::pack_announcements(&nlri, attrs, true)
                    .expect("a generated attribute block is a few dozen bytes"),
            );
            remaining -= run;
        }
        out
    }

    /// An update burst over an already-announced table: `n` events,
    /// each re-announcing a random known prefix with a fresh attribute
    /// block (path exploration) or withdrawing it (~1 in 4). The input
    /// is the prefix universe; bursts never invent new prefixes.
    pub fn update_burst(&mut self, table: &[Ipv4Prefix], n: usize) -> Vec<UpdateMsg> {
        assert!(!table.is_empty(), "burst needs an announced table");
        (0..n)
            .map(|_| {
                let prefix = table[self.rng.gen_range(0..table.len())];
                if self.rng.gen_range(0..4) == 0 {
                    UpdateMsg::withdraw(vec![prefix])
                } else {
                    let attrs = self.attr_block();
                    UpdateMsg::announce(vec![prefix], attrs)
                }
            })
            .collect()
    }

    /// One IA whose serialized descriptor payload is approximately
    /// `payload_bytes`, spread over `n_protocols` critical fixes — the
    /// Beagle-side stress input (§5 exchanged IAs of 32 KB and 256 KB).
    pub fn ia(&mut self, payload_bytes: usize, n_protocols: usize) -> Ia {
        let prefix = self.prefix();
        let mut ia = Ia::originate(prefix, Ipv4Addr(self.rng.gen()));
        let path = self.as_path();
        for seg in &path.segments {
            for &asn in seg.ases() {
                ia.path_vector.push(dbgp_wire::PathElem::As(asn));
            }
        }
        if payload_bytes > 0 && n_protocols > 0 {
            let per = payload_bytes / n_protocols;
            ia.with_records(|r| {
                for i in 0..n_protocols {
                    let proto = ProtocolId(100 + i as u16);
                    let mut body = vec![0u8; per];
                    self.rng.fill(body.as_mut_slice());
                    r.path_descriptors.push(PathDescriptor::new(proto, 1, body));
                }
                // One island descriptor to exercise that path too.
                r.island_descriptors.push(IslandDescriptor::new(
                    IslandId(self.rng.gen_range(1..1000)),
                    ProtocolId(100),
                    dkey::SCION_PATHS,
                    vec![0u8; 32],
                ));
            });
        }
        ia
    }

    /// A trace of `n` IAs with the given payload size.
    pub fn ia_trace(&mut self, n: usize, payload_bytes: usize, n_protocols: usize) -> Vec<Ia> {
        (0..n).map(|_| self.ia(payload_bytes, n_protocols)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn prefixes_are_unique_and_valid() {
        let mut gen = WorkloadGen::new(1);
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            let p = gen.prefix();
            assert!(p.len() >= 8 && p.len() <= 28, "length {} outside /8-/28", p.len());
            assert!(seen.insert(p), "duplicate prefix {p}");
        }
    }

    #[test]
    fn prefix_length_distribution_is_ripe_like() {
        let mut gen = WorkloadGen::new(7);
        let mut by_len = [0usize; 33];
        let n = 50_000;
        for _ in 0..n {
            by_len[gen.prefix().len() as usize] += 1;
        }
        let frac = |l: usize| by_len[l] as f64 / n as f64;
        assert!((0.45..=0.65).contains(&frac(24)), "/24 mode at {:.2}", frac(24));
        let mid: f64 = (16..24).map(frac).sum();
        assert!((0.20..=0.40).contains(&mid), "/16-/23 mass at {mid:.2}");
        let short: usize = by_len[8..16].iter().sum();
        assert!(short > 0, "no /8-/15 prefixes drawn");
        // Exactly seven distinct /8s exist; the class degrades rather
        // than duplicating once the pool drains.
        let eights: usize = by_len[8];
        assert!(eights <= 7, "{eights} /8s from a 7-block pool");
    }

    #[test]
    fn full_table_covers_requested_routes_with_shared_attrs() {
        let mut gen = WorkloadGen::new(11);
        let msgs = gen.full_table(5_000);
        let mut seen = HashSet::new();
        let mut multi = 0;
        for msg in &msgs {
            assert!(!msg.nlri.is_empty());
            let bytes = dbgp_wire::BgpMessage::Update(msg.clone()).encode(true);
            assert!(bytes.len() <= dbgp_wire::message::MAX_MESSAGE_LEN);
            if msg.nlri.len() > 1 {
                multi += 1;
            }
            for p in &msg.nlri {
                assert!(seen.insert(*p), "duplicate route {p} in table");
            }
        }
        assert_eq!(seen.len(), 5_000, "every requested route present exactly once");
        assert!(multi * 2 > msgs.len(), "most UPDATEs carry multiple NLRI");
        assert!(msgs.len() < 2_500, "attribute sharing packs ~8 routes/UPDATE");
    }

    #[test]
    fn update_burst_stays_inside_the_announced_table() {
        let mut gen = WorkloadGen::new(12);
        let table: Vec<Ipv4Prefix> = (0..500).map(|_| gen.prefix()).collect();
        let universe: HashSet<_> = table.iter().copied().collect();
        let burst = gen.update_burst(&table, 2_000);
        assert_eq!(burst.len(), 2_000);
        let mut withdraws = 0;
        for msg in &burst {
            for p in msg.nlri.iter().chain(&msg.withdrawn) {
                assert!(universe.contains(p), "burst invented prefix {p}");
            }
            if !msg.withdrawn.is_empty() {
                withdraws += 1;
            }
        }
        assert!((300..=700).contains(&withdraws), "~1 in 4 withdraws, got {withdraws}");
    }

    #[test]
    fn path_lengths_match_table2_band() {
        let mut gen = WorkloadGen::new(2);
        let lengths: Vec<usize> = (0..5_000).map(|_| gen.as_path().hop_count()).collect();
        let avg = lengths.iter().sum::<usize>() as f64 / lengths.len() as f64;
        assert!(
            (3.0..=5.5).contains(&avg),
            "average path length {avg} outside the paper's 3-5 band"
        );
        assert!(lengths.iter().all(|&l| (3..=12).contains(&l)));
    }

    #[test]
    fn updates_encode_and_decode() {
        let mut gen = WorkloadGen::new(3);
        for update in gen.update_trace(200) {
            let bytes = dbgp_wire::BgpMessage::Update(update.clone()).encode(true);
            let mut buf = bytes::BytesMut::from(&bytes[..]);
            let decoded = dbgp_wire::BgpMessage::decode(&mut buf, true).unwrap().unwrap();
            assert_eq!(decoded, dbgp_wire::BgpMessage::Update(update));
        }
    }

    #[test]
    fn ia_payload_size_is_respected() {
        let mut gen = WorkloadGen::new(4);
        for target in [0usize, 4 << 10, 32 << 10, 256 << 10] {
            let ia = gen.ia(target, 5);
            let size = ia.wire_size();
            assert!(size >= target && size <= target + 2048, "target {target}, actual {size}");
            assert_eq!(Ia::decode(ia.encode().into_bytes()).unwrap(), ia);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<_> = WorkloadGen::new(9).update_trace(50);
        let b: Vec<_> = WorkloadGen::new(9).update_trace(50);
        assert_eq!(a, b);
        let c: Vec<_> = WorkloadGen::new(10).update_trace(50);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_payload_ia_has_no_descriptors() {
        let mut gen = WorkloadGen::new(5);
        let ia = gen.ia(0, 5);
        assert!(ia.path_descriptors().is_empty());
        assert!(ia.island_descriptors().is_empty());
    }
}
