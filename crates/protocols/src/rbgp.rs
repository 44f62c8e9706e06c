//! R-BGP (Kushman et al., NSDI'07) over D-BGP: pre-announced backup
//! paths for fast failover — one of Table 1's critical fixes
//! ("⋆ Extra backup paths").
//!
//! R-BGP's core idea is that an AS advertises, alongside its best path,
//! one *failover path* that is maximally disjoint from it; when the
//! primary fails, traffic shifts instantly instead of waiting for
//! re-convergence. Over D-BGP the backup path rides in a path
//! descriptor ([`dkey::RBGP_BACKUP`]) and crosses gulfs by pass-through,
//! so non-contiguous R-BGP islands still learn each other's backups.
//!
//! Like Wiser, R-BGP is a two-way protocol in full generality (the
//! paper's §3.5 notes D-BGP carries its downstream messages
//! out-of-band); the part reproduced here is the one-way dissemination
//! of backup paths plus the failover decision.

use bytes::{Buf, Bytes, BytesMut};
use dbgp_core::module::{best_by_rank, CandidateIa, DecisionModule, ExportContext};
use dbgp_wire::ia::dkey;
use dbgp_wire::varint::{get_uvarint, put_uvarint};
use dbgp_wire::{Ia, Ipv4Prefix, ProtocolId};
use std::collections::HashMap;

/// A backup path: the AS-level alternative to the advertised best path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BackupPath {
    /// AS numbers of the alternative, next hop first.
    pub ases: Vec<u32>,
}

impl BackupPath {
    /// Serialize into a path-descriptor value.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, self.ases.len() as u64);
        for asn in &self.ases {
            put_uvarint(&mut buf, *asn as u64);
        }
        buf.to_vec()
    }

    /// Parse from a path-descriptor value.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut buf = Bytes::copy_from_slice(data);
        let n = get_uvarint(&mut buf).ok()? as usize;
        if n > data.len() {
            return None;
        }
        let mut ases = Vec::with_capacity(n);
        for _ in 0..n {
            ases.push(get_uvarint(&mut buf).ok()? as u32);
        }
        (!buf.has_remaining()).then_some(BackupPath { ases })
    }

    /// How many ASes this backup shares with `primary` (lower = more
    /// disjoint = better failover).
    pub fn overlap(&self, primary: &[u32]) -> usize {
        self.ases.iter().filter(|a| primary.contains(a)).count()
    }
}

/// Read the backup path carried by an IA, if any.
pub fn backup_path(ia: &Ia) -> Option<BackupPath> {
    let d = ia.path_descriptor(ProtocolId::RBGP, dkey::RBGP_BACKUP)?;
    BackupPath::from_bytes(&d.value)
}

fn set_backup(ia: &mut Ia, backup: &BackupPath) {
    ia.set_path_descriptor(ProtocolId::RBGP, dkey::RBGP_BACKUP, backup.to_bytes());
}

/// The R-BGP decision module: BGP-like selection, but it remembers the
/// runner-up as the failover path and advertises it downstream.
#[derive(Debug, Clone, Default)]
pub struct RbgpModule {
    /// The failover candidate recorded per prefix at the last selection.
    failover: HashMap<Ipv4Prefix, BackupPath>,
}

impl RbgpModule {
    /// Create the module.
    pub fn new() -> Self {
        Self::default()
    }

    /// The failover path currently held for a prefix (what the data
    /// plane switches to when the primary dies).
    pub fn failover_for(&self, prefix: &Ipv4Prefix) -> Option<&BackupPath> {
        self.failover.get(prefix)
    }
}

fn path_ases(ia: &Ia) -> Vec<u32> {
    ia.path_vector
        .iter()
        .filter_map(|e| match e {
            dbgp_wire::PathElem::As(a) => Some(*a),
            _ => None,
        })
        .collect()
}

impl DecisionModule for RbgpModule {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::RBGP
    }

    fn select_best(&mut self, prefix: Ipv4Prefix, candidates: &[CandidateIa<'_>]) -> Option<usize> {
        let best = best_by_rank(self, prefix, candidates)?;
        // The failover is the most-disjoint other candidate; failing
        // that, the chosen path's own advertised backup.
        let primary = path_ases(candidates[best].ia);
        let runner_up = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != best)
            .map(|(_, c)| BackupPath { ases: path_ases(c.ia) })
            .min_by_key(|b| (b.overlap(&primary), b.ases.len()));
        let failover = runner_up.or_else(|| backup_path(candidates[best].ia));
        match failover {
            Some(f) => {
                self.failover.insert(prefix, f);
            }
            None => {
                self.failover.remove(&prefix);
            }
        }
        Some(best)
    }

    fn export(&mut self, ia: &mut Ia, ctx: ExportContext) {
        if let Some(failover) = self.failover.get(&ctx.prefix) {
            set_backup(ia, failover);
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

    fn ia(hops: &[u32]) -> Ia {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        for &h in hops.iter().rev() {
            ia.prepend_as(h);
        }
        ia
    }

    #[test]
    fn backup_codec_roundtrip() {
        let b = BackupPath { ases: vec![10, 20, 30] };
        assert_eq!(BackupPath::from_bytes(&b.to_bytes()), Some(b));
        assert_eq!(BackupPath::from_bytes(&[0xff, 0xff]), None);
    }

    #[test]
    fn overlap_counts_shared_ases() {
        let b = BackupPath { ases: vec![1, 2, 3] };
        assert_eq!(b.overlap(&[2, 3, 4]), 2);
        assert_eq!(b.overlap(&[9]), 0);
    }

    #[test]
    fn selection_records_most_disjoint_failover() {
        let mut m = RbgpModule::new();
        let primary = ia(&[1, 2]);
        let overlapping = ia(&[1, 3]); // shares AS 1 with primary
        let disjoint = ia(&[7, 8, 9]); // longer but fully disjoint
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 1, ia: &primary },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 1, ia: &overlapping },
            CandidateIa { neighbor: NeighborId(2), neighbor_as: 7, ia: &disjoint },
        ];
        assert_eq!(m.select_best(p("10.0.0.0/8"), &cands), Some(0), "shortest wins");
        let failover = m.failover_for(&p("10.0.0.0/8")).unwrap();
        assert_eq!(failover.ases, vec![7, 8, 9], "fully disjoint backup preferred");
    }

    #[test]
    fn export_attaches_backup_and_survives_wire() {
        let mut m = RbgpModule::new();
        let primary = ia(&[1, 2]);
        let alt = ia(&[3, 4]);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 1, ia: &primary },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 3, ia: &alt },
        ];
        m.select_best(p("10.0.0.0/8"), &cands);
        let mut out = primary.clone();
        m.export(
            &mut out,
            ExportContext {
                neighbor: NeighborId(9),
                neighbor_as: 99,
                local_as: 5,
                prefix: p("10.0.0.0/8"),
            },
        );
        let decoded = Ia::decode(out.encode().into_bytes()).unwrap();
        assert_eq!(backup_path(&decoded).unwrap().ases, vec![3, 4]);
    }

    #[test]
    fn single_candidate_inherits_upstream_backup() {
        let mut m = RbgpModule::new();
        let mut only = ia(&[1, 2]);
        set_backup(&mut only, &BackupPath { ases: vec![8, 9] });
        let cands = [CandidateIa { neighbor: NeighborId(0), neighbor_as: 1, ia: &only }];
        m.select_best(p("10.0.0.0/8"), &cands);
        assert_eq!(m.failover_for(&p("10.0.0.0/8")).unwrap().ases, vec![8, 9]);
    }

    #[test]
    fn no_candidates_clears_failover() {
        let mut m = RbgpModule::new();
        let only = ia(&[1]);
        let cands = [CandidateIa { neighbor: NeighborId(0), neighbor_as: 1, ia: &only }];
        m.select_best(p("10.0.0.0/8"), &cands);
        assert!(m.failover_for(&p("10.0.0.0/8")).is_none(), "single candidate, no backup");
    }
}
