//! EQ-BGP-style end-to-end QoS as a critical fix (paper Table 1, §6.3).
//!
//! The §6.3 *bottleneck-bandwidth archetype* is drawn from this family:
//! each upgraded AS exposes its ingress bandwidth, advertisements carry
//! the running minimum, and selection maximizes the bottleneck. The
//! paper calls this "one of the most difficult objective functions with
//! which to see incremental benefits", because the true bottleneck may
//! sit inside a gulf AS that exposes nothing — which is why Figure 10
//! dips below the status quo at low adoption.

use dbgp_core::module::{CandidateIa, DecisionModule, ExportContext, Rank};
use dbgp_wire::ia::dkey;
use dbgp_wire::{Ia, Ipv4Prefix, ProtocolId};

/// Read the bottleneck bandwidth recorded so far on an IA.
pub fn bottleneck_bw(ia: &Ia) -> Option<u64> {
    ia.path_descriptor_u64(ProtocolId::EQBGP, dkey::EQBGP_BOTTLENECK_BW)
}

fn set_bottleneck_bw(ia: &mut Ia, bw: u64) {
    ia.set_path_descriptor(ProtocolId::EQBGP, dkey::EQBGP_BOTTLENECK_BW, bw.to_be_bytes().to_vec());
}

/// The bottleneck-bandwidth decision module.
#[derive(Debug, Clone)]
pub struct BottleneckBwModule {
    /// This AS's ingress-link bandwidth, folded into every export.
    ingress_bw: u64,
}

impl BottleneckBwModule {
    /// Create the module with our ingress bandwidth.
    pub fn new(ingress_bw: u64) -> Self {
        BottleneckBwModule { ingress_bw }
    }
}

impl DecisionModule for BottleneckBwModule {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::EQBGP
    }

    // Highest known bottleneck bandwidth; candidates without the
    // descriptor expose nothing and rank lowest.
    fn rank(&mut self, _prefix: Ipv4Prefix, c: &CandidateIa<'_>) -> Rank {
        Rank::higher(bottleneck_bw(c.ia).unwrap_or(0), c)
    }

    fn export(&mut self, ia: &mut Ia, _ctx: ExportContext) {
        let incoming = bottleneck_bw(ia).unwrap_or(u64::MAX);
        set_bottleneck_bw(ia, incoming.min(self.ingress_bw));
    }

    fn decorate_origin(&mut self, ia: &mut Ia, _local_as: u32) {
        set_bottleneck_bw(ia, self.ingress_bw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_core::module::ExportContext;
    use dbgp_core::NeighborId;
    use dbgp_wire::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ctx() -> ExportContext {
        ExportContext {
            neighbor: NeighborId(0),
            neighbor_as: 42,
            local_as: 7,
            prefix: p("10.0.0.0/8"),
        }
    }

    #[test]
    fn export_takes_running_minimum() {
        let mut wide = BottleneckBwModule::new(1000);
        let mut narrow = BottleneckBwModule::new(50);
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        wide.decorate_origin(&mut ia, 1);
        assert_eq!(bottleneck_bw(&ia), Some(1000));
        narrow.export(&mut ia, ctx());
        assert_eq!(bottleneck_bw(&ia), Some(50));
        wide.export(&mut ia, ctx());
        assert_eq!(bottleneck_bw(&ia), Some(50), "minimum sticks");
    }

    #[test]
    fn selection_maximizes_bottleneck() {
        let mut m = BottleneckBwModule::new(100);
        let mut fat = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        fat.prepend_as(1);
        fat.prepend_as(2);
        set_bottleneck_bw(&mut fat, 900);
        let mut thin = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(2, 2, 2, 2));
        thin.prepend_as(3);
        set_bottleneck_bw(&mut thin, 20);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 3, ia: &thin },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 1, ia: &fat },
        ];
        assert_eq!(m.select_best(p("10.0.0.0/8"), &cands), Some(1));
    }

    #[test]
    fn descriptor_survives_wire() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        set_bottleneck_bw(&mut ia, 777);
        let ia = Ia::decode(ia.encode().into_bytes()).unwrap();
        assert_eq!(bottleneck_bw(&ia), Some(777));
    }

    #[test]
    fn bandwidth_free_candidates_rank_last() {
        let mut m = BottleneckBwModule::new(100);
        let mut unknown = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        unknown.prepend_as(1);
        let mut known = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(2, 2, 2, 2));
        known.prepend_as(2);
        known.prepend_as(3);
        set_bottleneck_bw(&mut known, 10);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 1, ia: &unknown },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 2, ia: &known },
        ];
        assert_eq!(m.select_best(p("10.0.0.0/8"), &cands), Some(1));
    }
}
