//! A complete classic BGP-4 speaker, sans-IO, one connection per peer.
//!
//! [`Speaker`] is `dbgp_session`'s [`Host`] — one session core per
//! configured neighbor plus one routing core for the RIBs and decision
//! process, the assembly `dbgpd` runs over real TCP — behind a
//! byte-oriented interface for fabrics that never have two connections
//! to a peer: feed it received bytes and transport events with a
//! timestamp, and execute the [`Output`]s it returns (bytes to send,
//! connections to open, ...). All message framing goes through the real
//! wire codec, so every test that drives two speakers against each
//! other also exercises serialization.
//!
//! In the paper's terms this is "Quagga": the baseline BGP
//! implementation whose advertisement processing D-BGP (in `dbgp-core`)
//! interposes on.

use dbgp_session::{AdjRibInView, ConnDir, Host, LocRibView, Millis, PeerId, SessionState};
use dbgp_wire::Ipv4Addr;
use std::ops::{Deref, DerefMut};

pub use dbgp_session::HostOutput as Output;

/// Transport-level inputs the host forwards to the speaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportEvent {
    /// The connection to the peer came up.
    Connected,
    /// An established connection closed.
    Closed,
}

/// A classic BGP-4 speaker: a [`Host`] (to which it dereferences for
/// `add_peer`, `start`, `poll`, `originate`, ...) whose one connection
/// per peer is the dialed one.
pub struct Speaker(Host);

impl Deref for Speaker {
    type Target = Host;

    fn deref(&self) -> &Host {
        &self.0
    }
}

impl DerefMut for Speaker {
    fn deref_mut(&mut self) -> &mut Host {
        &mut self.0
    }
}

impl Speaker {
    /// Create a speaker for AS `asn` with the given router ID.
    pub fn new(asn: u32, router_id: Ipv4Addr) -> Self {
        Speaker(Host::new(asn, router_id))
    }

    /// Forward a transport event for one peer.
    pub fn transport_event(&mut self, now: Millis, id: PeerId, ev: TransportEvent) -> Vec<Output> {
        match ev {
            TransportEvent::Connected => self.0.dial_result(now, id, true),
            TransportEvent::Closed => self.0.conn_closed(now, id, ConnDir::Out),
        }
    }

    /// Feed received bytes from one peer; decodes as many complete
    /// messages as are buffered.
    pub fn receive(&mut self, now: Millis, id: PeerId, data: &[u8]) -> Vec<Output> {
        self.0.bytes_in(now, id, ConnDir::Out, data)
    }

    /// Read access to the Loc-RIB.
    pub fn loc_rib(&self) -> LocRibView<'_> {
        self.0.routing().loc_rib()
    }

    /// Read access to the Adj-RIB-In.
    pub fn adj_rib_in(&self) -> AdjRibInView<'_> {
        self.0.routing().adj_rib_in()
    }

    /// True once the session with `id` is Established.
    pub fn is_established(&self, id: PeerId) -> bool {
        self.0.state(id) == Some(SessionState::Established)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_session::{LocRibEntry, NeighborConfig, RouteSource};
    use dbgp_telemetry::{Selection, SelectionReason};
    use dbgp_wire::Ipv4Prefix;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    type Fabric = dbgp_session::Fabric<Speaker>;

    /// Every best-route change reported, as `(speaker index, ...)`.
    fn route_events(fabric: &Fabric) -> Vec<(usize, Ipv4Prefix, Option<LocRibEntry>, Selection)> {
        let best = |(idx, output): (usize, Output)| match output {
            Output::Best(prefix, entry, selection) => Some((idx, prefix, entry, selection)),
            _ => None,
        };
        fabric.log().iter().cloned().filter_map(best).collect()
    }

    fn speaker(asn: u32) -> Speaker {
        Speaker::new(asn, Ipv4Addr::new(10, 0, 0, asn as u8))
    }

    fn neighbor(local_as: u32, peer_as: u32) -> NeighborConfig {
        NeighborConfig::new(
            local_as,
            Ipv4Addr::new(10, 0, 0, local_as as u8),
            peer_as,
            Ipv4Addr::new(10, local_as as u8, peer_as as u8, 1),
        )
    }

    /// Speakers in ASes `asns`, joined by `links` and started. Each link
    /// gives both of its ends their next peer ID.
    fn topology(asns: &[u32], links: &[(usize, usize)]) -> Fabric {
        let mut fabric = Fabric::new(asns.iter().map(|&asn| speaker(asn)).collect());
        for &(a, b) in links {
            let next = |s: &Speaker| PeerId(s.peer_ids().len() as u32);
            let (pa, pb) = (next(&fabric[a]), next(&fabric[b]));
            fabric[a].add_peer(pa, neighbor(asns[a], asns[b]));
            fabric[b].add_peer(pb, neighbor(asns[b], asns[a]));
            fabric.link(a, pa, b, pb);
        }
        fabric.start();
        fabric
    }

    /// Line topology 1 - 2 - 3, AS numbers 101, 102, 103.
    fn line3() -> Fabric {
        topology(&[101, 102, 103], &[(0, 1), (1, 2)])
    }

    #[test]
    fn sessions_establish_across_fabric() {
        let fabric = line3();
        assert!(fabric[0].is_established(PeerId(0)));
        assert!(fabric[1].is_established(PeerId(0)));
        assert!(fabric[1].is_established(PeerId(1)));
        assert!(fabric[2].is_established(PeerId(0)));
    }

    #[test]
    fn route_propagates_with_as_path_growth() {
        let mut fabric = line3();
        fabric.originate(0, p("128.6.0.0/16"));
        // AS 103's view: path 102 101.
        let entry = fabric[2].loc_rib().get(&p("128.6.0.0/16")).unwrap();
        assert_eq!(entry.route.as_path.hop_count(), 2);
        assert_eq!(entry.route.as_path.first_as(), Some(102));
        assert_eq!(entry.route.as_path.origin_as(), Some(101));
        // AS 102's view: path 101.
        let entry = fabric[1].loc_rib().get(&p("128.6.0.0/16")).unwrap();
        assert_eq!(entry.route.as_path.hop_count(), 1);
    }

    #[test]
    fn withdrawal_propagates() {
        let mut fabric = line3();
        fabric.originate(0, p("128.6.0.0/16"));
        assert!(fabric[2].loc_rib().get(&p("128.6.0.0/16")).is_some());
        fabric.drive(0, |host, now| host.withdraw_origin(now, p("128.6.0.0/16")));
        assert!(fabric[2].loc_rib().get(&p("128.6.0.0/16")).is_none());
        assert!(fabric[1].loc_rib().get(&p("128.6.0.0/16")).is_none());
    }

    #[test]
    fn split_horizon_no_echo() {
        let mut fabric = line3();
        fabric.originate(0, p("10.0.0.0/8"));
        // Speaker 1 must not have learned its own origination back.
        assert!(fabric[0].adj_rib_in().is_empty());
    }

    #[test]
    fn loop_detection_in_ring() {
        // Ring: 1-2, 2-3, 3-1. A route from 1 must not loop forever.
        let mut fabric = topology(&[101, 102, 103], &[(0, 1), (1, 2), (2, 0)]);
        fabric.originate(0, p("192.0.2.0/24"));
        // Quiescence itself proves no loop; everyone has a route and
        // nobody's Adj-RIB-In holds a looped path.
        for idx in [1, 2] {
            let entry = fabric[idx].loc_rib().get(&p("192.0.2.0/24")).unwrap();
            assert_eq!(entry.route.as_path.hop_count(), 1, "direct path wins at {idx}");
        }
        assert!(fabric[0].adj_rib_in().is_empty(), "own AS filtered");
    }

    #[test]
    fn best_path_prefers_shorter_route() {
        // Diamond: 1-2-4, 1-3a-3b-4 (longer). AS 104 should pick via 102.
        let links = [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)];
        let mut fabric = topology(&[101, 102, 105, 106, 104], &links);
        fabric.originate(0, p("203.0.113.0/24"));
        let entry = fabric[4].loc_rib().get(&p("203.0.113.0/24")).unwrap();
        assert_eq!(entry.route.as_path.hop_count(), 2, "2-hop path via AS 102");
        assert_eq!(entry.source, RouteSource::Peer(PeerId(0)));
    }

    #[test]
    fn next_hop_rewritten_at_each_ebgp_hop() {
        let mut fabric = line3();
        fabric.originate(0, p("128.6.0.0/16"));
        let entry2 = fabric[1].loc_rib().get(&p("128.6.0.0/16")).unwrap();
        let entry3 = fabric[2].loc_rib().get(&p("128.6.0.0/16")).unwrap();
        assert_ne!(entry2.route.next_hop, entry3.route.next_hop);
    }

    #[test]
    fn peer_down_flushes_learned_routes() {
        let mut fabric = line3();
        fabric.originate(0, p("128.6.0.0/16"));
        assert!(fabric[2].loc_rib().get(&p("128.6.0.0/16")).is_some());
        // Kill the 2-3 link from 3's perspective.
        let now = fabric.now() + 1;
        let outputs = fabric[2].transport_event(now, PeerId(0), TransportEvent::Closed);
        assert!(outputs.iter().any(|o| matches!(o, Output::Down(..))));
        assert!(outputs
            .iter()
            .any(|o| matches!(o, Output::Best(pr, None, _) if *pr == p("128.6.0.0/16"))));
        assert!(fabric[2].loc_rib().get(&p("128.6.0.0/16")).is_none());
    }

    #[test]
    fn late_joiner_gets_full_table() {
        // 1 and 2 converge first; 3 then connects and must receive the
        // already-installed route via the initial table transfer.
        let mut s1 = speaker(101);
        let mut s2 = speaker(102);
        let mut s3 = speaker(103);
        s1.add_peer(PeerId(0), neighbor(101, 102));
        s2.add_peer(PeerId(0), neighbor(102, 101));
        s2.add_peer(PeerId(1), neighbor(102, 103));
        s3.add_peer(PeerId(0), neighbor(103, 102));
        let mut fabric = Fabric::new(vec![s1, s2, s3]);
        fabric.link(0, PeerId(0), 1, PeerId(0));
        // Note: link 1-2 only; speaker 3 not wired yet. Start speakers 0/1.
        fabric.drive(0, |host, now| host.start(now));
        fabric.drive(1, |host, now| host.start(now));
        fabric.originate(0, p("128.6.0.0/16"));
        assert!(fabric[1].loc_rib().get(&p("128.6.0.0/16")).is_some());
        // Now bring up 2-3.
        fabric.link(1, PeerId(1), 2, PeerId(0));
        fabric.drive(2, |host, now| host.start(now));
        assert!(fabric[2].is_established(PeerId(0)));
        let entry = fabric[2].loc_rib().get(&p("128.6.0.0/16")).unwrap();
        assert_eq!(entry.route.as_path.hop_count(), 2);
    }

    #[test]
    fn session_up_and_the_explained_install_ride_on_outputs() {
        let mut s1 = speaker(101);
        let mut s2 = speaker(102);
        s1.add_peer(PeerId(0), neighbor(101, 102));
        s2.add_peer(PeerId(0), neighbor(102, 101));
        let mut fabric = Fabric::new(vec![s1, s2]);
        fabric.link(0, PeerId(0), 1, PeerId(0));
        assert_eq!(fabric[1].state(PeerId(0)), Some(SessionState::Idle));
        fabric.start();
        fabric.originate(0, p("128.6.0.0/16"));

        // The session edge is an output, and `state()` agrees with it.
        assert!(fabric.log().iter().any(|o| matches!(o, (1, Output::Up(PeerId(0), _)))));
        assert_eq!(fabric[1].state(PeerId(0)), Some(SessionState::Established));
        // The decision process explained the install.
        let route_events = route_events(&fabric);
        let installs: Vec<_> = route_events.iter().filter(|(idx, ..)| *idx == 1).collect();
        let [(_, prefix, Some(entry), selection)] = installs[..] else {
            panic!("expected one install at AS 102, got {installs:?}");
        };
        assert_eq!(*prefix, p("128.6.0.0/16"));
        assert_eq!(entry.source, RouteSource::Peer(PeerId(0)));
        assert_eq!(entry.route.as_path.hop_count(), 1);
        assert_eq!(*selection, Selection { why: SelectionReason::OnlyCandidate, candidates: 1 });
    }

    #[test]
    fn telemetry_decision_explains_router_id_tiebreak() {
        // Equal-length diamond 101-{105,102}-104. The origin's peer order
        // makes the via-105 path reach AS 104 first (installed as the only
        // candidate); when the via-102 path arrives, both tie through path
        // length, so the reported flip must be explained by the router-id
        // step (102's id 10.0.0.102 < 105's 10.0.0.105).
        let links = [(0, 2), (0, 1), (1, 3), (2, 3)];
        let mut fabric = topology(&[101, 102, 105, 104], &links);
        fabric.originate(0, p("203.0.113.0/24"));

        // AS 104 ends up routing via 102 (lower router id).
        let entry = fabric[3].loc_rib().get(&p("203.0.113.0/24")).unwrap();
        assert_eq!(entry.source, RouteSource::Peer(PeerId(0)));

        let decisions: Vec<(SelectionReason, u32, Option<u32>)> = route_events(&fabric)
            .iter()
            .filter(|(idx, prefix, ..)| *idx == 3 && *prefix == p("203.0.113.0/24"))
            .map(|(_, _, entry, selection)| {
                let first_as = entry.as_ref().and_then(|e| e.route.as_path.first_as());
                (selection.why, selection.candidates, first_as)
            })
            .collect();
        assert_eq!(
            decisions,
            vec![
                (SelectionReason::OnlyCandidate, 1, Some(105)),
                (SelectionReason::RouterId, 2, Some(102)),
            ],
            "first install then router-id flip"
        );
    }

    #[test]
    fn garbage_bytes_reset_session() {
        let mut fabric = line3();
        let now = fabric.now() + 1;
        let outputs = fabric[2].receive(now, PeerId(0), &[0u8; 32]);
        assert!(outputs
            .iter()
            .any(|o| matches!(o, Output::Send(_, _, b) if b[18] == 3 /* NOTIFICATION */)));
        assert_eq!(fabric[2].state(PeerId(0)), Some(SessionState::Idle));
    }
}
