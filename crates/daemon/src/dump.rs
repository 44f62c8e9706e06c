//! The canonical Loc-RIB dump: the byte format the interop smoke test
//! diffs between a live `dbgpd` run and the in-process oracle.
//!
//! Everything in the dump is schedule-independent: which transport
//! connection won a collision, message interleavings, and timer phase
//! all vary between runs, but the converged Adj-RIB-In contents — and
//! therefore the decision process's output — do not. Only such stable
//! facts appear here, so a bit-level diff is meaningful.

use crate::node::Node;
use dbgp_session::{PeerId, RouteSource, SessionState};
use std::fmt::Write;

/// Render a node's converged state.
pub fn dump_node(node: &Node) -> String {
    let routing = node.routing();
    let mut out = String::new();
    let _ = writeln!(out, "# dbgpd-rib/v1 as={} router-id={}", routing.asn(), routing.router_id());
    for id in node.peer_ids() {
        let peer_as = routing.peer_as(id).expect("configured peer");
        let state = match node.state(id) {
            Some(SessionState::Established) => "established",
            Some(SessionState::Idle) | None => "idle",
            Some(_) => "connecting",
        };
        match node.summary(id) {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "peer as={} state={} ia={} four-octet={} peer-id={}",
                    peer_as, state, s.ia_support, s.four_octet, s.peer_id
                );
            }
            None => {
                let _ = writeln!(out, "peer as={} state={}", peer_as, state);
            }
        }
    }
    for (prefix, entry) in routing.loc_rib().iter() {
        let source = match entry.source {
            RouteSource::Local => "local".to_string(),
            RouteSource::Peer(pid) => {
                format!("as{}", routing.peer_as(pid).unwrap_or(0))
            }
        };
        let path = entry.route.as_path.to_string();
        let path = if path.is_empty() { "-".to_string() } else { path };
        let _ = writeln!(
            out,
            "route {} path={} origin={} next-hop={} local-pref={} med={} from={}",
            prefix,
            path,
            entry.route.origin,
            entry.route.next_hop,
            entry.route.effective_local_pref(),
            entry.route.bgp.med.map(|m| m.to_string()).unwrap_or_else(|| "-".to_string()),
            source,
        );
    }
    out
}

/// True if every configured peer of the node reached Established.
pub fn all_established(node: &Node) -> bool {
    node.peer_ids().iter().all(|id| node.state(*id) == Some(SessionState::Established))
}

/// Peer AS numbers that are **not** Established (for diagnostics).
pub fn down_peers(node: &Node) -> Vec<u32> {
    node.peer_ids()
        .iter()
        .filter(|id| node.state(**id) != Some(SessionState::Established))
        .map(|id: &PeerId| node.routing().peer_as(*id).unwrap_or(0))
        .collect()
}
