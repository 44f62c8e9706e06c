//! `dbgpd` configuration: a small line-based text format.
//!
//! ```text
//! # gulf node A
//! local-as 65001
//! router-id 10.0.0.1
//! listen 127.0.0.1:17901
//! hold-time 9
//! connect-retry-ms 200
//! network 10.1.0.0/16
//! neighbor as=65002 addr=127.0.0.1:17902 next-hop=10.0.0.1 ia
//! ```
//!
//! One `neighbor` line per peering and one peering per AS (a second line
//! with the same `as=` is an error). Keys: `as=` (required), `addr=`
//! (the peer's listen address; omit for a passive-only peering),
//! `next-hop=` (our NEXT_HOP toward this peer; defaults to the router
//! ID), and the bare flags `passive` (never dial) and `ia` (advertise
//! the D-BGP Integrated-Advertisement capability). A `passive` peering
//! can only be accepted, so a daemon needs a `listen` line to serve one:
//! the parser takes the file either way (an in-process `Node` and
//! `--oracle` mode use no socket) and `Reactor::new` refuses it.

use dbgp_session::{NeighborConfig, PeerConfig};
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use std::collections::BTreeMap;

/// One `neighbor` line.
#[derive(Debug, Clone)]
pub struct NeighborSpec {
    /// The peer's AS number.
    pub peer_as: u32,
    /// The peer's listening address (`host:port`), if we may dial it.
    pub addr: Option<String>,
    /// NEXT_HOP we advertise toward this peer.
    pub next_hop: Ipv4Addr,
    /// Never initiate the connection.
    pub passive: bool,
    /// Advertise the D-BGP IA capability on this session.
    pub advertise_ia: bool,
}

/// A parsed `dbgpd` configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Our AS number.
    pub local_as: u32,
    /// Our BGP identifier.
    pub router_id: Ipv4Addr,
    /// Address to accept BGP connections on (`host:port`).
    pub listen: Option<String>,
    /// Hold time offered in OPEN, seconds.
    pub hold_time_secs: u16,
    /// Delay between transport connection attempts, milliseconds.
    pub connect_retry_ms: u64,
    /// Prefixes this daemon originates.
    pub networks: Vec<Ipv4Prefix>,
    /// Configured peerings, in file order (peer index = PeerId).
    pub neighbors: Vec<NeighborSpec>,
}

impl DaemonConfig {
    /// Parse the text format. Errors carry the offending line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut local_as = None;
        let mut router_id = None;
        let mut listen = None;
        let mut hold_time_secs = 90u16;
        let mut connect_retry_ms = 1_000u64;
        let mut networks = Vec::new();
        let mut neighbors = Vec::new();
        let mut neighbor_lines = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            match key {
                "local-as" => {
                    local_as = Some(
                        rest.parse::<u32>().map_err(|_| format!("line {lineno}: bad local-as"))?,
                    )
                }
                "router-id" => {
                    router_id = Some(
                        rest.parse::<Ipv4Addr>()
                            .map_err(|_| format!("line {lineno}: bad router-id"))?,
                    )
                }
                "listen" => listen = Some(rest.to_string()),
                "hold-time" => {
                    hold_time_secs =
                        rest.parse::<u16>().map_err(|_| format!("line {lineno}: bad hold-time"))?;
                    // RFC 4271 §4.2: zero (no keepalives) or at least
                    // three seconds. Every peer's OPEN decoder refuses 1
                    // and 2, so the pair would connect-retry forever.
                    if hold_time_secs == 1 || hold_time_secs == 2 {
                        return Err(format!(
                            "line {lineno}: hold-time {hold_time_secs} is unacceptable \
                             (RFC 4271: 0 or >= 3 seconds)"
                        ));
                    }
                }
                "connect-retry-ms" => {
                    connect_retry_ms = rest
                        .parse::<u64>()
                        .map_err(|_| format!("line {lineno}: bad connect-retry-ms"))?
                }
                "network" => networks.push(
                    rest.parse::<Ipv4Prefix>()
                        .map_err(|_| format!("line {lineno}: bad network prefix"))?,
                ),
                "neighbor" => {
                    let spec = Self::parse_neighbor(rest, lineno)?;
                    // An inbound connection is matched to its neighbor by
                    // the AS in its OPEN, and so is the oracle's reverse
                    // lookup: a second peering with the same AS could
                    // never be accepted, and its OPEN would land in the
                    // first one's session.
                    if let Some(first) = neighbor_lines.insert(spec.peer_as, lineno) {
                        return Err(format!(
                            "line {lineno}: neighbor as={} repeats line {first} \
                             (peerings are matched by AS: one neighbor per AS)",
                            spec.peer_as
                        ));
                    }
                    neighbors.push(spec);
                }
                other => return Err(format!("line {lineno}: unknown directive `{other}`")),
            }
        }
        let local_as = local_as.ok_or("missing local-as")?;
        let router_id = router_id.ok_or("missing router-id")?;
        let mut cfg = DaemonConfig {
            local_as,
            router_id,
            listen,
            hold_time_secs,
            connect_retry_ms,
            networks,
            neighbors,
        };
        // next-hop defaults to the router ID.
        for n in &mut cfg.neighbors {
            if n.next_hop == Ipv4Addr(0) {
                n.next_hop = router_id;
            }
            if n.addr.is_none() && !n.passive {
                return Err(format!("neighbor as={}: no addr and not passive", n.peer_as));
            }
        }
        Ok(cfg)
    }

    fn parse_neighbor(rest: &str, lineno: usize) -> Result<NeighborSpec, String> {
        let mut spec = NeighborSpec {
            peer_as: 0,
            addr: None,
            next_hop: Ipv4Addr(0),
            passive: false,
            advertise_ia: false,
        };
        for tok in rest.split_whitespace() {
            match tok.split_once('=') {
                Some(("as", v)) => {
                    spec.peer_as =
                        v.parse().map_err(|_| format!("line {lineno}: bad neighbor as="))?
                }
                Some(("addr", v)) => spec.addr = Some(v.to_string()),
                Some(("next-hop", v)) => {
                    spec.next_hop =
                        v.parse().map_err(|_| format!("line {lineno}: bad next-hop="))?
                }
                None if tok == "passive" => spec.passive = true,
                None if tok == "ia" => spec.advertise_ia = true,
                _ => return Err(format!("line {lineno}: unknown neighbor token `{tok}`")),
            }
        }
        if spec.peer_as == 0 {
            return Err(format!("line {lineno}: neighbor needs as="));
        }
        Ok(spec)
    }

    /// Build the routing-layer [`NeighborConfig`] for neighbor `i`.
    pub fn neighbor_config(&self, i: usize) -> NeighborConfig {
        let spec = &self.neighbors[i];
        let mut session = PeerConfig::new(self.local_as, self.router_id, spec.peer_as);
        session.hold_time_secs = self.hold_time_secs;
        session.connect_retry_ms = self.connect_retry_ms;
        session.passive = spec.passive;
        session.advertise_ia = spec.advertise_ia;
        NeighborConfig { local_addr: spec.next_hop, session }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let text = "\
# comment
local-as 65001
router-id 10.0.0.1
listen 127.0.0.1:17901
hold-time 9
connect-retry-ms 200
network 10.1.0.0/16   # trailing comment
network 10.2.0.0/16
neighbor as=65002 addr=127.0.0.1:17902 ia
neighbor as=65003 passive next-hop=10.0.0.9
";
        let cfg = DaemonConfig::parse(text).unwrap();
        assert_eq!(cfg.local_as, 65001);
        assert_eq!(cfg.router_id, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(cfg.listen.as_deref(), Some("127.0.0.1:17901"));
        assert_eq!(cfg.hold_time_secs, 9);
        assert_eq!(cfg.networks.len(), 2);
        assert_eq!(cfg.neighbors.len(), 2);
        assert!(cfg.neighbors[0].advertise_ia);
        assert_eq!(cfg.neighbors[0].next_hop, cfg.router_id, "next-hop defaults to router-id");
        assert!(cfg.neighbors[1].passive);
        assert_eq!(cfg.neighbors[1].next_hop, Ipv4Addr::new(10, 0, 0, 9));
        let nc = cfg.neighbor_config(0);
        assert_eq!(nc.session.hold_time_secs, 9);
        assert!(nc.session.advertise_ia);

        // Hold times every RFC 4271 peer would refuse in OPEN fail here,
        // with the line number; the values either side of them parse.
        for bad in [1, 2] {
            let err =
                DaemonConfig::parse(&text.replace("hold-time 9", &format!("hold-time {bad}")))
                    .unwrap_err();
            assert!(err.contains("line 5") && err.contains("hold-time"), "{err}");
        }
        for ok in [0, 3] {
            let cfg = DaemonConfig::parse(&text.replace("hold-time 9", &format!("hold-time {ok}")));
            assert_eq!(cfg.unwrap().hold_time_secs, ok);
        }
    }

    #[test]
    fn rejects_active_neighbor_without_addr() {
        let text = "local-as 1\nrouter-id 1.1.1.1\nneighbor as=2\n";
        assert!(DaemonConfig::parse(text).is_err());
    }

    #[test]
    fn rejects_a_second_neighbor_in_the_same_as() {
        let text = "local-as 1\nrouter-id 1.1.1.1\nlisten 127.0.0.1:1\n\
                    neighbor as=2 addr=127.0.0.1:2\nneighbor as=3 passive\n\
                    # same AS, other address\nneighbor as=2 addr=127.0.0.1:4\n";
        let err = DaemonConfig::parse(text).unwrap_err();
        assert!(err.starts_with("line 7: neighbor as=2 repeats line 4"), "{err}");
        let distinct = text.replace("as=2 addr=127.0.0.1:4", "as=4 addr=127.0.0.1:4");
        assert_eq!(DaemonConfig::parse(&distinct).unwrap().neighbors.len(), 3);
    }

    #[test]
    fn rejects_unknown_directive() {
        let text = "local-as 1\nrouter-id 1.1.1.1\nbogus 3\n";
        assert!(DaemonConfig::parse(text).unwrap_err().contains("bogus"));
        // Export packing is not an option: a config that still asks
        // for it fails with its line, it is not silently accepted.
        let text = "local-as 1\nrouter-id 1.1.1.1\n\ncoalesce-updates true\n";
        let err = DaemonConfig::parse(text).unwrap_err();
        assert_eq!(err, "line 4: unknown directive `coalesce-updates`");
    }
}
