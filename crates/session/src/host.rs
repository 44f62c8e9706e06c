//! The whole speaker, sans-IO: one [`SessionCore`] per configured
//! neighbor glued to one [`RoutingCore`].
//!
//! [`Host`] is the one assembly under every frontend — `dbgpd`'s
//! reactor and in-process oracle (as `dbgp_daemon::Node`) and the
//! byte-oriented `dbgp_bgp::Speaker` — so their RIB dumps are
//! comparable byte for byte. The connection direction stays visible so
//! that a transport with two TCP connections per neighbor (dialed and
//! accepted) can route bytes into the right half of each core.

use crate::config::{NeighborConfig, PeerId};
use crate::peer::{ConnDir, CoreOutput, SessionCore};
use crate::rib::LocRibEntry;
use crate::routing::{RibOp, RoutingCore};
use crate::session::{DownReason, Millis, SessionState, SessionSummary};
use bytes::Bytes;
use dbgp_telemetry::Selection;
use dbgp_wire::message::BgpMessage;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use std::collections::BTreeMap;

/// Instructions a [`Host`] hands its transport, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostOutput {
    /// Dial this neighbor's configured address.
    Connect(PeerId),
    /// Close this neighbor's connection in this direction.
    Close(PeerId, ConnDir),
    /// Transmit these bytes on this neighbor's connection.
    Send(PeerId, ConnDir, Bytes),
    /// The session reached Established.
    Up(PeerId, SessionSummary),
    /// The session went down.
    Down(PeerId, DownReason),
    /// The best route for a prefix changed (`None` = unreachable), and
    /// why the new one won; the transport's data plane should update
    /// its FIB.
    Best(Ipv4Prefix, Option<LocRibEntry>, Selection),
}

/// One speaker's worth of sans-IO state.
pub struct Host {
    cores: BTreeMap<PeerId, SessionCore>,
    routing: RoutingCore,
}

impl Host {
    /// A speaker for AS `asn` with the given router ID and no neighbors.
    pub fn new(asn: u32, router_id: Ipv4Addr) -> Self {
        Host { cores: BTreeMap::new(), routing: RoutingCore::new(asn, router_id) }
    }

    /// Register a neighbor. Panics if the peer ID is already used.
    pub fn add_peer(&mut self, id: PeerId, cfg: NeighborConfig) {
        self.cores.insert(id, SessionCore::new(cfg.session.clone()));
        self.routing.add_peer(id, cfg);
    }

    /// Our AS number.
    pub fn asn(&self) -> u32 {
        self.routing.asn()
    }

    /// Read access to the routing core (RIB views, counters, dumps).
    pub fn routing(&self) -> &RoutingCore {
        &self.routing
    }

    /// The FSM state for one neighbor.
    pub fn state(&self, id: PeerId) -> Option<SessionState> {
        self.cores.get(&id).map(|c| c.state())
    }

    /// The negotiated session summary for one neighbor, while up.
    pub fn summary(&self, id: PeerId) -> Option<SessionSummary> {
        self.routing.summary(id)
    }

    /// Number of Established sessions.
    pub fn established_count(&self) -> usize {
        self.cores.values().filter(|c| c.state() == SessionState::Established).count()
    }

    /// Bytes allocated for receive buffering across every session.
    pub fn rx_capacity(&self) -> usize {
        self.cores.values().map(SessionCore::rx_capacity).sum()
    }

    /// All configured peer IDs.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.cores.keys().copied().collect()
    }

    /// Enable every session.
    pub fn start(&mut self, now: Millis) -> Vec<HostOutput> {
        let mut out = Vec::new();
        for id in self.peer_ids() {
            out.extend(self.drive(now, id, |core| core.start(now)));
        }
        out
    }

    /// Re-enable one session (after a Down, with backoff — the
    /// transport's policy).
    pub fn restart_peer(&mut self, now: Millis, id: PeerId) -> Vec<HostOutput> {
        self.drive(now, id, |core| core.start(now))
    }

    /// The transport's dial for `id` completed (`ok`) or failed.
    pub fn dial_result(&mut self, now: Millis, id: PeerId, ok: bool) -> Vec<HostOutput> {
        self.drive(now, id, |core| {
            if ok {
                core.connected(now, ConnDir::Out)
            } else {
                core.connect_failed(now)
            }
        })
    }

    /// The transport accepted a connection it has matched to neighbor `id`.
    pub fn accepted(&mut self, now: Millis, id: PeerId) -> Vec<HostOutput> {
        self.drive(now, id, |core| core.connected(now, ConnDir::In))
    }

    /// A transport connection closed.
    pub fn conn_closed(&mut self, now: Millis, id: PeerId, dir: ConnDir) -> Vec<HostOutput> {
        self.drive(now, id, |core| core.closed(now, dir))
    }

    /// Bytes arrived on a neighbor's connection; every complete message
    /// buffered is decoded and acted on.
    pub fn bytes_in(
        &mut self,
        now: Millis,
        id: PeerId,
        dir: ConnDir,
        data: &[u8],
    ) -> Vec<HostOutput> {
        self.drive(now, id, |core| core.bytes_in(now, dir, data))
    }

    /// Fire due timers across all sessions.
    pub fn poll(&mut self, now: Millis) -> Vec<HostOutput> {
        let mut out = Vec::new();
        for id in self.peer_ids() {
            out.extend(self.drive(now, id, |core| core.poll(now)));
        }
        out
    }

    /// Earliest future instant [`Host::poll`] must run.
    pub fn next_deadline(&self) -> Option<Millis> {
        self.cores.values().filter_map(|c| c.next_deadline()).min()
    }

    /// Originate a prefix locally and propagate it.
    pub fn originate(&mut self, now: Millis, prefix: Ipv4Prefix) -> Vec<HostOutput> {
        let mut out = Vec::new();
        let ops = self.routing.originate(now, prefix);
        self.absorb_ops(ops, &mut out);
        out
    }

    /// Stop originating a prefix.
    pub fn withdraw_origin(&mut self, now: Millis, prefix: Ipv4Prefix) -> Vec<HostOutput> {
        let mut out = Vec::new();
        let ops = self.routing.withdraw_origin(now, prefix);
        self.absorb_ops(ops, &mut out);
        out
    }

    // ----- internals ----------------------------------------------------

    /// Run one step of `id`'s session core (nothing, for an unknown
    /// peer) and execute what it asks for.
    fn drive(
        &mut self,
        now: Millis,
        id: PeerId,
        step: impl FnOnce(&mut SessionCore) -> Vec<CoreOutput>,
    ) -> Vec<HostOutput> {
        let mut out = Vec::new();
        if let Some(core) = self.cores.get_mut(&id) {
            let couts = step(core);
            self.absorb(now, id, couts, &mut out);
        }
        out
    }

    /// Execute a session core's outputs: transport ops pass through,
    /// session edges and delivered UPDATEs feed the routing core, whose
    /// ops are translated right back into the same ordered stream.
    fn absorb(
        &mut self,
        now: Millis,
        id: PeerId,
        couts: Vec<CoreOutput>,
        out: &mut Vec<HostOutput>,
    ) {
        for cout in couts {
            match cout {
                CoreOutput::Connect => out.push(HostOutput::Connect(id)),
                CoreOutput::Close(dir) => out.push(HostOutput::Close(id, dir)),
                CoreOutput::SendBytes(dir, bytes) => out.push(HostOutput::Send(id, dir, bytes)),
                CoreOutput::Up(summary) => {
                    out.push(HostOutput::Up(id, summary));
                    let ops = self.routing.peer_up(id, summary);
                    self.absorb_ops(ops, out);
                }
                CoreOutput::Down(reason) => {
                    out.push(HostOutput::Down(id, reason));
                    let ops = self.routing.peer_down(now, id);
                    self.absorb_ops(ops, out);
                }
                CoreOutput::Update(update) => {
                    let (ops, err) = self.routing.update(now, id, update);
                    self.absorb_ops(ops, out);
                    if let Some(err) = err {
                        let core = self.cores.get_mut(&id).expect("absorbing its output");
                        let couts = core.fail_active(now, &err);
                        self.absorb(now, id, couts, out);
                    }
                }
            }
        }
    }

    /// Translate routing ops into outputs, encoding UPDATEs with each
    /// target peer's negotiated 4-octet-AS capability.
    fn absorb_ops(&self, ops: Vec<RibOp>, out: &mut Vec<HostOutput>) {
        for op in ops {
            match op {
                RibOp::BestRouteChanged(prefix, entry, selection) => {
                    out.push(HostOutput::Best(prefix, entry, selection));
                }
                RibOp::Announce(pid, update) => {
                    let core = &self.cores[&pid];
                    let bytes = BgpMessage::Update(update).encode(core.four_octet());
                    // UPDATEs ride whichever connection carries the
                    // established session; the core knows, the routing
                    // layer does not. Established implies an active dir.
                    let dir = core.active_dir().unwrap_or(ConnDir::Out);
                    out.push(HostOutput::Send(pid, dir, bytes));
                }
            }
        }
    }
}
