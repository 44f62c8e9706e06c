//! One neighbor, sans-IO: stream reassembly, the per-connection FSM,
//! and RFC 4271 §6.8 connection collision resolution.
//!
//! A [`SessionCore`] is the unit both frontends drive. The simulator
//! and the in-process fabric give each peer pair one logical channel,
//! so only the *outbound* connection slot is ever used there and the
//! core degenerates to exactly the FSM-plus-buffer the speaker embedded
//! before the extraction. The daemon additionally routes accepted TCP
//! connections into the *inbound* slot; when both ends dial each other
//! simultaneously the core resolves the collision the RFC way — the
//! connection initiated by the side with the higher BGP identifier
//! survives, the other is closed with NOTIFICATION Cease (subcode 7,
//! "Connection Collision Resolution") — without ever reporting the
//! neighbor as down.
//!
//! Everything is host-clocked: `now` flows in with every call, timer
//! state flows out through [`SessionCore::next_deadline`].

use crate::config::PeerConfig;
use crate::session::{Action, DownReason, Millis, Session, SessionEvent, SessionState};
use crate::stream::StreamReassembler;
use bytes::Bytes;
use dbgp_wire::message::{notif, BgpMessage, NotificationMsg, UpdateMsg};
use dbgp_wire::WireError;

pub use crate::session::SessionSummary;

/// NOTIFICATION Cease subcode for connection collision resolution
/// (RFC 4486 §3).
pub const CEASE_COLLISION_RESOLUTION: u8 = 7;

/// Which transport connection of a neighbor a byte or event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConnDir {
    /// The connection this speaker initiated.
    Out,
    /// A connection the peer initiated (accepted by the host).
    In,
}

impl ConnDir {
    /// The opposite direction.
    pub fn other(self) -> ConnDir {
        match self {
            ConnDir::Out => ConnDir::In,
            ConnDir::In => ConnDir::Out,
        }
    }
}

/// Side effects the host must execute, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreOutput {
    /// Dial the peer's transport address (always the outbound slot).
    Connect,
    /// Close this transport connection.
    Close(ConnDir),
    /// Transmit these bytes on this connection.
    SendBytes(ConnDir, Bytes),
    /// The session reached Established.
    Up(SessionSummary),
    /// The session went down (collision losers never produce this).
    Down(DownReason),
    /// An UPDATE arrived on the established session.
    Update(UpdateMsg),
}

/// One connection's state: FSM plus reassembly buffer.
#[derive(Debug, Clone)]
struct Half {
    session: Session,
    rx: StreamReassembler,
}

impl Half {
    fn new(cfg: PeerConfig) -> Self {
        Half { session: Session::new(cfg), rx: StreamReassembler::new() }
    }

    fn live(&self) -> bool {
        self.session.state() != SessionState::Idle
    }
}

/// The sans-IO core for one neighbor.
#[derive(Debug, Clone)]
pub struct SessionCore {
    /// The outbound slot always exists; it owns ManualStart and the
    /// connect-retry machinery, and its session holds the neighbor's
    /// configuration.
    out: Half,
    /// The inbound slot exists only while the peer has a connection in.
    inb: Option<Half>,
    /// Which connection carried the session to Established.
    active: Option<ConnDir>,
}

impl SessionCore {
    /// A core for the given peer configuration, in Idle.
    pub fn new(cfg: PeerConfig) -> Self {
        SessionCore { out: Half::new(cfg), inb: None, active: None }
    }

    /// The FSM state of the session (the active connection's, else the
    /// outbound slot's).
    pub fn state(&self) -> SessionState {
        match self.active {
            Some(ConnDir::In) => {
                self.inb.as_ref().map(|h| h.session.state()).unwrap_or(SessionState::Idle)
            }
            _ => self.out.session.state(),
        }
    }

    /// Which connection carried the session to Established, while up.
    pub fn active_dir(&self) -> Option<ConnDir> {
        self.active
    }

    /// Negotiated 4-octet-AS support (meaningful once Established).
    pub fn four_octet(&self) -> bool {
        self.active_half().map(|h| h.session.four_octet()).unwrap_or(false)
    }

    /// Negotiated D-BGP IA support (meaningful once Established).
    pub fn ia_support(&self) -> bool {
        self.active_half().map(|h| h.session.ia_support()).unwrap_or(false)
    }

    /// Bytes allocated for receive buffering, both connection slots.
    pub fn rx_capacity(&self) -> usize {
        self.out.rx.capacity() + self.inb.as_ref().map_or(0, |h| h.rx.capacity())
    }

    /// Earliest future instant [`SessionCore::poll`] needs to run.
    pub fn next_deadline(&self) -> Option<Millis> {
        let a = self.out.session.next_deadline();
        let b = self.inb.as_ref().and_then(|h| h.session.next_deadline());
        [a, b].into_iter().flatten().min()
    }

    /// Enable the session (ManualStart on the outbound slot).
    pub fn start(&mut self, now: Millis) -> Vec<CoreOutput> {
        let actions = self.out.session.handle(now, SessionEvent::ManualStart);
        let mut out = Vec::new();
        self.map_actions(now, ConnDir::Out, actions, &mut out);
        out
    }

    /// A transport connection came up.
    ///
    /// `Out` reports the host's dial succeeding; `In` hands the core an
    /// accepted connection. An inbound connection while the session is
    /// already Established (or while another inbound is pending) is
    /// refused with Cease/collision-resolution, per §6.8.
    pub fn connected(&mut self, now: Millis, dir: ConnDir) -> Vec<CoreOutput> {
        let mut out = Vec::new();
        match dir {
            ConnDir::Out => {
                let actions = self.out.session.handle(now, SessionEvent::TcpConnected);
                self.map_actions(now, ConnDir::Out, actions, &mut out);
            }
            ConnDir::In => {
                if self.state() == SessionState::Established || self.inb.is_some() {
                    let n = NotificationMsg::new(notif::CEASE, CEASE_COLLISION_RESOLUTION);
                    out.push(CoreOutput::SendBytes(
                        ConnDir::In,
                        BgpMessage::Notification(n).encode(false),
                    ));
                    out.push(CoreOutput::Close(ConnDir::In));
                    return out;
                }
                let mut cfg = self.out.session.config().clone();
                cfg.passive = true;
                let mut half = Half::new(cfg);
                // Passive start parks the FSM in Active; the connection
                // is already up, so it moves straight to OpenSent.
                let mut actions = half.session.handle(now, SessionEvent::ManualStart);
                actions.extend(half.session.handle(now, SessionEvent::TcpConnected));
                self.inb = Some(half);
                self.map_actions(now, ConnDir::In, actions, &mut out);
            }
        }
        out
    }

    /// The host's outbound dial failed.
    pub fn connect_failed(&mut self, now: Millis) -> Vec<CoreOutput> {
        let actions = self.out.session.handle(now, SessionEvent::TcpFailed);
        let mut out = Vec::new();
        self.map_actions(now, ConnDir::Out, actions, &mut out);
        out
    }

    /// A transport connection closed under us.
    pub fn closed(&mut self, now: Millis, dir: ConnDir) -> Vec<CoreOutput> {
        let mut out = Vec::new();
        let Some(half) = self.half_mut(dir) else { return out };
        half.rx.reset();
        let actions = half.session.handle(now, SessionEvent::TcpClosed);
        self.map_actions(now, dir, actions, &mut out);
        if dir == ConnDir::In {
            self.inb = None;
            if self.active == Some(ConnDir::In) {
                self.active = None;
            }
        }
        out
    }

    /// Feed bytes received on one connection; decodes as many complete
    /// messages as are buffered and runs each through the FSM, with
    /// §6.8 collision resolution interposed on OPEN receipt.
    pub fn bytes_in(&mut self, now: Millis, dir: ConnDir, data: &[u8]) -> Vec<CoreOutput> {
        let mut out = Vec::new();
        {
            let Some(half) = self.half_mut(dir) else { return out };
            half.rx.push(data);
        }
        while let Some(half) = self.half_mut(dir) {
            let four =
                half.session.four_octet() || half.session.state() != SessionState::Established;
            match half.rx.next_message(four) {
                Ok(Some(msg)) => {
                    if let BgpMessage::Open(open) = &msg {
                        let other = dir.other();
                        let other_colliding = self.half(other).is_some_and(|h| {
                            matches!(
                                h.session.state(),
                                SessionState::OpenSent | SessionState::OpenConfirm
                            )
                        });
                        if other_colliding {
                            // §6.8: the connection initiated by the higher
                            // BGP identifier survives.
                            let local_id = self.out.session.config().local_id;
                            let peer_wins = open.bgp_id.0 > local_id.0;
                            let winner = if peer_wins { ConnDir::In } else { ConnDir::Out };
                            if winner == dir {
                                self.kill_secondary(other, &mut out);
                            } else {
                                self.kill_secondary(dir, &mut out);
                                break; // this connection is gone
                            }
                        }
                    }
                    let Some(half) = self.half_mut(dir) else { break };
                    let actions = half.session.handle(now, SessionEvent::Message(msg));
                    self.map_actions(now, dir, actions, &mut out);
                }
                Ok(None) => break,
                Err(err) => {
                    self.fail(now, dir, &err, &mut out);
                    break;
                }
            }
        }
        out
    }

    /// Fire due timers on both connection slots.
    pub fn poll(&mut self, now: Millis) -> Vec<CoreOutput> {
        let mut out = Vec::new();
        let actions = self.out.session.poll(now);
        self.map_actions(now, ConnDir::Out, actions, &mut out);
        if let Some(inb) = &mut self.inb {
            let actions = inb.session.poll(now);
            self.map_actions(now, ConnDir::In, actions, &mut out);
            if self.inb.as_ref().is_some_and(|h| !h.live()) && self.active != Some(ConnDir::In) {
                self.inb = None;
            }
        }
        out
    }

    /// Kill the session after a host-detected fatal error (e.g. a
    /// malformed UPDATE the routing layer rejected): send the mapped
    /// NOTIFICATION on the active connection and reset.
    pub fn fail_active(&mut self, now: Millis, err: &WireError) -> Vec<CoreOutput> {
        let dir = self.active.unwrap_or(ConnDir::Out);
        let mut out = Vec::new();
        self.fail(now, dir, err, &mut out);
        out
    }

    // ----- internals ----------------------------------------------------

    fn half(&self, dir: ConnDir) -> Option<&Half> {
        match dir {
            ConnDir::Out => Some(&self.out),
            ConnDir::In => self.inb.as_ref(),
        }
    }

    fn half_mut(&mut self, dir: ConnDir) -> Option<&mut Half> {
        match dir {
            ConnDir::Out => Some(&mut self.out),
            ConnDir::In => self.inb.as_mut(),
        }
    }

    fn active_half(&self) -> Option<&Half> {
        match self.active {
            Some(ConnDir::In) => self.inb.as_ref(),
            Some(ConnDir::Out) => Some(&self.out),
            None => Some(&self.out),
        }
    }

    /// Tear down a handshake-stage connection that lost collision
    /// resolution (or was superseded): Cease subcode 7, close, and
    /// silent removal — no `Down` is reported because the neighbor
    /// relationship survives on the other connection.
    fn kill_secondary(&mut self, dir: ConnDir, out: &mut Vec<CoreOutput>) {
        let Some(half) = self.half(dir) else { return };
        let n = NotificationMsg::new(notif::CEASE, CEASE_COLLISION_RESOLUTION);
        let four = half.session.four_octet();
        out.push(CoreOutput::SendBytes(dir, BgpMessage::Notification(n).encode(four)));
        out.push(CoreOutput::Close(dir));
        match dir {
            ConnDir::In => self.inb = None,
            ConnDir::Out => {
                // The outbound slot is structural: replace it with a
                // fresh Idle FSM (timers disarmed, buffer empty).
                self.out = Half::new(self.out.session.config().clone());
            }
        }
        if self.active == Some(dir) {
            self.active = None;
        }
    }

    /// Kill a connection after a wire decode error, mirroring the
    /// speaker's historical `fail_session`: mapped NOTIFICATION, close,
    /// and a synthesized TcpClosed so the FSM reports TransportClosed
    /// rather than implying the peer sent our NOTIFICATION.
    fn fail(&mut self, now: Millis, dir: ConnDir, err: &WireError, out: &mut Vec<CoreOutput>) {
        let (bytes, actions) = {
            let Some(half) = self.half_mut(dir) else { return };
            let notification = NotificationMsg::from_wire_error(err);
            let four = half.session.four_octet();
            let bytes = BgpMessage::Notification(notification).encode(four);
            half.rx.reset();
            let actions = half.session.handle(now, SessionEvent::TcpClosed);
            (bytes, actions)
        };
        out.push(CoreOutput::SendBytes(dir, bytes));
        out.push(CoreOutput::Close(dir));
        self.map_actions(now, dir, actions, out);
        if dir == ConnDir::In {
            self.inb = None;
            if self.active == Some(ConnDir::In) {
                self.active = None;
            }
        }
    }

    /// Translate one connection's FSM actions into host outputs,
    /// applying the collision-aware Up/Down policy.
    fn map_actions(
        &mut self,
        _now: Millis,
        dir: ConnDir,
        actions: Vec<Action>,
        out: &mut Vec<CoreOutput>,
    ) {
        for action in actions {
            match action {
                Action::TcpConnect => out.push(CoreOutput::Connect),
                Action::TcpClose => out.push(CoreOutput::Close(dir)),
                Action::Send(msg) => {
                    let four = self.half(dir).map(|h| h.session.four_octet()).unwrap_or(false)
                        || !matches!(msg, BgpMessage::Update(_));
                    out.push(CoreOutput::SendBytes(dir, msg.encode(four)));
                }
                Action::Up(summary) => {
                    self.active = Some(dir);
                    // A parallel handshake on the other connection is
                    // superseded the moment this one is Established.
                    let other = dir.other();
                    if self.half(other).is_some_and(|h| h.live()) {
                        self.kill_secondary(other, out);
                        self.active = Some(dir);
                    }
                    out.push(CoreOutput::Up(summary));
                }
                Action::Down(reason) => {
                    let other_live = self.half(dir.other()).is_some_and(|h| h.live());
                    if let Some(half) = self.half_mut(dir) {
                        half.rx.reset();
                    }
                    let was_active = self.active == Some(dir) || self.active.is_none();
                    if self.active == Some(dir) {
                        self.active = None;
                    }
                    if was_active && !other_live {
                        out.push(CoreOutput::Down(reason));
                    }
                }
                Action::Deliver(update) => out.push(CoreOutput::Update(update)),
            }
        }
    }
}
