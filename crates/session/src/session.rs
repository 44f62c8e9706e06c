//! The BGP session finite-state machine (RFC 4271 §8), sans-IO.
//!
//! A [`Session`] owns no socket and reads no clock. The host (test,
//! simulator, or a real transport shim) feeds it [`SessionEvent`]s plus
//! the current time, and executes the [`Action`]s it returns. Timer state
//! is exposed through [`Session::next_deadline`] so an event loop can
//! sleep exactly until the next interesting moment — the smoltcp-style
//! `poll`/`poll_at` discipline.
//!
//! Simplifications relative to a kernel-adjacent implementation, all
//! irrelevant to D-BGP's experiments: no TCP connection-collision
//! resolution (the simulator gives each peer pair one logical channel),
//! and no DelayOpen.

use crate::config::PeerConfig;
use dbgp_wire::message::{notif, BgpMessage, NotificationMsg, OpenMsg, UpdateMsg};
use dbgp_wire::Capability;

/// Milliseconds since an arbitrary epoch; the simulator's clock unit.
pub type Millis = u64;

/// The six RFC 4271 session states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionState {
    /// Configured but not started, or reset after an error.
    Idle,
    /// Actively trying to establish the transport connection.
    Connect,
    /// Waiting (listening) for the transport, after a connect failure.
    Active,
    /// Transport up; our OPEN sent; waiting for the peer's OPEN.
    OpenSent,
    /// OPENs exchanged; waiting for the first KEEPALIVE.
    OpenConfirm,
    /// Session fully up; UPDATEs flow.
    Established,
}

/// Inputs to the FSM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// Operator enabled the session.
    ManualStart,
    /// Operator disabled the session.
    ManualStop,
    /// The transport connection was established.
    TcpConnected,
    /// The transport connection attempt failed.
    TcpFailed,
    /// The established transport connection closed.
    TcpClosed,
    /// A complete BGP message arrived.
    Message(BgpMessage),
}

/// Why a session went down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownReason {
    /// We sent or received a NOTIFICATION.
    Notification(NotificationMsg),
    /// Hold timer expired without hearing from the peer.
    HoldTimerExpired,
    /// The transport connection closed under us.
    TransportClosed,
    /// Operator stop.
    AdminStop,
    /// The peer's OPEN failed validation.
    OpenRejected(&'static str),
}

/// Negotiated parameters reported when a session reaches Established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSummary {
    /// The peer's (4-octet-capable) AS number.
    pub peer_as: u32,
    /// The peer's BGP identifier.
    pub peer_id: dbgp_wire::Ipv4Addr,
    /// Hold time both sides agreed on (0 = timers disabled).
    pub hold_time_ms: Millis,
    /// Both sides support 4-octet AS numbers.
    pub four_octet: bool,
    /// Both sides advertised the D-BGP IA capability.
    pub ia_support: bool,
}

/// Outputs of the FSM, to be executed by the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Open the transport connection to the peer.
    TcpConnect,
    /// Close the transport connection.
    TcpClose,
    /// Transmit a message.
    Send(BgpMessage),
    /// The session reached Established.
    Up(SessionSummary),
    /// The session left Established (or an establishment attempt died).
    Down(DownReason),
    /// An UPDATE arrived on an Established session; hand it to the
    /// routing layer.
    Deliver(UpdateMsg),
}

/// Hold timer used while waiting for the peer's OPEN (RFC 4271 suggests
/// "a large value"; 4 minutes is conventional).
const OPEN_HOLD_MS: Millis = 240_000;

/// A single BGP session state machine.
#[derive(Debug, Clone)]
pub struct Session {
    config: PeerConfig,
    state: SessionState,
    /// Negotiated hold time (ms), valid from OpenConfirm on.
    hold_ms: Millis,
    four_octet: bool,
    ia_support: bool,
    peer_open: Option<OpenMsg>,
    connect_retry_deadline: Option<Millis>,
    hold_deadline: Option<Millis>,
    keepalive_deadline: Option<Millis>,
}

impl Session {
    /// Create an idle session for the given peer configuration.
    pub fn new(config: PeerConfig) -> Self {
        Session {
            config,
            state: SessionState::Idle,
            hold_ms: 0,
            four_octet: false,
            ia_support: false,
            peer_open: None,
            connect_retry_deadline: None,
            hold_deadline: None,
            keepalive_deadline: None,
        }
    }

    /// Current FSM state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The peer configuration this session runs under.
    pub fn config(&self) -> &PeerConfig {
        &self.config
    }

    /// Whether UPDATEs should be encoded with 4-octet AS numbers on this
    /// session. Only meaningful once Established.
    pub fn four_octet(&self) -> bool {
        self.four_octet
    }

    /// Whether the session negotiated D-BGP IA support.
    pub fn ia_support(&self) -> bool {
        self.ia_support
    }

    /// The earliest future instant at which [`Session::poll`] needs to
    /// run, or `None` if no timer is armed.
    pub fn next_deadline(&self) -> Option<Millis> {
        [self.connect_retry_deadline, self.hold_deadline, self.keepalive_deadline]
            .into_iter()
            .flatten()
            .min()
    }

    /// Fire any timers that are due at `now`.
    pub fn poll(&mut self, now: Millis) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.connect_retry_deadline.is_some_and(|d| d <= now) {
            self.connect_retry_deadline = Some(now + self.config.connect_retry_ms);
            match self.state {
                SessionState::Connect | SessionState::Active => {
                    self.state = SessionState::Connect;
                    actions.push(Action::TcpConnect);
                }
                _ => {}
            }
        }
        if self.hold_deadline.is_some_and(|d| d <= now) {
            self.hold_deadline = None;
            let notification = NotificationMsg::new(notif::HOLD_TIMER_EXPIRED, 0);
            actions.push(Action::Send(BgpMessage::Notification(notification)));
            actions.push(Action::TcpClose);
            actions.extend(self.enter_idle(DownReason::HoldTimerExpired));
        }
        if self.keepalive_deadline.is_some_and(|d| d <= now) {
            if self.state == SessionState::Established || self.state == SessionState::OpenConfirm {
                self.keepalive_deadline = Some(now + self.keepalive_interval());
                actions.push(Action::Send(BgpMessage::Keepalive));
            } else {
                self.keepalive_deadline = None;
            }
        }
        actions
    }

    /// Feed one event into the FSM.
    pub fn handle(&mut self, now: Millis, event: SessionEvent) -> Vec<Action> {
        use SessionEvent::*;
        use SessionState::*;
        match (self.state, event) {
            (Idle, ManualStart) => {
                self.connect_retry_deadline = Some(now + self.config.connect_retry_ms);
                if self.config.passive {
                    self.state = Active;
                    vec![]
                } else {
                    self.state = Connect;
                    vec![Action::TcpConnect]
                }
            }
            (_, ManualStart) => vec![],
            (Idle, _) => vec![],
            (_, ManualStop) => {
                let mut actions = vec![
                    Action::Send(BgpMessage::Notification(NotificationMsg::new(notif::CEASE, 0))),
                    Action::TcpClose,
                ];
                actions.extend(self.enter_idle(DownReason::AdminStop));
                actions
            }
            (Connect | Active, TcpConnected) => {
                self.state = OpenSent;
                self.connect_retry_deadline = None;
                self.hold_deadline = Some(now + OPEN_HOLD_MS);
                vec![Action::Send(BgpMessage::Open(self.make_open()))]
            }
            (Connect, TcpFailed) => {
                self.state = Active;
                vec![]
            }
            (Active, TcpFailed) => vec![],
            (Connect | Active, _) => vec![],
            (OpenSent, Message(BgpMessage::Open(open))) => self.on_open(now, open),
            (OpenSent, TcpClosed) => {
                self.state = Active;
                self.hold_deadline = None;
                self.connect_retry_deadline = Some(now + self.config.connect_retry_ms);
                vec![]
            }
            (OpenConfirm, Message(BgpMessage::Keepalive)) => {
                self.state = Established;
                self.arm_established_timers(now);
                vec![Action::Up(self.summary())]
            }
            (Established, Message(BgpMessage::Update(update))) => {
                self.touch_hold(now);
                vec![Action::Deliver(update)]
            }
            (Established, Message(BgpMessage::Keepalive)) => {
                self.touch_hold(now);
                vec![]
            }
            (_, Message(BgpMessage::Notification(n))) => {
                let mut actions = vec![Action::TcpClose];
                actions.extend(self.enter_idle(DownReason::Notification(n)));
                actions
            }
            (OpenConfirm | Established, TcpClosed) => self.enter_idle(DownReason::TransportClosed),
            // Anything else is an FSM error: NOTIFICATION and reset.
            (_, Message(_)) => {
                let notification = NotificationMsg::new(notif::FSM_ERROR, 0);
                let mut actions = vec![
                    Action::Send(BgpMessage::Notification(notification.clone())),
                    Action::TcpClose,
                ];
                actions.extend(self.enter_idle(DownReason::Notification(notification)));
                actions
            }
            (_, TcpFailed | TcpConnected) => vec![],
        }
    }

    fn make_open(&self) -> OpenMsg {
        let mut open =
            OpenMsg::new(self.config.local_as, self.config.hold_time_secs, self.config.local_id);
        if self.config.advertise_ia {
            open.capabilities.push(Capability::DbgpIa);
        }
        open
    }

    fn on_open(&mut self, now: Millis, open: OpenMsg) -> Vec<Action> {
        // Validate the peer AS if configured.
        if let Some(expected) = self.config.peer_as {
            if open.effective_as() != expected {
                let notification = NotificationMsg::new(notif::OPEN_ERROR, 2); // bad peer AS
                let mut actions =
                    vec![Action::Send(BgpMessage::Notification(notification)), Action::TcpClose];
                actions.extend(self.enter_idle(DownReason::OpenRejected("unexpected peer AS")));
                return actions;
            }
        }
        let negotiated_secs = if open.hold_time == 0 || self.config.hold_time_secs == 0 {
            0
        } else {
            open.hold_time.min(self.config.hold_time_secs)
        };
        self.hold_ms = negotiated_secs as Millis * 1000;
        self.four_octet = open.capabilities.iter().any(|c| matches!(c, Capability::FourOctetAs(_)));
        self.ia_support = open.supports_ia() && self.config.advertise_ia;
        self.peer_open = Some(open);
        self.state = SessionState::OpenConfirm;
        self.arm_established_timers(now);
        vec![Action::Send(BgpMessage::Keepalive)]
    }

    fn arm_established_timers(&mut self, now: Millis) {
        if self.hold_ms == 0 {
            self.hold_deadline = None;
            self.keepalive_deadline = None;
        } else {
            self.hold_deadline = Some(now + self.hold_ms);
            self.keepalive_deadline = Some(now + self.keepalive_interval());
        }
    }

    fn keepalive_interval(&self) -> Millis {
        (self.hold_ms / 3).max(1)
    }

    fn touch_hold(&mut self, now: Millis) {
        if self.hold_ms > 0 {
            self.hold_deadline = Some(now + self.hold_ms);
        }
    }

    fn summary(&self) -> SessionSummary {
        let open = self.peer_open.as_ref().expect("summary only after OPEN");
        SessionSummary {
            peer_as: open.effective_as(),
            peer_id: open.bgp_id,
            hold_time_ms: self.hold_ms,
            four_octet: self.four_octet,
            ia_support: self.ia_support,
        }
    }

    fn enter_idle(&mut self, reason: DownReason) -> Vec<Action> {
        let was_live = matches!(
            self.state,
            SessionState::Established | SessionState::OpenConfirm | SessionState::OpenSent
        );
        self.state = SessionState::Idle;
        self.peer_open = None;
        self.hold_deadline = None;
        self.keepalive_deadline = None;
        self.connect_retry_deadline = None;
        self.hold_ms = 0;
        if was_live {
            vec![Action::Down(reason)]
        } else {
            vec![]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_wire::Ipv4Addr;

    fn config(asn: u32) -> PeerConfig {
        PeerConfig {
            local_as: asn,
            local_id: Ipv4Addr::new(10, 0, 0, asn as u8),
            peer_as: None,
            hold_time_secs: 90,
            connect_retry_ms: 5_000,
            passive: false,
            advertise_ia: false,
        }
    }

    fn open_from(asn: u32, ia: bool) -> OpenMsg {
        let mut open = OpenMsg::new(asn, 90, Ipv4Addr::new(10, 0, 0, asn as u8));
        if ia {
            open.capabilities.push(Capability::DbgpIa);
        }
        open
    }

    /// Drive a session to Established and return it plus the Up summary.
    fn establish(mut cfg: PeerConfig, peer_ia: bool) -> (Session, SessionSummary) {
        cfg.advertise_ia = true;
        let mut s = Session::new(cfg);
        assert_eq!(s.handle(0, SessionEvent::ManualStart), vec![Action::TcpConnect]);
        let actions = s.handle(10, SessionEvent::TcpConnected);
        assert!(matches!(actions[0], Action::Send(BgpMessage::Open(_))));
        let actions =
            s.handle(20, SessionEvent::Message(BgpMessage::Open(open_from(200, peer_ia))));
        assert_eq!(actions, vec![Action::Send(BgpMessage::Keepalive)]);
        assert_eq!(s.state(), SessionState::OpenConfirm);
        let actions = s.handle(30, SessionEvent::Message(BgpMessage::Keepalive));
        let summary = match &actions[..] {
            [Action::Up(sum)] => *sum,
            other => panic!("expected Up, got {other:?}"),
        };
        assert_eq!(s.state(), SessionState::Established);
        (s, summary)
    }

    #[test]
    fn happy_path_reaches_established() {
        let (_s, summary) = establish(config(100), false);
        assert_eq!(summary.peer_as, 200);
        assert_eq!(summary.hold_time_ms, 90_000);
        assert!(summary.four_octet);
        assert!(!summary.ia_support, "IA requires both sides");
    }

    #[test]
    fn ia_support_negotiated_only_when_both_advertise() {
        let (_s, summary) = establish(config(100), true);
        assert!(summary.ia_support);
    }

    #[test]
    fn passive_session_waits_in_active() {
        let mut cfg = config(100);
        cfg.passive = true;
        let mut s = Session::new(cfg);
        assert_eq!(s.handle(0, SessionEvent::ManualStart), vec![]);
        assert_eq!(s.state(), SessionState::Active);
        let actions = s.handle(10, SessionEvent::TcpConnected);
        assert!(matches!(actions[0], Action::Send(BgpMessage::Open(_))));
        assert_eq!(s.state(), SessionState::OpenSent);
    }

    #[test]
    fn connect_failure_falls_back_to_active_then_retries() {
        let mut s = Session::new(config(100));
        s.handle(0, SessionEvent::ManualStart);
        s.handle(5, SessionEvent::TcpFailed);
        assert_eq!(s.state(), SessionState::Active);
        // The connect-retry timer fires and we try again.
        let deadline = s.next_deadline().unwrap();
        assert_eq!(deadline, 5_000);
        let actions = s.poll(deadline);
        assert_eq!(actions, vec![Action::TcpConnect]);
        assert_eq!(s.state(), SessionState::Connect);
    }

    #[test]
    fn unexpected_peer_as_rejected() {
        let mut cfg = config(100);
        cfg.peer_as = Some(999);
        let mut s = Session::new(cfg);
        s.handle(0, SessionEvent::ManualStart);
        s.handle(10, SessionEvent::TcpConnected);
        let actions = s.handle(20, SessionEvent::Message(BgpMessage::Open(open_from(200, false))));
        assert!(matches!(actions[0], Action::Send(BgpMessage::Notification(_))));
        assert!(actions.contains(&Action::Down(DownReason::OpenRejected("unexpected peer AS"))));
        assert_eq!(s.state(), SessionState::Idle);
    }

    #[test]
    fn expected_peer_as_accepted() {
        let mut cfg = config(100);
        cfg.peer_as = Some(200);
        let mut s = Session::new(cfg);
        s.handle(0, SessionEvent::ManualStart);
        s.handle(10, SessionEvent::TcpConnected);
        let actions = s.handle(20, SessionEvent::Message(BgpMessage::Open(open_from(200, false))));
        assert_eq!(actions, vec![Action::Send(BgpMessage::Keepalive)]);
    }

    #[test]
    fn hold_time_negotiates_to_minimum() {
        let mut cfg = config(100);
        cfg.hold_time_secs = 30;
        let mut s = Session::new(cfg);
        s.handle(0, SessionEvent::ManualStart);
        s.handle(10, SessionEvent::TcpConnected);
        s.handle(20, SessionEvent::Message(BgpMessage::Open(open_from(200, false))));
        s.handle(30, SessionEvent::Message(BgpMessage::Keepalive));
        // Peer offered 90s, we hold 30s: negotiated 30s.
        assert!(s.next_deadline().unwrap() <= 30 + 30_000);
    }

    #[test]
    fn zero_hold_time_disables_timers() {
        let mut cfg = config(100);
        cfg.hold_time_secs = 0;
        let mut s = Session::new(cfg);
        s.handle(0, SessionEvent::ManualStart);
        s.handle(10, SessionEvent::TcpConnected);
        s.handle(20, SessionEvent::Message(BgpMessage::Open(open_from(200, false))));
        s.handle(30, SessionEvent::Message(BgpMessage::Keepalive));
        assert_eq!(s.state(), SessionState::Established);
        assert_eq!(s.next_deadline(), None);
    }

    #[test]
    fn hold_timer_expiry_tears_down() {
        let (mut s, _) = establish(config(100), false);
        // No traffic for the whole hold time.
        let actions = s.poll(30 + 90_000);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(BgpMessage::Notification(n)) if n.error_code == notif::HOLD_TIMER_EXPIRED
        )));
        assert!(actions.contains(&Action::Down(DownReason::HoldTimerExpired)));
        assert_eq!(s.state(), SessionState::Idle);
    }

    #[test]
    fn keepalives_refresh_hold_timer() {
        let (mut s, _) = establish(config(100), false);
        // Keepalive at t=60s refreshes the hold deadline to 150s.
        s.handle(60_000, SessionEvent::Message(BgpMessage::Keepalive));
        let actions = s.poll(90_100);
        assert!(
            !actions.iter().any(|a| matches!(a, Action::Down(_))),
            "session must survive: hold was refreshed"
        );
        assert_eq!(s.state(), SessionState::Established);
    }

    #[test]
    fn keepalive_timer_emits_keepalives() {
        let (mut s, _) = establish(config(100), false);
        let first_ka = s.next_deadline().unwrap();
        assert_eq!(first_ka, 30 + 30_000, "keepalive = hold/3, re-armed at Established (t=30)");
        let actions = s.poll(first_ka);
        assert_eq!(actions, vec![Action::Send(BgpMessage::Keepalive)]);
        // Re-armed for another interval.
        assert_eq!(s.next_deadline().unwrap(), first_ka + 30_000);
    }

    #[test]
    fn updates_are_delivered_and_refresh_hold() {
        let (mut s, _) = establish(config(100), false);
        let update = UpdateMsg::withdraw(vec!["10.0.0.0/8".parse().unwrap()]);
        let actions = s.handle(40, SessionEvent::Message(BgpMessage::Update(update.clone())));
        assert_eq!(actions, vec![Action::Deliver(update)]);
    }

    #[test]
    fn notification_resets_to_idle() {
        let (mut s, _) = establish(config(100), false);
        let n = NotificationMsg::new(notif::CEASE, 0);
        let actions = s.handle(50, SessionEvent::Message(BgpMessage::Notification(n.clone())));
        assert!(actions.contains(&Action::Down(DownReason::Notification(n))));
        assert_eq!(s.state(), SessionState::Idle);
    }

    #[test]
    fn transport_loss_resets_to_idle() {
        let (mut s, _) = establish(config(100), false);
        let actions = s.handle(50, SessionEvent::TcpClosed);
        assert!(actions.contains(&Action::Down(DownReason::TransportClosed)));
        assert_eq!(s.state(), SessionState::Idle);
    }

    #[test]
    fn manual_stop_sends_cease() {
        let (mut s, _) = establish(config(100), false);
        let actions = s.handle(50, SessionEvent::ManualStop);
        assert!(matches!(
            &actions[0],
            Action::Send(BgpMessage::Notification(n)) if n.error_code == notif::CEASE
        ));
        assert_eq!(s.state(), SessionState::Idle);
    }

    #[test]
    fn update_before_established_is_fsm_error() {
        let mut s = Session::new(config(100));
        s.handle(0, SessionEvent::ManualStart);
        s.handle(10, SessionEvent::TcpConnected);
        let update = UpdateMsg::withdraw(vec!["10.0.0.0/8".parse().unwrap()]);
        let actions = s.handle(20, SessionEvent::Message(BgpMessage::Update(update)));
        assert!(matches!(
            &actions[0],
            Action::Send(BgpMessage::Notification(n)) if n.error_code == notif::FSM_ERROR
        ));
        assert_eq!(s.state(), SessionState::Idle);
    }

    #[test]
    fn restart_after_idle_works() {
        let (mut s, _) = establish(config(100), false);
        s.handle(50, SessionEvent::ManualStop);
        assert_eq!(s.handle(60, SessionEvent::ManualStart), vec![Action::TcpConnect]);
        assert_eq!(s.state(), SessionState::Connect);
    }

    #[test]
    fn open_hold_timer_guards_opensent() {
        let mut s = Session::new(config(100));
        s.handle(0, SessionEvent::ManualStart);
        s.handle(10, SessionEvent::TcpConnected);
        assert_eq!(s.state(), SessionState::OpenSent);
        // Peer never sends OPEN: the large hold timer eventually fires.
        let deadline = s.next_deadline().unwrap();
        assert_eq!(deadline, 10 + OPEN_HOLD_MS);
        let actions = s.poll(deadline);
        assert!(actions.contains(&Action::Down(DownReason::HoldTimerExpired)));
    }
}
