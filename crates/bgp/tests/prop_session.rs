//! Property tests for the BGP session FSM and the speaker's byte
//! interface: no input sequence may panic, violate timer monotonicity,
//! or wedge the state machine.

use dbgp_bgp::{NeighborConfig, PeerId, Speaker, TransportEvent};
use dbgp_session::{Action, DownReason, PeerConfig, Session, SessionEvent, SessionState};
use dbgp_wire::message::{notif, BgpMessage, NotificationMsg, OpenMsg, UpdateMsg};
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use proptest::prelude::*;

/// The AS the sessions under test expect their peer to open with.
const PEER_AS: u32 = 200;

fn config() -> PeerConfig {
    expecting(PEER_AS)
}

fn expecting(peer_as: u32) -> PeerConfig {
    PeerConfig {
        local_as: 100,
        local_id: Ipv4Addr::new(10, 0, 0, 1),
        peer_as,
        hold_time_secs: 90,
        connect_retry_ms: 5_000,
        passive: false,
        advertise_ia: true,
    }
}

fn arb_event() -> impl Strategy<Value = SessionEvent> {
    prop_oneof![
        Just(SessionEvent::ManualStart),
        Just(SessionEvent::ManualStop),
        Just(SessionEvent::TcpConnected),
        Just(SessionEvent::TcpFailed),
        Just(SessionEvent::TcpClosed),
        Just(SessionEvent::Message(BgpMessage::Keepalive)),
        // The configured AS (the handshake goes on) or any other (the
        // OPEN is refused).
        (prop_oneof![Just(PEER_AS), 1u32..100_000], 0u16..200).prop_map(|(asn, hold)| {
            let hold = if hold == 1 || hold == 2 { 3 } else { hold };
            SessionEvent::Message(BgpMessage::Open(OpenMsg::new(
                asn,
                hold,
                Ipv4Addr::new(9, 9, 9, 9),
            )))
        }),
        Just(SessionEvent::Message(BgpMessage::Update(UpdateMsg::withdraw(vec!["10.0.0.0/8"
            .parse()
            .unwrap()])))),
        (1u8..7, 0u8..12).prop_map(|(code, sub)| {
            SessionEvent::Message(BgpMessage::Notification(NotificationMsg::new(code, sub)))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary event sequences never panic, and every send the FSM
    /// asks for is a well-formed BGP message.
    #[test]
    fn fsm_survives_arbitrary_event_sequences(
        events in proptest::collection::vec(arb_event(), 0..40),
        step_ms in 1u64..5_000,
    ) {
        let mut session = Session::new(config());
        let mut now = 0u64;
        for event in events {
            now += step_ms;
            for action in session.handle(now, event) {
                if let Action::Send(msg) = action {
                    // Every emitted message must encode and re-decode.
                    let bytes = msg.encode(true);
                    let mut buf = bytes::BytesMut::from(&bytes[..]);
                    prop_assert!(BgpMessage::decode(&mut buf, true).unwrap().is_some());
                }
            }
            for action in session.poll(now) {
                let _ = action;
            }
            // Timer invariant: any armed deadline is in the future or
            // exactly now-due work that poll() just consumed.
            if let Some(deadline) = session.next_deadline() {
                prop_assert!(deadline > now, "stale deadline {deadline} at {now}");
            }
        }
    }

    /// After any event storm, ManualStop then ManualStart always gets
    /// back to Connect: the FSM is never wedged.
    #[test]
    fn fsm_is_always_recoverable(
        events in proptest::collection::vec(arb_event(), 0..30),
    ) {
        let mut session = Session::new(config());
        let mut now = 0u64;
        for event in events {
            now += 100;
            session.handle(now, event);
        }
        session.handle(now + 1, SessionEvent::ManualStop);
        prop_assert_eq!(session.state(), SessionState::Idle);
        let actions = session.handle(now + 2, SessionEvent::ManualStart);
        prop_assert_eq!(session.state(), SessionState::Connect);
        prop_assert!(actions.contains(&Action::TcpConnect));
    }

    /// The full speaker fed arbitrary byte garbage never panics and
    /// never emits malformed frames.
    #[test]
    fn speaker_survives_byte_garbage(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..10),
    ) {
        let mut speaker = Speaker::new(100, Ipv4Addr::new(10, 0, 0, 1));
        speaker.add_peer(
            PeerId(0),
            NeighborConfig::new(100, Ipv4Addr::new(10, 0, 0, 1), 200, Ipv4Addr::new(10, 0, 0, 2)),
        );
        speaker.start(0);
        speaker.transport_event(1, PeerId(0), TransportEvent::Connected);
        let mut now = 10;
        for chunk in chunks {
            now += 1;
            for output in speaker.receive(now, PeerId(0), &chunk) {
                if let dbgp_bgp::Output::Send(_, _, bytes) = output {
                    let mut buf = bytes::BytesMut::from(&bytes[..]);
                    // What we send is always decodable by a conformant
                    // peer.
                    while let Ok(Some(_)) = BgpMessage::decode(&mut buf, true) {}
                    prop_assert!(buf.is_empty() || buf.len() < bytes.len());
                }
            }
        }
    }

    /// A correctly scripted handshake always reaches Established no
    /// matter what timing steps are used (below the hold time).
    #[test]
    fn handshake_timing_independent(gaps in proptest::collection::vec(1u64..10_000, 3..4)) {
        let mut session = Session::new(config());
        let mut now = 0;
        session.handle(now, SessionEvent::ManualStart);
        now += gaps[0];
        session.handle(now, SessionEvent::TcpConnected);
        now += gaps[1];
        session.handle(
            now,
            SessionEvent::Message(BgpMessage::Open(OpenMsg::new(PEER_AS, 90, Ipv4Addr(7)))),
        );
        now += gaps[2];
        let actions = session.handle(now, SessionEvent::Message(BgpMessage::Keepalive));
        prop_assert_eq!(session.state(), SessionState::Established);
        prop_assert!(actions.iter().any(|a| matches!(a, Action::Up(_))));
    }

    /// Hold-timer expiry fires iff silence exceeds the negotiated hold
    /// time.
    #[test]
    fn hold_expiry_is_exact(quiet_ms in 1u64..200_000) {
        let mut session = Session::new(config());
        session.handle(0, SessionEvent::ManualStart);
        session.handle(0, SessionEvent::TcpConnected);
        session.handle(
            0,
            SessionEvent::Message(BgpMessage::Open(OpenMsg::new(PEER_AS, 90, Ipv4Addr(7)))),
        );
        session.handle(0, SessionEvent::Message(BgpMessage::Keepalive));
        prop_assert_eq!(session.state(), SessionState::Established);
        let actions = session.poll(quiet_ms);
        let expired = actions.iter().any(|a| {
            matches!(a, Action::Send(BgpMessage::Notification(n)) if n.error_code == notif::HOLD_TIMER_EXPIRED)
        });
        prop_assert_eq!(expired, quiet_ms >= 90_000, "at {}ms", quiet_ms);
    }

    /// Prefix withdrawal after announcement always empties the Loc-RIB
    /// entry, regardless of interleaved keepalives.
    #[test]
    fn announce_withdraw_is_clean(n_keepalives in 0usize..5) {
        let mut speaker = Speaker::new(100, Ipv4Addr::new(10, 0, 0, 1));
        speaker.add_peer(
            PeerId(0),
            NeighborConfig::new(100, Ipv4Addr::new(10, 0, 0, 1), 200, Ipv4Addr::new(10, 0, 0, 2)),
        );
        speaker.start(0);
        speaker.transport_event(0, PeerId(0), TransportEvent::Connected);
        let open = BgpMessage::Open(OpenMsg::new(200, 90, Ipv4Addr(7))).encode(true);
        speaker.receive(1, PeerId(0), &open);
        speaker.receive(2, PeerId(0), &BgpMessage::Keepalive.encode(true));
        prop_assert!(speaker.is_established(PeerId(0)));

        let prefix: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
        let announce = BgpMessage::Update(UpdateMsg::announce(
            vec![prefix],
            vec![
                dbgp_wire::PathAttribute::Origin(dbgp_wire::Origin::Igp),
                dbgp_wire::PathAttribute::AsPath(dbgp_wire::AsPath::from_sequence(vec![200])),
                dbgp_wire::PathAttribute::NextHop(Ipv4Addr::new(10, 0, 0, 2)),
            ],
        ))
        .encode(true);
        speaker.receive(3, PeerId(0), &announce);
        prop_assert!(speaker.loc_rib().get(&prefix).is_some());
        for i in 0..n_keepalives {
            speaker.receive(4 + i as u64, PeerId(0), &BgpMessage::Keepalive.encode(true));
        }
        let withdraw = BgpMessage::Update(UpdateMsg::withdraw(vec![prefix])).encode(true);
        speaker.receive(100, PeerId(0), &withdraw);
        prop_assert!(speaker.loc_rib().get(&prefix).is_none());
    }
}

/// Deterministic long-horizon test (not property-based): two sessions
/// exchanging keepalives on schedule stay Established for 24 simulated
/// hours; silence then kills them exactly once.
#[test]
fn day_long_session_stays_up_on_keepalives() {
    let mut a = Session::new(config());
    let mut b = Session::new(expecting(100));
    a.handle(0, SessionEvent::ManualStart);
    b.handle(0, SessionEvent::ManualStart);
    a.handle(0, SessionEvent::TcpConnected);
    b.handle(0, SessionEvent::TcpConnected);
    // Exchange OPENs + first keepalives.
    a.handle(1, SessionEvent::Message(BgpMessage::Open(OpenMsg::new(PEER_AS, 90, Ipv4Addr(2)))));
    b.handle(1, SessionEvent::Message(BgpMessage::Open(OpenMsg::new(100, 90, Ipv4Addr(1)))));
    a.handle(2, SessionEvent::Message(BgpMessage::Keepalive));
    b.handle(2, SessionEvent::Message(BgpMessage::Keepalive));
    assert_eq!(a.state(), SessionState::Established);
    assert_eq!(b.state(), SessionState::Established);

    // Event loop: run both FSMs off their own deadlines for 24 h,
    // delivering every keepalive to the peer with 50 ms latency.
    let mut now: u64 = 2;
    let day = 24 * 3600 * 1000;
    let mut pending: Vec<(u64, bool)> = Vec::new(); // (deliver_at, to_a)
    while now < day {
        let next_timer = [a.next_deadline(), b.next_deadline()]
            .into_iter()
            .flatten()
            .min()
            .expect("timers armed");
        let next_delivery = pending.iter().map(|(t, _)| *t).min();
        now = next_delivery.map_or(next_timer, |d| d.min(next_timer));
        if now >= day {
            break;
        }
        // Deliveries due now.
        let due: Vec<(u64, bool)> = pending.iter().copied().filter(|(t, _)| *t <= now).collect();
        pending.retain(|(t, _)| *t > now);
        for (_, to_a) in due {
            let target = if to_a { &mut a } else { &mut b };
            let actions = target.handle(now, SessionEvent::Message(BgpMessage::Keepalive));
            assert!(!actions.iter().any(|x| matches!(x, Action::Down(_))), "session died at {now}");
        }
        // Timers due now.
        for (session, to_a) in [(&mut a, false), (&mut b, true)] {
            for action in session.poll(now) {
                match action {
                    Action::Send(BgpMessage::Keepalive) => pending.push((now + 50, to_a)),
                    Action::Down(reason) => panic!("session died at {now}: {reason:?}"),
                    _ => {}
                }
            }
        }
    }
    assert_eq!(a.state(), SessionState::Established, "still up after 24h");
    assert_eq!(b.state(), SessionState::Established);

    // Now the peer goes silent: exactly one hold expiry, 90s later.
    let deadline = a.next_deadline().unwrap();
    let actions = a.poll(deadline + 90_000);
    assert!(actions.iter().any(|x| matches!(x, Action::Down(DownReason::HoldTimerExpired))));
}
