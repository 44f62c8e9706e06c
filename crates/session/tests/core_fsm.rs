//! Sans-IO tests for [`SessionCore`]: hold-timer expiry and connection
//! collision as pure timer-op/output sequences — no clock, no sockets —
//! plus a property test that arbitrary byte-chunk fragmentation never
//! changes FSM outcomes.

use bytes::Bytes;
use dbgp_session::config::PeerConfig;
use dbgp_session::peer::{ConnDir, CoreOutput, SessionCore};
use dbgp_session::session::{DownReason, SessionState};
use dbgp_wire::message::{notif, BgpMessage, Capability, NotificationMsg, OpenMsg, UpdateMsg};
use dbgp_wire::{AsPath, Ipv4Addr, Ipv4Prefix, Origin, PathAttribute};
use proptest::prelude::*;

fn cfg(local_id_octet: u8) -> PeerConfig {
    PeerConfig {
        local_as: 65001,
        local_id: Ipv4Addr::new(10, 0, 0, local_id_octet),
        peer_as: 65002,
        hold_time_secs: 90,
        connect_retry_ms: 5_000,
        passive: false,
        advertise_ia: true,
    }
}

fn peer_open(id_octet: u8) -> Bytes {
    let mut open = OpenMsg::new(65002, 90, Ipv4Addr::new(10, 0, 0, id_octet));
    open.capabilities.push(Capability::DbgpIa);
    BgpMessage::Open(open).encode(true)
}

fn keepalive() -> Bytes {
    BgpMessage::Keepalive.encode(true)
}

fn sample_update() -> Bytes {
    let update = UpdateMsg::announce(
        vec![Ipv4Prefix::new(Ipv4Addr::new(10, 2, 0, 0), 16).expect("valid prefix")],
        vec![
            PathAttribute::Origin(Origin::Igp),
            PathAttribute::AsPath(AsPath::from_sequence(vec![65002])),
            PathAttribute::NextHop(Ipv4Addr::new(10, 0, 0, 2)),
        ],
    );
    BgpMessage::Update(update).encode(true)
}

/// Drive a fresh core to Established over the outbound connection.
/// Returns the core with the session up at `now = 30`.
fn established_core() -> SessionCore {
    let mut core = SessionCore::new(cfg(1));
    let out = core.start(0);
    assert_eq!(out, vec![CoreOutput::Connect]);
    let out = core.connected(10, ConnDir::Out);
    assert!(matches!(out[0], CoreOutput::SendBytes(ConnDir::Out, _)), "OPEN goes out");
    let out = core.bytes_in(20, ConnDir::Out, &peer_open(2));
    assert!(
        matches!(out[0], CoreOutput::SendBytes(ConnDir::Out, _)),
        "KEEPALIVE acknowledges the peer OPEN"
    );
    let out = core.bytes_in(30, ConnDir::Out, &keepalive());
    assert!(matches!(out[0], CoreOutput::Up(_)), "expected Up, got {out:?}");
    assert_eq!(core.state(), SessionState::Established);
    assert!(core.ia_support(), "both sides advertised IA");
    core
}

fn is_notification(bytes: &Bytes, code: u8, subcode: u8) -> bool {
    let expected = BgpMessage::Notification(NotificationMsg::new(code, subcode)).encode(true);
    bytes == &expected
}

#[test]
fn hold_timer_expiry_is_a_pure_timer_op_sequence() {
    let mut core = established_core();
    // The negotiated hold time arms a deadline; nothing fires before it.
    let hold_deadline = 30 + 90_000;
    let keepalive_deadline = 30 + 30_000;
    assert_eq!(core.next_deadline(), Some(keepalive_deadline), "keepalive = hold/3 fires first");
    assert_eq!(core.poll(keepalive_deadline - 1), vec![]);
    // Keepalive timers fire and re-arm without touching the hold timer.
    let out = core.poll(keepalive_deadline);
    assert!(
        matches!(&out[..], [CoreOutput::SendBytes(ConnDir::Out, b)] if **b == *keepalive()),
        "got {out:?}"
    );
    // Silence from the peer: let every keepalive fire, then the hold
    // timer expires. The FSM emits NOTIFICATION + close + Down, in
    // that order, with no real clock anywhere.
    core.poll(30 + 60_000);
    let out = core.poll(hold_deadline);
    match &out[..] {
        [CoreOutput::SendBytes(ConnDir::Out, n), CoreOutput::Close(ConnDir::Out), CoreOutput::Down(DownReason::HoldTimerExpired)] =>
        {
            assert!(
                is_notification(n, notif::HOLD_TIMER_EXPIRED, 0),
                "hold expiry notifies the peer"
            );
        }
        other => panic!("unexpected hold-expiry sequence: {other:?}"),
    }
    assert_eq!(core.state(), SessionState::Idle);
    // All timers are disarmed after the teardown — except connect
    // retry, which the host drives via restart policy, not the core.
    assert_eq!(core.next_deadline(), None);
}

#[test]
fn collision_peer_with_higher_id_wins_on_inbound() {
    // Local id 10.0.0.1 < peer id 10.0.0.2: the peer's connection (our
    // inbound slot) must survive, our outbound handshake dies with
    // Cease/7 and no Down is ever reported.
    let mut core = SessionCore::new(cfg(1));
    core.start(0);
    core.connected(10, ConnDir::Out); // outbound now in OpenSent
    let out = core.connected(15, ConnDir::In);
    assert!(
        matches!(out[0], CoreOutput::SendBytes(ConnDir::In, _)),
        "accepted connection sends OPEN immediately"
    );
    let out = core.bytes_in(20, ConnDir::In, &peer_open(2));
    let cease: Vec<_> = out
        .iter()
        .filter(|o| {
            matches!(o, CoreOutput::SendBytes(ConnDir::Out, b)
                if is_notification(b, notif::CEASE, 7))
        })
        .collect();
    assert_eq!(cease.len(), 1, "losing outbound connection gets Cease/7: {out:?}");
    assert!(out.contains(&CoreOutput::Close(ConnDir::Out)), "and is closed: {out:?}");
    assert!(
        !out.iter().any(|o| matches!(o, CoreOutput::Down(_))),
        "collision never reports the neighbor down: {out:?}"
    );
    // The inbound handshake completes normally.
    let out = core.bytes_in(30, ConnDir::In, &keepalive());
    assert!(matches!(out[0], CoreOutput::Up(_)), "got {out:?}");
    assert_eq!(core.active_dir(), Some(ConnDir::In));
}

#[test]
fn collision_peer_with_lower_id_loses_on_inbound() {
    // Local id 10.0.0.9 > peer id 10.0.0.2: our outbound connection
    // survives; the inbound one is torn down with Cease/7.
    let mut core = SessionCore::new(cfg(9));
    core.start(0);
    core.connected(10, ConnDir::Out);
    core.connected(15, ConnDir::In);
    let out = core.bytes_in(20, ConnDir::In, &peer_open(2));
    assert!(
        out.iter().any(|o| matches!(o, CoreOutput::SendBytes(ConnDir::In, b)
            if is_notification(b, notif::CEASE, 7))),
        "losing inbound connection gets Cease/7: {out:?}"
    );
    assert!(out.contains(&CoreOutput::Close(ConnDir::In)));
    assert!(!out.iter().any(|o| matches!(o, CoreOutput::Down(_))));
    // The outbound handshake is unaffected and completes.
    let out = core.bytes_in(25, ConnDir::Out, &peer_open(2));
    assert!(matches!(out[0], CoreOutput::SendBytes(ConnDir::Out, _)));
    let out = core.bytes_in(30, ConnDir::Out, &keepalive());
    assert!(matches!(out[0], CoreOutput::Up(_)), "got {out:?}");
    assert_eq!(core.active_dir(), Some(ConnDir::Out));
}

#[test]
fn inbound_while_established_is_refused() {
    let mut core = established_core();
    let out = core.connected(40, ConnDir::In);
    match &out[..] {
        [CoreOutput::SendBytes(ConnDir::In, n), CoreOutput::Close(ConnDir::In)] => {
            assert!(is_notification(n, notif::CEASE, 7));
        }
        other => panic!("expected refusal, got {other:?}"),
    }
    assert_eq!(core.state(), SessionState::Established, "session untouched");
}

/// The canonical inbound byte script: OPEN, KEEPALIVE, one UPDATE,
/// a trailing KEEPALIVE.
fn script() -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&peer_open(2));
    bytes.extend_from_slice(&keepalive());
    bytes.extend_from_slice(&sample_update());
    bytes.extend_from_slice(&keepalive());
    bytes
}

/// Feed the script in the given chunk sizes and return every output.
fn run_fragmented(chunks: &[usize]) -> Vec<CoreOutput> {
    let mut core = SessionCore::new(cfg(1));
    let mut outputs = core.start(0);
    outputs.extend(core.connected(10, ConnDir::Out));
    let bytes = script();
    let mut offset = 0;
    for &len in chunks {
        let end = (offset + len).min(bytes.len());
        outputs.extend(core.bytes_in(20, ConnDir::Out, &bytes[offset..end]));
        offset = end;
        if offset == bytes.len() {
            break;
        }
    }
    if offset < bytes.len() {
        outputs.extend(core.bytes_in(20, ConnDir::Out, &bytes[offset..]));
    }
    outputs
}

proptest! {
    /// RFC 4271 messages arrive over a byte stream with no framing
    /// guarantees: however the kernel fragments them, the FSM must
    /// produce the identical output sequence.
    #[test]
    fn fragmentation_never_changes_fsm_outcomes(
        chunks in proptest::collection::vec(1usize..120, 1..40)
    ) {
        let reference = run_fragmented(&[usize::MAX]);
        prop_assert!(
            reference.iter().any(|o| matches!(o, CoreOutput::Up(_))),
            "reference run must establish"
        );
        prop_assert!(
            reference.iter().any(|o| matches!(o, CoreOutput::Update(_))),
            "reference run must deliver the UPDATE"
        );
        let fragmented = run_fragmented(&chunks);
        prop_assert_eq!(fragmented, reference);
    }
}
