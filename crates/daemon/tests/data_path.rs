//! The daemon's data path under load: memory that does not grow with
//! session lifetime, and a socket-to-socket path that loses, reorders
//! and delays nothing when the receiving peer is slow.

use dbgp_daemon::testutil::{hub_config_text, keepalive_bytes, open_bytes, table_bytes, HUB_AS};
use dbgp_daemon::{DaemonConfig, Node, Reactor, ReactorOptions, RunOutcome};
use dbgp_session::{ConnDir, PeerId, StreamReassembler};
use dbgp_wire::message::{BgpMessage, UpdateMsg};
use dbgp_wire::Ipv4Prefix;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const SINK_AS: u32 = 65002;
const FEEDER_AS: u32 = 65001;
const SINK: PeerId = PeerId(0);
const FEEDER: PeerId = PeerId(1);

/// Twenty announce/withdraw rounds of a 10,000-route table through an
/// in-process `Node`, fed in reactor-sized chunks: after every round
/// the Loc-RIB is empty and the receive buffers are exactly as large as
/// after the first — 15 MB of UPDATEs later, none of it is still held.
#[test]
fn soak_rounds_leave_no_routes_and_no_receive_buffer_growth() {
    let cfg = DaemonConfig::parse(&hub_config_text(None, &[SINK_AS, FEEDER_AS])).expect("config");
    let mut node = Node::from_config(&cfg);
    node.start(0);
    for (peer, asn) in [(SINK, SINK_AS), (FEEDER, FEEDER_AS)] {
        node.accepted(1, peer);
        node.bytes_in(2, peer, ConnDir::In, &open_bytes(asn));
        node.bytes_in(3, peer, ConnDir::In, &keepalive_bytes());
    }
    assert_eq!(node.established_count(), 2);

    let table = table_bytes(10_000, FEEDER_AS);
    let mut now = 10;
    let mut after_first_round = None;
    for round in 1..=20 {
        for phase in [&table.announce, &table.withdraw] {
            for chunk in phase.chunks(4096) {
                now += 1;
                node.bytes_in(now, FEEDER, ConnDir::In, chunk);
            }
            let installed = node.routing().loc_rib().len();
            let want = if std::ptr::eq(phase, &table.announce) { table.prefixes.len() } else { 0 };
            assert_eq!(installed, want, "round {round}");
        }
        let held = node.rx_capacity();
        assert!(held <= 4 * 4096, "round {round}: {held} bytes of receive buffer");
        assert_eq!(*after_first_round.get_or_insert(held), held, "round {round}");
    }
}

/// Connect to the hub as the peer in AS `asn` and bring the session up.
fn establish(hub: SocketAddr, asn: u32) -> (TcpStream, StreamReassembler) {
    let mut sock = TcpStream::connect(hub).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout");
    sock.write_all(&open_bytes(asn)).expect("send OPEN");
    let mut rx = StreamReassembler::new();
    let (mut open, mut keepalive) = (false, false);
    while !(open && keepalive) {
        match next_message(&mut sock, &mut rx, 4096).expect("the hub answers the OPEN") {
            BgpMessage::Open(o) => open = o.effective_as() == HUB_AS,
            BgpMessage::Keepalive => keepalive = true,
            other => panic!("unexpected {other:?} in the handshake"),
        }
    }
    sock.write_all(&keepalive_bytes()).expect("send KEEPALIVE");
    (sock, rx)
}

/// The next message on `sock`, read `read_size` bytes at a time; `None`
/// at end of stream.
fn next_message(
    sock: &mut TcpStream,
    rx: &mut StreamReassembler,
    read_size: usize,
) -> Option<BgpMessage> {
    let mut buf = vec![0u8; read_size];
    loop {
        if let Some(msg) = rx.next_message(true).expect("the hub sends well-formed frames") {
            return Some(msg);
        }
        match sock.read(&mut buf).expect("read from the hub") {
            0 => return None,
            n => rx.push(&buf[..n]),
        }
    }
}

/// A live reactor between a feeder and a deliberately slow sink: small
/// reads with pauses, so the hub's output backs up into its buffer and
/// the kernel's. The sink must see one single-NLRI UPDATE per route, in
/// the feeder's order; the feeder then sends a malformed UPDATE and
/// must be told why (a NOTIFICATION) before the connection closes; the
/// sink sees every route withdrawn. All of it in far fewer `write`
/// calls than frames.
#[test]
fn slow_sink_receives_every_frame_in_order_and_notification_precedes_close() {
    let cfg = DaemonConfig::parse(&hub_config_text(Some("127.0.0.1:0"), &[SINK_AS, FEEDER_AS]))
        .expect("config");
    let opts = ReactorOptions { quiet_ms: 300, max_ms: 60_000, linger_ms: 0, corrupt_open: false };
    // The reactor is built on the thread that runs it (it is not
    // `Send`) and reports what the assertions need when it is done.
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let hub = std::thread::spawn(move || {
        let mut hub = Reactor::new(cfg, opts).expect("bind loopback");
        addr_tx.send(hub.local_addr().expect("listening")).expect("report the port");
        let outcome = hub.run();
        let routing = hub.node().routing();
        let exports = (routing.exports_shared(), routing.exports_computed());
        (outcome, hub.stats(), exports, hub.metrics_text())
    });
    let addr = addr_rx.recv().expect("the hub binds");

    let table = table_bytes(30_000, FEEDER_AS);
    let (mut sink, mut sink_rx) = establish(addr, SINK_AS);
    let (mut feeder, mut feeder_rx) = establish(addr, FEEDER_AS);

    let prefixes = table.prefixes.clone();
    let sink = std::thread::spawn(move || {
        let mut slow_update = |reads: &mut u64| loop {
            *reads += 1;
            if reads.is_multiple_of(16) {
                std::thread::sleep(Duration::from_millis(1));
            }
            match next_message(&mut sink, &mut sink_rx, 1500).expect("stream stays open") {
                BgpMessage::Update(update) => return update,
                BgpMessage::Keepalive => {}
                other => panic!("unexpected {other:?} at the sink"),
            }
        };
        // Let the table pile up before the first read.
        std::thread::sleep(Duration::from_millis(200));
        let mut reads = 0;
        for (i, prefix) in prefixes.iter().enumerate() {
            let update: UpdateMsg = slow_update(&mut reads);
            assert_eq!(update.nlri, [*prefix], "announcement {i} out of order");
            assert!(update.withdrawn.is_empty());
        }
        let mut withdrawn: Vec<Ipv4Prefix> = Vec::new();
        while withdrawn.len() < prefixes.len() {
            let update = slow_update(&mut reads);
            assert_eq!((update.nlri.len(), update.withdrawn.len()), (0, 1));
            withdrawn.extend(update.withdrawn);
        }
        withdrawn.sort();
        withdrawn.dedup();
        assert_eq!(withdrawn.len(), prefixes.len(), "every route withdrawn exactly once");
        sink // stays open until the hub has converged
    });

    feeder.write_all(&table.announce).expect("announce the table");
    // An UPDATE whose attribute length runs past the end of the message.
    let mut malformed = vec![0xff; 16];
    malformed.extend([0, 27, 2, 0, 0, 0, 200, 0, 0, 0, 0]);
    feeder.write_all(&malformed).expect("send the malformed UPDATE");
    let mut notified = false;
    while let Some(msg) = next_message(&mut feeder, &mut feeder_rx, 4096) {
        match msg {
            BgpMessage::Notification(_) => notified = true,
            BgpMessage::Keepalive => {}
            other => panic!("unexpected {other:?} at the feeder"),
        }
    }
    assert!(notified, "the connection closed without a NOTIFICATION");

    let sink = sink.join().expect("sink thread");
    // Come back, so that every session is Established and the hub can
    // converge and hand itself back.
    let (_feeder, _) = establish(addr, FEEDER_AS);
    let (outcome, stats, (shared, computed), metrics) = hub.join().expect("reactor thread");
    assert_eq!(outcome, RunOutcome::Converged);
    drop(sink);

    let frames = 2 * table.prefixes.len() as u64;
    assert!(stats.bytes_out > frames * 23, "{stats:?}");
    assert!(stats.writes * 20 < frames, "{} writes for {frames} frames", stats.writes);
    assert!(stats.out_buffer_peak < 128 * 1024, "{stats:?}");
    assert!(shared > 20 * computed, "50 NLRI share one export: {shared} shared, {computed} built");
    for name in ["dbgp-metrics/v1", "reactor.writes_total", "routing.exports_shared_total"] {
        assert!(metrics.contains(name), "{name} missing from {metrics}");
    }
}
