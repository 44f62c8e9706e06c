//! The daemon's data path under load: memory that does not grow with
//! session lifetime, and a socket-to-socket path that loses, reorders
//! and delays nothing when the receiving peer is slow — and an
//! Integrated Advertisement that crosses two daemons which do not know
//! what one is.

use dbgp_daemon::testutil::{hub_config_text, keepalive_bytes, open_bytes, table_bytes, HUB_AS};
use dbgp_daemon::{DaemonConfig, Node, NodeOutput, Reactor, ReactorOptions, RunOutcome};
use dbgp_session::{ConnDir, PeerId, StreamReassembler};
use dbgp_wire::attrs::{
    code, AsPath, Origin, PathAttribute, FLAG_OPTIONAL, FLAG_PARTIAL, FLAG_TRANSITIVE,
};
use dbgp_wire::ia::dkey;
use dbgp_wire::message::{BgpMessage, UpdateMsg, TYPE_UPDATE};
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, IslandId, ProtocolId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const SINK_AS: u32 = 65002;
const FEEDER_AS: u32 = 65001;
const SINK: PeerId = PeerId(0);
const FEEDER: PeerId = PeerId(1);

/// An in-process hub with the sink's and the feeder's sessions up.
fn established_node() -> Node {
    established_node_in(HUB_AS, SINK_AS, FEEDER_AS)
}

/// An in-process daemon in AS `local_as` with its sessions to a
/// downstream neighbor ([`SINK`]) and an upstream one ([`FEEDER`]) up.
/// No neighbor is configured `ia`: the daemon is IA-oblivious.
fn established_node_in(local_as: u32, downstream_as: u32, upstream_as: u32) -> Node {
    let text = hub_config_text(None, &[downstream_as, upstream_as])
        .replace(&format!("local-as {HUB_AS}"), &format!("local-as {local_as}"));
    let mut node = Node::from_config(&DaemonConfig::parse(&text).expect("config"));
    node.start(0);
    for (peer, asn) in [(SINK, downstream_as), (FEEDER, upstream_as)] {
        node.accepted(1, peer);
        node.bytes_in(2, peer, ConnDir::In, &open_bytes(asn));
        node.bytes_in(3, peer, ConnDir::In, &keepalive_bytes());
    }
    assert_eq!(node.established_count(), 2);
    node
}

/// What `node` sends its downstream neighbor when `bytes` arrive from
/// its upstream one.
fn relayed(node: &mut Node, now: u64, bytes: &[u8]) -> Vec<u8> {
    let mut downstream = Vec::new();
    for output in node.bytes_in(now, FEEDER, ConnDir::In, bytes) {
        match output {
            NodeOutput::Send(SINK, _, frame) => downstream.extend_from_slice(&frame),
            NodeOutput::Send(..) | NodeOutput::Best(..) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    downstream
}

/// Frames in a concatenation of well-formed BGP messages.
fn frame_count(mut stream: &[u8]) -> usize {
    let mut frames = 0;
    while !stream.is_empty() {
        stream = &stream[usize::from(u16::from_be_bytes([stream[16], stream[17]]))..];
        frames += 1;
    }
    frames
}

/// Twenty announce/withdraw rounds of a 10,000-route table through an
/// in-process `Node`, fed in reactor-sized chunks: after every round
/// the Loc-RIB is empty and the receive buffers are exactly as large as
/// after the first — 15 MB of UPDATEs later, none of it is still held.
/// What `dbgpd` reports as `routing.prefixes` and `routing.rib_bytes` is
/// back at its pre-round value after every round: no entry outlives its
/// last route, and the table's arena, grown once by the first round, is
/// reused by all the others.
/// The sink is sent the same number of UPDATE frames every round —
/// the export depends on the UPDATEs fed, not on where a chunk ended —
/// and no more frames than the feeder sent.
#[test]
fn soak_rounds_leave_no_routes_and_no_receive_buffer_growth() {
    let mut node = established_node();
    let table = table_bytes(10_000, FEEDER_AS);
    let mut now = 10;
    let fed = frame_count(&table.announce) + frame_count(&table.withdraw);
    let mut after_first_round = None;
    let mut sent_first_round = None;
    for round in 1..=20 {
        let mut sent = 0;
        let before = (node.routing().prefixes(), node.routing().rib_bytes());
        for phase in [&table.announce, &table.withdraw] {
            for chunk in phase.chunks(4096) {
                now += 1;
                for output in node.bytes_in(now, FEEDER, ConnDir::In, chunk) {
                    if let NodeOutput::Send(SINK, _, frame) = output {
                        assert!(frame.len() <= 4096, "round {round}: {} byte frame", frame.len());
                        sent += usize::from(frame[18] == TYPE_UPDATE);
                    }
                }
            }
            let installed = node.routing().loc_rib().len();
            let want = if std::ptr::eq(phase, &table.announce) { table.prefixes.len() } else { 0 };
            assert_eq!(installed, want, "round {round}");
        }
        let after = (node.routing().prefixes(), node.routing().rib_bytes());
        if round == 1 {
            // The arena keeps the capacity it grew to; nothing else stays.
            assert_eq!(after.0, before.0);
            assert_eq!(after.1, node.routing().loc_rib().memory_bytes(), "slot heap left behind");
        } else {
            assert_eq!(after, before, "round {round}: (prefixes, rib bytes)");
        }
        let held = node.rx_capacity();
        assert!(held <= 4 * 4096, "round {round}: {held} bytes of receive buffer");
        assert_eq!(*after_first_round.get_or_insert(held), held, "round {round}");
        assert_eq!(*sent_first_round.get_or_insert(sent), sent, "round {round}");
        assert!(sent <= fed, "round {round}: fed {fed} frames, sent the sink {sent}");
    }
}

/// A legal 4095-byte UPDATE whose attribute block fills a frame once the
/// hub's AS is prepended. The hub used to send the sink 4099 bytes — a
/// Bad Message Length that resets the sink's session on the feeder's
/// say-so — and a debug build panicked encoding them. The route is
/// installed and the sink is sent a withdrawal in its place.
#[test]
fn an_update_too_large_to_re_export_costs_no_other_session() {
    let mut node = established_node();
    let prefix = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 0), 24).expect("a /24");
    let attributes = vec![
        PathAttribute::Origin(Origin::Igp),
        PathAttribute::AsPath(AsPath::from_sequence(vec![FEEDER_AS])),
        PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, 1)),
        PathAttribute::Communities((0..1011).collect()),
    ];
    let update = BgpMessage::Update(UpdateMsg::announce(vec![prefix], attributes)).encode(true);
    assert_eq!(update.len(), 4095);

    let to_sink = relayed(&mut node, 10, &update);
    assert_eq!(frame_count(&to_sink), 1, "{to_sink:?}");
    let mut rx = StreamReassembler::new();
    rx.push(&to_sink);
    let sent = rx.next_message(true).expect("a well-formed frame");
    assert_eq!(sent, Some(BgpMessage::Update(UpdateMsg::withdraw(vec![prefix]))));
    assert_eq!(node.established_count(), 2);
    assert_eq!(node.routing().loc_rib().len(), 1);
    assert_eq!(node.routing().exports_oversize(), 1);
}

/// The paper's §3.5 pass-through on the code `dbgpd` runs: an IA rides
/// an UPDATE as the optional-transitive `IA_PAYLOAD` attribute through
/// two daemons in different ASes, neither of which negotiated the IA
/// capability or can parse the payload (feeder → hub₁ → hub₂ → sink).
/// The sink is sent the payload byte for byte, marked PARTIAL by the
/// first speaker that did not recognise it, beside an AS_PATH that both
/// hubs prepended themselves to.
#[test]
fn an_ia_crosses_two_ia_oblivious_daemons_intact() {
    const HUB2_AS: u32 = 65010;
    let mut hub1 = established_node_in(HUB_AS, HUB2_AS, FEEDER_AS);
    let mut hub2 = established_node_in(HUB2_AS, SINK_AS, HUB_AS);

    let prefix: Ipv4Prefix = "128.6.0.0/16".parse().expect("a /16");
    let ia = Ia::builder(prefix, Ipv4Addr::new(192, 0, 2, 1))
        .as_hop(FEEDER_AS)
        .path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST, 15u64.to_be_bytes().to_vec())
        .island_descriptor(IslandId(500), ProtocolId::SCION, dkey::SCION_PATHS, b"br1 br2".to_vec())
        .build()
        .expect("a valid IA");
    let payload = ia.encode().into_bytes();
    let attributes = vec![
        PathAttribute::Origin(Origin::Igp),
        PathAttribute::AsPath(AsPath::from_sequence(vec![FEEDER_AS])),
        PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, 1)),
        PathAttribute::Unknown {
            flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
            code: code::IA_PAYLOAD,
            data: payload.clone(),
        },
    ];
    let fed = BgpMessage::Update(UpdateMsg::announce(vec![prefix], attributes)).encode(true);

    let between = relayed(&mut hub1, 10, &fed);
    let at_sink = relayed(&mut hub2, 11, &between);
    assert_eq!(frame_count(&at_sink), 1);
    let mut rx = StreamReassembler::new();
    rx.push(&at_sink);
    let Some(BgpMessage::Update(update)) = rx.next_message(true).expect("a well-formed frame")
    else {
        panic!("the sink is sent an UPDATE");
    };
    assert_eq!(update.nlri, vec![prefix]);
    assert!(update.withdrawn.is_empty());
    let mut seen = (false, false);
    for attr in &update.attributes {
        match attr {
            PathAttribute::AsPath(path) => {
                assert_eq!(*path, AsPath::from_sequence(vec![HUB2_AS, HUB_AS, FEEDER_AS]));
                seen.0 = true;
            }
            PathAttribute::Unknown { flags, code: code::IA_PAYLOAD, data } => {
                assert_eq!(*data, payload, "the payload crossed byte-identical");
                let want = FLAG_OPTIONAL | FLAG_TRANSITIVE | FLAG_PARTIAL;
                assert_eq!(flags & want, want, "flags {flags:#04x}");
                assert_eq!(Ia::decode(data.clone()).expect("still an IA"), ia);
                seen.1 = true;
            }
            _ => {}
        }
    }
    assert_eq!(seen, (true, true), "AS_PATH and IA_PAYLOAD at the sink: {update:?}");
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
/// the kernel's. The sink must see every route announced exactly once,
/// in the feeder's order, however the hub packed them into UPDATEs; the
/// feeder then sends a malformed UPDATE and must be told why (a
/// NOTIFICATION) before the connection closes; the sink sees every
/// route withdrawn exactly once. All of it in far fewer `write` calls
/// than routes.
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
        let exports =
            (routing.exports_shared(), routing.exports_computed(), routing.exports_oversize());
        let sent = (routing.updates_out(), routing.nlri_out(), routing.withdrawn_out());
        let table = (routing.prefixes() as u64, routing.rib_bytes() as u64);
        let rx = hub.node().rx_capacity() as u64;
        (outcome, hub.stats(), exports, sent, table, rx, hub.metrics_text())
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
        let mut frames = 0u64;
        let mut announced: Vec<Ipv4Prefix> = Vec::new();
        while announced.len() < prefixes.len() {
            let update = slow_update(&mut reads);
            assert!(update.withdrawn.is_empty() && !update.nlri.is_empty(), "{update:?}");
            announced.extend(update.nlri);
            frames += 1;
        }
        assert!(announced == prefixes, "every route announced once, in the feeder's order");
        let mut withdrawn: Vec<Ipv4Prefix> = Vec::new();
        while withdrawn.len() < prefixes.len() {
            let update = slow_update(&mut reads);
            assert!(update.nlri.is_empty() && !update.withdrawn.is_empty(), "{update:?}");
            withdrawn.extend(update.withdrawn);
            frames += 1;
        }
        withdrawn.sort();
        let mut sorted = prefixes;
        sorted.sort();
        assert!(withdrawn == sorted, "every route withdrawn exactly once");
        (sink, frames) // the socket stays open until the hub has converged
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

    let (sink, frames) = sink.join().expect("sink thread");
    // Come back, so that every session is Established and the hub can
    // converge and hand itself back.
    let (_feeder, _) = establish(addr, FEEDER_AS);
    let (outcome, stats, (shared, computed, oversize), sent, (prefixes, rib_bytes), rx, metrics) =
        hub.join().expect("reactor thread");
    assert_eq!(outcome, RunOutcome::Converged);
    drop(sink);

    // One UPDATE out per UPDATE in, then the whole table withdrawn in
    // frames packed to the 4096-byte limit (four bytes to a /24).
    let routes = table.prefixes.len() as u64;
    let fed = frame_count(&table.announce) as u64;
    assert_eq!(frames, fed + (routes * 4).div_ceil(4096 - 23), "UPDATE frames at the sink");
    assert!(stats.bytes_out > 2 * routes * 4, "{stats:?}");
    assert!(stats.writes * 20 < 2 * routes, "{} writes for {routes} routes", stats.writes);
    assert!(stats.out_buffer_peak < 128 * 1024, "{stats:?}");
    assert!(shared > 20 * computed, "50 NLRI share one export: {shared} shared, {computed} built");
    assert_eq!(sent, (frames, routes, routes), "the hub's own count of what it sent");

    // The metrics line dbgpd prints: every name, in order, with the
    // value the hub reported for it at the same moment.
    assert!(metrics.starts_with(r#"{"schema":"dbgp-metrics/v1","at":"#), "{metrics}");
    assert!(metrics.contains(r#","generation":0,"counters":["#), "{metrics}");
    assert!(metrics.ends_with(r#"],"histograms":[]}"#), "{metrics}");
    let (counters, gauges) = metrics.split_once(r#""gauges":["#).expect("a gauges list");
    assert_eq!(counters.matches(r#""semantics":"accumulate""#).count(), 11, "{metrics}");
    let (sent_updates, sent_nlri, sent_withdrawn) = sent;
    assert_eq!(
        metric_values(counters),
        [
            ("reactor.reads_total", stats.reads),
            ("reactor.writes_total", stats.writes),
            ("reactor.bytes_in_total", stats.bytes_in),
            ("reactor.bytes_out_total", stats.bytes_out),
            ("reactor.write_would_block_total", stats.write_would_block),
            ("routing.exports_shared_total", shared),
            ("routing.exports_computed_total", computed),
            ("routing.exports_oversize_total", oversize),
            ("routing.updates_out_total", sent_updates),
            ("routing.nlri_out_total", sent_nlri),
            ("routing.withdrawn_out_total", sent_withdrawn),
        ]
    );
    assert_eq!(
        metric_values(gauges),
        [
            ("reactor.out_buffer_peak_bytes", stats.out_buffer_peak),
            ("session.rx_buffer_bytes", rx),
            ("routing.prefixes", prefixes),
            ("routing.rib_bytes", rib_bytes),
        ]
    );
}

/// `(name, value)` of every metric in a stretch of a one-line
/// `dbgp-metrics/v1` document, in document order.
fn metric_values(text: &str) -> Vec<(&str, u64)> {
    text.split(r#"{"name":""#)
        .skip(1)
        .map(|item| {
            let (name, rest) = item.split_once('"').expect("a quoted name");
            let (_, value) = rest.split_once(r#""value":"#).expect("a value");
            let end = value.find(|c: char| !c.is_ascii_digit()).expect("a delimiter");
            (name, value[..end].parse().expect("a count"))
        })
        .collect()
}
