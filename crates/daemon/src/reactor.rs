//! The TCP event loop: real sockets driving one [`Node`].
//!
//! std has no epoll binding, so the reactor runs poll-mode: every
//! socket is nonblocking, each tick drains whatever is readable, fires
//! due session timers, and sleeps a few milliseconds when nothing
//! moved. That is plenty for a daemon whose protocol work is measured
//! in messages per second, and it keeps the crate dependency-free like
//! the rest of the workspace.
//!
//! Inbound connections cannot be matched to a neighbor by source
//! address on loopback (every peer dials from 127.0.0.1 with an
//! ephemeral port), so an accepted socket is parked until its OPEN
//! arrives and is then routed to the neighbor configured with that AS
//! — the OPEN bytes are replayed into the session core so the FSM sees
//! the stream from the first byte.

use crate::config::DaemonConfig;
use crate::dump::all_established;
use crate::node::{Node, NodeOutput};
use dbgp_session::{ConnDir, Millis, PeerId, StreamReassembler};
use dbgp_telemetry::{MetricsRegistry, Semantics};
use dbgp_wire::message::{BgpMessage, TYPE_KEEPALIVE, TYPE_OPEN};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Knobs for one reactor run.
#[derive(Debug, Clone)]
pub struct ReactorOptions {
    /// Converged = every neighbor Established and no routing activity
    /// for this long.
    pub quiet_ms: u64,
    /// Hard deadline: give up (and report) after this long.
    pub max_ms: u64,
    /// After convergence, keep servicing sockets this long so peers
    /// can finish their own quiet windows before we hang up.
    pub linger_ms: u64,
    /// Test hook: corrupt the capability-parameter length byte of every
    /// outgoing OPEN (the CI negative check that a broken capability
    /// byte fails the handshake).
    pub corrupt_open: bool,
}

impl Default for ReactorOptions {
    fn default() -> Self {
        ReactorOptions { quiet_ms: 500, max_ms: 30_000, linger_ms: 1_000, corrupt_open: false }
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All sessions Established and the RIB went quiet.
    Converged,
    /// `max_ms` elapsed first.
    TimedOut,
}

/// Socket-level counters of one reactor run, also part of
/// [`Reactor::metrics_text`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// `read` calls that returned data.
    pub reads: u64,
    /// `write` calls that took data.
    pub writes: u64,
    /// Bytes read from sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// `write` calls refused because the peer's window was full.
    pub write_would_block: u64,
    /// Most bytes a connection's output buffer held at a flush.
    pub out_buffer_peak: u64,
}

/// The reactor reads sockets this many bytes at a time.
const READ_CHUNK: usize = 4096;
/// A pending connection that has not sent its OPEN after this long is
/// dropped.
const PENDING_OPEN_TIMEOUT_MS: Millis = 10_000;
/// A connection's output buffer is flushed as soon as it holds this
/// much, batch boundary or not: a session going down withdraws a whole
/// table in one batch.
const OUT_HIGH_WATER: usize = 64 * 1024;
/// A flush that makes no progress for this long tears the connection
/// down: the peer has stopped reading.
const SEND_STALL: Duration = Duration::from_secs(5);

/// An accepted connection waiting for its OPEN to identify the peer.
struct PendingConn {
    sock: TcpStream,
    raw: Vec<u8>,
    reasm: StreamReassembler,
    accepted_at: Millis,
}

/// What one pass over a pending connection decided.
enum Verdict {
    Keep,
    Drop,
    Route(PeerId),
}

/// A matched connection and the bytes the node has asked to send on it.
///
/// The reactor owns `out`: `NodeOutput::Send` only appends to it, and it
/// reaches the socket when the batch of node outputs that filled it has
/// been absorbed — one `write` per 4 KiB read, per timer poll, per
/// coalescing flush — or earlier once it holds [`OUT_HIGH_WATER`], and
/// always before a `Close` of this connection, so that a NOTIFICATION
/// still precedes the FIN. A flush writes the whole buffer (waiting, up
/// to [`SEND_STALL`], on a peer whose window is full) and leaves it
/// empty with its capacity kept: the buffer never holds more than the
/// high-water mark and a frame, and a peer that stops reading stops the
/// reactor reading instead of growing it.
struct Conn {
    sock: TcpStream,
    out: Vec<u8>,
}

/// The socket host for one daemon node.
pub struct Reactor {
    cfg: DaemonConfig,
    node: Node,
    opts: ReactorOptions,
    listener: Option<TcpListener>,
    conns: BTreeMap<(PeerId, ConnDir), Conn>,
    /// Connections whose `out` went from empty to non-empty since the
    /// last flush; drained by every `handle`.
    unflushed: Vec<(PeerId, ConnDir)>,
    pending: Vec<PendingConn>,
    restart_at: BTreeMap<PeerId, Millis>,
    /// Every `read` lands here; the node copies what it keeps.
    read_buf: Box<[u8; READ_CHUNK]>,
    stats: ReactorStats,
    started: Instant,
    last_activity: Millis,
    lingering: bool,
}

impl Reactor {
    /// Bind the listener (if configured) and prepare the node. A
    /// `passive` neighbor is never dialled, so without a listener it
    /// could never come up and the run would sit out `--max-ms`: such a
    /// configuration is refused here (an in-process `Node` and
    /// `--oracle` mode, which need no socket, still take it).
    pub fn new(cfg: DaemonConfig, opts: ReactorOptions) -> io::Result<Self> {
        let listener = match &cfg.listen {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => {
                if let Some(n) = cfg.neighbors.iter().find(|n| n.passive) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "neighbor as={} is passive but the config has no `listen` line",
                            n.peer_as
                        ),
                    ));
                }
                None
            }
        };
        let node = Node::from_config(&cfg);
        Ok(Reactor {
            cfg,
            node,
            opts,
            listener,
            conns: BTreeMap::new(),
            unflushed: Vec::new(),
            pending: Vec::new(),
            restart_at: BTreeMap::new(),
            read_buf: Box::new([0; READ_CHUNK]),
            stats: ReactorStats::default(),
            started: Instant::now(),
            last_activity: 0,
            lingering: false,
        })
    }

    /// Where the listener is bound — the way to learn the port of a
    /// `listen 127.0.0.1:0` configuration.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The node (for dumps after the run).
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Socket-level counters so far.
    pub fn stats(&self) -> ReactorStats {
        self.stats
    }

    /// A `dbgp-metrics/v1` snapshot of this daemon as one line of JSON:
    /// the reactor's socket counters, the routing core's export
    /// counters and table size, and the sessions' receive-buffer
    /// footprint, as of now.
    pub fn metrics_text(&self) -> String {
        let mut reg = MetricsRegistry::new();
        let routing = self.node.routing();
        for (name, value) in [
            ("reactor.reads_total", self.stats.reads),
            ("reactor.writes_total", self.stats.writes),
            ("reactor.bytes_in_total", self.stats.bytes_in),
            ("reactor.bytes_out_total", self.stats.bytes_out),
            ("reactor.write_would_block_total", self.stats.write_would_block),
            ("routing.exports_shared_total", routing.exports_shared()),
            ("routing.exports_computed_total", routing.exports_computed()),
            ("routing.exports_oversize_total", routing.exports_oversize()),
            ("routing.updates_out_total", routing.updates_out()),
            ("routing.nlri_out_total", routing.nlri_out()),
            ("routing.withdrawn_out_total", routing.withdrawn_out()),
        ] {
            let id = reg.counter(name, Semantics::Accumulate);
            reg.set_counter(id, value);
        }
        for (name, value) in [
            ("reactor.out_buffer_peak_bytes", self.stats.out_buffer_peak),
            ("session.rx_buffer_bytes", self.node.rx_capacity() as u64),
            ("routing.prefixes", routing.prefixes() as u64),
            ("routing.rib_bytes", routing.rib_bytes() as u64),
        ] {
            let id = reg.gauge(name);
            reg.set_gauge(id, value as i64);
        }
        reg.snapshot_text(self.now())
    }

    /// Run until converged or timed out.
    pub fn run(&mut self) -> RunOutcome {
        let now = self.now();
        let outputs = self.node.start(now);
        self.handle(now, outputs);
        loop {
            let moved = self.tick();
            let now = self.now();
            if self.converged(now) {
                return RunOutcome::Converged;
            }
            if now >= self.opts.max_ms {
                return RunOutcome::TimedOut;
            }
            if !moved {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    /// Keep servicing sockets (keepalives, closes) without restarting
    /// sessions, so peers still counting down their quiet windows see a
    /// live neighbor rather than a hangup.
    pub fn linger(&mut self) {
        self.lingering = true;
        let deadline = self.now() + self.opts.linger_ms;
        while self.now() < deadline {
            if !self.tick() {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    // ----- internals ----------------------------------------------------

    fn now(&self) -> Millis {
        self.started.elapsed().as_millis() as Millis
    }

    /// Every neighbor Established and no routing activity for the quiet
    /// window.
    fn converged(&self, now: Millis) -> bool {
        all_established(&self.node) && now.saturating_sub(self.last_activity) >= self.opts.quiet_ms
    }

    /// One pass over listener, pending conns, live conns, and timers.
    /// Returns whether anything happened.
    fn tick(&mut self) -> bool {
        let mut moved = false;
        moved |= self.accept_new();
        moved |= self.read_pending();
        moved |= self.read_conns();
        let now = self.now();
        let outputs = self.node.poll(now);
        moved |= !outputs.is_empty();
        self.handle(now, outputs);
        if !self.lingering {
            let due: Vec<PeerId> =
                self.restart_at.iter().filter(|(_, &at)| at <= now).map(|(&id, _)| id).collect();
            for id in due {
                self.restart_at.remove(&id);
                let outputs = self.node.restart_peer(now, id);
                self.handle(now, outputs);
                moved = true;
            }
        }
        moved
    }

    fn accept_new(&mut self) -> bool {
        let Some(listener) = &self.listener else { return false };
        let mut moved = false;
        loop {
            match listener.accept() {
                Ok((sock, _)) => {
                    if sock.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = sock.set_nodelay(true);
                    self.pending.push(PendingConn {
                        sock,
                        raw: Vec::new(),
                        reasm: StreamReassembler::new(),
                        accepted_at: self.now(),
                    });
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        moved
    }

    /// Drain pending (pre-OPEN) connections; route each to its neighbor
    /// once the OPEN identifies the remote AS.
    fn read_pending(&mut self) -> bool {
        let mut moved = false;
        let now = self.now();
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(self.pending.len());
        for pc in &mut self.pending {
            let verdict =
                match read_nonblocking(&mut pc.sock, &mut self.read_buf[..], &mut self.stats) {
                    ReadResult::Data(n) => {
                        moved = true;
                        let data = &self.read_buf[..n];
                        pc.raw.extend_from_slice(data);
                        pc.reasm.push(data);
                        // OPEN decoding does not depend on the 4-octet flag.
                        match pc.reasm.next_message(true) {
                            Ok(Some(BgpMessage::Open(open))) => (0..self.cfg.neighbors.len())
                                .find(|&j| self.cfg.neighbors[j].peer_as == open.effective_as())
                                .map_or(Verdict::Drop, |j| Verdict::Route(PeerId(j as u32))),
                            Ok(Some(_)) | Err(_) => Verdict::Drop, // protocol nonsense pre-OPEN
                            Ok(None) => Verdict::Keep,             // keep waiting
                        }
                    }
                    ReadResult::WouldBlock => Verdict::Keep,
                    ReadResult::Closed => Verdict::Drop,
                };
            let overdue = now.saturating_sub(pc.accepted_at) > PENDING_OPEN_TIMEOUT_MS;
            verdicts.push(match verdict {
                Verdict::Keep if overdue => Verdict::Drop, // never sent an OPEN; give up on it
                verdict => verdict,
            });
        }
        // One pass, highest index first: a removal never shifts an entry
        // whose verdict is still to be applied.
        for (i, verdict) in verdicts.into_iter().enumerate().rev() {
            let pid = match verdict {
                Verdict::Keep => continue,
                Verdict::Drop => {
                    self.pending.remove(i);
                    continue;
                }
                Verdict::Route(pid) => pid,
            };
            let pc = self.pending.remove(i);
            if self.conns.contains_key(&(pid, ConnDir::In)) {
                continue; // a second inbound for the same peer: drop it
            }
            self.conns.insert((pid, ConnDir::In), Conn { sock: pc.sock, out: Vec::new() });
            let outputs = self.node.accepted(now, pid);
            self.handle(now, outputs);
            // Replay everything received pre-match, OPEN included, so
            // the session core sees the stream from byte zero.
            let outputs = self.node.bytes_in(now, pid, ConnDir::In, &pc.raw);
            self.handle(now, outputs);
            moved = true;
        }
        moved
    }

    fn read_conns(&mut self) -> bool {
        let mut moved = false;
        let keys: Vec<(PeerId, ConnDir)> = self.conns.keys().copied().collect();
        for key in keys {
            loop {
                let now = self.now();
                let Some(conn) = self.conns.get_mut(&key) else { break };
                match read_nonblocking(&mut conn.sock, &mut self.read_buf[..], &mut self.stats) {
                    ReadResult::Data(n) => {
                        moved = true;
                        let outputs = self.node.bytes_in(now, key.0, key.1, &self.read_buf[..n]);
                        self.handle(now, outputs);
                    }
                    ReadResult::WouldBlock => break,
                    ReadResult::Closed => {
                        moved = true;
                        self.drop_conn(now, key);
                        break;
                    }
                }
            }
        }
        moved
    }

    /// Absorb one batch of node outputs, then flush what it queued.
    /// Activity is stamped with a clock read taken *after* the batch:
    /// a tick that drains a socket for longer than the quiet window
    /// must not count its own duration as quiet time.
    fn handle(&mut self, now: Millis, outputs: Vec<NodeOutput>) {
        let mut active = false;
        for output in outputs {
            match output {
                NodeOutput::Connect(pid) => {
                    active = true;
                    self.dial(now, pid);
                }
                NodeOutput::Send(pid, dir, bytes) => {
                    // KEEPALIVE chatter does not count as activity; it
                    // would keep the quiet-window from ever expiring.
                    active |= bytes.len() > 18 && bytes[18] != TYPE_KEEPALIVE;
                    let Some(conn) = self.conns.get_mut(&(pid, dir)) else { continue };
                    if conn.out.is_empty() {
                        self.unflushed.push((pid, dir));
                    }
                    let at = conn.out.len();
                    conn.out.extend_from_slice(&bytes);
                    // The `--test-corrupt-open` hook: flip the
                    // capability-parameter length byte (offset 30: header
                    // 19 + fixed OPEN fields 10 + param type 1) of an
                    // outgoing OPEN so the peer's decoder rejects it.
                    if self.opts.corrupt_open && bytes.len() > 30 && bytes[18] == TYPE_OPEN {
                        conn.out[at + 30] = 0xFF;
                    }
                    if conn.out.len() >= OUT_HIGH_WATER && flush(conn, &mut self.stats).is_err() {
                        self.drop_conn(now, (pid, dir));
                    }
                }
                NodeOutput::Close(pid, dir) => {
                    if let Some(mut conn) = self.conns.remove(&(pid, dir)) {
                        // What the node queued before the close — the
                        // NOTIFICATION — goes out ahead of the FIN.
                        let _ = flush(&mut conn, &mut self.stats);
                        let _ = conn.sock.shutdown(std::net::Shutdown::Both);
                    }
                }
                NodeOutput::Up(..) | NodeOutput::Best(..) => active = true,
                NodeOutput::Down(pid, _) => {
                    active = true;
                    if !self.lingering {
                        let backoff = self.cfg.connect_retry_ms.max(100);
                        self.restart_at.insert(pid, now + backoff);
                    }
                }
            }
        }
        while let Some(key) = self.unflushed.pop() {
            let Some(conn) = self.conns.get_mut(&key) else { continue };
            if flush(conn, &mut self.stats).is_err() {
                self.drop_conn(now, key);
            }
        }
        if active {
            self.last_activity = self.now();
        }
    }

    /// Forget a connection the transport lost and tell the node.
    fn drop_conn(&mut self, now: Millis, key: (PeerId, ConnDir)) {
        self.conns.remove(&key);
        let outputs = self.node.conn_closed(now, key.0, key.1);
        self.handle(now, outputs);
    }

    fn dial(&mut self, now: Millis, pid: PeerId) {
        let spec = &self.cfg.neighbors[pid.0 as usize];
        let sock = spec
            .addr
            .as_ref()
            .and_then(|addr| addr.to_socket_addrs().ok()?.next())
            .and_then(|a| TcpStream::connect_timeout(&a, Duration::from_millis(250)).ok());
        let ok = sock.is_some();
        if let Some(sock) = sock {
            let _ = sock.set_nonblocking(true);
            let _ = sock.set_nodelay(true);
            let conn = Conn { sock, out: Vec::new() };
            if let Some(old) = self.conns.insert((pid, ConnDir::Out), conn) {
                let _ = old.sock.shutdown(std::net::Shutdown::Both);
            }
        }
        let outputs = self.node.dial_result(now, pid, ok);
        self.handle(now, outputs);
    }
}

enum ReadResult {
    Data(usize),
    WouldBlock,
    Closed,
}

fn read_nonblocking(sock: &mut TcpStream, buf: &mut [u8], stats: &mut ReactorStats) -> ReadResult {
    match sock.read(buf) {
        Ok(0) => ReadResult::Closed,
        Ok(n) => {
            stats.reads += 1;
            stats.bytes_in += n as u64;
            ReadResult::Data(n)
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => ReadResult::WouldBlock,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => ReadResult::WouldBlock,
        Err(_) => ReadResult::Closed,
    }
}

/// Write the connection's whole output buffer and leave it empty. An
/// error means the connection is dead or stalled; the buffer's contents
/// are then undefined.
fn flush(conn: &mut Conn, stats: &mut ReactorStats) -> io::Result<()> {
    stats.out_buffer_peak = stats.out_buffer_peak.max(conn.out.len() as u64);
    let mut unsent = &conn.out[..];
    let mut stalled_since: Option<Instant> = None;
    while !unsent.is_empty() {
        match conn.sock.write(unsent) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "wrote 0")),
            Ok(n) => {
                stats.writes += 1;
                stats.bytes_out += n as u64;
                unsent = &unsent[n..];
                stalled_since = None;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                stats.write_would_block += 1;
                if stalled_since.get_or_insert_with(Instant::now).elapsed() > SEND_STALL {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "send stalled"));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    conn.out.clear();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{hub_config_text, keepalive_bytes, open_bytes, table_bytes};

    /// A hub listening on a kernel-chosen port, driven tick by tick from
    /// the test's own thread.
    fn hub(neighbor_asns: &[u32]) -> Reactor {
        let text = hub_config_text(Some("127.0.0.1:0"), neighbor_asns);
        let cfg = DaemonConfig::parse(&text).expect("valid hub config");
        let mut hub = Reactor::new(cfg, ReactorOptions::default()).expect("bind loopback");
        let outputs = hub.node.start(0);
        hub.handle(0, outputs);
        hub
    }

    /// Tick until `done` holds (a loopback segment needs a moment).
    fn tick_until(hub: &mut Reactor, what: &str, mut done: impl FnMut(&mut Reactor) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done(hub) {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            hub.tick();
        }
    }

    /// Dial the hub and accept the connection into `pending`.
    fn dial(hub: &mut Reactor) -> TcpStream {
        let sock = TcpStream::connect(hub.local_addr().expect("listening")).expect("connect");
        let parked = hub.pending.len();
        tick_until(hub, "the accept", |hub| {
            hub.accept_new();
            hub.pending.len() > parked
        });
        sock
    }

    /// Bring up the session of the peer in AS `asn`.
    fn establish(hub: &mut Reactor, asn: u32) -> TcpStream {
        let mut sock = dial(hub);
        sock.write_all(&open_bytes(asn)).expect("send OPEN");
        sock.set_nonblocking(true).expect("nonblocking");
        // The hub answers with its OPEN and a KEEPALIVE: 2 frames, 19 +
        // 19 bytes at the least.
        let mut answered = 0;
        tick_until(hub, "the hub's OPEN", |_| {
            let mut buf = [0u8; 512];
            answered += sock.read(&mut buf).unwrap_or(0);
            answered > 38
        });
        sock.write_all(&keepalive_bytes()).expect("send KEEPALIVE");
        let up = hub.node.established_count();
        tick_until(hub, "Established", |hub| hub.node.established_count() > up);
        sock
    }

    /// Spin until `sock` has something to report: bytes, or (zero) a FIN.
    fn wait_readable(sock: &TcpStream) -> usize {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match sock.peek(&mut [0u8; 1]) {
                Ok(n) => return n,
                Err(_) => assert!(Instant::now() < deadline, "timed out waiting for a segment"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A passive neighbor can only be accepted: with nothing listening
    /// the reactor refuses to start, naming it.
    #[test]
    fn a_passive_neighbor_without_a_listener_is_refused() {
        let text = hub_config_text(None, &[65001, 65002]) + "neighbor as=65003 addr=127.0.0.1:1\n";
        let cfg = DaemonConfig::parse(&text).expect("the parser takes it: a Node needs no socket");
        let err = Reactor::new(cfg, ReactorOptions::default()).err().expect("must not start");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("neighbor as=65001 is passive"), "{err}");
        // Dial-only neighbors need no listener.
        let cfg = DaemonConfig::parse(
            "local-as 65000\nrouter-id 10.0.0.100\nneighbor as=65003 addr=127.0.0.1:1\n",
        )
        .expect("valid");
        assert!(Reactor::new(cfg, ReactorOptions::default()).is_ok());
    }

    /// Pending `[A: OPEN matched, B: closed, C: healthy]` in one pass: A
    /// is routed, B is dropped, and C — whose index shifts under both
    /// removals — is the one that stays.
    #[test]
    fn pending_verdicts_reach_the_connections_they_were_passed_on() {
        let mut hub = hub(&[65001, 65002]);
        let mut a = dial(&mut hub);
        let b = dial(&mut hub);
        let mut c = dial(&mut hub);
        let parked: Vec<SocketAddr> =
            hub.pending.iter().map(|pc| pc.sock.peer_addr().expect("peer")).collect();
        let dialled = [&a, &b, &c].map(|s| s.local_addr().expect("local"));
        assert_eq!(parked, dialled, "accepted in dial order");

        a.write_all(&open_bytes(65001)).expect("send OPEN");
        drop(b);
        assert!(wait_readable(&hub.pending[0].sock) > 0, "A's OPEN arrived");
        assert_eq!(wait_readable(&hub.pending[1].sock), 0, "B's FIN arrived");
        hub.read_pending();

        let left: Vec<SocketAddr> =
            hub.pending.iter().map(|pc| pc.sock.peer_addr().expect("peer")).collect();
        assert_eq!(left, [c.local_addr().expect("local")], "only the healthy connection stays");
        assert!(hub.conns.contains_key(&(PeerId(0), ConnDir::In)), "A went to its neighbor");

        // And C is still a working connection: its OPEN routes it.
        c.write_all(&open_bytes(65002)).expect("send OPEN");
        tick_until(&mut hub, "C's OPEN", |hub| hub.conns.contains_key(&(PeerId(1), ConnDir::In)));
        assert!(hub.pending.is_empty());
    }

    /// A tick that spends longer than the quiet window draining one
    /// socket ends active, not converged: the window is set to the
    /// tick's own duration, so activity stamped with a clock read taken
    /// before the batch would count all of it as quiet time.
    #[test]
    fn a_long_batch_is_not_quiet_time() {
        let mut hub = hub(&[65001, 65002]);
        let mut feeder = establish(&mut hub, 65001);
        let sink = establish(&mut hub, 65002);
        // Nobody may stall the hub's flushes toward the sink.
        sink.set_nonblocking(false).expect("blocking");
        let drain = std::thread::spawn(move || {
            let mut sink = sink;
            let mut buf = [0u8; 1 << 16];
            while sink.read(&mut buf).is_ok_and(|n| n > 0) {}
        });

        // As much of a table as the socket takes without a reader: the
        // hub then finds all of it waiting and drains it in one tick.
        let table = table_bytes(40_000, 65001).announce;
        let mut queued = 0;
        while queued < table.len() {
            match feeder.write(&table[queued..]) {
                Ok(n) => queued += n,
                Err(_) => break,
            }
        }
        assert!(queued > 2 * READ_CHUNK, "loopback took only {queued} bytes");
        let (began, ended) = loop {
            let (began, seen) = (hub.now(), hub.stats.bytes_in);
            hub.tick();
            if hub.stats.bytes_in > seen {
                break (began, hub.now());
            }
        };
        assert!(hub.node.routing().loc_rib().len() > 1_000, "the batch installed routes");
        hub.opts.quiet_ms = (ended - began).max(1);
        assert!(!hub.converged(ended), "a {} ms tick counted as quiet time", ended - began);
        assert!(hub.converged(ended + hub.opts.quiet_ms), "quiet once the window has passed");

        drop(hub);
        drain.join().expect("drain thread");
    }
}
