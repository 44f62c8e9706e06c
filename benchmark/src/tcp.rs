//! `dbgpd_tcp_table`: a full routing table through a live `dbgpd` over
//! loopback TCP, and the in-process replays of the same bytes that the
//! traced run splits by layer.
//!
//! Topology: the harness dials two connections into one passive
//! `dbgpd` — a *feeder* that announces the table and a *sink* that
//! receives what `dbgpd` re-exports. A round writes the whole table to
//! the feeder and stops the clock when the sink has decoded the last
//! re-exported NLRI, then does the same with the packed withdrawals.
//! The operation counted is the route change (announce + withdraw =
//! 2 × routes per round). All traffic crosses the host's loopback
//! interface; no real link is involved.

use crate::alloc;
use crate::span::Trace;
use crate::workload::{Finish, Round, Workload};
use dbgp_daemon::{dump_node, DaemonConfig, Node, NodeOutput};
use dbgp_session::{
    ConnDir, CoreOutput, Millis, PeerId, RibOp, RoutingCore, SessionCore, StreamReassembler,
};
use dbgp_wire::message::{BgpMessage, OpenMsg, UpdateMsg};
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use dbgp_workload::WorkloadGen;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// AS numbers of the daemon and the two harness-side speakers: above
/// the 1..400,000 range `WorkloadGen` draws AS paths from, so no
/// generated route can trip loop detection and silently drop out.
const DAEMON_AS: u32 = 4_200_000;
const HOLD_TIME_SECS: u16 = 180;
/// `dbgpd` declares convergence — writes its dump and exits — after
/// this long without routing activity. The reactor stamps activity with
/// the time its tick *began*, and a tick drains the feeder's socket
/// until it would block, so a whole phase (0.4–0.6 s on two idle
/// cores) is one tick and counts as quiet time once it ends: with a
/// 1.5 s window, a phase slowed 3× by a busy host made `dbgpd` exit in
/// mid-run. So the window grows with the table: twenty times a normal
/// phase (10 s for 100,000 routes). An untraced run pays it once,
/// waiting for the final dump.
fn quiet_ms(routes: usize) -> u64 {
    (routes as u64 / 10).max(1_500)
}
/// Backstop: `dbgpd` exits by itself after this long even if the
/// harness is killed before it can reap it.
const MAX_MS: u64 = 170_000;
/// A round that has not seen all its route changes at the sink after
/// this long counts the missing ones as failed instead of hanging.
const ROUND_DEADLINE: Duration = Duration::from_secs(30);
/// The reactor reads sockets 4096 bytes at a time; the in-process
/// replays feed the same chunking.
const READ_CHUNK: usize = 4096;

/// A harness-side BGP speaker identity.
#[derive(Clone, Copy)]
struct Peer {
    id: PeerId,
    asn: u32,
    router_id: Ipv4Addr,
}

/// Neighbor 0 of the daemon: receives the re-exported table.
const SINK: Peer = Peer { id: PeerId(0), asn: 4_200_002, router_id: Ipv4Addr::new(10, 0, 0, 2) };
/// Neighbor 1 of the daemon: announces the table.
const FEEDER: Peer = Peer { id: PeerId(1), asn: 4_200_001, router_id: Ipv4Addr::new(10, 0, 0, 1) };

impl Peer {
    fn open(self) -> Vec<u8> {
        BgpMessage::Open(OpenMsg::new(self.asn, HOLD_TIME_SECS, self.router_id))
            .encode(true)
            .to_vec()
    }
}

fn keepalive() -> Vec<u8> {
    BgpMessage::Keepalive.encode(true).to_vec()
}

/// The daemon's configuration; `listen` is absent for in-process use.
fn config_text(listen_port: Option<u16>) -> String {
    let listen = listen_port.map(|p| format!("listen 127.0.0.1:{p}\n")).unwrap_or_default();
    format!(
        "local-as {DAEMON_AS}\nrouter-id 10.0.0.100\n{listen}hold-time {HOLD_TIME_SECS}\n\
         neighbor as={} passive\nneighbor as={} passive\n",
        SINK.asn, FEEDER.asn
    )
}

fn parsed_config() -> DaemonConfig {
    DaemonConfig::parse(&config_text(None)).expect("the harness's own config parses")
}

/// Order-independent checksum contribution of one prefix.
fn prefix_hash(p: &Ipv4Prefix) -> u64 {
    ((u64::from(p.network().0) << 8) | u64::from(p.len())).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The generated routing table, pre-encoded both ways.
pub struct Table {
    /// Every prefix, in announcement order.
    pub prefixes: Vec<Ipv4Prefix>,
    /// The multi-NLRI announcement frames.
    pub announce_frames: Vec<bytes::Bytes>,
    /// The announcement frames, concatenated as they go on the wire.
    pub announce: Vec<u8>,
    /// The packed withdrawal frames, concatenated.
    pub withdraw: Vec<u8>,
    /// Wrapping sum of [`prefix_hash`] over the table.
    checksum: u64,
}

impl Table {
    /// A RIPE-distribution table of `routes` prefixes from `seed`.
    pub fn generate(seed: u64, routes: usize) -> Rc<Self> {
        let updates: Vec<UpdateMsg> = WorkloadGen::new(seed).full_table(routes);
        let prefixes: Vec<Ipv4Prefix> =
            updates.iter().flat_map(|u| u.nlri.iter().copied()).collect();
        let announce_frames: Vec<bytes::Bytes> =
            updates.into_iter().map(|u| BgpMessage::Update(u).encode(true)).collect();
        let announce = announce_frames.iter().flat_map(|f| f.iter().copied()).collect();
        let withdraw = UpdateMsg::pack_withdrawals(&prefixes)
            .into_iter()
            .flat_map(|u| BgpMessage::Update(u).encode(true).to_vec())
            .collect();
        let checksum = prefixes.iter().map(prefix_hash).fold(0u64, u64::wrapping_add);
        Rc::new(Table { prefixes, announce_frames, announce, withdraw, checksum })
    }

    /// Routes in the table.
    pub fn routes(&self) -> u64 {
        self.prefixes.len() as u64
    }
}

// ----- the in-process reference: Node::bytes_in ---------------------------

/// An in-process `Node` built from the daemon's own configuration with
/// both sessions established by the same handshake bytes the harness
/// sends over TCP. Fed the bytes `dbgpd` was fed, its dump must equal
/// `dbgpd`'s byte for byte.
pub struct RefNode {
    node: Node,
    now: Millis,
}

/// UPDATE frames and bytes a [`RefNode::feed`] call sent to the sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exported {
    /// UPDATE frames.
    pub frames: u64,
    /// Their bytes.
    pub bytes: u64,
}

impl RefNode {
    /// Build the node and establish both sessions, sink first.
    pub fn establish() -> Result<Self, String> {
        let mut node = Node::from_config(&parsed_config());
        node.start(0);
        let mut this = RefNode { node, now: 1 };
        for peer in [SINK, FEEDER] {
            this.node.accepted(this.now, peer.id);
            this.bytes_in(peer, &peer.open());
            this.bytes_in(peer, &keepalive());
        }
        if this.node.established_count() != 2 {
            return Err("in-process node did not establish both sessions".into());
        }
        Ok(this)
    }

    fn bytes_in(&mut self, from: Peer, data: &[u8]) -> Vec<NodeOutput> {
        self.now += 1;
        self.node.bytes_in(self.now, from.id, ConnDir::In, data)
    }

    /// Feed `data` as if read from the feeder's socket, in reactor-sized
    /// chunks; returns what the node sent to the sink.
    pub fn feed(&mut self, data: &[u8]) -> Exported {
        let mut out = Exported::default();
        for chunk in data.chunks(READ_CHUNK) {
            for output in self.bytes_in(FEEDER, chunk) {
                if let NodeOutput::Send(pid, _, bytes) = output {
                    if pid == SINK.id && bytes.get(18) == Some(&dbgp_wire::message::TYPE_UPDATE) {
                        out.frames += 1;
                        out.bytes += bytes.len() as u64;
                    }
                }
            }
        }
        out
    }

    /// Both peers send a KEEPALIVE (the harness does between rounds).
    pub fn keepalives(&mut self) {
        for peer in [SINK, FEEDER] {
            self.bytes_in(peer, &keepalive());
        }
    }

    /// Routes installed.
    pub fn routes(&self) -> usize {
        self.node.routing().loc_rib().len()
    }

    /// Resident bytes of the Adj-RIB-In and Loc-RIB tries.
    pub fn rib_bytes(&self) -> usize {
        self.node.routing().adj_rib_in().memory_bytes()
            + self.node.routing().loc_rib().memory_bytes()
    }

    /// The canonical dump.
    pub fn dump(&self) -> String {
        dump_node(&self.node)
    }
}

/// The whole-`Node` replay as a workload: `daemon.node_ns_per_route`
/// is this round's time per route change, i.e. what `dbgpd` costs with
/// the sockets and the reactor taken away.
pub struct NodeReplay {
    table: Rc<Table>,
    node: Option<RefNode>,
}

impl NodeReplay {
    /// Replay `table`.
    pub fn new(table: Rc<Table>) -> Self {
        NodeReplay { table, node: None }
    }
}

impl Workload for NodeReplay {
    fn prepare(&mut self, _traced: bool) -> Result<(), String> {
        self.node = Some(RefNode::establish()?);
        Ok(())
    }

    fn round<T: Trace>(&mut self, trace: &mut T) -> Round {
        let node = self.node.as_mut().expect("prepare ran");
        let routes = self.table.routes();
        let announced = node.feed(&self.table.announce);
        let installed = node.routes() as u64;
        let withdrawn = node.feed(&self.table.withdraw);
        let left = node.routes() as u64;
        trace.lap("daemon.node");
        Round {
            ops: 2 * routes,
            failed: (routes - installed.min(routes)) + left,
            wire_bytes: announced.bytes + withdrawn.bytes,
            exact: vec![
                ("frames_out", announced.frames + withdrawn.frames),
                ("bytes_out", announced.bytes + withdrawn.bytes),
            ],
        }
    }
}

// ----- the layered replay: SessionCore → RoutingCore → encode -------------

/// The same bytes through the daemon's layers one call at a time —
/// `SessionCore::bytes_in`, `RoutingCore::update`, `BgpMessage::encode`
/// — assembled the way `Node` assembles them, so that the harness can
/// put a span boundary between each.
pub struct Layered {
    table: Rc<Table>,
    feeder: Option<SessionCore>,
    routing: Option<RoutingCore>,
}

impl Layered {
    /// Replay `table`.
    pub fn new(table: Rc<Table>) -> Self {
        Layered { table, feeder: None, routing: None }
    }

    /// Establish `peer`'s session on a fresh core, sans-IO; returns the
    /// established core. Also the `session.handshake_us` probe.
    fn establish(cfg: &DaemonConfig, routing: &mut RoutingCore, peer: Peer) -> Option<SessionCore> {
        let ncfg = cfg.neighbor_config(peer.id.0 as usize);
        let mut core = SessionCore::new(ncfg.session.clone());
        routing.add_peer(peer.id, ncfg);
        core.start(0);
        core.connected(1, ConnDir::In);
        let mut outputs = core.bytes_in(2, ConnDir::In, &peer.open());
        outputs.extend(core.bytes_in(3, ConnDir::In, &keepalive()));
        let summary = outputs.into_iter().find_map(|o| match o {
            CoreOutput::Up(summary) => Some(summary),
            _ => None,
        })?;
        routing.peer_up(peer.id, summary);
        Some(core)
    }

    fn stream<T: Trace>(&mut self, data: &[u8], trace: &mut T) -> Exported {
        let core = self.feeder.as_mut().expect("prepare ran");
        let routing = self.routing.as_mut().expect("prepare ran");
        let mut out = Exported::default();
        let mut now: Millis = 10;
        for chunk in data.chunks(READ_CHUNK) {
            now += 1;
            let outputs = core.bytes_in(now, ConnDir::In, chunk);
            trace.lap("session.bytes_in");
            for output in outputs {
                let CoreOutput::Update(update) = output else { continue };
                let (ops, err) = routing.update(now, FEEDER.id, update);
                assert!(err.is_none(), "a generated UPDATE is well-formed");
                trace.lap("session.routing_update");
                for op in ops {
                    if let RibOp::Announce(_, update) = op {
                        out.frames += 1;
                        out.bytes += BgpMessage::Update(update).encode(true).len() as u64;
                    }
                }
                trace.lap("wire.update_encode");
            }
        }
        out
    }
}

impl Workload for Layered {
    fn prepare(&mut self, _traced: bool) -> Result<(), String> {
        let cfg = parsed_config();
        let mut routing = RoutingCore::new(cfg.local_as, cfg.router_id);
        let both = Layered::establish(&cfg, &mut routing, SINK).and(Layered::establish(
            &cfg,
            &mut routing,
            FEEDER,
        ));
        self.feeder = Some(both.ok_or("layered replay: a session did not establish")?);
        self.routing = Some(routing);
        Ok(())
    }

    fn round<T: Trace>(&mut self, trace: &mut T) -> Round {
        let table = Rc::clone(&self.table);
        let routes = table.routes();
        let announced = self.stream(&table.announce, trace);
        let installed = self.routing.as_ref().expect("prepare ran").loc_rib().len() as u64;
        let withdrawn = self.stream(&table.withdraw, trace);
        let left = self.routing.as_ref().expect("prepare ran").loc_rib().len() as u64;
        Round {
            ops: 2 * routes,
            failed: (routes - installed.min(routes)) + left,
            wire_bytes: announced.bytes + withdrawn.bytes,
            exact: vec![
                ("frames_out", announced.frames + withdrawn.frames),
                ("bytes_out", announced.bytes + withdrawn.bytes),
            ],
        }
    }
}

/// Time one sans-IO session establishment (`session.handshake_us`).
pub fn session_handshake_us() -> f64 {
    let cfg = parsed_config();
    let mut routing = RoutingCore::new(cfg.local_as, cfg.router_id);
    let t = Instant::now();
    let core = Layered::establish(&cfg, &mut routing, SINK);
    let us = t.elapsed().as_secs_f64() * 1e6;
    assert!(core.is_some(), "sans-IO handshake establishes");
    us
}

// ----- the live daemon ------------------------------------------------------

/// Where `dbgpd` was built: `DBGPD_BIN` (set by `run.sh`), else the
/// target directory the harness itself was built into, else the root
/// workspace's.
fn dbgpd_path() -> Result<PathBuf, String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let candidates = [
        std::env::var_os("DBGPD_BIN").map(PathBuf::from),
        std::env::current_exe().ok().and_then(|p| Some(p.parent()?.join("dbgpd"))),
        Some(root.join("target/release/dbgpd")),
    ];
    candidates.into_iter().flatten().find(|p| p.is_file()).ok_or_else(|| {
        "dbgpd binary not found: run through benchmark/run.sh, which builds it and sets DBGPD_BIN"
            .to_string()
    })
}

/// A scratch directory inside the benchmark's own tree.
fn scratch_dir() -> Result<PathBuf, String> {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("run-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A spawned `dbgpd`, killed and reaped on drop — whichever way the
/// harness leaves the scope that owns it.
struct Daemon {
    child: Child,
    dir: PathBuf,
    port: u16,
}

impl Daemon {
    fn spawn(quiet_ms: u64) -> Result<Self, String> {
        let bin = dbgpd_path()?;
        let dir = scratch_dir()?;
        // Let the kernel pick a free port, then hand it to the config.
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free loopback port: {e}"))?
            .port();
        let conf = dir.join("dbgpd.conf");
        std::fs::write(&conf, config_text(Some(port))).map_err(|e| e.to_string())?;
        let log = std::fs::File::create(dir.join("dbgpd.log")).map_err(|e| e.to_string())?;
        let child = Command::new(&bin)
            .arg("--config")
            .arg(&conf)
            .arg("--dump-rib")
            .arg(dir.join("dbgpd.rib"))
            .args(["--quiet-ms", &quiet_ms.to_string()])
            .args(["--max-ms", &MAX_MS.to_string()])
            .args(["--linger-ms", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Daemon { child, dir, port })
    }

    /// Dial the daemon (it may still be binding) and run the OPEN /
    /// KEEPALIVE exchange as `peer`.
    fn handshake(&self, peer: Peer) -> Result<(TcpStream, StreamReassembler), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut sock = loop {
            match TcpStream::connect(("127.0.0.1", self.port)) {
                Ok(s) => break s,
                Err(e) if Instant::now() > deadline => return Err(format!("connect: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let io = |e: std::io::Error| format!("handshake as {}: {e}", peer.asn);
        sock.set_nodelay(true).map_err(io)?;
        sock.set_read_timeout(Some(Duration::from_secs(10))).map_err(io)?;
        sock.set_write_timeout(Some(Duration::from_secs(10))).map_err(io)?;
        sock.write_all(&peer.open()).map_err(io)?;
        let mut rx = StreamReassembler::new();
        let (mut got_open, mut got_keepalive) = (false, false);
        let mut buf = [0u8; 4096];
        while !(got_open && got_keepalive) {
            let n = sock.read(&mut buf).map_err(io)?;
            if n == 0 {
                return Err(format!("dbgpd closed the connection during {}'s handshake", peer.asn));
            }
            rx.push(&buf[..n]);
            while let Some(msg) = rx.next_message(true).map_err(|e| format!("handshake: {e}"))? {
                match msg {
                    BgpMessage::Open(open) if open.effective_as() == DAEMON_AS => got_open = true,
                    BgpMessage::Keepalive => got_keepalive = true,
                    other => return Err(format!("unexpected message in handshake: {other:?}")),
                }
            }
        }
        sock.write_all(&keepalive()).map_err(io)?;
        Ok((sock, rx))
    }
}

impl Daemon {
    /// The last lines `dbgpd` wrote to stderr, for error messages.
    fn log_tail(&self) -> String {
        let log = std::fs::read_to_string(self.dir.join("dbgpd.log")).unwrap_or_default();
        let lines: Vec<&str> = log.lines().rev().take(5).collect();
        lines.into_iter().rev().collect::<Vec<_>>().join(" | ")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted)
}

/// What the harness wrote to the daemon, in order, so the reference
/// node can be fed exactly the same bytes afterwards.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fed {
    Keepalives,
    Announce,
    Withdraw,
}

/// Which side of an UPDATE a phase counts.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Announce,
    Withdraw,
}

/// What one phase saw at the sink.
#[derive(Default)]
struct Seen {
    routes: u64,
    checksum: u64,
    frames: u64,
    bytes: u64,
}

/// The live workload.
pub struct TcpTable {
    table: Rc<Table>,
    daemon: Daemon,
    feeder: TcpStream,
    sink: TcpStream,
    sink_rx: StreamReassembler,
    fed: Vec<Fed>,
    /// Wall of spawn-to-both-sessions-up is part of set-up; this is the
    /// two handshakes alone (`daemon.handshake_ms`).
    pub handshake_ms: f64,
    /// Set when a round hit its deadline: the connection state is then
    /// unknown, so later rounds fail without waiting again.
    stalled: bool,
}

impl TcpTable {
    /// Generate the table, spawn `dbgpd`, establish both sessions. The
    /// sink goes first so that its session is up before any route
    /// arrives and every route is re-exported as it changes.
    pub fn setup(seed: u64, routes: usize) -> Result<Self, String> {
        let table = Table::generate(seed, routes);
        let daemon = Daemon::spawn(quiet_ms(routes))?;
        let t = Instant::now();
        let (sink, sink_rx) = daemon.handshake(SINK)?;
        let (feeder, _) = daemon.handshake(FEEDER)?;
        let handshake_ms = t.elapsed().as_secs_f64() * 1e3;
        for sock in [&sink, &feeder] {
            sock.set_nonblocking(true).map_err(|e| e.to_string())?;
        }
        Ok(TcpTable {
            table,
            daemon,
            feeder,
            sink,
            sink_rx,
            fed: Vec::new(),
            handshake_ms,
            stalled: false,
        })
    }

    /// Write `data` to the feeder while reading the sink, until `want`
    /// route changes of `phase`'s kind have been decoded there or the
    /// deadline passes. One thread pumps both non-blocking sockets
    /// without ever sleeping: `dbgpd` stops reading once the sink's
    /// socket buffer fills, so neither side may wait for the other, and
    /// a harness that never sleeps never waits to be woken — harness and
    /// `dbgpd` are two busy threads, the host's `nproc`.
    fn phase(&mut self, phase: Phase, deadline: Instant) -> Seen {
        let table = Rc::clone(&self.table);
        let (mut unsent, want) = match phase {
            Phase::Announce => (&table.announce[..], table.routes()),
            Phase::Withdraw => (&table.withdraw[..], table.routes()),
        };
        self.fed.push(if phase == Phase::Announce { Fed::Announce } else { Fed::Withdraw });
        let rx = &mut self.sink_rx;
        let mut seen = Seen::default();
        let mut buf = vec![0u8; 64 * 1024];
        'pump: while seen.routes < want && Instant::now() < deadline {
            if !unsent.is_empty() {
                match self.feeder.write(unsent) {
                    Ok(n) => unsent = &unsent[n..],
                    Err(e) if would_block(&e) => {}
                    Err(_) => break,
                }
            }
            let n = match self.sink.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if would_block(&e) => {
                    std::hint::spin_loop();
                    continue;
                }
                Err(_) => break,
            };
            rx.push(&buf[..n]);
            loop {
                let pending = rx.pending();
                let update = match rx.next_message(true) {
                    Ok(Some(BgpMessage::Update(update))) => update,
                    Ok(Some(BgpMessage::Keepalive)) => continue,
                    Ok(Some(_)) | Err(_) => break 'pump,
                    Ok(None) => break,
                };
                seen.frames += 1;
                seen.bytes += (pending - rx.pending()) as u64;
                let changed = match phase {
                    Phase::Announce => &update.nlri,
                    Phase::Withdraw => &update.withdrawn,
                };
                seen.routes += changed.len() as u64;
                seen.checksum =
                    changed.iter().map(prefix_hash).fold(seen.checksum, u64::wrapping_add);
            }
        }
        seen
    }

    /// Route changes of a phase that did not arrive intact.
    fn missing(&self, seen: &Seen) -> u64 {
        let want = self.table.routes();
        if seen.routes < want {
            want - seen.routes
        } else if seen.routes == want && seen.checksum == self.table.checksum {
            0
        } else {
            want // the right count of the wrong prefixes fails the phase
        }
    }
}

impl Workload for TcpTable {
    fn prepare(&mut self, _traced: bool) -> Result<(), String> {
        for mut sock in [&self.sink, &self.feeder] {
            // A dead connection fails the rounds that follow; it does not
            // abort the run without a result.
            self.stalled |= sock.write_all(&keepalive()).is_err();
        }
        self.fed.push(Fed::Keepalives);
        Ok(())
    }

    fn round<T: Trace>(&mut self, trace: &mut T) -> Round {
        let routes = self.table.routes();
        if self.stalled {
            return Round { ops: 2 * routes, failed: 2 * routes, wire_bytes: 0, exact: Vec::new() };
        }
        let deadline = Instant::now() + ROUND_DEADLINE;
        let announced = self.phase(Phase::Announce, deadline);
        trace.lap("daemon.announce");
        let withdrawn = self.phase(Phase::Withdraw, deadline);
        trace.lap("daemon.withdraw");
        let failed = self.missing(&announced) + self.missing(&withdrawn);
        self.stalled = failed > 0;
        Round {
            ops: 2 * routes,
            failed,
            wire_bytes: announced.bytes + withdrawn.bytes,
            exact: vec![
                ("frames_out", announced.frames + withdrawn.frames),
                ("bytes_out", announced.bytes + withdrawn.bytes),
            ],
        }
    }

    fn pid(&self) -> u32 {
        self.daemon.child.id()
    }

    /// Leave the table installed, let `dbgpd` go quiet and exit, then
    /// hold its dump against an in-process node fed the same bytes.
    fn finish(&mut self) -> Result<Finish, String> {
        if self.stalled {
            return Err(format!(
                "dbgpd stalled, final dump not compared; dbgpd said: {}",
                self.daemon.log_tail()
            ));
        }
        let last = self.phase(Phase::Announce, Instant::now() + ROUND_DEADLINE);
        if self.missing(&last) > 0 {
            return Err("final table announcement did not fully arrive at the sink".into());
        }
        let quiet = Duration::from_millis(quiet_ms(self.table.prefixes.len()));
        let deadline = Instant::now() + quiet + Duration::from_secs(15);
        let status = loop {
            match self.daemon.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    return Err("dbgpd did not converge and exit after the last round".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        if !status.success() {
            return Err(format!("dbgpd exited with {status}"));
        }
        let live = std::fs::read_to_string(self.daemon.dir.join("dbgpd.rib"))
            .map_err(|e| format!("dbgpd dump: {e}"))?;

        let mut node = RefNode::establish()?;
        let ops = 2.0 * self.table.routes() as f64;
        let mut per_round = Vec::new();
        let mut announce_bytes = 0u64;
        for fed in &self.fed {
            match fed {
                Fed::Keepalives => node.keepalives(),
                Fed::Announce => {
                    announce_bytes = alloc::count(|| node.feed(&self.table.announce)).1;
                }
                Fed::Withdraw => {
                    let bytes = alloc::count(|| node.feed(&self.table.withdraw)).1;
                    per_round.push((announce_bytes + bytes) as f64 / ops);
                }
            }
        }
        // The first round fed is the warm-up: its tries grow from empty,
        // later rounds refill a sized arena.
        per_round.remove(0);
        let expected = node.dump();
        if live != expected {
            return Err(format!(
                "dbgpd's dump ({} lines) differs from the in-process node's ({} lines)",
                live.lines().count(),
                expected.lines().count()
            ));
        }
        Ok(Finish {
            alloc_bytes_per_op: Some(crate::stats::median(&per_round)),
            exact: vec![("rib_routes", node.routes() as u64), ("rib_dump_fnv", fnv1a(&live))],
        })
    }
}

/// FNV-1a, 64 bit: a fingerprint of the dump for the result file.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}
