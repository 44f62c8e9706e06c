//! Where `dbgpd`'s set-up time goes: spawn a daemon with two passive
//! neighbors about fifty times and time, apart, the start-up until its
//! listener accepts a connection, and each of the two OPEN / KEEPALIVE
//! handshakes that follow (the steps, in order, of the benchmark's
//! `dbgpd_tcp_table` set-up). Prints each distribution. A probe, not a
//! check:
//!
//! ```sh
//! cargo test --release -p dbgp-daemon --test setup_probe -- --ignored --nocapture
//! ```

use dbgp_daemon::testutil::{hub_config_text, keepalive_bytes, open_bytes, HUB_AS};
use dbgp_session::StreamReassembler;
use dbgp_wire::message::BgpMessage;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const DBGPD: &str = env!("CARGO_BIN_EXE_dbgpd");
const SPAWNS: usize = 50;
const PEERS: [u32; 2] = [4_200_002, 4_200_001];

/// Run the OPEN / KEEPALIVE exchange as `asn` on a connected socket.
fn handshake(sock: &mut TcpStream, asn: u32) {
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    sock.write_all(&open_bytes(asn)).unwrap();
    let mut rx = StreamReassembler::new();
    let (mut open, mut keepalive) = (false, false);
    let mut buf = [0u8; 4096];
    while !(open && keepalive) {
        let n = sock.read(&mut buf).unwrap();
        assert!(n > 0, "dbgpd closed the connection during {asn}'s handshake");
        rx.push(&buf[..n]);
        while let Some(msg) = rx.next_message(true).unwrap() {
            match msg {
                BgpMessage::Open(o) => open |= o.effective_as() == HUB_AS,
                BgpMessage::Keepalive => keepalive = true,
                other => panic!("unexpected message in handshake: {other:?}"),
            }
        }
    }
    sock.write_all(&keepalive_bytes()).unwrap();
}

/// Milliseconds since `t`.
fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One line: the sorted samples' quantiles, then a histogram of 1 ms
/// bins (`lo:count`), so two modes show as two clusters.
fn summary(name: &str, mut samples: Vec<f64>) -> String {
    samples.sort_by(f64::total_cmp);
    let q = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
    let mut bins = std::collections::BTreeMap::new();
    for &s in &samples {
        *bins.entry(s as u64).or_insert(0) += 1;
    }
    let bins: Vec<String> = bins.iter().map(|(lo, n)| format!("{lo}:{n}")).collect();
    format!(
        "{name:<12} min {:6.2}  p25 {:6.2}  p50 {:6.2}  p75 {:6.2}  max {:6.2} ms   bins {}",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0),
        bins.join(" ")
    )
}

#[test]
#[ignore = "a probe: spawns dbgpd fifty times, run with --ignored --nocapture"]
fn setup_time_by_part() {
    let dir = std::env::temp_dir().join(format!("dbgpd-setup-probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (mut startup, mut first, mut second) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SPAWNS {
        let port = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
        let conf = dir.join("dbgpd.conf");
        let listen = format!("127.0.0.1:{port}");
        std::fs::write(&conf, hub_config_text(Some(&listen), &PEERS)).unwrap();
        let t = Instant::now();
        let mut child = Command::new(DBGPD)
            .arg("--config")
            .arg(&conf)
            .args(["--quiet-ms", "60000", "--max-ms", "60000", "--linger-ms", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn dbgpd");
        // Dial as the benchmark does: retry every millisecond until the
        // listener is bound.
        let mut sock = loop {
            match TcpStream::connect(&listen) {
                Ok(sock) => break sock,
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        startup.push(ms(t));
        let t = Instant::now();
        handshake(&mut sock, PEERS[0]);
        first.push(ms(t));
        let t = Instant::now();
        let mut other = TcpStream::connect(&listen).unwrap();
        handshake(&mut other, PEERS[1]);
        second.push(ms(t));
        child.kill().unwrap();
        child.wait().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
    let total: Vec<f64> = (0..SPAWNS).map(|i| startup[i] + first[i] + second[i]).collect();
    println!("{SPAWNS} spawns of dbgpd with two passive neighbors:");
    println!("{}", summary("start-up", startup));
    println!("{}", summary("handshake 1", first));
    println!("{}", summary("handshake 2", second));
    println!("{}", summary("all three", total));
}
