//! Loopback interop smoke tests: real `dbgpd` processes speaking BGP
//! over TCP, pinned bit-for-bit against the in-process oracle. The same
//! two topologies run as `Scenario`s against the reference model and the
//! simulator in `crates/oracle/tests/differential.rs`.
//!
//! Each test uses its own port range so the tests can run in parallel.

use dbgp_daemon::config::DaemonConfig;
use dbgp_daemon::dump::dump_node;
use dbgp_daemon::oracle::Oracle;
use dbgp_daemon::testutil::line_config_texts;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};

const DBGPD: &str = env!("CARGO_BIN_EXE_dbgpd");

/// Scratch directory unique to this test process + test name.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbgpd-interop-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write_configs(dir: &Path, texts: &[String]) -> Vec<PathBuf> {
    texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let path = dir.join(format!("node{i}.conf"));
            std::fs::write(&path, text).expect("write config");
            path
        })
        .collect()
}

fn spawn_daemon(conf: &PathBuf, dump: &PathBuf, extra: &[&str]) -> Child {
    let mut cmd = Command::new(DBGPD);
    cmd.arg("--config")
        .arg(conf)
        .arg("--dump-rib")
        .arg(dump)
        .args(["--quiet-ms", "400", "--max-ms", "20000", "--linger-ms", "1500"])
        .args(extra);
    cmd.spawn().expect("spawn dbgpd")
}

/// Oracle dumps computed in-process, keyed by index.
fn oracle_dumps(texts: &[String]) -> Vec<String> {
    let configs: Vec<DaemonConfig> =
        texts.iter().map(|t| DaemonConfig::parse(t).expect("valid config")).collect();
    let oracle = Oracle::new(&configs).expect("oracle topology");
    oracle.converge().iter().map(dump_node).collect()
}

/// Converge `texts` as real processes and bit-compare each dump with
/// the oracle's.
fn run_and_compare(name: &str, texts: &[String]) {
    let dir = scratch(name);
    let confs = write_configs(&dir, texts);
    let dumps: Vec<PathBuf> = (0..texts.len()).map(|i| dir.join(format!("node{i}.rib"))).collect();
    let mut children: Vec<Child> =
        confs.iter().zip(&dumps).map(|(c, d)| spawn_daemon(c, d, &[])).collect();
    for (i, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("wait dbgpd");
        assert!(status.success(), "node {i} did not converge (status {status:?})");
    }
    let expected = oracle_dumps(texts);
    for (i, dump_path) in dumps.iter().enumerate() {
        let got = std::fs::read_to_string(dump_path).expect("read dump");
        assert_eq!(got, expected[i], "node {i}: live Loc-RIB dump differs from oracle");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_nodes_converge_and_bitmatch_oracle() {
    run_and_compare("pair", &line_config_texts(34110, 2, None));
}

#[test]
fn five_node_gulf_converges_and_bitmatches_oracle() {
    run_and_compare("gulf", &line_config_texts(34120, 5, Some(2)));
}

/// The binary's own `--oracle` mode writes the same bytes the library
/// oracle produces — this is the artifact CI diffs against.
#[test]
fn oracle_mode_binary_matches_library() {
    let dir = scratch("oracle-mode");
    let texts = line_config_texts(34140, 2, None); // ports unused: oracle mode never binds
    let confs = write_configs(&dir, &texts);
    let dump_dir = dir.join("dumps");
    let status = Command::new(DBGPD)
        .arg("--oracle")
        .args(&confs)
        .arg("--dump-dir")
        .arg(&dump_dir)
        .status()
        .expect("run dbgpd --oracle");
    assert!(status.success(), "oracle mode failed");
    let expected = oracle_dumps(&texts);
    for (i, asn) in [65001u32, 65002].iter().enumerate() {
        let got =
            std::fs::read_to_string(dump_dir.join(format!("as{asn}.rib"))).expect("read dump");
        assert_eq!(got, expected[i], "as{asn}: binary oracle dump differs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Negative check: a deliberately corrupted capability byte in our OPEN
/// must fail the handshake — the corrupting node never establishes and
/// exits nonzero.
#[test]
fn corrupt_open_fails_handshake() {
    let dir = scratch("corrupt");
    let texts = line_config_texts(34150, 2, None);
    let confs = write_configs(&dir, &texts);
    let dumps: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("node{i}.rib"))).collect();
    let mut bad = spawn_daemon(&confs[0], &dumps[0], &["--test-corrupt-open", "--max-ms", "6000"]);
    let mut good = spawn_daemon(&confs[1], &dumps[1], &["--max-ms", "6000"]);
    let bad_status = bad.wait().expect("wait corrupting dbgpd");
    let good_status = good.wait().expect("wait peer dbgpd");
    assert!(!bad_status.success(), "corrupted OPEN unexpectedly converged (status {bad_status:?})");
    assert!(
        !good_status.success(),
        "peer of corrupted node unexpectedly converged (status {good_status:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
