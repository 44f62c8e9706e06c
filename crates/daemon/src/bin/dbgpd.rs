//! `dbgpd` — a D-BGP-capable BGP daemon over TCP.
//!
//! Run mode (the default): speak BGP on real sockets until every
//! configured session is Established and the RIB goes quiet, write the
//! canonical Loc-RIB dump, linger briefly so peers can finish, and
//! exit 0. Exits 1 if `--max-ms` elapses first (the dump is still
//! written, for diagnostics).
//!
//! ```text
//! dbgpd --config a.conf --dump-rib a.rib [--quiet-ms 500] [--max-ms 30000]
//! ```
//!
//! Oracle mode: converge the same configs over an in-process fabric —
//! no sockets — and write one dump per config into `--dump-dir`, named
//! `as<ASN>.rib`. The interop smoke test diffs run-mode dumps against
//! these bytes.
//!
//! ```text
//! dbgpd --oracle a.conf b.conf --dump-dir dumps/
//! ```

use dbgp_daemon::config::DaemonConfig;
use dbgp_daemon::dump::{down_peers, dump_node};
use dbgp_daemon::oracle::Oracle;
use dbgp_daemon::reactor::{Reactor, ReactorOptions, RunOutcome};
use std::process::ExitCode;

const USAGE: &str = "usage: dbgpd --config FILE [--dump-rib FILE] [--quiet-ms N] [--max-ms N] \
                     [--linger-ms N] [--test-corrupt-open]\n\
                     \x20      dbgpd --oracle FILE... --dump-dir DIR";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut config = None;
    let mut dump_rib = None;
    let mut oracle_configs: Vec<String> = Vec::new();
    let mut dump_dir = None;
    let mut opts = ReactorOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--config" => {
                config = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--dump-rib" => {
                dump_rib = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--oracle" => {
                i += 1;
                while i < args.len() && !args[i].starts_with("--") {
                    oracle_configs.push(args[i].clone());
                    i += 1;
                }
            }
            "--dump-dir" => {
                dump_dir = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--quiet-ms" => {
                opts.quiet_ms = parse_num(args.get(i + 1));
                i += 2;
            }
            "--max-ms" => {
                opts.max_ms = parse_num(args.get(i + 1));
                i += 2;
            }
            "--linger-ms" => {
                opts.linger_ms = parse_num(args.get(i + 1));
                i += 2;
            }
            "--test-corrupt-open" => {
                opts.corrupt_open = true;
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => usage(),
        }
    }

    if !oracle_configs.is_empty() {
        return run_oracle(&oracle_configs, dump_dir.as_deref());
    }
    let Some(config) = config else { usage() };
    run_daemon(&config, dump_rib.as_deref(), opts)
}

fn parse_num(arg: Option<&String>) -> u64 {
    arg.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

fn load_config(path: &str) -> DaemonConfig {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("dbgpd: cannot read {path}: {e}");
        std::process::exit(2);
    });
    DaemonConfig::parse(&text).unwrap_or_else(|e| {
        eprintln!("dbgpd: {path}: {e}");
        std::process::exit(2);
    })
}

fn run_daemon(config_path: &str, dump_rib: Option<&str>, opts: ReactorOptions) -> ExitCode {
    let cfg = load_config(config_path);
    let asn = cfg.local_as;
    let mut reactor = match Reactor::new(cfg, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dbgpd: as {asn}: cannot start: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = reactor.run();
    if let Some(path) = dump_rib {
        let dump = dump_node(reactor.node());
        if let Err(e) = std::fs::write(path, dump) {
            eprintln!("dbgpd: as {asn}: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let code = match outcome {
        RunOutcome::Converged => {
            eprintln!("dbgpd: as {asn}: converged");
            reactor.linger();
            ExitCode::SUCCESS
        }
        RunOutcome::TimedOut => {
            eprintln!(
                "dbgpd: as {asn}: timed out; sessions still down: {:?}",
                down_peers(reactor.node())
            );
            ExitCode::FAILURE
        }
    };
    eprintln!("dbgpd: as {asn}: metrics {}", reactor.metrics_text());
    code
}

fn run_oracle(config_paths: &[String], dump_dir: Option<&str>) -> ExitCode {
    let configs: Vec<DaemonConfig> = config_paths.iter().map(|p| load_config(p)).collect();
    let oracle = match Oracle::new(&configs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dbgpd: oracle: {e}");
            return ExitCode::from(2);
        }
    };
    let nodes = oracle.converge();
    let Some(dir) = dump_dir else {
        eprintln!("dbgpd: oracle: --dump-dir required");
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("dbgpd: oracle: cannot create {dir}: {e}");
        return ExitCode::from(2);
    }
    let mut ok = true;
    for node in &nodes {
        let path = format!("{dir}/as{}.rib", node.asn());
        if let Err(e) = std::fs::write(&path, dump_node(node)) {
            eprintln!("dbgpd: oracle: cannot write {path}: {e}");
            ok = false;
        }
        if !dbgp_daemon::dump::all_established(node) {
            eprintln!(
                "dbgpd: oracle: as {} did not establish all sessions: {:?}",
                node.asn(),
                down_peers(node)
            );
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
