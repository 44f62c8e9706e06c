//! Regenerates the stability table: every gadget × protocol case in
//! the catalog is predicted (static dispute-wheel detection), observed
//! (FIFO cycle detection, seeded schedule pool, schedule explorer,
//! production cross-check), and checked for consistency.
//!
//! Usage: `stability_table [--quick] [--threads N] [--out PATH]` —
//! default output `results/stability.json`. Rows are sealed
//! deterministic units fanned out across worker threads and reduced
//! in catalog order, then sorted by (gadget, protocol) before
//! rendering: the output is byte-identical at any thread count.
//! Exits non-zero if any row is inconsistent, so CI gates on the
//! prediction-vs-observation contract, not just on the file's shape.

use dbgp_stability::{build_row, catalog, render_json, ClassifyConfig, Row};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    let mut threads = dbgp_par::configured_threads();
    let mut out_path = String::from("results/stability.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a positive integer");
            }
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument {other:?} (try --quick / --threads N / --out PATH)"),
        }
    }
    let cfg = if quick { ClassifyConfig::quick() } else { ClassifyConfig::full() };

    let cases = catalog();
    let rows: Vec<Row> = dbgp_par::par_map(threads, &cases, |_, g| build_row(g, &cfg));

    let mut failures = 0usize;
    for row in &rows {
        let o = &row.observation;
        println!(
            "{:<22} {:<8} predicted={:<13} observed={:<18} {}{}",
            row.gadget,
            row.protocol,
            row.prediction.label(),
            o.outcome.label(),
            if row.consistent { "ok" } else { "INCONSISTENT" },
            if row.conservative { " (conservative)" } else { "" },
        );
        if !row.consistent {
            failures += 1;
        }
    }

    let doc = render_json(&rows, quick);
    let rendered = serde_json::to_string_pretty(&doc).expect("table serializes");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out_path, rendered + "\n").expect("write stability table");
    println!("wrote {out_path} ({} rows)", rows.len());

    if failures > 0 {
        eprintln!("{failures} row(s) violate the prediction/observation contract");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
