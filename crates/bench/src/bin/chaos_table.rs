//! Regenerates the churn-scenario table: deterministic fault plans
//! (flaps, loss bursts, node restarts) run against the Figure 8
//! deployment topology and a 50-AS Waxman graph, with routing
//! invariants checked at quiescence.
//!
//! Usage: `chaos_table [seed] [--threads N]` — default seed 42, default
//! threads from `DBGP_THREADS` (else available parallelism). Everything
//! printed and written is a function of the seed alone: the same seed
//! produces a byte-identical `results/chaos.json` at any thread count.
//! Each scenario is a sealed deterministic unit, so the four rows fan
//! out across worker threads and are reduced back in row order.

use dbgp_chaos::scenario::{figure8_wiser, scenario_prefix, sim_from_graph};
use dbgp_chaos::{FaultPlan, InvariantReport, Invariants, ScenarioReport, ScenarioRunner};
use dbgp_sim::{LinkModel, Sim};
use dbgp_telemetry::TraceRecorder;
use dbgp_topology::fixtures::waxman_50;
use dbgp_wire::ProtocolId;
use serde_json::{json, Value};
use std::rc::Rc;

struct Row {
    scenario: &'static str,
    topology: String,
    report: ScenarioReport,
    invariants: InvariantReport,
    reachable: usize,
    nodes: usize,
}

fn reachable_count(sim: &Sim) -> usize {
    let prefix = scenario_prefix();
    (0..sim.node_count()).filter(|&n| sim.speaker(n).best(&prefix).is_some()).count()
}

/// Figure 8 under gulf flaps, with the CF-R1 pass-through expectation
/// at the source.
fn fig8_wiser_flap() -> Row {
    let mut f = figure8_wiser();
    // Record the full causal trace; the tracker measures each fault
    // window by scanning the event bus instead of diffing counters.
    f.sim.enable_telemetry(Rc::new(TraceRecorder::unbounded()));
    f.sim.originate(f.d, scenario_prefix());
    f.sim.run(10_000_000);
    let plan = FaultPlan::new()
        .link_flaps(f.g2a, f.g2b, 20_000_000, 40_000_000, 10_000_000, 2)
        .link_flap(f.g1, f.s, 110_000_000, 130_000_000);
    let report = ScenarioRunner::default().run(&mut f.sim, &plan);
    let invariants = Invariants::new()
        .expect_pass_through(f.s, scenario_prefix(), ProtocolId::WISER)
        .check(&f.sim);
    Row {
        scenario: "fig8-wiser-flap",
        topology: "figure 8 (7 AS)".into(),
        report,
        invariants,
        reachable: reachable_count(&f.sim),
        nodes: f.sim.node_count(),
    }
}

/// Figure 8 with a gulf AS rebooting (§3.5 session reset).
fn fig8_gulf_restart() -> Row {
    let mut f = figure8_wiser();
    f.sim.enable_telemetry(Rc::new(TraceRecorder::unbounded()));
    f.sim.originate(f.d, scenario_prefix());
    f.sim.run(10_000_000);
    let plan = FaultPlan::new().node_restart(f.g2b, 20_000_000).node_restart(f.g1, 60_000_000);
    let report = ScenarioRunner::default().run(&mut f.sim, &plan);
    let invariants = Invariants::new()
        .expect_pass_through(f.s, scenario_prefix(), ProtocolId::WISER)
        .check(&f.sim);
    Row {
        scenario: "fig8-gulf-restart",
        topology: "figure 8 (7 AS)".into(),
        report,
        invariants,
        reachable: reachable_count(&f.sim),
        nodes: f.sim.node_count(),
    }
}

/// Waxman-50 under an overlapping flap storm plus a transit restart.
fn waxman_flap(seed: u64) -> Row {
    let graph = waxman_50(seed);
    let mut sim = sim_from_graph(&graph, 10);
    sim.enable_telemetry(Rc::new(TraceRecorder::unbounded()));
    sim.set_seed(seed);
    sim.originate(0, scenario_prefix());
    sim.run(100_000_000);
    let edges: Vec<(usize, usize, bool)> = sim.links().collect();
    let (a1, b1, _) = edges[edges.len() / 3];
    let (a2, b2, _) = edges[2 * edges.len() / 3];
    let plan = FaultPlan::new()
        .link_flaps(a1, b1, 110_000_000, 30_000_000, 10_000_000, 3)
        .link_flap(a2, b2, 120_000_000, 160_000_000)
        .node_restart(1, 150_000_000);
    let report = ScenarioRunner::new(200_000_000).run(&mut sim, &plan);
    let invariants = Invariants::new().check(&sim);
    Row {
        scenario: "waxman50-flap",
        topology: format!("waxman-50 ({} edges)", graph.edge_count()),
        report,
        invariants,
        reachable: reachable_count(&sim),
        nodes: sim.node_count(),
    }
}

/// Waxman-50 with a hard loss burst on one link while an endpoint
/// restarts, healed by the burst's closing flap.
fn waxman_loss_burst(seed: u64) -> Row {
    let graph = waxman_50(seed.wrapping_add(2));
    let mut sim = sim_from_graph(&graph, 10);
    sim.enable_telemetry(Rc::new(TraceRecorder::unbounded()));
    sim.set_seed(seed.wrapping_add(2));
    sim.originate(0, scenario_prefix());
    sim.run(100_000_000);
    let edges: Vec<(usize, usize, bool)> = sim.links().collect();
    let (a, b, _) = edges[edges.len() / 2];
    let storm = LinkModel::reliable().loss_ppm(600_000).jitter(7).duplicate_ppm(100_000);
    let plan = FaultPlan::new()
        .loss_burst(a, b, 110_000_000, 50_000_000, storm)
        .node_restart(a, 120_000_000);
    let report = ScenarioRunner::new(300_000_000).run(&mut sim, &plan);
    let invariants = Invariants::new().check(&sim);
    Row {
        scenario: "waxman50-loss-burst",
        topology: format!("waxman-50 ({} edges)", graph.edge_count()),
        report,
        invariants,
        reachable: reachable_count(&sim),
        nodes: sim.node_count(),
    }
}

fn row_json(row: &Row) -> Value {
    let faults: Vec<Value> = row
        .report
        .records
        .iter()
        .map(|r| {
            json!({
                "at": r.at,
                "fault": r.window.label.clone(),
                "convergence_time": r.window.convergence_time,
                "messages": r.window.messages,
                "bytes": r.window.bytes,
                "best_changes": r.window.best_changes,
                "dropped_messages": r.window.dropped_messages,
                "affected_routes": r.window.affected_routes,
                "max_route_churn": r.window.max_route_churn,
            })
        })
        .collect();
    let stats = row.report.final_stats;
    json!({
        "scenario": row.scenario,
        "topology": row.topology.clone(),
        "quiesced": row.report.quiesced,
        "finished_at": row.report.finished_at,
        "reachable": row.reachable as u64,
        "nodes": row.nodes as u64,
        "invariants": row.invariants.summary(),
        "violations": row.invariants.violation_count() as u64,
        "totals": {
            "messages": stats.messages,
            "bytes": stats.bytes,
            "best_changes": stats.best_changes,
            "dropped_messages": stats.dropped_messages,
            "duplicated_messages": stats.duplicated_messages,
            "corrupted_messages": stats.corrupted_messages,
            "decode_errors": stats.decode_errors,
            "orphaned_deliveries": stats.orphaned_deliveries,
        },
        "faults": faults,
    })
}

const USAGE: &str = "usage: chaos_table [seed] [--threads N]";

fn usage_error(problem: &str) -> ! {
    eprintln!("chaos_table: {problem}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut seed: Option<u64> = None;
    let mut threads = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            threads = Some(
                args.next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage_error("--threads needs a positive integer")),
            );
        } else if arg.starts_with('-') {
            usage_error(&format!("unknown flag {arg:?}"));
        } else if seed.is_some() {
            usage_error(&format!("unexpected second positional argument {arg:?}"));
        } else {
            seed = Some(
                arg.parse().unwrap_or_else(|_| usage_error(&format!("seed {arg:?} is not a u64"))),
            );
        }
    }
    let seed = seed.unwrap_or(42);
    let threads = threads.unwrap_or_else(dbgp_par::configured_threads);
    println!(
        "churn scenarios, seed {seed}, {threads} thread(s) \
         (all quantities simulated => deterministic)\n"
    );
    println!(
        "{:<22} {:<22} {:>6} {:>10} {:>9} {:>8} {:>7} {:>11} {:<10}",
        "scenario",
        "topology",
        "faults",
        "max conv",
        "messages",
        "churn",
        "drops",
        "reachable",
        "invariants"
    );
    println!("{:-<115}", "");
    // Each scenario builds, runs and reports on its own worker; the
    // ordered map puts rows back in table order regardless of which
    // finished first.
    let tasks: [fn(u64) -> Row; 4] =
        [|_| fig8_wiser_flap(), |_| fig8_gulf_restart(), waxman_flap, waxman_loss_burst];
    let rows = dbgp_par::par_map(threads, &tasks, |_, task| task(seed));
    let mut all_clean = true;
    for row in &rows {
        let stats = row.report.final_stats;
        println!(
            "{:<22} {:<22} {:>6} {:>10} {:>9} {:>8} {:>7} {:>11} {:<10}",
            row.scenario,
            row.topology,
            row.report.records.len(),
            row.report.max_convergence_time(),
            stats.messages,
            row.report.total_best_changes(),
            stats.dropped_messages,
            format!("{}/{}", row.reachable, row.nodes),
            row.invariants.summary(),
        );
        all_clean &= row.invariants.ok() && row.report.quiesced;
    }
    let doc = json!({
        "seed": seed,
        "scenarios": rows.iter().map(row_json).collect::<Vec<_>>(),
    });
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/chaos.json", serde_json::to_string_pretty(&doc).unwrap()).ok();
    println!("\n(wrote results/chaos.json)");
    if !all_clean {
        eprintln!("invariant violations or non-quiescence detected");
        std::process::exit(1);
    }
}
