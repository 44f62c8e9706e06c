//! Query a recorded control-plane trace for convergence explainability.
//!
//! Records one of the canonical chaos scenarios with the telemetry
//! recorder attached, then answers a provenance question over the
//! resulting `dbgp-trace/v1` log:
//!
//! ```text
//! trace_query <scenario> why-selected <as> <prefix>
//! trace_query <scenario> path-of <event-id|last>
//! trace_query <scenario> convergence-timeline
//! ```
//!
//! Scenarios: `fig8-wiser-flap` (the Figure 8 Wiser deployment under
//! the chaos_table flap plan) and `rbgp-diamond-failover` (the R-BGP
//! diamond losing its primary link).
//!
//! `path-of last` resolves to the trace's final best-path decision.
//! `--write-trace <path>` additionally serializes the full trace
//! document, for archival: nothing reads it back. Everything is
//! deterministic: the same scenario always records the same trace and
//! prints the same answer. Exit codes: 0 success, 1 query failure,
//! 2 usage error.

use dbgp_chaos::scenario::{traced_fig8_wiser_flap, traced_rbgp_diamond_failover};
use dbgp_telemetry::query::{convergence_timeline, path_of, why_selected, TraceLog};
use dbgp_telemetry::{EventId, TraceKind};

const USAGE: &str = "usage: trace_query <scenario> <command> [args] [--write-trace <path>]
  scenarios:
    fig8-wiser-flap         figure 8 Wiser deployment under the gulf flap plan
    rbgp-diamond-failover   R-BGP diamond losing its primary link
  commands:
    why-selected <as> <prefix>    explain the AS's current route for the prefix
    path-of <event-id|last>       causal chain through an event (root first)
    convergence-timeline          every best-path change with its root cause";

fn usage_error(msg: &str) -> ! {
    eprintln!("trace_query: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn record(scenario: &str) -> TraceLog {
    match scenario {
        "fig8-wiser-flap" => traced_fig8_wiser_flap(),
        "rbgp-diamond-failover" => traced_rbgp_diamond_failover(),
        other => usage_error(&format!("unknown scenario `{other}`")),
    }
}

/// `path-of last` target: the final best-path decision in the trace.
fn last_decision(log: &TraceLog) -> Option<EventId> {
    log.events.iter().rev().find(|e| matches!(e.kind, TraceKind::Decision { .. })).map(|e| e.id)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut write_trace = None;
    if let Some(pos) = args.iter().position(|a| a == "--write-trace") {
        if pos + 1 >= args.len() {
            usage_error("--write-trace needs a path");
        }
        write_trace = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    if args.len() < 2 {
        usage_error("missing scenario or command");
    }
    let log = record(&args[0]);
    if let Some(path) = write_trace {
        let doc = serde_json::to_string_pretty(&log.to_json()).expect("trace serializes");
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("trace_query: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("(wrote {path})");
    }
    let answer = match args[1].as_str() {
        "why-selected" => {
            let [_, _, asn, prefix] = args.as_slice() else {
                usage_error("why-selected needs <as> <prefix>");
            };
            let asn: u32 = asn.parse().unwrap_or_else(|_| usage_error("<as> must be an AS number"));
            why_selected(&log, asn, prefix).map(|w| w.render())
        }
        "path-of" => {
            let [_, _, id] = args.as_slice() else {
                usage_error("path-of needs <event-id|last>");
            };
            let id = if id == "last" {
                match last_decision(&log) {
                    Some(id) => id,
                    None => {
                        eprintln!("trace_query: trace has no decisions");
                        std::process::exit(1);
                    }
                }
            } else {
                EventId(
                    id.parse()
                        .unwrap_or_else(|_| usage_error("<event-id> must be a number or `last`")),
                )
            };
            path_of(&log, id).map(|p| p.render())
        }
        "convergence-timeline" => {
            if args.len() != 2 {
                usage_error("convergence-timeline takes no arguments");
            }
            Ok(convergence_timeline(&log).render())
        }
        other => usage_error(&format!("unknown command `{other}`")),
    };
    match answer {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("trace_query: {e}");
            std::process::exit(1);
        }
    }
}
