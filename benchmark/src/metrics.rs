//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, each with the reason it exists.
//!
//! `BENCHMARK.json` at the repo root carries the names, units,
//! directions and bounds in the shape the driver reads; its schema has
//! no room for *why* a workload was chosen beyond one line, nor for
//! which end-to-end metric a per-layer metric should move on which
//! workload. Those predictions live here, `check` holds the two in
//! step, and `README.md` prints them as tables.

/// One workload.
pub struct WorkloadInfo {
    /// Name, as later issues refer to it.
    pub name: &'static str,
    /// What one operation is.
    pub op: &'static str,
    /// Why it was chosen (which layers it stresses, what it bypasses).
    pub why: &'static str,
}

/// Every workload, in the order a full run executes them.
pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "sim_flood_waxman1000",
        op: "engine event",
        why: "paper 6.3 topology, 100 origins, cold start: many prefixes per RIB on few nodes, \
              so core decide + IaDb + trie dominate and the event queue does almost nothing",
    },
    WorkloadInfo {
        name: "sim_churn_waxman50",
        op: "engine event",
        why: "flap storm + restarts on a converged net: withdraw/re-advertise/reset, where the \
              incremental fast path must decline and the Adj-RIB-Out encode cache does the work",
    },
    WorkloadInfo {
        name: "sim_hier50k",
        op: "engine event",
        why: "50k-AS Gao-Rexford hierarchy x 8 prefixes, ~580 MB resident: node-state cache \
              misses, calendar queue, export filtering and footprint dominate, not decisions",
    },
    WorkloadInfo {
        name: "stress_bgponly",
        op: "advertisement",
        why: "paper section 5 'Beagle, BGP-only': smallest message, so per-advertisement pipeline \
              cost dominates and codec bytes do not; where the D-BGP tax over classic BGP shows",
    },
    WorkloadInfo {
        name: "stress_ia32k",
        op: "advertisement",
        why: "same loop with 32 KB IAs of 5 protocols: cost in bytes not messages, so a \
              zero-copy/codec change shows here and a per-message change does not",
    },
    WorkloadInfo {
        name: "dbgpd_tcp_table",
        op: "route change",
        why: "100k-route table announced then withdrawn through a live dbgpd over loopback TCP: \
              the only workload where reactor, sockets, stream reassembly and RoutingCore export run",
    },
];

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: same name and meaning on every workload.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a
    /// change is rejected. Also an upper limit on the spread across
    /// seeds, which is what sets most of these (see README.md).
    pub bound: f64,
    /// What it measures.
    pub what: &'static str,
}

/// The end-to-end metrics.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median wall of one set-up, timed repeatedly in a window before the rounds and one \
               after them: topology/table/frame generation and pre-encoding plus one fresh \
               simulator or speaker; for dbgpd_tcp_table also spawn + both handshakes",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "operations of one round / wall of the fastest round",
    },
    EndToEnd {
        name: "round_ms_min",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "wall of the fastest round: time to quiescence / time to converge the table on an \
               undisturbed host (contention only ever slows a round; see README.md)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
        what: "VmHWM of the process under test (the harness itself, or the dbgpd child)",
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.2,
        what: "bytes requested from the allocator inside a round / operations; exact per seed \
               (to a few ppm on sim_hier50k). For dbgpd_tcp_table: of an in-process Node fed the \
               bytes dbgpd was fed",
    },
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.25,
        what: "bytes the program put on the wire / operations: SimStats.bytes per event, encoded \
               output per advertisement, bytes read at the sink per route change; exact per seed",
    },
];

/// A per-layer metric and the prediction attached to it.
pub struct PerLayer {
    /// `layer.metric`; the layer is the crate name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metrics it should move when it moves.
    pub moves: &'static [&'static str],
    /// Workloads on which it should move them.
    pub on: &'static [&'static str],
    /// Whether the value repeats exactly for a seed.
    pub exact: bool,
    /// What it measures.
    pub what: &'static str,
}

const FLOOD: &str = "sim_flood_waxman1000";
const CHURN: &str = "sim_churn_waxman50";
const HIER: &str = "sim_hier50k";
const BGPONLY: &str = "stress_bgponly";
const IA32K: &str = "stress_ia32k";
const TCP: &str = "dbgpd_tcp_table";
const SIMS: &[&str] = &[FLOOD, CHURN, HIER];
const ALL: &[&str] = &[FLOOD, CHURN, HIER, BGPONLY, IA32K, TCP];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [&'static str],
    on: &'static [&'static str],
    exact: bool,
    what: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves, on, exact, what }
}

use Better::{Higher, Lower};

/// The per-layer metrics, in the order the README tables them.
pub const PER_LAYER: &[PerLayer] = &[
    layer("wire.ia_decode_ns_per_adv", "ns", Lower, &["ops_per_s"], &[IA32K, BGPONLY], false,
        "self time of DbgpUpdate::decode (Ia::decode) per advertisement; dominant on stress_ia32k"),
    layer("wire.ia_encode_ns_per_adv", "ns", Lower, &["ops_per_s"], &[IA32K, BGPONLY], false,
        "self time of Ia::encode + framing of every forwarded IA, per advertisement"),
    layer("wire.ia_bytes_per_adv", "B", Lower, &["wire_bytes_per_op"], &[IA32K, BGPONLY], true,
        "encoded size of an inbound advertisement frame"),
    layer("wire.update_decode_ns_per_route", "ns", Lower, &["ops_per_s"], &[TCP], false,
        "BgpMessage::decode of the table's multi-NLRI frames, per route"),
    layer("wire.update_encode_ns_per_route", "ns", Lower, &["ops_per_s"], &[TCP], false,
        "self time of BgpMessage::encode of every re-exported UPDATE, per route change"),
    layer("rib.insert_ns", "ns", Lower, &["ops_per_s"], &[TCP, FLOOD], false,
        "PrefixTrie::insert per prefix of the table (announce half of dbgpd_tcp_table; sim FIB)"),
    layer("rib.remove_ns", "ns", Lower, &["ops_per_s"], &[TCP], false,
        "PrefixTrie::remove per prefix of the table (withdraw half of dbgpd_tcp_table)"),
    layer("rib.longest_match_ns", "ns", Lower, &["ops_per_s"], &[TCP, FLOOD], false,
        "PrefixTrie::longest_match per lookup on the full table"),
    layer("rib.bytes_per_route", "B", Lower, &["peak_rss_mb"], &[TCP], true,
        "Adj-RIB-In + Loc-RIB trie bytes per installed route"),
    layer("core.receive_ia_ns_per_adv", "ns", Lower, &["ops_per_s"], &[BGPONLY], false,
        "self time of DbgpSpeaker::receive_ia per advertisement; dominant on stress_bgponly"),
    layer("core.iadb_candidates_ns", "ns", Lower, &["round_ms_min"], &[FLOOD], false,
        "IaDb::candidates for one prefix held by 8 neighbors; no change predicted on sim_hier50k"),
    layer("core.full_scan_avoided_ratio", "ratio", Higher, &["ops_per_s"], &[FLOOD, CHURN], true,
        "full_scans_avoided / (full_scans_avoided + best_changes): high on flood, low on churn"),
    layer("core.best_changes", "count", Lower, &["ops_per_s"], &[FLOOD, CHURN], true,
        "BestChanged decisions per round across all nodes"),
    layer("protocols.select_best_ns_bgp", "ns", Lower, &["round_ms_min"], &[FLOOD], false,
        "BgpDecision::select_best over 8 candidates; no change predicted on sim_hier50k"),
    layer("protocols.select_best_ns_wiser", "ns", Lower, &["round_ms_min"], &[FLOOD], false,
        "WiserModule::select_best over 8 costed candidates"),
    layer("bgp.classic_adv_per_s", "1/s", Higher, &["ops_per_s"], &[BGPONLY], false,
        "classic dbgp-bgp Speaker on an update_trace of equal length, its rounds run right after D-BGP's in the same traced run"),
    layer("bgp.dbgp_tax_ratio", "ratio", Lower, &["ops_per_s"], &[BGPONLY], false,
        "D-BGP round wall / classic round wall at equal advertisement count (ROADMAP item 3's tax)"),
    layer("session.routing_update_ns_per_route", "ns", Lower, &["ops_per_s"], &[TCP], false,
        "self time of RoutingCore::update per route change"),
    layer("session.reassemble_ns_per_route", "ns", Lower, &["ops_per_s"], &[TCP], false,
        "self time of SessionCore::bytes_in per route change, less the standalone decode of the same frames"),
    layer("session.handshake_us", "us", Lower, &["setup_s"], &[TCP], false,
        "sans-IO OPEN/KEEPALIVE exchange to Established on one SessionCore"),
    layer("daemon.node_ns_per_route", "ns", Lower, &["ops_per_s", "round_ms_min"], &[TCP], false,
        "Node::bytes_in replay of the round's bytes per route change: dbgpd minus sockets and reactor"),
    layer("daemon.io_overhead_share", "ratio", Lower, &["ops_per_s", "round_ms_min"], &[TCP], false,
        "1 - daemon.node_ns_per_route / live TCP round time per route change"),
    layer("daemon.cpu_util", "ratio", Higher, &["round_ms_min"], &[TCP], false,
        "dbgpd CPU seconds / wall over the live rounds: below 1 the daemon waited (poll sleep, sockets)"),
    layer("daemon.announce_routes_per_s", "1/s", Higher, &["ops_per_s"], &[TCP], false,
        "routes / wall of the announce half of a live round"),
    layer("daemon.withdraw_routes_per_s", "1/s", Higher, &["ops_per_s"], &[TCP], false,
        "routes / wall of the withdraw half of a live round"),
    layer("daemon.frames_out_per_route", "ratio", Lower, &["ops_per_s", "wire_bytes_per_op"], &[TCP], true,
        "UPDATE frames read at the sink per route change: 1.0 means un-coalesced export"),
    layer("daemon.bytes_out_per_route", "B", Lower, &["wire_bytes_per_op"], &[TCP], true,
        "UPDATE bytes read at the sink per route change"),
    layer("daemon.handshake_ms", "ms", Lower, &["setup_s"], &[TCP], false,
        "both OPEN/KEEPALIVE exchanges against the live dbgpd, connect included"),
    layer("sim.decode_share", "ratio", Lower, &["round_ms_min"], SIMS, false,
        "Sim::phase_times().decode_ns / span around Sim::run"),
    layer("sim.decide_share", "ratio", Lower, &["round_ms_min"], SIMS, false,
        "Sim::phase_times().decide_ns / span around Sim::run"),
    layer("sim.encode_share", "ratio", Lower, &["round_ms_min"], SIMS, false,
        "Sim::phase_times().encode_ns / span around Sim::run"),
    layer("sim.queue_share", "ratio", Lower, &["round_ms_min"], SIMS, false,
        "Sim::phase_times().queue_ns / span around Sim::run"),
    layer("sim.unattributed_share", "ratio", Lower, &["round_ms_min"], SIMS, false,
        "1 - the four shares above: what phase timing does not cover, reported as measured"),
    layer("sim.events", "count", Lower, &["ops_per_s", "alloc_bytes_per_op"], SIMS, true,
        "engine events per round"),
    layer("sim.messages", "count", Lower, &["ops_per_s", "wire_bytes_per_op"], SIMS, true,
        "control-plane messages delivered per round"),
    layer("sim.updates_encoded", "count", Lower, &["ops_per_s", "alloc_bytes_per_op"], &[CHURN, FLOOD], true,
        "IA bodies freshly serialized per round"),
    layer("sim.encode_cache_hit_ratio", "ratio", Higher, &["ops_per_s", "alloc_bytes_per_op"], &[CHURN, FLOOD], true,
        "encode_cache_hits / (hits + updates_encoded): the Adj-RIB-Out cache at work on churn"),
    layer("sim.queue_ns_per_event", "ns", Lower, &["round_ms_min"], &[HIER], false,
        "EventQueue schedule_at + pop at a depth of 2 x adjacencies (the topology's reserve hint)"),
    layer("sim.build_ms", "ms", Lower, &["setup_s"], &[HIER], false,
        "median wall to build and originate a fresh Sim for a round"),
    layer("sim.bytes_per_node", "B", Lower, &["peak_rss_mb"], &[HIER], true,
        "bytes still allocated after build + one round to quiescence, per node"),
    layer("telemetry.recording_overhead_ratio", "ratio", Lower, &[], &[CHURN], false,
        "churn round wall with a TraceRecorder attached / without; moves nothing today — the \
         gated number ROADMAP item 4 asks for"),
    layer("harness.trace_overhead_ratio", "ratio", Lower, &[], ALL, false,
        "median traced round wall / median untraced round wall, rounds interleaved"),
    layer("harness.round_ms_p50", "ms", Lower, &[], ALL, false,
        "median of the untraced round walls in the traced run"),
    layer("harness.round_ms_p90", "ms", Lower, &[], ALL, false,
        "nearest-rank 90th percentile of those round walls"),
    layer("harness.round_iqr_share", "ratio", Lower, &[], ALL, false,
        "interquartile range of those round walls as a share of their median"),
    layer("harness.rounds", "count", Higher, &[], ALL, false,
        "untraced rounds behind the three figures above"),
    layer("harness.cpu_us_per_op", "us", Lower, &[], ALL, false,
        "user+sys CPU of the process under test over those rounds / operations, from \
         /proc/<pid>/stat (the harness itself, or the dbgpd child)"),
];

/// A named, united value, as printed and as written to result files.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Look a per-layer metric up and attach a value to it. Panics on an
/// unknown name: the probes and the table above are one vocabulary.
pub fn layer_value(name: &str, value: f64) -> Metric {
    let m = PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("per-layer metric `{name}` is not in metrics::PER_LAYER"));
    Metric { name: m.name, value, unit: m.unit }
}

/// The three tables of README.md, as GitHub markdown. README.md's copy
/// is this function's output (`run.sh tables`), pasted.
pub fn markdown_tables() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "| workload | operation | why |\n|---|---|---|");
    for w in WORKLOADS {
        let _ = writeln!(out, "| `{}` | {} | {} |", w.name, w.op, w.why);
    }
    let _ = writeln!(
        out,
        "\n| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|"
    );
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        );
    }
    let _ = writeln!(
        out,
        "\n| per-layer metric | unit | better | should move | on | what |\n|---|---|---|---|---|---|"
    );
    let ticked = |names: &[&str]| {
        if names.is_empty() {
            "—".to_string()
        } else {
            names.iter().map(|n| format!("`{n}`")).collect::<Vec<_>>().join(", ")
        }
    };
    for m in PER_LAYER {
        let on = if m.on.len() == WORKLOADS.len() { "all".to_string() } else { ticked(m.on) };
        let _ = writeln!(
            out,
            "| `{}`{} | {} | {} | {} | {} | {} |",
            m.name,
            if m.exact { " (exact)" } else { "" },
            m.unit,
            m.better.as_str(),
            ticked(m.moves),
            on,
            m.what
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_predictions_point_at_real_things() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        for m in PER_LAYER {
            assert!(!m.on.is_empty(), "{} names no workload", m.name);
            for e in m.moves {
                assert!(END_TO_END.iter().any(|x| x.name == *e), "{}: unknown metric {e}", m.name);
            }
            for w in m.on {
                assert!(WORKLOADS.iter().any(|x| x.name == *w), "{}: unknown workload {w}", m.name);
            }
            let layer = m.name.split('.').next().unwrap();
            assert!(
                [
                    "wire",
                    "rib",
                    "core",
                    "protocols",
                    "bgp",
                    "session",
                    "daemon",
                    "sim",
                    "telemetry",
                    "harness"
                ]
                .contains(&layer),
                "{}: layer must be a crate name",
                m.name
            );
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn readme_tables_are_the_generated_ones() {
        let readme = include_str!("../README.md");
        for table in markdown_tables().trim().split("\n\n") {
            assert!(readme.contains(table), "README.md is stale; paste `run.sh tables`:\n{table}");
        }
    }
}
