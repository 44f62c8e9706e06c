//! Equivalence against the committed pre-interning baseline.
//!
//! `results/chaos.json` was generated before IAs were interned behind
//! `Arc`, before wire buffers became shared `Bytes`, and before the
//! Adj-RIB-Out encode caches existed. Re-running a scenario here and
//! matching its totals field-for-field proves the optimized pipeline
//! is behaviorally identical to the seed: same messages, same wire
//! bytes, same best-path churn, same fault-window convergence times.

use dbgp_chaos::scenario::{figure8_wiser, scenario_prefix};
use dbgp_chaos::{FaultPlan, ScenarioRunner};
use serde_json::Value;

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/chaos.json");

/// SHA-256 of the committed `results/chaos.json`, pinned when the
/// lookahead-windowed parallel engine landed. `chaos_table` must
/// reproduce this artifact byte-for-byte at *any* `--threads` count —
/// scenario rows fan out on worker threads and each row's
/// simulation replays deterministically — so a changed hash means a
/// nondeterminism bug (or an intentional scenario change, in which
/// case regenerate and re-pin alongside the diff that explains it).
const BASELINE_SHA256: &str = "43f13a19aaa90aa577c40dff166de9fbdcd46b6078de27b8d335405fb667d08e";

#[test]
fn committed_chaos_artifact_hash_is_pinned() {
    let raw = std::fs::read(BASELINE).expect("committed results/chaos.json");
    let digest = dbgp_crypto::Sha256::digest(&raw);
    let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex, BASELINE_SHA256,
        "results/chaos.json drifted from the pinned artifact; \
         rerun `chaos_table` at --threads 1 and 2 — if both agree on the \
         new bytes the change is intentional and the pin moves with it"
    );
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .unwrap_or_else(|| panic!("not an object while looking for {key:?}"))
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field {key:?}"))
}

fn u64_field(v: &Value, key: &str) -> u64 {
    field(v, key).as_u64().unwrap_or_else(|| panic!("field {key:?} is not a u64"))
}

#[test]
fn fig8_wiser_flap_matches_committed_pre_interning_baseline() {
    let raw = std::fs::read_to_string(BASELINE).expect("committed results/chaos.json");
    let doc = serde_json::from_str(&raw).expect("baseline parses");
    let golden = field(&doc, "scenarios")
        .as_array()
        .expect("scenarios array")
        .iter()
        .find(|s| field(s, "scenario").as_str() == Some("fig8-wiser-flap"))
        .expect("fig8-wiser-flap in baseline");

    // Reproduce the chaos_table scenario exactly (seed-free: figure 8
    // uses reliable links, so the run is a pure function of the plan).
    let mut f = figure8_wiser();
    f.sim.originate(f.d, scenario_prefix());
    f.sim.run(10_000_000);
    let plan = FaultPlan::new()
        .link_flaps(f.g2a, f.g2b, 20_000_000, 40_000_000, 10_000_000, 2)
        .link_flap(f.g1, f.s, 110_000_000, 130_000_000);
    let report = ScenarioRunner::default().run(&mut f.sim, &plan);

    assert!(report.quiesced, "scenario quiesces");
    assert_eq!(report.finished_at, u64_field(golden, "finished_at"), "finish time");

    let totals = field(golden, "totals");
    let stats = report.final_stats;
    assert_eq!(stats.messages, u64_field(totals, "messages"), "messages");
    assert_eq!(stats.bytes, u64_field(totals, "bytes"), "wire bytes");
    assert_eq!(stats.best_changes, u64_field(totals, "best_changes"), "best changes");
    assert_eq!(stats.dropped_messages, u64_field(totals, "dropped_messages"), "drops");
    assert_eq!(stats.decode_errors, u64_field(totals, "decode_errors"), "decode errors");
    assert_eq!(
        stats.orphaned_deliveries,
        u64_field(totals, "orphaned_deliveries"),
        "orphaned deliveries"
    );

    // Per-fault convergence windows match one-for-one.
    let faults = field(golden, "faults").as_array().expect("faults array");
    assert_eq!(report.records.len(), faults.len(), "fault count");
    for (record, golden_fault) in report.records.iter().zip(faults) {
        assert_eq!(record.at, u64_field(golden_fault, "at"), "fault time");
        assert_eq!(
            record.window.convergence_time,
            u64_field(golden_fault, "convergence_time"),
            "convergence time of {}",
            record.window.label
        );
        assert_eq!(
            record.window.messages,
            u64_field(golden_fault, "messages"),
            "window messages of {}",
            record.window.label
        );
        assert_eq!(
            record.window.bytes,
            u64_field(golden_fault, "bytes"),
            "window bytes of {}",
            record.window.label
        );
    }
}
