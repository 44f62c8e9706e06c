//! Golden-file pin of the `dbgp-metrics/v1` snapshot schema.
//!
//! The snapshot is a published interface: dashboards and the chaos
//! harness parse it by field name. This test reduces a real
//! `Sim::metrics_snapshot()` to its schema skeleton — every field name
//! with the JSON type of its value, arrays reduced to their element
//! schema — and compares it against the committed golden file. Renaming,
//! retyping, or dropping a field fails here before it breaks a consumer.
//!
//! To bless an intentional schema change:
//! `UPDATE_GOLDEN=1 cargo test -p dbgp-sim --test metrics_golden`

use dbgp_core::DbgpConfig;
use dbgp_sim::{LinkModel, Sim};
use serde_json::Value;

const GOLDEN_PATH: &str = "tests/golden/metrics_schema.json";

/// Reduce a document to its schema skeleton: leaves become their JSON
/// type name, arrays become the schema of their first element (the
/// snapshot's arrays are homogeneous).
fn schema_of(v: &Value) -> Value {
    match v {
        Value::Null => Value::String("null".into()),
        Value::Bool(_) => Value::String("bool".into()),
        Value::Int(_) => Value::String("int".into()),
        Value::UInt(_) => Value::String("uint".into()),
        Value::Float(_) => Value::String("float".into()),
        Value::String(_) => Value::String("string".into()),
        Value::Array(items) => Value::Array(items.first().map(schema_of).into_iter().collect()),
        Value::Object(fields) => {
            Value::Object(fields.iter().map(|(k, v)| (k.clone(), schema_of(v))).collect())
        }
    }
}

/// A snapshot with every part of the schema populated: messages flowed,
/// a histogram has observations, and a node restarted (nonzero
/// generation).
fn populated_snapshot() -> Value {
    let mut sim = Sim::new();
    let a = sim.add_node(DbgpConfig::gulf(1));
    let b = sim.add_node(DbgpConfig::gulf(2));
    let c = sim.add_node(DbgpConfig::gulf(3));
    sim.link(a, b, 10, false);
    sim.link(b, c, 10, false);
    sim.originate(a, "10.0.0.0/8".parse().unwrap());
    sim.run(1_000_000);
    sim.restart_node(b);
    sim.run(2_000_000);
    sim.metrics_snapshot()
}

#[test]
fn metrics_snapshot_schema_matches_golden() {
    let snap = populated_snapshot();
    assert_eq!(snap.get("schema").and_then(Value::as_str), Some("dbgp-metrics/v1"));
    let schema = schema_of(&snap);
    let rendered = serde_json::to_string_pretty(&schema).unwrap() + "\n";

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_PATH, &rendered).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        rendered, golden,
        "metrics snapshot schema drifted from {GOLDEN_PATH}; if the change is \
         intentional, re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn snapshot_values_survive_a_json_round_trip() {
    let snap = populated_snapshot();
    let text = serde_json::to_string(&snap).unwrap();
    let parsed = serde_json::from_str(&text).unwrap();
    // The vendored writer emits UInt values that re-parse as Int when
    // they fit; compare through the schema reducer's type-insensitive
    // field structure instead of exact equality.
    let keys = |v: &Value| -> Vec<String> {
        v.as_object().map(|f| f.iter().map(|(k, _)| k.clone()).collect()).unwrap_or_default()
    };
    assert_eq!(keys(&snap), keys(&parsed));
    assert_eq!(
        parsed.get("generation").and_then(Value::as_u64),
        snap.get("generation").and_then(Value::as_u64)
    );
}

/// FNV-1a over a snapshot's one-line JSON text.
fn digest(snap: &Value) -> u64 {
    let text = serde_json::to_string(snap).unwrap();
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Six nodes on a ring plus one chord, every ring link losing 10% and
/// duplicating 15% of its frames, MRAI 20, three origins and a restart:
/// the `dropped` / `duplicated` totals and both histograms are non-empty.
fn lossy_snapshot() -> Value {
    let mut sim = Sim::new();
    sim.set_seed(7);
    sim.set_mrai(20);
    for asn in 1..=6 {
        sim.add_node(DbgpConfig::gulf(asn));
    }
    let model = LinkModel::reliable().loss_ppm(100_000).duplicate_ppm(150_000).jitter(4);
    for i in 0..6 {
        sim.link(i, (i + 1) % 6, 10, false);
        sim.set_link_model(i, (i + 1) % 6, model);
    }
    sim.link(0, 3, 15, false);
    for (node, prefix) in [(0, "10.0.0.0/8"), (2, "20.0.0.0/8"), (4, "30.0.0.0/8")] {
        sim.originate(node, prefix.parse().unwrap());
    }
    sim.run(1_000_000);
    sim.restart_node(4);
    sim.run(2_000_000);
    let stats = sim.stats();
    assert!(stats.dropped_messages > 0 && stats.duplicated_messages > 0, "{stats:?}");
    sim.metrics_snapshot()
}

/// Whole snapshots, byte for byte, as the metrics registry wrote them
/// before the snapshot became one render over values the simulator
/// holds. `populated_snapshot` is also `telemetry_semantics.rs`'s chain
/// after a restart; the second digest is that chain before it.
#[test]
fn snapshot_bytes_are_pinned() {
    assert_eq!(digest(&populated_snapshot()), 0x71aa_739c_8104_009e);
    let mut chain = Sim::new();
    for asn in 1..=3 {
        chain.add_node(DbgpConfig::gulf(asn));
    }
    chain.link(0, 1, 10, false);
    chain.link(1, 2, 10, false);
    chain.originate(0, "10.0.0.0/8".parse().unwrap());
    chain.run(1_000_000);
    assert_eq!(digest(&chain.metrics_snapshot()), 0xdc6e_60de_61f1_c0f3);
    assert_eq!(digest(&lossy_snapshot()), 0xabe7_efc5_660b_a9fa);
}
