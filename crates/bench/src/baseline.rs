//! Schema validation for the committed `BENCH_sim.json` performance
//! baseline.
//!
//! The baseline is load-bearing: the telemetry overhead budget (<3%
//! events/sec on waxman-1000) and the allocation gate are measured
//! against it, so CI refuses a baseline document that silently lost a
//! field or changed a type. `sim_bench --quick` (and `--validate-only`)
//! calls [`validate_sim_bench_schema`] and exits nonzero listing every
//! problem found.
//!
//! The rule is "the tag equals [`SIM_BENCH_SCHEMA`] and every required
//! field is present with its type"; a document from any other schema
//! generation fails on the tag alone. v6 was the one-engine shape: each
//! scenario is timed once (`wall_seconds`, `events_per_sec`), and the
//! per-engine columns, shard accounting and cross-host
//! `baseline`/`speedup` blocks of v2–v5 are gone with the engines they
//! described (EXPERIMENTS.md, "Engine decision record"). v7 (this
//! revision) is v6 without the columns of `hier_50k`'s deleted mrai-0
//! leg (EXPERIMENTS.md, the PR 16 decision record).

use serde_json::Value;

/// Schema identifier every `BENCH_sim.json` document must carry.
pub const SIM_BENCH_SCHEMA: &str = "dbgp-sim-bench/v7";

/// Fields every per-scenario record must carry.
pub const REQUIRED_METRICS: [&str; 13] = [
    "nodes",
    "edges",
    "events",
    "wall_seconds",
    "events_per_sec",
    "messages",
    "bytes_delivered",
    "updates_encoded",
    "encode_cache_hits",
    "bytes_allocated",
    "best_changes",
    "full_scans_avoided",
    "quiesced",
];

/// Fields the `hier_50k` block must carry.
pub const REQUIRED_HIER: [&str; 9] = [
    "nodes",
    "edges",
    "events",
    "wall_seconds",
    "events_per_sec",
    "messages",
    "best_changes",
    "full_scans_avoided",
    "quiesced",
];

/// Fields every record in the `fulltable` block must carry.
pub const REQUIRED_FULLTABLE: [&str; 12] = [
    "routes",
    "updates",
    "wire_bytes",
    "bytes_per_route",
    "ingest_seconds",
    "routes_per_sec_ingest",
    "decode_ns_per_route",
    "rib_bytes_per_route",
    "burst_events",
    "burst_events_per_sec",
    "full_scans_avoided",
    "quiesced",
];

/// Fields the top-level `phase_times` block must carry: wall seconds
/// spent in each hot-path phase of an instrumented waxman-1000 leg,
/// plus the leg's total wall time. Host-dependent, like every other
/// wall-clock figure in the document.
pub const REQUIRED_PHASE_TIMES: [&str; 5] =
    ["decode_seconds", "decide_seconds", "encode_seconds", "queue_seconds", "wall_seconds"];

/// Fields the `seed_sweep` block must carry (scenario-level
/// parallelism: a multi-seed run timed on one thread vs the pool).
pub const REQUIRED_SEED_SWEEP: [&str; 6] = [
    "seeds",
    "threads",
    "total_events",
    "wall_seconds_serial",
    "wall_seconds_pooled",
    "pooled_speedup",
];

/// A field's type is a function of its name, whichever block it sits
/// in: one bool, the wall-clock and rate fields are floats, every
/// other field an unsigned count.
fn field_ok(record: &Value, field: &str) -> bool {
    match field {
        "quiesced" => record.get(field).and_then(Value::as_bool).is_some(),
        "wall_seconds"
        | "events_per_sec"
        | "wall_seconds_serial"
        | "wall_seconds_pooled"
        | "pooled_speedup"
        | "bytes_per_route"
        | "ingest_seconds"
        | "routes_per_sec_ingest"
        | "decode_ns_per_route"
        | "rib_bytes_per_route"
        | "burst_events_per_sec"
        | "decode_seconds"
        | "decide_seconds"
        | "encode_seconds"
        | "queue_seconds" => record.get(field).and_then(Value::as_f64).is_some(),
        _ => record.get(field).and_then(Value::as_u64).is_some(),
    }
}

/// Check one record against its field list, naming problems `path.field`.
fn check_record(problems: &mut Vec<String>, path: &str, record: &Value, fields: &[&str]) {
    for field in fields {
        if !field_ok(record, field) {
            problems.push(format!("{path}.{field} missing or mistyped"));
        }
    }
}

/// Check a top-level single-record block.
fn check_block(problems: &mut Vec<String>, doc: &Value, block: &str, fields: &[&str]) {
    match doc.get(block) {
        Some(record) if record.as_object().is_some() => {
            check_record(problems, block, record, fields)
        }
        _ => problems.push(format!("missing object block \"{block}\"")),
    }
}

/// Check a top-level block of named records, one of which must be
/// `anchor`.
fn check_records(
    problems: &mut Vec<String>,
    doc: &Value,
    block: &str,
    anchor: &str,
    fields: &[&str],
) {
    let Some(records) = doc.get(block).and_then(Value::as_object) else {
        problems.push(format!("missing object block \"{block}\""));
        return;
    };
    if !records.iter().any(|(name, _)| name == anchor) {
        problems.push(format!("{block} lacks the {anchor} scenario"));
    }
    for (name, record) in records {
        check_record(problems, &format!("{block}.{name}"), record, fields);
    }
}

/// Validate a committed baseline document's shape; returns a list of
/// problems, one human-readable line each (empty = valid).
pub fn validate_sim_bench_schema(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let tag = doc.get("schema").and_then(Value::as_str);
    if tag != Some(SIM_BENCH_SCHEMA) {
        problems.push(format!(
            "schema must be \"{SIM_BENCH_SCHEMA}\", found \"{}\" \
             (regenerate with a full `sim_bench` run)",
            tag.unwrap_or("")
        ));
    }
    for field in ["seed", "threads", "host_cpus"] {
        if doc.get(field).and_then(Value::as_u64).is_none() {
            problems.push(format!("{field} must be an unsigned integer"));
        }
    }
    // An oversubscribed recording host cannot measure the pooled seed
    // sweep: with fewer CPUs than worker threads its speedup column is a
    // bookkeeping-overhead check. Such a document must say so next to
    // the numbers, so nobody (human or CI) reads ~1.0x as a regression
    // or a win.
    let host_cpus = doc.get("host_cpus").and_then(Value::as_u64);
    let threads = doc.get("threads").and_then(Value::as_u64);
    if let (Some(cpus), Some(threads)) = (host_cpus, threads) {
        if cpus < threads {
            match doc.get("host_cpus_note").and_then(Value::as_str) {
                Some(note) if !note.trim().is_empty() => {}
                _ => problems.push(format!(
                    "host_cpus={cpus} < threads={threads}: the pooled sweep timing is not \
                     measured speedup; a non-empty \"host_cpus_note\" string must say so \
                     (or re-record on a host with >= {threads} CPUs)"
                )),
            }
        }
    }
    check_block(&mut problems, doc, "phase_times", &REQUIRED_PHASE_TIMES);
    check_records(&mut problems, doc, "current", "waxman50_churn", &REQUIRED_METRICS);
    check_records(&mut problems, doc, "fulltable", "fulltable_100k", &REQUIRED_FULLTABLE);
    check_block(&mut problems, doc, "hier_50k", &REQUIRED_HIER);
    check_block(&mut problems, doc, "seed_sweep", &REQUIRED_SEED_SWEEP);
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn record() -> Value {
        json!({
            "nodes": 50u64, "edges": 97u64, "events": 1000u64,
            "wall_seconds": 0.5f64, "events_per_sec": 2000.0f64,
            "messages": 10u64, "bytes_delivered": 100u64,
            "updates_encoded": 5u64, "encode_cache_hits": 3u64,
            "bytes_allocated": 4096u64, "best_changes": 7u64,
            "full_scans_avoided": 4u64, "quiesced": true,
        })
    }

    fn hier_record() -> Value {
        json!({
            "nodes": 50_000u64, "edges": 78_000u64, "events": 2_000_000u64,
            "wall_seconds": 20.0f64, "events_per_sec": 100_000.0f64,
            "messages": 1_000_000u64, "best_changes": 100_000u64,
            "full_scans_avoided": 50_000u64,
            "quiesced": true,
        })
    }

    fn phase_times() -> Value {
        json!({
            "scenario": "waxman1000",
            "decode_seconds": 0.2f64, "decide_seconds": 0.5f64,
            "encode_seconds": 0.1f64, "queue_seconds": 0.15f64,
            "wall_seconds": 1.2f64,
        })
    }

    fn seed_sweep() -> Value {
        json!({
            "seeds": 8u64, "threads": 4u64, "total_events": 12345u64,
            "wall_seconds_serial": 1.0f64, "wall_seconds_pooled": 0.5f64,
            "pooled_speedup": 2.0f64,
        })
    }

    fn fulltable_record() -> Value {
        json!({
            "routes": 100_000u64, "updates": 12_000u64, "wire_bytes": 1_500_000u64,
            "bytes_per_route": 15.0f64, "ingest_seconds": 0.4f64,
            "routes_per_sec_ingest": 250_000.0f64, "decode_ns_per_route": 120.0f64,
            "rib_bytes_per_route": 96.0f64,
            "burst_events": 40_000u64, "burst_events_per_sec": 90_000.0f64,
            "full_scans_avoided": 1_000u64,
            "quiesced": true,
        })
    }

    fn valid_doc() -> Value {
        json!({
            "schema": SIM_BENCH_SCHEMA,
            "seed": 42u64,
            "threads": 4u64,
            "host_cpus": 4u64,
            "phase_times": phase_times(),
            "current": { "waxman50_churn": record() },
            "seed_sweep": seed_sweep(),
            "fulltable": { "fulltable_100k": fulltable_record() },
            "hier_50k": hier_record(),
        })
    }

    /// The record at `path` (block, then optionally a named record).
    fn record_mut<'a>(doc: &'a mut Value, path: &[&str]) -> &'a mut Vec<(String, Value)> {
        let mut v = doc;
        for key in path {
            v = v.get_mut(key).unwrap();
        }
        v.as_object_mut().unwrap()
    }

    fn set(doc: &mut Value, path: &[&str], field: &str, v: Value) {
        let slot = record_mut(doc, path).iter_mut().find(|(k, _)| k == field).unwrap();
        slot.1 = v;
    }

    fn remove(doc: &mut Value, path: &[&str], field: &str) {
        record_mut(doc, path).retain(|(k, _)| k != field);
    }

    #[test]
    fn a_complete_document_validates() {
        assert_eq!(validate_sim_bench_schema(&valid_doc()), Vec::<String>::new());
    }

    /// A document recorded with fewer CPUs than worker threads must
    /// carry a `host_cpus_note` admitting the pooled column is not
    /// measured speedup; with the note it passes, without it (or with
    /// a blank one) it is rejected.
    #[test]
    fn single_cpu_recordings_require_the_host_cpus_note() {
        let single_cpu = |note: Option<Value>| {
            let mut doc = valid_doc();
            set(&mut doc, &[], "host_cpus", Value::UInt(1));
            if let Some(n) = note {
                record_mut(&mut doc, &[]).push(("host_cpus_note".into(), n));
            }
            doc
        };

        let problems = validate_sim_bench_schema(&single_cpu(None));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("host_cpus=1 < threads=4")
                && problems[0].contains("host_cpus_note"),
            "{problems:?}"
        );

        let problems = validate_sim_bench_schema(&single_cpu(Some(Value::String("  ".into()))));
        assert_eq!(problems.len(), 1, "a blank note is no note: {problems:?}");

        let noted = single_cpu(Some(Value::String(
            "host_cpus=1: the pooled sweep is an overhead check, not speedup".into(),
        )));
        assert_eq!(validate_sim_bench_schema(&noted), Vec::<String>::new());

        // A multi-core recording needs no note (valid_doc has
        // host_cpus == threads and passes above); threads <= cpus with
        // an extra note present is also fine.
        let mut doc = valid_doc();
        record_mut(&mut doc, &[])
            .push(("host_cpus_note".into(), Value::String("recorded on 4 cores".into())));
        assert_eq!(validate_sim_bench_schema(&doc), Vec::<String>::new());
    }

    /// Dropping any required field of any block yields exactly the one
    /// problem naming it.
    #[test]
    fn every_required_field_is_load_bearing() {
        let blocks: [(&[&str], &str, &[&str]); 5] = [
            (&["current", "waxman50_churn"], "current.waxman50_churn", &REQUIRED_METRICS),
            (&["phase_times"], "phase_times", &REQUIRED_PHASE_TIMES),
            (&["hier_50k"], "hier_50k", &REQUIRED_HIER),
            (&["fulltable", "fulltable_100k"], "fulltable.fulltable_100k", &REQUIRED_FULLTABLE),
            (&["seed_sweep"], "seed_sweep", &REQUIRED_SEED_SWEEP),
        ];
        for (path, name, fields) in blocks {
            for field in fields {
                let mut doc = valid_doc();
                remove(&mut doc, path, field);
                assert_eq!(
                    validate_sim_bench_schema(&doc),
                    vec![format!("{name}.{field} missing or mistyped")],
                    "dropping {name}.{field} must be caught"
                );
            }
        }
    }

    #[test]
    fn type_confusion_is_caught() {
        let churn: &[&str] = &["current", "waxman50_churn"];
        for (field, wrong) in [
            ("events", Value::String("1000".into())),
            ("quiesced", Value::UInt(1)),
            ("events_per_sec", Value::String("2000/s".into())),
        ] {
            let mut doc = valid_doc();
            set(&mut doc, churn, field, wrong);
            assert_eq!(
                validate_sim_bench_schema(&doc),
                vec![format!("current.waxman50_churn.{field} missing or mistyped")]
            );
        }
    }

    #[test]
    fn missing_blocks_and_anchor_scenarios_are_caught() {
        let mut doc = valid_doc();
        remove(&mut doc, &[], "hier_50k");
        assert_eq!(validate_sim_bench_schema(&doc), vec!["missing object block \"hier_50k\""]);

        let mut doc = valid_doc();
        remove(&mut doc, &["fulltable"], "fulltable_100k");
        assert_eq!(
            validate_sim_bench_schema(&doc),
            vec!["fulltable lacks the fulltable_100k scenario"]
        );

        let mut doc = valid_doc();
        remove(&mut doc, &["current"], "waxman50_churn");
        record_mut(&mut doc, &["current"]).push(("other".into(), record()));
        assert_eq!(
            validate_sim_bench_schema(&doc),
            vec!["current lacks the waxman50_churn scenario"]
        );
    }

    /// Any tag but the current one is rejected on the tag alone — an
    /// older generation (here v6, otherwise complete) and a foreign
    /// document alike.
    #[test]
    fn a_wrong_schema_tag_is_rejected() {
        let mut doc = valid_doc();
        set(&mut doc, &[], "schema", Value::String("dbgp-sim-bench/v6".into()));
        let problems = validate_sim_bench_schema(&doc);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains(SIM_BENCH_SCHEMA) && problems[0].contains("dbgp-sim-bench/v6"),
            "{problems:?}"
        );

        let problems = validate_sim_bench_schema(&json!({"schema": "bogus/v9"}));
        assert!(problems.iter().any(|p| p.contains("schema must be")));
        assert!(problems.iter().any(|p| p.contains("seed")));
        assert!(problems.iter().any(|p| p.contains("seed_sweep")));
    }
}
