//! `check`: hold `BENCHMARK.json` against the contract the driver
//! enforces and against this harness's own tables.

use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// Where `BENCHMARK.json` lives: the repo root, one above this package.
pub fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// Read and parse a JSON file.
pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|_| format!("{}: not valid JSON", path.display()))
}

/// `bound` of every end-to-end metric, by name.
pub fn bounds(manifest: &Value) -> Vec<(String, f64, Better)> {
    let metrics = manifest.get("end_to_end").and_then(Value::as_array);
    metrics
        .into_iter()
        .flatten()
        .filter_map(|m| {
            let better = match m.get("better")?.as_str()? {
                "lower" => Better::Lower,
                _ => Better::Higher,
            };
            Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?, better))
        })
        .collect()
}

/// `run_seconds` of the manifest.
pub fn run_seconds(manifest: &Value) -> Option<u64> {
    manifest.get("run_seconds").and_then(Value::as_u64)
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

fn is_rel_path(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/');
    !s.is_empty()
        && s.len() <= 200
        && s.chars().all(ok)
        && !s.starts_with('/')
        && !s.split('/').any(|seg| seg == "..")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object().map(|f| f.iter().map(|(k, _)| k.as_str()).collect()).unwrap_or_default()
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Every violation found; empty means the manifest passes. `root` is
/// the directory `paths` are relative to.
pub fn violations(manifest: &Value, text_len: usize, root: &Path) -> Vec<String> {
    let mut bad: Vec<String> = Vec::new();

    if text_len > 64 * 1024 {
        bad.push(format!("file is {text_len} bytes; the limit is 64 KiB"));
    }
    let mut top = keys(manifest);
    top.sort_unstable();
    if top != ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"] {
        bad.push(format!("top-level keys must be exactly the six of the contract, found {top:?}"));
    }

    // command
    let command: Vec<&str> = manifest
        .get("command")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_str).collect())
        .unwrap_or_default();
    if command.is_empty() || command.len() > 32 || command.iter().any(|s| s.len() > 200) {
        bad.push("command must be 1..=32 strings of at most 200 characters".into());
    }
    let paths: Vec<&str> = manifest
        .get("paths")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_str).collect())
        .unwrap_or_default();
    if paths.is_empty() || paths.len() > 16 {
        bad.push("paths must list 1..=16 directories".into());
    }
    for p in &paths {
        if !is_rel_path(p) {
            bad.push(format!("path `{p}` is not a plain relative path"));
        } else if !root.join(p).is_dir() {
            bad.push(format!("path `{p}` does not exist under {}", root.display()));
        }
    }
    for arg in command.iter().skip(1) {
        // An argument that names a file must name one under `paths`.
        if arg.starts_with('/') || arg.split('/').any(|seg| seg == "..") {
            bad.push(format!("command argument `{arg}` leaves the repo"));
        } else if root.join(arg).exists()
            && !paths.iter().any(|p| Path::new(arg).starts_with(p.trim_end_matches('/')))
        {
            bad.push(format!("command argument `{arg}` names a repo file outside paths"));
        }
    }

    // run_seconds
    match run_seconds(manifest) {
        Some(1..=60) => {}
        other => bad.push(format!("run_seconds must be a whole number in 1..=60, found {other:?}")),
    }

    // names, collected across all three lists: each is used once
    let mut names: Vec<String> = Vec::new();
    let mut claim = |name: &str, bad: &mut Vec<String>| {
        if !is_name(name) {
            bad.push(format!("`{name}` is not a valid name"));
        }
        if names.iter().any(|n| n == name) {
            bad.push(format!("name `{name}` is used twice"));
        }
        names.push(name.to_string());
    };
    let list = |key: &str| manifest.get(key).and_then(Value::as_array).cloned().unwrap_or_default();

    let workloads = list("workloads");
    if !(2..=8).contains(&workloads.len()) {
        bad.push(format!("{} workloads; the contract allows 2..=8", workloads.len()));
    }
    for w in &workloads {
        if keys(w) != ["name", "why"] {
            bad.push(format!("workload entry must have exactly name and why: {:?}", keys(w)));
        }
        claim(str_field(w, "name"), &mut bad);
        let why = str_field(w, "why");
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            bad.push(format!(
                "workload `{}`: why must be one line of 1..=200 characters ({})",
                str_field(w, "name"),
                why.len()
            ));
        }
    }
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let theirs: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    if ours != theirs {
        bad.push(format!("workloads {theirs:?} differ from the harness's {ours:?}"));
    }
    for (w, info) in workloads.iter().zip(WORKLOADS) {
        if str_field(w, "why") != info.why {
            bad.push(format!("workload `{}`: why differs from metrics::WORKLOADS", info.name));
        }
    }

    let end_to_end = list("end_to_end");
    if !(1..=16).contains(&end_to_end.len()) {
        bad.push(format!("{} end-to-end metrics; the contract allows 1..=16", end_to_end.len()));
    }
    for m in &end_to_end {
        let name = str_field(m, "name");
        if keys(m) != ["name", "unit", "better", "bound"] {
            bad.push(format!("end-to-end `{name}` must have exactly name, unit, better, bound"));
        }
        claim(name, &mut bad);
        if !is_unit(str_field(m, "unit")) {
            bad.push(format!("end-to-end `{name}`: bad unit `{}`", str_field(m, "unit")));
        }
        match m.get("bound").and_then(Value::as_f64) {
            Some(b) if (0.0..=0.25).contains(&b) => {}
            other => bad.push(format!("end-to-end `{name}`: bound {other:?} outside 0..=0.25")),
        }
        match END_TO_END.iter().find(|e| e.name == name) {
            None => bad.push(format!("end-to-end `{name}` is not in metrics::END_TO_END")),
            Some(e) => {
                if str_field(m, "unit") != e.unit
                    || str_field(m, "better") != e.better.as_str()
                    || m.get("bound").and_then(Value::as_f64) != Some(e.bound)
                {
                    bad.push(format!(
                        "end-to-end `{name}`: unit/better/bound differ from the harness's"
                    ));
                }
            }
        }
    }
    if end_to_end.len() != END_TO_END.len() {
        bad.push("end_to_end does not list every metric of metrics::END_TO_END".into());
    }
    let setup = end_to_end.iter().find(|m| str_field(m, "name") == "setup_s");
    if !setup.is_some_and(|m| str_field(m, "unit") == "s" && str_field(m, "better") == "lower") {
        bad.push("one end-to-end metric must be setup_s, unit s, better lower".into());
    }

    let per_layer = list("per_layer");
    if !(1..=128).contains(&per_layer.len()) {
        bad.push(format!("{} per-layer metrics; the contract allows 1..=128", per_layer.len()));
    }
    for m in &per_layer {
        let name = str_field(m, "name");
        if keys(m) != ["name", "unit", "better"] {
            bad.push(format!("per-layer `{name}` must have exactly name, unit, better"));
        }
        claim(name, &mut bad);
        match PER_LAYER.iter().find(|l| l.name == name) {
            // Every per-layer metric must carry a prediction: the
            // end-to-end metric and workload it should move. Those live
            // in metrics::PER_LAYER, so an unknown name has none.
            None => bad.push(format!("per-layer `{name}` has no prediction in metrics::PER_LAYER")),
            Some(l) => {
                if !is_unit(l.unit)
                    || str_field(m, "unit") != l.unit
                    || str_field(m, "better") != l.better.as_str()
                {
                    bad.push(format!("per-layer `{name}`: unit/better differ from the harness's"));
                }
            }
        }
    }
    if per_layer.len() != PER_LAYER.len() {
        bad.push("per_layer does not list every metric of metrics::PER_LAYER".into());
    }

    bad
}

/// The command and paths of the committed manifest.
const COMMAND: &[&str] = &["bash", "benchmark/run.sh"];
const PATHS: &[&str] = &["benchmark"];
/// How long one run measures. With 4 + 22 x 6 runs in the driver's
/// budget of 3420 s, ten seconds of timed region plus set-up, warm-up
/// and final checks (12-20 s of wall per run) fits with room for both
/// builds; fifteen would not.
const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json` as this harness's tables imply it — what the
/// `manifest` subcommand prints, so the committed file is generated
/// rather than typed.
pub fn render() -> String {
    use serde_json::json;
    let workloads: Vec<Value> =
        WORKLOADS.iter().map(|w| json!({ "name": w.name, "why": w.why })).collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.as_str(), "bound": m.bound }))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.as_str() }))
        .collect();
    let doc = json!({
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    });
    serde_json::to_string_pretty(&doc).expect("the stub writer is total") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    fn good() -> String {
        render()
    }

    #[test]
    fn the_rendered_manifest_passes() {
        let text = good();
        let doc = serde_json::from_str(&text).unwrap();
        assert_eq!(violations(&doc, text.len(), &root()), Vec::<String>::new());
        assert_eq!(run_seconds(&doc), Some(10));
        assert!(bounds(&doc).iter().any(|(n, b, _)| n == "setup_s" && *b == 0.25));
    }

    #[test]
    fn the_committed_manifest_passes() {
        let path = manifest_path();
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json exists at the repo root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(violations(&doc, text.len(), &root()), Vec::<String>::new());
        assert_eq!(text, render(), "BENCHMARK.json is `run.sh manifest`'s output");
    }

    #[test]
    fn violations_are_found() {
        let breakages: [(&str, &str, &str); 8] = [
            ("\"run_seconds\": 10", "\"run_seconds\": 90", "run_seconds"),
            ("\"benchmark\"\n", "\"no/such/dir\"\n", "does not exist"),
            ("\"bound\": 0.25", "\"bound\": 0.5", "outside 0..=0.25"),
            ("\"bound\": 0.2\n", "\"bound\": 0.1\n", "differ from the harness's"),
            ("\"setup_s\"", "\"set up\"", "not a valid name"),
            ("\"name\": \"harness.rounds\"", "\"name\": \"sim.events\"", "used twice"),
            ("\"name\": \"rib.insert_ns\"", "\"name\": \"rib.made_up\"", "no prediction"),
            ("\"benchmark/run.sh\"", "\"crates/bench/src/lib.rs\"", "outside paths"),
        ];
        for (from, to, expect) in breakages {
            let text = good().replacen(from, to, 1);
            assert_ne!(text, good(), "`{from}` must occur in the rendered manifest");
            let doc = serde_json::from_str(&text).unwrap();
            let found = violations(&doc, text.len(), &root());
            assert!(found.iter().any(|v| v.contains(expect)), "{expect}: {found:?}");
        }
        let mut doc = serde_json::from_str(&good()).unwrap();
        doc.as_object_mut().unwrap().push(("latest".into(), Value::Null));
        assert!(violations(&doc, 10, &root()).iter().any(|v| v.contains("exactly the six")));
    }
}
