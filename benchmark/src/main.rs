//! `dbgp-benchmark`: the repo's layered benchmark. See README.md beside
//! this package, and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! dbgp-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one run
//! dbgp-benchmark [--seed N] [--traced] [--reps R] [--out FILE]   every workload (--spans PREFIX: dumps)
//! dbgp-benchmark check                                           validate BENCHMARK.json
//! dbgp-benchmark manifest                                        print the BENCHMARK.json the harness implies
//! dbgp-benchmark tables                                          print README.md's tables
//! dbgp-benchmark compare FIRST.json SECOND.json                  bounds check of two result files
//! ```
//!
//! A one-workload run prints every metric by name with its unit and
//! ends its standard output with one JSON object — the line the driver
//! reads. It exits non-zero when an output check failed.

mod alloc;
mod compare;
mod contract;
mod layers;
mod metrics;
mod procfs;
mod sims;
mod span;
mod stats;
mod stress;
mod tcp;
mod workload;

use layers::{sizes, SimKind};
use metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::{run_untraced, Size, Untraced};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: dbgp-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]\n\
                     \x20                     [--reps R] [--smoke] [--out FILE] [--spans FILE]\n\
                     \x20      dbgp-benchmark check | manifest | tables\n\
                     \x20      dbgp-benchmark compare FIRST.json SECOND.json";

/// Parsed command line of a run.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    reps: usize,
    size: Size,
    out: Option<PathBuf>,
    spans: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        reps: 1,
        size: Size::Full,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |s: &String| s.parse::<f64>().map_err(|_| format!("{flag}: `{s}` is not a number"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed: not a whole number")?,
            "--seconds" => parsed.seconds = Some(number(value()?)?),
            "--trace" => parsed.traced = number(value()?)? != 0.0,
            "--traced" => parsed.traced = true,
            "--reps" => parsed.reps = number(value()?)?.max(1.0) as usize,
            "--smoke" => parsed.size = Size::Smoke,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--spans" => parsed.spans = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// What one run of one workload produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Everything else worth keeping: rounds, exact quantities, errors.
    detail: Value,
}

fn e2e(name: &str, value: f64) -> Metric {
    let m = END_TO_END.iter().find(|m| m.name == name).expect("a metric of metrics::END_TO_END");
    Metric { name: m.name, value, unit: m.unit }
}

fn exact_json(exact: &[(&'static str, u64)]) -> Value {
    Value::Object(exact.iter().map(|(k, v)| (k.to_string(), json!(*v))).collect())
}

fn untraced_outcome(u: Untraced) -> Outcome {
    // Timing is taken from the fastest round. Contention on a shared
    // host only ever slows a round, and does so for seconds at a time,
    // so within a ten-second run the fastest round repeats from run to
    // run where the median does not (README.md has the numbers).
    let min_ms = u.round_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let metrics = vec![
        e2e("setup_s", u.setup_s),
        e2e("ops_per_s", u.ops_per_round as f64 / (min_ms / 1e3)),
        e2e("round_ms_min", min_ms),
        e2e("peak_rss_mb", u.peak_rss_mb),
        e2e("alloc_bytes_per_op", u.alloc_bytes_per_op),
        e2e("wire_bytes_per_op", u.wire_bytes_per_op),
    ];
    let detail = json!({
        "rounds": u.round_ms.len() as u64,
        "ops_per_round": u.ops_per_round,
        "timed_s": u.timed_s(),
        "round_ms_p50": stats::median(&u.round_ms),
        "cpu_us_per_op": u.cpu_s * 1e6 / u.attempted.max(1) as f64,
        "fail_share": u.failed as f64 / u.attempted.max(1) as f64,
        "round_ms": u.round_ms.clone(),
        "exact": exact_json(&u.exact),
        "errors": u.errors.clone(),
    });
    Outcome {
        correct: u.failed == 0 && u.errors.is_empty(),
        attempted: u.attempted,
        failed: u.failed,
        metrics,
        detail,
    }
}

/// What a workload is made of: which traced leg is its own, and the
/// one place a workload name is turned into code.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sim(SimKind),
    Trace { payload: usize },
    Table,
}

fn kind_of(name: &str) -> Result<Kind, String> {
    Ok(match name {
        "sim_flood_waxman1000" => Kind::Sim(SimKind::Flood),
        "sim_churn_waxman50" => Kind::Sim(SimKind::Churn),
        "sim_hier50k" => Kind::Sim(SimKind::Hier),
        "stress_bgponly" => Kind::Trace { payload: 0 },
        "stress_ia32k" => Kind::Trace { payload: sizes::IA32K_PAYLOAD },
        "dbgpd_tcp_table" => Kind::Table,
        other => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload `{other}`; known: {}", known.join(", ")));
        }
    })
}

fn run_workload_untraced(
    name: &str,
    seed: u64,
    seconds: f64,
    size: Size,
) -> Result<Untraced, String> {
    use sims::{SimChurn, SimFlood, SimHier};
    match kind_of(name)? {
        Kind::Sim(SimKind::Flood) => run_untraced(&|| SimFlood::setup(seed, size), seconds),
        Kind::Sim(SimKind::Churn) => run_untraced(&|| SimChurn::setup(seed, size), seconds),
        Kind::Sim(SimKind::Hier) => run_untraced(&|| SimHier::setup(seed, size), seconds),
        Kind::Trace { payload } => run_untraced(
            &|| stress::Stress::setup(seed, sizes::stress_frames(payload, size), payload),
            seconds,
        ),
        Kind::Table => {
            run_untraced(&|| tcp::TcpTable::setup(seed, sizes::table_routes(size)), seconds)
        }
    }
}

/// Wall the traced loops of an off-kind (smoke) leg get, seconds.
const SMOKE_LEG_SECONDS: f64 = 0.3;

/// The traced run of `name`: its own leg at `size` with the time
/// budget, the other two kinds at smoke size, the fixed probes.
fn run_workload_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    size: Size,
    spans_out: Option<&str>,
) -> Result<Outcome, String> {
    let own = kind_of(name)?;
    // Size and time budget of a leg: the run's own leg gets the real ones.
    let leg = |is_own: bool| {
        if is_own {
            (size, seconds * 0.8)
        } else {
            (Size::Smoke, SMOKE_LEG_SECONDS)
        }
    };

    let (sim_kind, (sim_size, sim_seconds)) = match own {
        Kind::Sim(kind) => (kind, leg(true)),
        _ => (SimKind::Churn, leg(false)),
    };
    let sim = layers::sim_leg(sim_kind, seed, sim_size, sim_seconds)?;

    let (payload, (trace_size, trace_seconds)) = match own {
        Kind::Trace { payload } => (payload, leg(true)),
        _ => (0, leg(false)),
    };
    let frames = sizes::stress_frames(payload, trace_size);
    let trace = layers::trace_leg(seed, frames, payload, trace_seconds)?;

    let (table_size, table_seconds) = leg(own == Kind::Table);
    let table = layers::table_leg(seed, table_size, table_seconds)?;

    let own_leg = match own {
        Kind::Sim(_) => &sim,
        Kind::Trace { .. } => &trace,
        Kind::Table => &table,
    };
    let mut values = layers::harness_values(&own_leg.traced);
    for leg in [&sim, &trace, &table] {
        values.extend(leg.values.iter().cloned());
    }
    values.extend(layers::decision_values());
    // Report in the table's order, and insist the table is covered.
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|m| {
            values
                .iter()
                .find(|v| v.name == m.name)
                .cloned()
                .ok_or_else(|| format!("traced run produced no value for {}", m.name))
        })
        .collect::<Result<_, _>>()?;

    let spans = &own_leg.traced.spans;
    if let Some(path) = spans_out {
        span::write_dump(path, name, spans)?;
    }
    let round = &own_leg.traced.round;
    let rounds = own_leg.traced.traced_ms.len() as u64;
    let self_by_name: Vec<(String, Value)> = span::totals_by_name(spans)
        .into_iter()
        .map(|(n, t)| (n.to_string(), json!({ "calls": t.calls, "self_ns": t.self_ns })))
        .collect();
    let detail = json!({
        "rounds": rounds,
        "ops_per_round": round.ops,
        "spans": spans.len() as u64,
        "worst_round_self_share": span::worst_root_self_share(spans),
        "self_by_name": Value::Object(self_by_name),
        "exact": exact_json(&round.exact),
        "errors": Vec::<String>::new(),
    });
    Ok(Outcome {
        correct: round.failed == 0,
        attempted: round.ops * rounds,
        failed: round.failed * rounds,
        metrics,
        detail,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were taken.
fn host_meta() -> Value {
    json!({
        "host_cpus": std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
        "rustc": command_line("rustc", &["--version"]),
        "git_commit": command_line("git", &["rev-parse", "HEAD"]),
        "tcp_path": "host loopback interface (127.0.0.1); no real link",
    })
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), json!({ "value": m.value, "unit": m.unit })))
            .collect(),
    )
}

/// One workload, one run: print the metrics, then the `detail:` line
/// the all-workloads mode collects, then the contract's JSON line.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    kind_of(name)?;
    let seconds = match args.seconds {
        Some(s) => s,
        None => contract::run_seconds(&contract::read_json(&contract::manifest_path())?)
            .ok_or("BENCHMARK.json has no run_seconds")? as f64,
    };
    let outcome = if args.traced {
        run_workload_traced(name, args.seed, seconds, args.size, args.spans.as_deref())?
    } else {
        untraced_outcome(run_workload_untraced(name, args.seed, seconds, args.size)?)
    };
    println!(
        "{name}  seed {}  {}  {} rounds  {} of {} ops failed",
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        outcome.detail.get("rounds").and_then(Value::as_u64).unwrap_or(0),
        outcome.failed,
        outcome.attempted,
    );
    for m in &outcome.metrics {
        println!("  {:<38} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for e in outcome.detail.get("errors").and_then(Value::as_array).into_iter().flatten() {
        println!("  error: {}", e.as_str().unwrap_or("?"));
    }
    let mut detail = json!({
        "workload": name,
        "seed": args.seed,
        "seconds": seconds,
        "traced": args.traced,
        "smoke": args.size == Size::Smoke,
    });
    let fields = detail.as_object_mut().expect("an object literal");
    fields.extend(outcome.detail.as_object().cloned().unwrap_or_default());
    println!("detail: {}", serde_json::to_string(&detail).expect("total writer"));
    let line = json!({
        "correct": outcome.correct,
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": metrics_json(&outcome.metrics),
    });
    println!("{}", serde_json::to_string(&line).expect("total writer"));
    Ok(outcome.correct)
}

/// Median and quartiles of every metric over a workload's runs, and the
/// rounds each run measured.
fn summary(runs: &[Value]) -> Value {
    let names: Vec<(String, Value)> =
        runs.first().and_then(|r| r.get("metrics")?.as_object().cloned()).unwrap_or_default();
    let metrics = names
        .into_iter()
        .map(|(name, first)| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(&name)?.get("value")?.as_f64())
                .collect();
            let (q1, q3) = stats::quartiles(&values);
            let unit = first.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
            (name, json!({ "median": stats::median(&values), "q1": q1, "q3": q3, "unit": unit }))
        })
        .collect();
    let rounds: Vec<u64> = runs.iter().filter_map(|r| r.get("rounds")?.as_u64()).collect();
    json!({ "runs": runs.len() as u64, "rounds": rounds, "metrics": Value::Object(metrics) })
}

/// Every workload, each run in a process of its own (as the driver
/// runs them: peak RSS and warm-up state never leak from one workload
/// into the next), collected into one result file.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut workloads: Vec<(String, Value)> = Vec::new();
    for w in WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..args.reps {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
            cmd.args(["--trace", if args.traced { "1" } else { "0" }]);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.size == Size::Smoke {
                cmd.arg("--smoke");
            }
            if let (true, Some(prefix)) = (args.traced, &args.spans) {
                cmd.args(["--spans", &format!("{prefix}{}.json", w.name)]);
            }
            let output = cmd.output().map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or("");
            let detail_line = lines.pop().unwrap_or("");
            println!("{}", lines.join("\n"));
            let (Ok(line), Some(Ok(detail))) = (
                serde_json::from_str(last),
                detail_line.strip_prefix("detail: ").map(serde_json::from_str),
            ) else {
                return Err(format!("{}: run printed no result (exit {})", w.name, output.status));
            };
            all_correct &= output.status.success()
                && line.get("correct").and_then(Value::as_bool) == Some(true);
            let mut run = detail;
            run.as_object_mut()
                .ok_or("detail line is not an object")?
                .extend(line.as_object().cloned().unwrap_or_default());
            runs.push(run);
        }
        workloads.push((w.name.to_string(), json!({ "summary": summary(&runs), "runs": runs })));
    }
    let doc = json!({
        "schema": "dbgp-benchmark/v1",
        "meta": host_meta(),
        "seed": args.seed,
        "traced": args.traced,
        "reps": args.reps as u64,
        "workloads": Value::Object(workloads),
    });
    let out = args.out.clone().unwrap_or_else(|| {
        let kind = if args.traced { "traced" } else { "untraced" };
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/result-seed{}-{kind}.json", args.seed))
    });
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&doc).expect("total writer") + "\n";
    std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    Ok(all_correct)
}

fn check() -> Result<bool, String> {
    let path = contract::manifest_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc =
        serde_json::from_str(&text).map_err(|_| format!("{}: not valid JSON", path.display()))?;
    let root = path.parent().expect("a file has a parent");
    let found = contract::violations(&doc, text.len(), root);
    for v in &found {
        println!("BENCHMARK.json: {v}");
    }
    if found.is_empty() {
        println!(
            "BENCHMARK.json: ok ({} workloads, {} end-to-end, {} per-layer metrics)",
            WORKLOADS.len(),
            END_TO_END.len(),
            PER_LAYER.len()
        );
    }
    Ok(found.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => check(),
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => {
                compare::run(Path::new(a), Path::new(b)).map(|breached| !breached)
            }
            _ => Err(USAGE.to_string()),
        },
        Some("manifest") => {
            print!("{}", contract::render());
            Ok(true)
        }
        Some("tables") => {
            print!("{}", metrics::markdown_tables());
            Ok(true)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_args(&args).and_then(|parsed| match parsed.workload.clone() {
            Some(name) => run_one(&parsed, &name),
            None => run_all(&parsed),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dbgp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at smoke size, end to end: set-up, warm-up, a few
    /// rounds, every output check — including the live `dbgpd` and its
    /// dump comparison — and every end-to-end metric present and
    /// positive.
    #[test]
    fn smoke_run_of_every_workload_passes_every_check() {
        for w in WORKLOADS {
            let run = run_workload_untraced(w.name, 7, 0.05, Size::Smoke)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(run.errors.is_empty(), "{}: {:?}", w.name, run.errors);
            let outcome = untraced_outcome(run);
            assert!(outcome.correct && outcome.failed == 0, "{} failed ops", w.name);
            assert!(outcome.attempted > 0);
            assert_eq!(outcome.metrics.len(), END_TO_END.len());
            for m in &outcome.metrics {
                assert!(
                    m.value > 0.0 && m.value.is_finite(),
                    "{}: {} = {}",
                    w.name,
                    m.name,
                    m.value
                );
            }
        }
    }

    /// The same seed gives the same inputs: the exact quantities of two
    /// runs agree; another seed's differ.
    #[test]
    fn exact_quantities_repeat_per_seed() {
        let exact = |seed| {
            run_workload_untraced("sim_churn_waxman50", seed, 0.01, Size::Smoke).unwrap().exact
        };
        assert_eq!(exact(3), exact(3));
        assert_ne!(exact(3), exact(4));
    }

    /// A traced smoke run reports the whole per-layer table, in order,
    /// and its leaf spans tile their rounds.
    #[test]
    fn traced_smoke_run_reports_every_per_layer_metric() {
        let outcome = run_workload_traced("stress_bgponly", 7, 0.2, Size::Smoke, None).unwrap();
        assert!(outcome.correct);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
        for m in &outcome.metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        let unattributed =
            outcome.detail.get("worst_round_self_share").and_then(Value::as_f64).unwrap();
        assert!(unattributed < 0.05, "round self share {unattributed}");
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload stress_ia32k --seed 9 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.as_deref(), Some("stress_ia32k"));
        assert_eq!((a.seed, a.seconds, a.traced), (9, Some(10.0), true));
        assert!(parse_args(&["--bogus".to_string()]).is_err());
        assert!(parse_args(&["--seed".to_string()]).is_err());
    }
}
