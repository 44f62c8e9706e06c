//! `compare`: hold two result files against each other under the
//! bounds of `BENCHMARK.json`.
//!
//! For every (workload, end-to-end metric) pair the medians of the two
//! run sets are compared in the metric's worse direction. A difference
//! past the bound is a breach. A difference within it counts as "ok"
//! only when both run sets are steadier than the bound; otherwise the
//! pair is "unresolved" — unless every run of the second set reads
//! better than every run of the first, which no amount of spread can
//! explain away. Exactly reproducible quantities must be equal outright
//! when both files hold the same seed.

use crate::contract;
use crate::metrics::Better;
use crate::stats;
use serde_json::Value;
use std::path::Path;

/// Outcome of one (workload, metric) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, both sides steady.
    Ok,
    /// Within the bound, but a side's spread exceeds it.
    Unresolved,
    /// Worse by more than the bound.
    Breach,
}

/// Relative change of `b` against `a` in the worse direction (positive
/// = worse).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict for one pair of run sets.
pub fn judge(a: &[f64], b: &[f64], bound: f64, better: Better) -> Verdict {
    let worse = worse_by(stats::median(a), stats::median(b), better);
    if worse > bound {
        return Verdict::Breach;
    }
    let steady = stats::iqr_share(a) <= bound && stats::iqr_share(b) <= bound;
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let all_better = match better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    if steady || all_better {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

/// The untraced runs of one workload in a result file.
fn untraced_runs<'a>(doc: &'a Value, workload: &str) -> Vec<&'a Value> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Value::as_array)
        .map(|runs| {
            runs.iter()
                .filter(|r| r.get("traced").and_then(Value::as_bool) == Some(false))
                .collect()
        })
        .unwrap_or_default()
}

fn metric_values(runs: &[&Value], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64()).collect()
}

/// Exact quantities per seed: `(seed, rendered exact object)`.
fn exact_by_seed(runs: &[&Value]) -> Vec<(u64, String)> {
    runs.iter()
        .filter_map(|r| {
            let seed = r.get("seed")?.as_u64()?;
            Some((seed, serde_json::to_string(r.get("exact")?).ok()?))
        })
        .collect()
}

/// Compare two result files; prints a table and returns whether
/// anything breached.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let manifest = contract::read_json(&contract::manifest_path())?;
    let bounds = contract::bounds(&manifest);
    let (a, b) = (contract::read_json(a_path)?, contract::read_json(b_path)?);
    let names: Vec<String> = a
        .get("workloads")
        .and_then(Value::as_object)
        .map(|w| w.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>8} {:>6} {:>7} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse", "bound", "iqr1", "iqr2"
    );
    let mut breached = false;
    for workload in &names {
        let (ra, rb) = (untraced_runs(&a, workload), untraced_runs(&b, workload));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        for (metric, bound, better) in &bounds {
            let (va, vb) = (metric_values(&ra, metric), metric_values(&rb, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, *bound, *better);
            breached |= verdict == Verdict::Breach;
            println!(
                "{:<22} {:<20} {:>14.6} {:>14.6} {:>+7.2}% {:>5.0}% {:>6.2}% {:>6.2}%  {}{}",
                workload,
                metric,
                stats::median(&va),
                stats::median(&vb),
                100.0 * worse_by(stats::median(&va), stats::median(&vb), *better),
                100.0 * bound,
                100.0 * stats::iqr_share(&va),
                100.0 * stats::iqr_share(&vb),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Breach => "BREACH",
                },
                format_args!(" (n={}/{})", va.len(), vb.len()),
            );
        }
        for (run_set, label) in [(&ra, "first"), (&rb, "second")] {
            let failed: u64 =
                run_set.iter().filter_map(|r| r.get("failed").and_then(Value::as_u64)).sum();
            if failed > 0 {
                println!("{workload:<22} {failed} operations failed in the {label} file: BREACH");
                breached = true;
            }
        }
        let (ea, eb) = (exact_by_seed(&ra), exact_by_seed(&rb));
        for (seed, exact) in &ea {
            for (_, other) in eb.iter().filter(|(s, _)| s == seed) {
                if other != exact {
                    println!("{workload:<22} exact quantities differ at seed {seed}: BREACH");
                    println!("    first  {exact}\n    second {other}");
                    breached = true;
                }
            }
        }
    }
    Ok(breached)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
    }

    #[test]
    fn verdicts() {
        let steady_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let steady_b = [103.0, 104.0, 102.0, 103.5, 102.5];
        assert_eq!(judge(&steady_a, &steady_b, 0.10, Better::Lower), Verdict::Ok);
        assert_eq!(judge(&steady_a, &steady_b, 0.02, Better::Lower), Verdict::Breach);
        // The same 3 % shift the other way is an improvement.
        assert_eq!(judge(&steady_b, &steady_a, 0.02, Better::Lower), Verdict::Ok);
        // Medians agree but one side's spread exceeds the bound.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&steady_a, &noisy, 0.10, Better::Lower), Verdict::Unresolved);
        // Every run of the second set beats every run of the first: no
        // spread explains that away.
        let fast = [50.0, 70.0, 60.0, 40.0, 65.0];
        assert_eq!(judge(&noisy, &fast, 0.10, Better::Lower), Verdict::Ok);
    }
}
