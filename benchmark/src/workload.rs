//! What a workload is, and the two loops that run one: the untraced
//! loop that produces the end-to-end metrics and the traced loop that
//! produces spans.
//!
//! Every workload is a closed loop with one client: the next round
//! starts only after the previous one finished. A round is one timed
//! region over identical inputs; a run is one discarded warm-up round
//! (the first round of a process runs 20–50 % slow) followed by as many
//! rounds as fit in `--seconds`.

use crate::span::{NoTrace, Span, Trace, Tracer};
use crate::{alloc, procfs, stats};
use dbgp_sim::PhaseTimes;
use std::time::Instant;

/// Input scale. `Full` is what `BENCHMARK.json`'s numbers are recorded
/// at; `Smoke` is roughly 1/50 of it, for the self-tests and for the
/// layers a traced run reports beside its own workload's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The recorded size.
    Full,
    /// About 1/50 of it.
    Smoke,
}

impl Size {
    /// Pick by size.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// Outcome of one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// Operations attempted (events, advertisements, route changes).
    pub ops: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Bytes the program under test put on the wire.
    pub wire_bytes: u64,
    /// Exactly reproducible quantities of the round. Every round of a
    /// run must report the same values; so must every run of one seed.
    pub exact: Vec<(&'static str, u64)>,
}

/// What [`Workload::finish`] reports after the last round.
#[derive(Debug, Clone, Default)]
pub struct Finish {
    /// Allocated bytes per operation, when the harness's own counting
    /// allocator cannot see the process under test.
    pub alloc_bytes_per_op: Option<f64>,
    /// Further exact facts for the fingerprint.
    pub exact: Vec<(&'static str, u64)>,
}

/// One benchmark workload, already set up from a seed.
pub trait Workload {
    /// Release what the previous round left behind (a converged
    /// simulator can take half a second to free). Untimed and not part
    /// of any measurement; always called before `prepare`.
    fn reset(&mut self) {}

    /// Untimed work before each round: a fresh simulator or speaker, so
    /// that every round starts cold from identical state. `traced` is
    /// true before a traced round. Its wall is measured: it is part of
    /// `setup_s`, and `sim.build_ms` for the simulator workloads.
    fn prepare(&mut self, traced: bool) -> Result<(), String>;

    /// The timed region. Calls `trace` at every layer boundary.
    fn round<T: Trace>(&mut self, trace: &mut T) -> Round;

    /// Untimed check of the state the round just left behind (every node
    /// holds a route to every origin, say). An error fails all of the
    /// round's operations.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }

    /// The process under test (the harness itself unless overridden).
    fn pid(&self) -> u32 {
        std::process::id()
    }

    /// Final output checks, once, after the last round.
    fn finish(&mut self) -> Result<Finish, String> {
        Ok(Finish::default())
    }

    /// Simulator phase times of the round just run, when the workload
    /// is a simulation prepared with `traced`.
    fn phase_times(&self) -> Option<PhaseTimes> {
        None
    }
}

/// Rounds measured even when `--seconds` is shorter than one round.
const MIN_ROUNDS: usize = 3;
/// Set-ups timed per window, at least.
const MIN_SETUPS: usize = 3;
/// Set-ups are timed in two windows, one before the rounds and one
/// after them, each this long (a millisecond-scale median needs many
/// samples to hold still)…
const SETUP_WINDOW_S: f64 = 0.75;
/// …or this many set-ups, whichever comes first. High enough that time
/// ends the window for every workload (the cheapest set-up takes 2 ms):
/// a window on a quiet host must yield more samples than a disturbed
/// one for the median to fall among the quiet ones.
const MAX_SETUPS: usize = 1_000;

/// One window of timed set-ups (input generation + one `prepare`). Only
/// the last instance is kept: each earlier one is dropped (killing its
/// child, freeing its inputs) before the next is timed, so the process
/// never holds two.
fn time_setups<W: Workload>(
    setup: &dyn Fn() -> Result<W, String>,
    samples: &mut Vec<f64>,
) -> Result<W, String> {
    let mut kept: Option<W> = None;
    let started = Instant::now();
    let mut n = 0;
    while n < MIN_SETUPS || (started.elapsed().as_secs_f64() < SETUP_WINDOW_S && n < MAX_SETUPS) {
        drop(kept.take());
        let t = Instant::now();
        let mut w = setup()?;
        w.prepare(false)?;
        samples.push(t.elapsed().as_secs_f64());
        kept = Some(w);
        n += 1;
    }
    Ok(kept.expect("at least one set-up ran"))
}

/// Everything the untraced run measured.
#[derive(Debug, Clone)]
pub struct Untraced {
    /// Median set-up wall (input generation + one `prepare`) over both
    /// windows, seconds.
    pub setup_s: f64,
    /// Wall of every timed round, ms.
    pub round_ms: Vec<f64>,
    /// Operations attempted over the timed rounds.
    pub attempted: u64,
    /// Operations failed over the timed rounds.
    pub failed: u64,
    /// Operations per round (rounds are identical).
    pub ops_per_round: u64,
    /// CPU seconds of the process under test inside timed rounds.
    pub cpu_s: f64,
    /// `VmHWM` of the process under test, MiB.
    pub peak_rss_mb: f64,
    /// Allocated bytes per operation (median round).
    pub alloc_bytes_per_op: f64,
    /// Wire bytes per operation (median round).
    pub wire_bytes_per_op: f64,
    /// The exact quantities of a round plus those of `finish`.
    pub exact: Vec<(&'static str, u64)>,
    /// What went wrong, if anything did; empty when every check held.
    pub errors: Vec<String>,
}

impl Untraced {
    /// Timed wall over all rounds, seconds.
    pub fn timed_s(&self) -> f64 {
        self.round_ms.iter().sum::<f64>() / 1e3
    }
}

/// The end-to-end measurement: set up several times, warm up once, then
/// run identical rounds until `seconds` of timed region have elapsed.
pub fn run_untraced<W: Workload>(
    setup: &dyn Fn() -> Result<W, String>,
    seconds: f64,
) -> Result<Untraced, String> {
    let mut setup_samples = Vec::new();
    let mut w = time_setups(setup, &mut setup_samples)?;

    // Warm-up round, discarded (its `prepare` ran as part of set-up).
    let reference = w.round(&mut NoTrace);

    let pid = w.pid();
    let mut out = Untraced {
        setup_s: 0.0,
        round_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        ops_per_round: reference.ops,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        alloc_bytes_per_op: 0.0,
        wire_bytes_per_op: 0.0,
        exact: reference.exact.clone(),
        errors: Vec::new(),
    };
    let mut alloc_per_op = Vec::new();
    let mut wire_per_op = Vec::new();
    let mut timed = 0.0;
    while timed < seconds || out.round_ms.len() < MIN_ROUNDS {
        w.reset();
        w.prepare(false)?;
        let cpu_before = procfs::cpu_seconds(pid)?;
        let started = Instant::now();
        let (round, allocated) = alloc::count(|| w.round(&mut NoTrace));
        let wall = started.elapsed().as_secs_f64();
        out.cpu_s += procfs::cpu_seconds(pid)? - cpu_before;
        timed += wall;
        out.round_ms.push(wall * 1e3);
        out.attempted += round.ops;
        // A round that does not reproduce the reference round's exact
        // quantities did different work: all of its operations fail.
        if round.exact != reference.exact || round.ops != reference.ops {
            out.failed += round.ops;
            out.errors.push(format!(
                "round {} diverged from the warm-up round: {:?} vs {:?}",
                out.round_ms.len(),
                round.exact,
                reference.exact
            ));
        } else if let Err(e) = w.check() {
            out.failed += round.ops;
            out.errors.push(format!("round {}: {e}", out.round_ms.len()));
        } else {
            out.failed += round.failed;
        }
        let ops = round.ops.max(1) as f64;
        alloc_per_op.push(allocated as f64 / ops);
        wire_per_op.push(round.wire_bytes as f64 / ops);
        if round.failed > 0 && out.errors.len() < 8 {
            out.errors.push(format!(
                "round {}: {} of {} ops failed",
                out.round_ms.len(),
                round.failed,
                round.ops
            ));
        }
        // A round that did none of its work (the daemon is gone, say)
        // returns at once; waiting for `seconds` of such rounds to add
        // up would spin for hours. The run has failed: stop here.
        if round.failed >= round.ops {
            break;
        }
    }
    out.alloc_bytes_per_op = stats::median(&alloc_per_op);
    out.wire_bytes_per_op = stats::median(&wire_per_op);
    // Peak RSS is read while the process under test is still alive;
    // `finish` may wait for a child to exit.
    // A child that died has none: that is an error of the run, reported
    // with whatever `finish` can say about why.
    out.peak_rss_mb = procfs::peak_rss_mb(pid).unwrap_or_else(|e| {
        out.errors.push(e);
        0.0
    });
    match w.finish() {
        Ok(finish) => {
            if let Some(v) = finish.alloc_bytes_per_op {
                out.alloc_bytes_per_op = v;
            }
            out.exact.extend(finish.exact);
        }
        Err(e) => {
            // A failed final check fails the whole workload.
            out.failed = out.attempted;
            out.errors.push(e);
        }
    }
    // The second set-up window, a run's length after the first. Another
    // tenant's burst slows this host for seconds at a time; it rarely
    // covers both windows, and the clean window yields more samples in
    // the same time, so it is the clean one that holds the median.
    drop(w);
    if out.errors.is_empty() {
        drop(time_setups(setup, &mut setup_samples)?);
    }
    out.setup_s = stats::median(&setup_samples);
    Ok(out)
}

/// Everything the traced loop recorded.
pub struct Traced {
    /// Every span of every traced round; roots are named `round`.
    pub spans: Vec<Span>,
    /// Wall of the traced rounds, ms.
    pub traced_ms: Vec<f64>,
    /// Wall of the untraced rounds interleaved with them, ms.
    pub untraced_ms: Vec<f64>,
    /// `prepare` wall before each untraced round, ms.
    pub prepare_ms: Vec<f64>,
    /// The (identical) outcome of the rounds.
    pub round: Round,
    /// Simulator phase times of each traced round, if a simulation.
    pub phases: Vec<PhaseTimes>,
    /// Bytes still held after `prepare` + the warm-up round.
    pub live_bytes: u64,
    /// CPU seconds of the process under test over the untraced rounds.
    pub cpu_s: f64,
}

/// The traced measurement: one warm-up, then untraced and traced rounds
/// in alternation (so drift on a shared host hits both alike) until
/// `seconds` have gone by and at least two pairs ran.
pub fn run_traced<W: Workload>(w: &mut W, seconds: f64) -> Result<Traced, String> {
    let (warm, live_bytes) = alloc::live(|| w.prepare(false).map(|()| w.round(&mut NoTrace)));
    let reference = warm?;
    let pid = w.pid();
    let mut tracer = Tracer::new();
    let mut out = Traced {
        spans: Vec::new(),
        traced_ms: Vec::new(),
        untraced_ms: Vec::new(),
        prepare_ms: Vec::new(),
        round: reference.clone(),
        phases: Vec::new(),
        live_bytes,
        cpu_s: 0.0,
    };
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || out.traced_ms.len() < 2 {
        w.reset();
        let t = Instant::now();
        w.prepare(false)?;
        out.prepare_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let cpu_before = procfs::cpu_seconds(pid)?;
        let t = Instant::now();
        let plain = w.round(&mut NoTrace);
        out.untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.cpu_s += procfs::cpu_seconds(pid)? - cpu_before;

        w.reset();
        w.prepare(true)?;
        tracer.set_round(out.traced_ms.len() as u32);
        let t = Instant::now();
        tracer.enter("round");
        let traced = w.round(&mut tracer);
        tracer.exit();
        out.traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.phases.extend(w.phase_times());
        if plain != reference || traced != reference {
            return Err("a traced-run round diverged from the warm-up round".into());
        }
    }
    out.spans = tracer.into_spans();
    Ok(out)
}
