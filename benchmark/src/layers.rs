//! The traced run: every per-layer metric, from harness spans and from
//! probes that call one layer's public functions directly.
//!
//! The ledger has three legs, one per kind of input — a simulated
//! topology, an IA trace, a routing table — plus a few probes on fixed
//! synthetic inputs. A traced run of workload W runs W's own leg at
//! full size with most of the time budget, and the other two legs at
//! smoke size, so that every metric in `metrics::PER_LAYER` is a real
//! measurement in every run; README.md says which size each row of a
//! run was taken at. `harness.*` always describes W's own leg.

use crate::metrics::{layer_value, Metric};
use crate::sims::{SimChurn, SimFlood, SimHier, SimShape};
use crate::span::{self, NameTotal, NoTrace};
use crate::stats;
use crate::stress::{Classic, Stress};
use crate::tcp::{self, Layered, NodeReplay, RefNode, Table, TcpTable};
use crate::workload::{run_traced, Size, Traced, Workload};
use dbgp_core::{BgpDecision, CandidateIa, DecisionModule, IaDb, NeighborId};
use dbgp_protocols::wiser::{set_path_cost, WiserModule};
use dbgp_rib::PrefixTrie;
use dbgp_sim::EventQueue;
use dbgp_wire::message::BgpMessage;
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, IslandId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Sizes of the named workloads; the one place they are written down.
pub mod sizes {
    use crate::workload::Size;

    /// Descriptor payload of a `stress_ia32k` IA.
    pub const IA32K_PAYLOAD: usize = 32 << 10;
    /// Advertisements per stress round: 50,000 for `stress_bgponly`
    /// (payload 0), 2,000 for `stress_ia32k` — about 64 MB of frames.
    pub fn stress_frames(payload: usize, size: Size) -> usize {
        if payload == 0 {
            size.pick(50_000, 1_000)
        } else {
            size.pick(2_000, 40)
        }
    }
    /// Routes in the `dbgpd_tcp_table` table.
    pub fn table_routes(size: Size) -> usize {
        size.pick(100_000, 2_000)
    }
}

/// What a leg hands back: its metrics, and — for when it is the run's
/// own leg — the traced loop over the workload itself, from which
/// `harness.*` and the span dump are made.
pub struct Leg {
    /// Per-layer metrics of this leg.
    pub values: Vec<Metric>,
    /// Round walls and spans of the leg's principal workload.
    pub traced: Traced,
}

/// Median wall of `f` over `reps` calls, ns.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// Summed self time of the spans named `name`, ns.
fn self_ns(totals: &BTreeMap<&'static str, NameTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_ns as f64)
}

/// `harness.*` for the run's own leg.
pub fn harness_values(traced: &Traced) -> Vec<Metric> {
    let p50 = stats::median(&traced.untraced_ms);
    let ops = (traced.round.ops * traced.untraced_ms.len() as u64).max(1);
    vec![
        layer_value("harness.trace_overhead_ratio", stats::median(&traced.traced_ms) / p50),
        layer_value("harness.round_ms_p50", p50),
        layer_value("harness.round_ms_p90", stats::percentile(&traced.untraced_ms, 90.0)),
        layer_value("harness.round_iqr_share", stats::iqr_share(&traced.untraced_ms)),
        layer_value("harness.rounds", traced.untraced_ms.len() as f64),
        layer_value("harness.cpu_us_per_op", traced.cpu_s * 1e6 / ops as f64),
    ]
}

// ----- simulated-topology leg ---------------------------------------------

/// Which simulator workload a sim leg replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// `sim_flood_waxman1000`.
    Flood,
    /// `sim_churn_waxman50`.
    Churn,
    /// `sim_hier50k`.
    Hier,
}

/// `sim.queue_ns_per_event`: steady-state `schedule_at` + `pop` on an
/// `EventQueue` holding `depth` events spread over a link-delay-sized
/// window, the shape a flood keeps the queue in.
fn queue_ns_per_event(depth: usize) -> f64 {
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(depth);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut delay = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        1 + x % 64
    };
    for i in 0..depth as u64 {
        queue.schedule_at(delay(), i);
    }
    let pairs = 200_000;
    median_ns(5, || {
        for _ in 0..pairs {
            let (at, event) = queue.pop().expect("queue stays at depth");
            queue.schedule_at(at + delay(), black_box(event));
        }
    }) / pairs as f64
}

fn sim_values<W: Workload + SimShape>(w: &mut W, seconds: f64) -> Result<Leg, String> {
    let traced = run_traced(w, seconds)?;
    let run_ns = self_ns(&span::totals_by_name(&traced.spans), "sim.run");
    let sum = |f: fn(&dbgp_sim::PhaseTimes) -> u64| traced.phases.iter().map(f).sum::<u64>() as f64;
    let (decode, decide, encode, queue) = (
        sum(|p| p.decode_ns) / run_ns,
        sum(|p| p.decide_ns) / run_ns,
        sum(|p| p.encode_ns) / run_ns,
        sum(|p| p.queue_ns) / run_ns,
    );
    let exact = |name: &str| {
        traced.round.exact.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v as f64)
    };
    let (encoded, hits) = (exact("updates_encoded"), exact("encode_cache_hits"));
    let (avoided, changes) = (exact("full_scans_avoided"), exact("best_changes"));
    let values = vec![
        layer_value("sim.decode_share", decode),
        layer_value("sim.decide_share", decide),
        layer_value("sim.encode_share", encode),
        layer_value("sim.queue_share", queue),
        layer_value("sim.unattributed_share", 1.0 - decode - decide - encode - queue),
        layer_value("sim.events", exact("events")),
        layer_value("sim.messages", exact("messages")),
        layer_value("sim.updates_encoded", encoded),
        layer_value("sim.encode_cache_hit_ratio", hits / (hits + encoded).max(1.0)),
        layer_value("core.full_scan_avoided_ratio", avoided / (avoided + changes).max(1.0)),
        layer_value("core.best_changes", changes),
        layer_value("sim.queue_ns_per_event", queue_ns_per_event(2 * w.edges())),
        layer_value("sim.build_ms", stats::median(&traced.prepare_ms)),
        layer_value("sim.bytes_per_node", traced.live_bytes as f64 / w.nodes() as f64),
    ];
    Ok(Leg { values, traced })
}

/// `telemetry.recording_overhead_ratio`: churn rounds with and without a
/// `TraceRecorder`, interleaved.
fn recording_overhead(seed: u64, size: Size, pairs: usize) -> Result<Metric, String> {
    let mut churn = SimChurn::setup(seed, size)?;
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    for i in 0..=pairs {
        for (record, samples) in [(false, &mut plain), (true, &mut recorded)] {
            churn.record = record;
            churn.reset();
            churn.prepare(false)?;
            let t = Instant::now();
            churn.round(&mut NoTrace);
            // The first pair warms the process up and is not kept.
            if i > 0 {
                samples.push(t.elapsed().as_secs_f64());
            }
        }
    }
    let ratio = stats::median(&recorded) / stats::median(&plain);
    Ok(layer_value("telemetry.recording_overhead_ratio", ratio))
}

/// The simulated-topology leg.
pub fn sim_leg(kind: SimKind, seed: u64, size: Size, seconds: f64) -> Result<Leg, String> {
    let mut leg = match kind {
        SimKind::Flood => sim_values(&mut SimFlood::setup(seed, size)?, seconds)?,
        SimKind::Churn => sim_values(&mut SimChurn::setup(seed, size)?, seconds)?,
        SimKind::Hier => sim_values(&mut SimHier::setup(seed, size)?, seconds)?,
    };
    // Recording overhead is a churn figure: full size when churn is the
    // workload being traced, smoke size beside any other.
    let churn_size = if kind == SimKind::Churn { size } else { Size::Smoke };
    leg.values.push(recording_overhead(seed, churn_size, churn_size.pick(8, 4))?);
    Ok(leg)
}

// ----- IA-trace leg ---------------------------------------------------------

/// The IA-trace leg: the stress loop under spans, and the classic
/// speaker on a trace of equal length for the D-BGP tax.
pub fn trace_leg(seed: u64, frames: usize, payload: usize, seconds: f64) -> Result<Leg, String> {
    let mut stress = Stress::setup(seed, frames, payload)?;
    let traced = run_traced(&mut stress, seconds * 0.7)?;
    let advs = (frames * traced.traced_ms.len()) as f64;
    let totals = span::totals_by_name(&traced.spans);

    let mut classic = Classic::setup(seed, frames)?;
    let classic_runs = run_traced(&mut classic, seconds * 0.3)?;
    let classic_ms = stats::median(&classic_runs.untraced_ms);
    let dbgp_ms = stats::median(&traced.untraced_ms);

    let values = vec![
        layer_value("wire.ia_decode_ns_per_adv", self_ns(&totals, "wire.ia_decode") / advs),
        layer_value("wire.ia_encode_ns_per_adv", self_ns(&totals, "wire.ia_encode") / advs),
        layer_value("wire.ia_bytes_per_adv", stress.bytes_per_frame()),
        layer_value("core.receive_ia_ns_per_adv", self_ns(&totals, "core.receive_ia") / advs),
        layer_value("bgp.classic_adv_per_s", frames as f64 / (classic_ms / 1e3)),
        layer_value("bgp.dbgp_tax_ratio", dbgp_ms / classic_ms),
    ];
    Ok(Leg { values, traced })
}

// ----- routing-table leg ----------------------------------------------------

/// `rib.*`: insert, look up and remove every prefix of the table.
fn rib_values(prefixes: &[Ipv4Prefix]) -> Vec<Metric> {
    let n = prefixes.len() as f64;
    let mut trie: PrefixTrie<u32> = PrefixTrie::new();
    let (mut insert, mut lookup, mut remove) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        for (i, p) in prefixes.iter().enumerate() {
            trie.insert(*p, i as u32);
        }
        insert.push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        for p in prefixes {
            black_box(trie.longest_match(p.network()));
        }
        lookup.push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        for p in prefixes {
            black_box(trie.remove(p));
        }
        remove.push(t.elapsed().as_nanos() as f64 / n);
    }
    vec![
        layer_value("rib.insert_ns", stats::median(&insert)),
        layer_value("rib.longest_match_ns", stats::median(&lookup)),
        layer_value("rib.remove_ns", stats::median(&remove)),
    ]
}

/// The routing-table leg: the table's frames through the codec, the
/// trie, the session and routing cores one layer at a time, the whole
/// `Node`, and a live `dbgpd`.
pub fn table_leg(seed: u64, size: Size, seconds: f64) -> Result<Leg, String> {
    let routes = sizes::table_routes(size);
    let table = Table::generate(seed, routes);
    let changes = 2.0 * routes as f64; // route changes per round

    // Standalone decode of the announcement frames.
    let decode_ns = median_ns(7, || {
        for frame in &table.announce_frames {
            let mut buf = bytes::BytesMut::from(&frame[..]);
            black_box(BgpMessage::decode(&mut buf, true).expect("a generated frame decodes"));
        }
    });

    // Layer by layer, under spans.
    let mut layered = Layered::new(table.clone());
    let traced = run_traced(&mut layered, seconds * 0.4)?;
    let totals = span::totals_by_name(&traced.spans);
    let per_change =
        |name: &str| self_ns(&totals, name) / (changes * traced.traced_ms.len() as f64);
    // bytes_in frames and decodes; what is left after the standalone
    // decode of the same frames is reassembly and the session FSM.
    // (Withdrawal frames are a handful, so the announce frames stand
    // for the round's decode work.)
    let reassemble = (per_change("session.bytes_in") - decode_ns / changes).max(0.0);

    // The whole Node, then the live daemon.
    let node_runs = run_traced(&mut NodeReplay::new(table.clone()), seconds * 0.2)?;
    let node_ns = stats::median(&node_runs.untraced_ms) * 1e6 / changes;
    let mut live = TcpTable::setup(seed, routes)?;
    let handshake_ms = live.handshake_ms;
    let mut live_runs = run_traced(&mut live, seconds * 0.4)?;
    drop(live); // kills and reaps dbgpd
    if traced.round.exact != live_runs.round.exact {
        return Err(format!(
            "live dbgpd exported {:?}, the layered replay {:?}",
            live_runs.round.exact, traced.round.exact
        ));
    }
    let live_ns = stats::median(&live_runs.untraced_ms) * 1e6 / changes;
    let live_wall_s = live_runs.untraced_ms.iter().sum::<f64>() / 1e3;
    let live_totals = span::totals_by_name(&live_runs.spans);
    let phase_s = |name: &str| self_ns(&live_totals, name) / 1e9 / live_runs.traced_ms.len() as f64;
    let exact = |name: &str| {
        live_runs.round.exact.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v as f64)
    };

    let mut node = RefNode::establish()?;
    node.feed(&table.announce);
    let rib_bytes_per_route = node.rib_bytes() as f64 / node.routes().max(1) as f64;

    let mut values = vec![
        layer_value("wire.update_decode_ns_per_route", decode_ns / routes as f64),
        layer_value("wire.update_encode_ns_per_route", per_change("wire.update_encode")),
        layer_value("rib.bytes_per_route", rib_bytes_per_route),
        layer_value("session.routing_update_ns_per_route", per_change("session.routing_update")),
        layer_value("session.reassemble_ns_per_route", reassemble),
        layer_value(
            "session.handshake_us",
            stats::median(&(0..9).map(|_| tcp::session_handshake_us()).collect::<Vec<_>>()),
        ),
        layer_value("daemon.node_ns_per_route", node_ns),
        layer_value("daemon.io_overhead_share", 1.0 - node_ns / live_ns),
        layer_value("daemon.cpu_util", live_runs.cpu_s / live_wall_s),
        layer_value("daemon.announce_routes_per_s", routes as f64 / phase_s("daemon.announce")),
        layer_value("daemon.withdraw_routes_per_s", routes as f64 / phase_s("daemon.withdraw")),
        layer_value("daemon.frames_out_per_route", exact("frames_out") / changes),
        layer_value("daemon.bytes_out_per_route", exact("bytes_out") / changes),
        layer_value("daemon.handshake_ms", handshake_ms),
    ];
    values.extend(rib_values(&table.prefixes));
    // `harness.*` describes the live rounds — they are the workload —
    // and the dump holds the layered replay's spans followed by the live
    // rounds' two phases each.
    live_runs.spans = span::concat(&traced.spans, &live_runs.spans);
    Ok(Leg { values, traced: live_runs })
}

// ----- probes on fixed synthetic inputs -------------------------------------

/// Neighbors holding a route to the probed prefix.
const CANDIDATES: u32 = 8;

/// `core.iadb_candidates_ns` and `protocols.select_best_ns_*`: one
/// prefix held by eight neighbors with path lengths 2–5, Wiser costs
/// attached, among a few hundred other prefixes per neighbor.
pub fn decision_values() -> Vec<Metric> {
    let prefix: Ipv4Prefix = "128.6.0.0/16".parse().expect("literal prefix");
    let mut db = IaDb::new();
    for n in 0..CANDIDATES {
        for filler in 0..256u32 {
            let p = Ipv4Prefix::new(Ipv4Addr(0x0A00_0000 + (filler << 8)), 24).expect("/24");
            db.insert(NeighborId(n), Ia::originate(p, Ipv4Addr::new(192, 0, 2, 1)));
        }
        let mut ia = Ia::originate(prefix, Ipv4Addr::new(192, 0, 2, 1));
        for hop in 0..(2 + n % 4) {
            ia.prepend_as(64_512 + n * 8 + hop);
        }
        set_path_cost(&mut ia, u64::from(100 + (n * 37) % 60));
        db.insert(NeighborId(n), ia);
    }
    let reps = 20_000;
    let candidates_ns = median_ns(9, || {
        for _ in 0..reps {
            black_box(db.candidates(black_box(&prefix)).count());
        }
    }) / reps as f64;

    let candidates: Vec<CandidateIa<'_>> = db
        .candidates(&prefix)
        .map(|(neighbor, ia)| CandidateIa { neighbor, neighbor_as: 65_000 + neighbor.0, ia })
        .collect();
    let select_ns = |module: &mut dyn DecisionModule| {
        median_ns(9, || {
            for _ in 0..reps {
                black_box(module.select_best(prefix, black_box(&candidates)));
            }
        }) / reps as f64
    };
    let bgp_ns = select_ns(&mut BgpDecision::new());
    let wiser_ns = select_ns(&mut WiserModule::new(IslandId(900), Ipv4Addr::new(163, 42, 5, 0), 5));
    vec![
        layer_value("core.iadb_candidates_ns", candidates_ns),
        layer_value("protocols.select_best_ns_bgp", bgp_ns),
        layer_value("protocols.select_best_ns_wiser", wiser_ns),
    ]
}
