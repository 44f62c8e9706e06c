//! The §6.3 incremental-benefits simulation: Figures 9 and 10.
//!
//! Methodology, reproduced from the paper:
//!
//! * topology: 1,000-AS BRITE/Waxman graph (α = 0.15, β = 0.25) with
//!   customer/provider annotations and valley-free routing;
//! * a fraction of ASes (0–100%, step 10) adopt an *archetype* protocol;
//!   adopters are chosen uniformly at random, 9 trials, 95% CIs;
//! * non-upgraded ASes select shortest valley-free paths (BGP's second
//!   tie-break, local preferences being opaque);
//! * in the **D-BGP baseline**, archetype control information passes
//!   through non-upgraded ASes; in the **BGP baseline**, it is dropped
//!   at the first non-upgraded hop;
//! * **extra-paths archetype** (Figure 9): adopters choose the
//!   advertisement exposing the most total paths, each advertisement
//!   carrying at most ten; benefit = number of paths available to all
//!   destinations at upgraded stubs;
//! * **bottleneck-bandwidth archetype** (Figure 10): adopters expose
//!   their ingress bandwidth (uniform 10–1024) and choose the
//!   advertisement with the highest known bottleneck; benefit = the
//!   *actual* bottleneck bandwidth of the chosen paths (which may be
//!   determined inside a gulf — the reason benefits dip below the status
//!   quo at low adoption).
//!
//! Route computation is a synchronous fixed-point over the
//! advertisement relation (Gao-Rexford export rules, loop suppression,
//! class-then-metric selection), one destination at a time.

use dbgp_topology::{AsGraph, Relationship, WaxmanParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Which §6.3 archetype to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Archetype {
    /// Figure 9: expose extra paths (SCION / NIRA / Pathlet family).
    ExtraPaths,
    /// Figure 10: optimize a global objective (EQ-BGP family).
    BottleneckBandwidth,
}

/// Whose advertisements cross gulfs intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Baseline {
    /// Plain BGP: new-protocol information dies at the first gulf AS.
    Bgp,
    /// D-BGP: pass-through carries it across gulfs.
    Dbgp,
}

/// How adopters are placed on the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AdoptionMode {
    /// Uniformly at random — the paper's setting, "reflecting the ideal
    /// case of providing ASes the flexibility to deploy a new protocol
    /// independently of their neighbors". Produces many non-contiguous
    /// islands; pass-through is essential.
    Random,
    /// BFS-grown contiguous clusters seeded at random ASes — the world
    /// BGP already supports, where adopters must be neighbors. Few
    /// gulfs; pass-through matters little. The gap between the two
    /// modes isolates exactly what D-BGP buys.
    Clustered,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct BenefitsConfig {
    /// Topology generator settings (paper: 1000 ASes, α=0.15, β=0.25).
    pub waxman: WaxmanParams,
    /// Archetype under test.
    pub archetype: Archetype,
    /// Baseline under test.
    pub baseline: Baseline,
    /// Adoption percentages to sweep (paper: 0,10,...,100).
    pub adoption_percents: Vec<u32>,
    /// Seeds — one trial per seed (paper: 9).
    pub seeds: Vec<u64>,
    /// Per-advertisement path cap (paper: 10).
    pub max_paths: u32,
    /// Ingress-bandwidth range (paper: 10–1024, uniform).
    pub bw_range: (u64, u64),
    /// Measure against a random sample of destinations instead of all
    /// (`None` = all ASes are destinations, as in the paper; sampling is
    /// for fast test configurations).
    pub dest_sample: Option<usize>,
    /// Adopter placement (paper: random).
    pub adoption_mode: AdoptionMode,
}

impl BenefitsConfig {
    /// The paper's Figure-9 configuration.
    pub fn figure9(baseline: Baseline) -> Self {
        BenefitsConfig {
            waxman: WaxmanParams::default(),
            archetype: Archetype::ExtraPaths,
            baseline,
            adoption_percents: (0..=100).step_by(10).collect(),
            seeds: (1..=9).collect(),
            max_paths: 10,
            bw_range: (10, 1024),
            dest_sample: None,
            adoption_mode: AdoptionMode::Random,
        }
    }

    /// The paper's Figure-10 configuration.
    pub fn figure10(baseline: Baseline) -> Self {
        BenefitsConfig { archetype: Archetype::BottleneckBandwidth, ..Self::figure9(baseline) }
    }

    /// A scaled-down configuration for unit tests.
    pub fn small(archetype: Archetype, baseline: Baseline) -> Self {
        BenefitsConfig {
            waxman: WaxmanParams { n: 120, ..Default::default() },
            archetype,
            baseline,
            adoption_percents: vec![0, 20, 50, 80, 100],
            seeds: vec![1, 2, 3],
            max_paths: 10,
            bw_range: (10, 1024),
            dest_sample: Some(40),
            adoption_mode: AdoptionMode::Random,
        }
    }
}

/// One point of a figure's series.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SeriesPoint {
    /// Adoption percentage.
    pub adoption: u32,
    /// Mean benefit across trials.
    pub mean: f64,
    /// Half-width of the 95% confidence interval.
    pub ci95: f64,
}

/// A full figure series plus its reference lines.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// The swept points.
    pub points: Vec<SeriesPoint>,
    /// Benefit at 0% adoption under shortest-path selection (the
    /// "status quo" line).
    pub status_quo: f64,
    /// Benefit at 100% adoption (the "best case" line).
    pub best_case: f64,
}

/// The per-advertisement state a neighbor exposes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Export {
    /// Hops to the destination.
    dist: u32,
    /// Extra-paths metadata (≥ 1 once reachable).
    paths: u32,
    /// Bottleneck metadata exposed so far (None = no information).
    bw: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct NodeRoute {
    /// Chosen next hop toward the destination.
    next: usize,
    /// Export view derived from this node's state.
    export: Export,
    /// Did we learn this from a customer (for Gao-Rexford preference)?
    from_customer: bool,
}

/// Per-trial simulation state.
struct Trial<'a> {
    graph: &'a AsGraph,
    upgraded: &'a [bool],
    bw: &'a [u64],
    archetype: Archetype,
    baseline: Baseline,
    cap: u32,
}

impl<'a> Trial<'a> {
    /// Fixed-point route computation for one destination. Returns, per
    /// node, the chosen route (`None` = unreachable) and the node's
    /// *available paths* count (the Figure-9 measurement input).
    fn routes_to(&self, dest: usize) -> (Vec<Option<NodeRoute>>, Vec<u32>) {
        let n = self.graph.len();
        let mut routes: Vec<Option<NodeRoute>> = vec![None; n];
        let mut avail_paths: Vec<u32> = vec![0; n];
        // hops-from-dest for loop suppression: an AS never picks a
        // neighbor whose chosen path runs through itself; we
        // conservatively suppress loops by never increasing distance
        // beyond n and by next-hop distance ordering (next.dist <
        // mine is not required under policy routing, so we instead track
        // the actual path sets implicitly via distances and rely on the
        // valley-free structure, which is loop-free by construction:
        // paths go up then down the provider hierarchy).
        routes[dest] = Some(NodeRoute {
            next: dest,
            export: Export {
                dist: 0,
                paths: 1,
                bw: if self.upgraded[dest] { Some(self.bw[dest]) } else { None },
            },
            from_customer: true,
        });
        avail_paths[dest] = 1;

        for _round in 0..50 {
            let mut changed = false;
            let snapshot = routes.clone();
            for u in 0..n {
                if u == dest {
                    continue;
                }
                // Gather valid advertisements from neighbors.
                let mut candidates: Vec<(usize, Export, bool)> = Vec::new();
                for adj in self.graph.neighbors(u) {
                    let v = adj.neighbor;
                    let Some(route_v) = &snapshot[v] else { continue };
                    // Valley-free export at v: customer routes (or v's
                    // own destination) go anywhere; provider routes only
                    // to v's customers.
                    let v_may_export = v == dest
                        || route_v.from_customer
                        || adj.relationship == Relationship::CustomerToProvider;
                    // (adj.relationship is u's view; u->v being
                    //  CustomerToProvider means u is v's customer.)
                    if !v_may_export {
                        continue;
                    }
                    // Loop suppression: never route via a neighbor whose
                    // next hop is us.
                    if route_v.next == u {
                        continue;
                    }
                    let from_customer = adj.relationship == Relationship::ProviderToCustomer;
                    candidates.push((v, route_v.export, from_customer));
                }
                let chosen = self.select(u, &candidates);
                let new_route = chosen.map(|idx| {
                    let (v, export, from_customer) = candidates[idx];
                    let (export, avail) = self.export_from(u, export, &candidates);
                    avail_paths[u] = avail;
                    NodeRoute { next: v, export, from_customer }
                });
                if new_route != routes[u] {
                    routes[u] = new_route;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (routes, avail_paths)
    }

    /// Rank candidates at node `u`: Gao-Rexford class first (customer
    /// routes are free, provider routes cost money), then the archetype
    /// metric if `u` upgraded, then shortest path, then lowest neighbor.
    fn select(&self, u: usize, candidates: &[(usize, Export, bool)]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .max_by_key(|(_, (v, export, from_customer))| {
                let metric: i64 = if self.upgraded[u] {
                    match self.archetype {
                        Archetype::ExtraPaths => export.paths as i64,
                        Archetype::BottleneckBandwidth => export.bw.unwrap_or(0) as i64,
                    }
                } else {
                    0
                };
                (*from_customer, metric, std::cmp::Reverse(export.dist), std::cmp::Reverse(*v))
            })
            .map(|(i, _)| i)
    }

    /// What `u` will advertise onward, given its chosen candidate's
    /// export view and its full candidate set. Also returns the number
    /// of paths *available at u* (the Figure-9 measurement).
    fn export_from(
        &self,
        u: usize,
        chosen: Export,
        candidates: &[(usize, Export, bool)],
    ) -> (Export, u32) {
        let avail = candidates.iter().map(|(_, e, _)| e.paths).sum::<u32>().min(self.cap).max(1);
        let dist = chosen.dist + 1;
        match (self.upgraded[u], self.baseline) {
            (true, _) => {
                // An upgraded AS aggregates its candidates' path
                // exposure and folds in its own bandwidth.
                let bw = match self.archetype {
                    Archetype::BottleneckBandwidth => {
                        Some(chosen.bw.unwrap_or(u64::MAX).min(self.bw[u]))
                    }
                    Archetype::ExtraPaths => chosen.bw,
                };
                (Export { dist, paths: avail, bw }, avail)
            }
            (false, Baseline::Dbgp) => {
                // Pass-through: the gulf AS forwards the chosen path's
                // metadata untouched.
                (Export { dist, paths: chosen.paths, bw: chosen.bw }, avail)
            }
            (false, Baseline::Bgp) => {
                // Plain BGP drops everything it does not understand.
                (Export { dist, paths: 1, bw: None }, avail)
            }
        }
    }

    /// True bottleneck bandwidth of the chosen path from `s` (min over
    /// every AS the traffic enters, upgraded or not).
    fn actual_bottleneck(
        &self,
        routes: &[Option<NodeRoute>],
        s: usize,
        dest: usize,
    ) -> Option<u64> {
        let mut at = s;
        let mut min_bw = u64::MAX;
        let mut hops = 0;
        while at != dest {
            let route = routes[at].as_ref()?;
            at = route.next;
            min_bw = min_bw.min(self.bw[at]);
            hops += 1;
            if hops > self.graph.len() {
                return None;
            }
        }
        Some(min_bw)
    }
}

/// Result of one trial at one adoption level: the mean benefit over the
/// measured node set.
fn run_trial(cfg: &BenefitsConfig, seed: u64, adoption_percent: u32) -> f64 {
    let graph = dbgp_topology::waxman::generate(cfg.waxman, seed);
    let n = graph.len();
    let mut rng =
        StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(adoption_percent as u64));
    let k = (n * adoption_percent as usize) / 100;
    let mut upgraded = vec![false; n];
    match cfg.adoption_mode {
        AdoptionMode::Random => {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng);
            for &node in order.iter().take(k) {
                upgraded[node] = true;
            }
        }
        AdoptionMode::Clustered => {
            // Grow a handful of contiguous islands by BFS from random
            // seeds until k ASes have adopted.
            use std::collections::VecDeque;
            let mut count = 0usize;
            let mut attempts = 0usize;
            let mut queue: VecDeque<usize> = VecDeque::new();
            while count < k {
                if queue.is_empty() {
                    // New island seed. Bound the retries so a
                    // disconnected topology cannot spin forever; fewer
                    // adopters is an acceptable degradation.
                    attempts += 1;
                    if attempts > 50 * n {
                        break;
                    }
                    let seed_node = rng.gen_range(0..n);
                    if !upgraded[seed_node] {
                        upgraded[seed_node] = true;
                        count += 1;
                        queue.push_back(seed_node);
                    }
                    continue;
                }
                let u = queue.pop_front().unwrap();
                for adj in graph.neighbors(u) {
                    if count >= k {
                        break;
                    }
                    if !upgraded[adj.neighbor] {
                        upgraded[adj.neighbor] = true;
                        count += 1;
                        queue.push_back(adj.neighbor);
                    }
                }
            }
        }
    }
    let bw: Vec<u64> = (0..n).map(|_| rng.gen_range(cfg.bw_range.0..=cfg.bw_range.1)).collect();
    let trial = Trial {
        graph: &graph,
        upgraded: &upgraded,
        bw: &bw,
        archetype: cfg.archetype,
        baseline: cfg.baseline,
        cap: cfg.max_paths,
    };

    // Measurement points: upgraded stubs (Fig. 9) / upgraded ASes
    // (Fig. 10); at 0% adoption, all stubs / all ASes (the status quo).
    let measure: Vec<usize> = match cfg.archetype {
        Archetype::ExtraPaths => {
            let stubs = graph.stubs();
            if adoption_percent == 0 {
                stubs
            } else {
                stubs.into_iter().filter(|&s| upgraded[s]).collect()
            }
        }
        Archetype::BottleneckBandwidth => {
            if adoption_percent == 0 {
                (0..n).collect()
            } else {
                (0..n).filter(|&s| upgraded[s]).collect()
            }
        }
    };
    if measure.is_empty() {
        return 0.0;
    }

    let destinations: Vec<usize> = match cfg.dest_sample {
        Some(k) => {
            let mut all: Vec<usize> = (0..n).collect();
            all.shuffle(&mut rng);
            all.truncate(k);
            all
        }
        None => (0..n).collect(),
    };

    // Accumulate per measuring node.
    let mut totals = vec![0.0f64; n];
    let mut counts = vec![0u32; n];
    for &dest in &destinations {
        let (routes, avail) = trial.routes_to(dest);
        for &s in &measure {
            if s == dest {
                continue;
            }
            match cfg.archetype {
                Archetype::ExtraPaths => {
                    if routes[s].is_some() {
                        // An upgraded stub can use every path its
                        // candidates expose; an unupgraded one uses only
                        // its single chosen BGP path.
                        totals[s] += if upgraded[s] { avail[s] as f64 } else { 1.0 };
                    }
                    counts[s] += 1;
                }
                Archetype::BottleneckBandwidth => {
                    if let Some(bw) = trial.actual_bottleneck(&routes, s, dest) {
                        totals[s] += bw as f64;
                        counts[s] += 1;
                    }
                }
            }
        }
    }
    let scale = match cfg.dest_sample {
        // Scale sampled sums up to "all destinations" for Figure 9's
        // y-axis semantics.
        Some(k) => (n as f64 - 1.0) / k as f64,
        None => 1.0,
    };
    let per_node: Vec<f64> = measure
        .iter()
        .filter(|&&s| counts[s] > 0)
        .map(|&s| match cfg.archetype {
            // Fig. 9: total paths available to all destinations.
            Archetype::ExtraPaths => totals[s] * scale,
            // Fig. 10: average bottleneck bandwidth.
            Archetype::BottleneckBandwidth => totals[s] / counts[s] as f64,
        })
        .collect();
    if per_node.is_empty() {
        return 0.0;
    }
    per_node.iter().sum::<f64>() / per_node.len() as f64
}

/// Run the full sweep: every adoption level, every seed, in parallel
/// across seeds. Returns the series with mean and 95% CI per level.
pub fn run(cfg: &BenefitsConfig) -> Series {
    let mut points = Vec::with_capacity(cfg.adoption_percents.len());
    let mut status_quo = 0.0;
    let mut best_case = 0.0;
    for &adoption in &cfg.adoption_percents {
        let results: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = cfg
                .seeds
                .iter()
                .map(|&seed| scope.spawn(move || run_trial(cfg, seed, adoption)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("trial panicked")).collect()
        });
        let n = results.len() as f64;
        let mean = results.iter().sum::<f64>() / n;
        let var = results.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
        // Student-t 97.5% quantile for small samples (df = n-1); 2.306
        // for the paper's 9 trials.
        let t = match results.len() {
            0 | 1 => 0.0,
            2 => 12.706,
            3 => 4.303,
            4 => 3.182,
            5 => 2.776,
            6 => 2.571,
            7 => 2.447,
            8 => 2.365,
            9 => 2.306,
            _ => 1.96,
        };
        let ci95 = t * (var / n).sqrt();
        points.push(SeriesPoint { adoption, mean, ci95 });
        if adoption == 0 {
            status_quo = mean;
        }
        if adoption == 100 {
            best_case = mean;
        }
    }
    Series { points, status_quo, best_case }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(series: &Series, adoption: u32) -> f64 {
        series.points.iter().find(|p| p.adoption == adoption).unwrap().mean
    }

    #[test]
    fn extra_paths_dbgp_dominates_bgp_baseline() {
        // The Figure-9 claim: total benefits with the D-BGP baseline are
        // always >= the BGP baseline.
        let dbgp = run(&BenefitsConfig::small(Archetype::ExtraPaths, Baseline::Dbgp));
        let bgp = run(&BenefitsConfig::small(Archetype::ExtraPaths, Baseline::Bgp));
        for (d, b) in dbgp.points.iter().zip(&bgp.points) {
            assert!(
                d.mean >= b.mean - 1e-9,
                "D-BGP ({}) must dominate BGP ({}) at {}%",
                d.mean,
                b.mean,
                d.adoption
            );
        }
    }

    #[test]
    fn extra_paths_grow_with_adoption() {
        let series = run(&BenefitsConfig::small(Archetype::ExtraPaths, Baseline::Dbgp));
        let start = point(&series, 20);
        let end = point(&series, 100);
        assert!(end > start, "benefits must grow: {start} -> {end}");
        assert!(series.best_case >= series.status_quo);
    }

    #[test]
    fn extra_paths_status_quo_is_one_path_per_destination() {
        let series = run(&BenefitsConfig::small(Archetype::ExtraPaths, Baseline::Bgp));
        // With nobody upgraded, each reachable destination contributes
        // exactly one path: benefit ≈ n-1 (minus unreachable pairs).
        assert!(
            (series.status_quo - 119.0).abs() < 15.0,
            "status quo ≈ one path per destination, got {}",
            series.status_quo
        );
    }

    #[test]
    fn bottleneck_dbgp_beats_bgp_at_mid_adoption() {
        let dbgp = run(&BenefitsConfig::small(Archetype::BottleneckBandwidth, Baseline::Dbgp));
        let bgp = run(&BenefitsConfig::small(Archetype::BottleneckBandwidth, Baseline::Bgp));
        // The Figure-10 shape: at mid adoption the D-BGP baseline is
        // ahead of the BGP baseline.
        let d_mid = point(&dbgp, 50);
        let b_mid = point(&bgp, 50);
        assert!(d_mid > b_mid, "D-BGP {d_mid} vs BGP {b_mid} at 50%");
    }

    #[test]
    fn bottleneck_full_adoption_beats_status_quo() {
        let series = run(&BenefitsConfig::small(Archetype::BottleneckBandwidth, Baseline::Dbgp));
        assert!(
            series.best_case > series.status_quo,
            "best case {} must beat status quo {}",
            series.best_case,
            series.status_quo
        );
    }

    #[test]
    fn full_adoption_is_baseline_independent() {
        // At 100% there are no gulfs, so the baseline cannot matter.
        let dbgp = run(&BenefitsConfig::small(Archetype::ExtraPaths, Baseline::Dbgp));
        let bgp = run(&BenefitsConfig::small(Archetype::ExtraPaths, Baseline::Bgp));
        assert!((point(&dbgp, 100) - point(&bgp, 100)).abs() < 1e-6);
    }

    #[test]
    fn clustered_adoption_shrinks_the_baseline_gap() {
        // With contiguous adoption there are few gulfs: pass-through
        // buys much less than under random adoption. (The thesis of the
        // whole paper, in one assertion.)
        let at = |mode: AdoptionMode, baseline: Baseline| {
            let mut cfg = BenefitsConfig::small(Archetype::ExtraPaths, baseline);
            cfg.adoption_mode = mode;
            cfg.adoption_percents = vec![30];
            run(&cfg).points[0].mean
        };
        let gap_random = at(AdoptionMode::Random, Baseline::Dbgp)
            / at(AdoptionMode::Random, Baseline::Bgp).max(1.0);
        let gap_clustered = at(AdoptionMode::Clustered, Baseline::Dbgp)
            / at(AdoptionMode::Clustered, Baseline::Bgp).max(1.0);
        assert!(
            gap_random > gap_clustered,
            "random gap {gap_random:.2} should exceed clustered gap {gap_clustered:.2}"
        );
    }

    #[test]
    fn trials_are_deterministic() {
        let cfg = BenefitsConfig::small(Archetype::ExtraPaths, Baseline::Dbgp);
        let a = run_trial(&cfg, 3, 50);
        let b = run_trial(&cfg, 3, 50);
        assert_eq!(a, b);
    }
}
