//! Counters and stage timers threaded through the detection pipeline.
//!
//! A [`Telemetry`] lives on the
//! [`AnalysisSession`](crate::session::AnalysisSession) and is written with
//! relaxed atomics so the per-channel BMOC workers can share it across
//! [`std::thread::scope`] threads without locks. [`Telemetry::snapshot`]
//! freezes the counters into a plain [`Stats`] value for reporting
//! (`gcatch check --stats`, the census harness, the bench binaries).

use crate::trace::{HistSnapshot, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Pipeline stages with an attributed wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Whole-module points-to / call-graph analysis + primitive discovery.
    Analysis,
    /// Scope computation and Pset construction (§3.2).
    Disentangle,
    /// Path enumeration and combination building (§3.3).
    Paths,
    /// Constraint encoding and solving (§3.4).
    Constraints,
    /// The five traditional checkers (§3.5).
    Traditional,
    /// GFix patch synthesis (§4); recorded by the fixing pipeline, not by
    /// detection itself.
    Fix,
}

impl Stage {
    const COUNT: usize = 6;

    fn index(self) -> usize {
        match self {
            Stage::Analysis => 0,
            Stage::Disentangle => 1,
            Stage::Paths => 2,
            Stage::Constraints => 3,
            Stage::Traditional => 4,
            Stage::Fix => 5,
        }
    }

    /// Stable lowercase stage name (JSON keys, `--stats` output).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Analysis => "analysis",
            Stage::Disentangle => "disentangle",
            Stage::Paths => "paths",
            Stage::Constraints => "constraints",
            Stage::Traditional => "traditional",
            Stage::Fix => "fix",
        }
    }

    /// All stages in reporting order.
    pub fn all() -> [Stage; Stage::COUNT] {
        [
            Stage::Analysis,
            Stage::Disentangle,
            Stage::Paths,
            Stage::Constraints,
            Stage::Traditional,
            Stage::Fix,
        ]
    }
}

/// Monotonic event counters recorded during detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Channels examined by the BMOC driver.
    ChannelsAnalyzed,
    /// Psets computed (one per disentangled channel).
    PsetsComputed,
    /// Total primitives across all computed Psets.
    PsetPrimsTotal,
    /// Execution paths enumerated.
    PathsEnumerated,
    /// Branches pruned as infeasible during path enumeration.
    BranchesPruned,
    /// Path combinations built.
    CombosBuilt,
    /// Suspicious groups submitted to the solver.
    GroupsChecked,
    /// Solver queries issued.
    SolverQueries,
    /// Total solver propagation/decision steps.
    SolverSteps,
    /// Total solver decisions.
    SolverDecisions,
    /// Total solver conflicts.
    SolverConflicts,
    /// Queries answered by reusing an already-built combination encoding
    /// (one encoding per combination, one assumption query per group).
    SolverEncodingsReused,
    /// Learned clauses retained from earlier queries of the same
    /// combination at the moment a reusing query started.
    LearnedClausesKept,
    /// Bug reports emitted (before cross-checker dedup).
    ReportsEmitted,
    /// Reports dropped by cross-checker deduplication.
    DuplicatesDropped,
    /// Channels whose analysis gave up after exhausting every rung of
    /// the degradation ladder (results for them are partial).
    IncompleteChannels,
    /// Jobs submitted to the batch engine (restored + executed).
    JobsTotal,
    /// Batch job attempts re-dispatched after a contained failure.
    JobsRetried,
    /// Batch jobs that got a hedge twin after straggling past the
    /// completed-job p99.
    JobsHedged,
    /// Batch jobs set aside after exhausting their retry budget.
    JobsQuarantined,
    /// Batch jobs restored from a checkpoint journal instead of re-run.
    JobsResumed,
    /// Points-to component solves actually performed by the alias engine
    /// (demand mode solves one per queried reference component; eager
    /// mode reports a single whole-module solve).
    AliasQueriesSolved,
    /// Functions whose points-to constraints were never solved because no
    /// checker asked about them (demand mode only).
    AliasFunctionsSkipped,
    /// Channel verdicts answered from a structurally identical channel's
    /// cached encoding instead of fresh solver work.
    ChannelEncodingsShared,
    /// Sweep jobs released back to the queue after their lease expired or
    /// their worker died (each release makes the job claimable again).
    JobsReleases,
    /// Sweep leases whose deadline passed before the owner renewed them.
    LeasesExpired,
    /// Worker processes spawned by the sweep coordinator (initial fleet
    /// plus replacements).
    WorkersSpawned,
    /// Worker processes the coordinator declared dead (exited abnormally
    /// or missed the heartbeat deadline and were killed).
    WorkersLost,
    /// Requests received by the serve daemon (every parsed request line,
    /// control ops and shed requests included).
    RequestsTotal,
    /// Requests shed by admission control because the queue was at
    /// `--max-queue` depth (answered with an `overloaded` response).
    RequestsShed,
    /// Requests answered with an incident response (contained panic,
    /// expired deadline, executor error, or unparseable request line).
    RequestsFailed,
    /// Requests answered from the content-hashed response cache instead
    /// of re-running the analysis.
    CacheHits,
    /// Cache entries evicted after the cache exceeded `--max-cache`
    /// (oldest insertion first).
    CacheEvictions,
    /// Check requests answered with help from a warm per-module session
    /// (at least the diff ran against cached artifacts; see
    /// `channels_replayed` for how much work was actually skipped).
    SessionsReused,
    /// Channels re-analyzed from scratch on a warm check because the
    /// module diff could reach them.
    ChannelsReanalyzed,
    /// Channels whose verdict, witnesses, and provenance were replayed
    /// from a warm session instead of being re-analyzed.
    ChannelsReplayed,
    /// Warm sessions dropped: LRU pressure past `--max-sessions`, an
    /// injected `serve.session` fault, or an incomparable module shape.
    SessionEvictions,
}

impl Counter {
    const COUNT: usize = 37;

    fn index(self) -> usize {
        match self {
            Counter::ChannelsAnalyzed => 0,
            Counter::PsetsComputed => 1,
            Counter::PsetPrimsTotal => 2,
            Counter::PathsEnumerated => 3,
            Counter::BranchesPruned => 4,
            Counter::CombosBuilt => 5,
            Counter::GroupsChecked => 6,
            Counter::SolverQueries => 7,
            Counter::SolverSteps => 8,
            Counter::SolverDecisions => 9,
            Counter::SolverConflicts => 10,
            Counter::SolverEncodingsReused => 11,
            Counter::LearnedClausesKept => 12,
            Counter::ReportsEmitted => 13,
            Counter::DuplicatesDropped => 14,
            Counter::IncompleteChannels => 15,
            Counter::JobsTotal => 16,
            Counter::JobsRetried => 17,
            Counter::JobsHedged => 18,
            Counter::JobsQuarantined => 19,
            Counter::JobsResumed => 20,
            Counter::AliasQueriesSolved => 21,
            Counter::AliasFunctionsSkipped => 22,
            Counter::ChannelEncodingsShared => 23,
            Counter::JobsReleases => 24,
            Counter::LeasesExpired => 25,
            Counter::WorkersSpawned => 26,
            Counter::WorkersLost => 27,
            Counter::RequestsTotal => 28,
            Counter::RequestsShed => 29,
            Counter::RequestsFailed => 30,
            Counter::CacheHits => 31,
            Counter::CacheEvictions => 32,
            Counter::SessionsReused => 33,
            Counter::ChannelsReanalyzed => 34,
            Counter::ChannelsReplayed => 35,
            Counter::SessionEvictions => 36,
        }
    }

    /// Stable snake_case counter name (JSON keys, `--stats` output).
    pub fn name(self) -> &'static str {
        match self {
            Counter::ChannelsAnalyzed => "channels_analyzed",
            Counter::PsetsComputed => "psets_computed",
            Counter::PsetPrimsTotal => "pset_prims_total",
            Counter::PathsEnumerated => "paths_enumerated",
            Counter::BranchesPruned => "branches_pruned",
            Counter::CombosBuilt => "combos_built",
            Counter::GroupsChecked => "groups_checked",
            Counter::SolverQueries => "solver_queries",
            Counter::SolverSteps => "solver_steps",
            Counter::SolverDecisions => "solver_decisions",
            Counter::SolverConflicts => "solver_conflicts",
            Counter::SolverEncodingsReused => "solver_encodings_reused",
            Counter::LearnedClausesKept => "learned_clauses_kept",
            Counter::ReportsEmitted => "reports_emitted",
            Counter::DuplicatesDropped => "duplicates_dropped",
            Counter::IncompleteChannels => "incomplete_channels",
            Counter::JobsTotal => "jobs_total",
            Counter::JobsRetried => "jobs_retried",
            Counter::JobsHedged => "jobs_hedged",
            Counter::JobsQuarantined => "jobs_quarantined",
            Counter::JobsResumed => "jobs_resumed",
            Counter::AliasQueriesSolved => "alias_queries_solved",
            Counter::AliasFunctionsSkipped => "alias_functions_skipped",
            Counter::ChannelEncodingsShared => "channel_encodings_shared",
            Counter::JobsReleases => "jobs_releases",
            Counter::LeasesExpired => "leases_expired",
            Counter::WorkersSpawned => "workers_spawned",
            Counter::WorkersLost => "workers_lost",
            Counter::RequestsTotal => "requests_total",
            Counter::RequestsShed => "requests_shed",
            Counter::RequestsFailed => "requests_failed",
            Counter::CacheHits => "cache_hits",
            Counter::CacheEvictions => "cache_evictions",
            Counter::SessionsReused => "sessions_reused",
            Counter::ChannelsReanalyzed => "channels_reanalyzed",
            Counter::ChannelsReplayed => "channels_replayed",
            Counter::SessionEvictions => "session_evictions",
        }
    }

    /// The subsystem a counter belongs to (grouping for `--stats` text
    /// and the Prometheus metric HELP lines). Every counter maps to
    /// exactly one of [`Counter::subsystems`].
    pub fn subsystem(self) -> &'static str {
        match self {
            Counter::AliasQueriesSolved | Counter::AliasFunctionsSkipped => "alias",
            Counter::SolverQueries
            | Counter::SolverSteps
            | Counter::SolverDecisions
            | Counter::SolverConflicts
            | Counter::SolverEncodingsReused
            | Counter::LearnedClausesKept
            | Counter::ChannelEncodingsShared => "solver",
            Counter::JobsTotal
            | Counter::JobsRetried
            | Counter::JobsHedged
            | Counter::JobsQuarantined
            | Counter::JobsResumed => "batch",
            Counter::JobsReleases
            | Counter::LeasesExpired
            | Counter::WorkersSpawned
            | Counter::WorkersLost => "sweep",
            Counter::RequestsTotal
            | Counter::RequestsShed
            | Counter::RequestsFailed
            | Counter::CacheHits
            | Counter::CacheEvictions
            | Counter::SessionsReused
            | Counter::ChannelsReanalyzed
            | Counter::ChannelsReplayed
            | Counter::SessionEvictions => "serve",
            Counter::ChannelsAnalyzed
            | Counter::PsetsComputed
            | Counter::PsetPrimsTotal
            | Counter::PathsEnumerated
            | Counter::BranchesPruned
            | Counter::CombosBuilt
            | Counter::GroupsChecked
            | Counter::ReportsEmitted
            | Counter::DuplicatesDropped
            | Counter::IncompleteChannels => "detector",
        }
    }

    /// Subsystem display order for grouped `--stats` text.
    pub fn subsystems() -> [&'static str; 6] {
        ["alias", "solver", "batch", "sweep", "serve", "detector"]
    }

    /// All counters in reporting order.
    pub fn all() -> [Counter; Counter::COUNT] {
        [
            Counter::ChannelsAnalyzed,
            Counter::PsetsComputed,
            Counter::PsetPrimsTotal,
            Counter::PathsEnumerated,
            Counter::BranchesPruned,
            Counter::CombosBuilt,
            Counter::GroupsChecked,
            Counter::SolverQueries,
            Counter::SolverSteps,
            Counter::SolverDecisions,
            Counter::SolverConflicts,
            Counter::SolverEncodingsReused,
            Counter::LearnedClausesKept,
            Counter::ReportsEmitted,
            Counter::DuplicatesDropped,
            Counter::IncompleteChannels,
            Counter::JobsTotal,
            Counter::JobsRetried,
            Counter::JobsHedged,
            Counter::JobsQuarantined,
            Counter::JobsResumed,
            Counter::AliasQueriesSolved,
            Counter::AliasFunctionsSkipped,
            Counter::ChannelEncodingsShared,
            Counter::JobsReleases,
            Counter::LeasesExpired,
            Counter::WorkersSpawned,
            Counter::WorkersLost,
            Counter::RequestsTotal,
            Counter::RequestsShed,
            Counter::RequestsFailed,
            Counter::CacheHits,
            Counter::CacheEvictions,
            Counter::SessionsReused,
            Counter::ChannelsReanalyzed,
            Counter::ChannelsReplayed,
            Counter::SessionEvictions,
        ]
    }
}

/// Distributions recorded as log-bucketed [`Histogram`]s.
///
/// The two `*Ns` metrics are wall-clock samples in nanoseconds; the
/// remaining metrics are plain counts whose distributions are deterministic
/// (independent of `--jobs` and machine speed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Per-channel BMOC detection latency (ns; one sample per channel).
    ChannelDetectNs,
    /// Per-query solver time (ns; one sample per `minismt` query).
    SolverQueryNs,
    /// Paths enumerated per channel.
    PathsPerChannel,
    /// Path combinations built per channel.
    CombosPerChannel,
    /// Per-job wall-clock time in the batch engine (ns; one sample per
    /// completed job, hedges and retries included in the winner's time).
    JobWallNs,
    /// End-to-end wall-clock per checked module (ns; one sample per
    /// module — analysis through report rendering).
    ModuleWallNs,
}

impl Metric {
    const COUNT: usize = 6;

    fn index(self) -> usize {
        match self {
            Metric::ChannelDetectNs => 0,
            Metric::SolverQueryNs => 1,
            Metric::PathsPerChannel => 2,
            Metric::CombosPerChannel => 3,
            Metric::JobWallNs => 4,
            Metric::ModuleWallNs => 5,
        }
    }

    /// Stable snake_case metric name (JSON keys, `--stats` output).
    pub fn name(self) -> &'static str {
        match self {
            Metric::ChannelDetectNs => "channel_detect_ns",
            Metric::SolverQueryNs => "solver_query_ns",
            Metric::PathsPerChannel => "paths_per_channel",
            Metric::CombosPerChannel => "combos_per_channel",
            Metric::JobWallNs => "job_wall_ns",
            Metric::ModuleWallNs => "module_wall_ns",
        }
    }

    /// Whether samples are nanosecond durations (rendered as ms) rather
    /// than plain counts.
    pub fn is_time(self) -> bool {
        matches!(
            self,
            Metric::ChannelDetectNs
                | Metric::SolverQueryNs
                | Metric::JobWallNs
                | Metric::ModuleWallNs
        )
    }

    /// All metrics in reporting order.
    pub fn all() -> [Metric; Metric::COUNT] {
        [
            Metric::ChannelDetectNs,
            Metric::SolverQueryNs,
            Metric::PathsPerChannel,
            Metric::CombosPerChannel,
            Metric::JobWallNs,
            Metric::ModuleWallNs,
        ]
    }
}

/// Shared, thread-safe telemetry sink.
#[derive(Debug)]
pub struct Telemetry {
    counters: [AtomicU64; Counter::COUNT],
    stage_ns: [AtomicU64; Stage::COUNT],
    hists: [Histogram; Metric::COUNT],
}

impl Default for Telemetry {
    // Hand-written: `Default` for arrays stops at 32 elements and the
    // counter family is past that now.
    fn default() -> Telemetry {
        Telemetry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

impl Telemetry {
    /// A zeroed telemetry sink.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Attributes `d` of wall-clock time to a stage.
    pub fn record(&self, stage: Stage, d: Duration) {
        self.stage_ns[stage.index()].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Runs `f`, attributing its wall-clock time to `stage`.
    ///
    /// Stage times are additive: concurrent workers timing the same stage
    /// sum their individual durations (CPU-time-like, not elapsed).
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(stage, start.elapsed());
        out
    }

    /// Accumulated time of one stage.
    pub fn stage_time(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.stage_ns[stage.index()].load(Ordering::Relaxed))
    }

    /// Records one sample into a metric's histogram.
    pub fn observe(&self, metric: Metric, v: u64) {
        self.hists[metric.index()].record(v);
    }

    /// The live histogram behind one metric.
    pub fn hist(&self, metric: Metric) -> &Histogram {
        &self.hists[metric.index()]
    }

    /// Folds another solver run's effort counters in, and samples its
    /// elapsed time into [`Metric::SolverQueryNs`].
    pub fn add_solver_stats(&self, stats: minismt::SolverStats) {
        self.add(Counter::SolverQueries, 1);
        self.add(Counter::SolverSteps, stats.steps);
        self.add(Counter::SolverDecisions, stats.decisions);
        self.add(Counter::SolverConflicts, stats.conflicts);
        self.observe(Metric::SolverQueryNs, stats.elapsed.as_nanos() as u64);
    }

    /// Folds a frozen [`Stats`] snapshot from another session into this
    /// sink: counters add, stage times add, histograms merge bin-wise.
    /// The batch engine uses this to aggregate each job's session stats
    /// into one run-wide view (the `--jobs` histogram-merge idea, one
    /// level up).
    pub fn absorb(&self, stats: &Stats) {
        for (c, v) in &stats.counters {
            if *v > 0 {
                self.add(*c, *v);
            }
        }
        for (s, d) in &stats.stages {
            if !d.is_zero() {
                self.record(*s, *d);
            }
        }
        for (m, h) in &stats.hists {
            self.hist(*m).absorb(h);
        }
    }

    /// Freezes all counters, timers, and histograms into a plain snapshot.
    pub fn snapshot(&self) -> Stats {
        Stats {
            counters: Counter::all().map(|c| (c, self.get(c))),
            stages: Stage::all().map(|s| (s, self.stage_time(s))),
            hists: Metric::all().map(|m| (m, self.hists[m.index()].snapshot())),
        }
    }
}

/// An immutable snapshot of a [`Telemetry`] sink.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Every counter with its value, in reporting order.
    pub counters: [(Counter, u64); Counter::COUNT],
    /// Every stage with its accumulated time, in reporting order.
    pub stages: [(Stage, Duration); Stage::COUNT],
    /// Every metric with its histogram snapshot, in reporting order.
    pub hists: [(Metric, HistSnapshot); Metric::COUNT],
}

impl Stats {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == c)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Accumulated time of one stage.
    pub fn stage(&self, s: Stage) -> Duration {
        self.stages
            .iter()
            .find(|(k, _)| *k == s)
            .map(|(_, v)| *v)
            .unwrap_or_default()
    }

    /// Total attributed time across all stages (detection and fixing).
    pub fn total_time(&self) -> Duration {
        self.stages.iter().map(|(_, d)| *d).sum()
    }

    /// Attributed detection time: every stage except [`Stage::Fix`].
    pub fn detect_time(&self) -> Duration {
        self.stages
            .iter()
            .filter(|(s, _)| *s != Stage::Fix)
            .map(|(_, d)| *d)
            .sum()
    }

    /// Histogram snapshot of one metric.
    pub fn hist(&self, m: Metric) -> &HistSnapshot {
        self.hists
            .iter()
            .find(|(k, _)| *k == m)
            .map(|(_, v)| v)
            .expect("every metric is present in a snapshot")
    }

    /// Renders the snapshot as aligned `name  value` text lines.
    ///
    /// Durations are always milliseconds with three decimals (a fixed unit,
    /// so output stays diffable across magnitudes); histogram metrics are
    /// rendered as p50/p90/p99/max percentiles.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("stage timings:\n");
        for (s, d) in &self.stages {
            out.push_str(&format!("  {:<22} {:>12} ms\n", s.name(), fmt_ms(*d)));
        }
        out.push_str("counters:\n");
        for subsystem in Counter::subsystems() {
            out.push_str(&format!("  {subsystem}:\n"));
            for (c, v) in &self.counters {
                if c.subsystem() == subsystem {
                    out.push_str(&format!("    {:<24} {v:>12}\n", c.name()));
                }
            }
        }
        out.push_str("percentiles (p50/p90/p99/max):\n");
        for (m, h) in &self.hists {
            let cell = |v: u64| {
                if m.is_time() {
                    format!("{} ms", fmt_ms(Duration::from_nanos(v)))
                } else {
                    v.to_string()
                }
            };
            out.push_str(&format!(
                "  {:<22} {} / {} / {} / {}  (n={})\n",
                m.name(),
                cell(h.percentile(50)),
                cell(h.percentile(90)),
                cell(h.percentile(99)),
                cell(h.max),
                h.count,
            ));
        }
        out
    }
}

/// A duration as fixed-point milliseconds with three decimals (`1.234`).
fn fmt_ms(d: Duration) -> String {
    let us = d.as_micros();
    format!("{}.{:03}", us / 1_000, us % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::new();
        t.add(Counter::SolverQueries, 2);
        t.add(Counter::SolverQueries, 3);
        assert_eq!(t.get(Counter::SolverQueries), 5);
        assert_eq!(t.get(Counter::PathsEnumerated), 0);
    }

    #[test]
    fn stage_times_accumulate() {
        let t = Telemetry::new();
        t.record(Stage::Paths, Duration::from_millis(2));
        t.record(Stage::Paths, Duration::from_millis(3));
        assert_eq!(t.stage_time(Stage::Paths), Duration::from_millis(5));
    }

    #[test]
    fn absorb_merges_counters_stages_and_histograms() {
        let inner = Telemetry::new();
        inner.add(Counter::SolverQueries, 4);
        inner.record(Stage::Paths, Duration::from_millis(3));
        inner.observe(Metric::PathsPerChannel, 17);
        let outer = Telemetry::new();
        outer.add(Counter::SolverQueries, 1);
        outer.absorb(&inner.snapshot());
        assert_eq!(outer.get(Counter::SolverQueries), 5);
        assert_eq!(outer.stage_time(Stage::Paths), Duration::from_millis(3));
        let snap = outer.snapshot();
        assert_eq!(snap.hist(Metric::PathsPerChannel).count, 1);
        assert_eq!(snap.hist(Metric::PathsPerChannel).max, 17);
    }

    #[test]
    fn snapshot_is_stable_and_renders() {
        let t = Telemetry::new();
        t.add(Counter::CombosBuilt, 7);
        t.record(Stage::Constraints, Duration::from_micros(10));
        let s = t.snapshot();
        assert_eq!(s.counter(Counter::CombosBuilt), 7);
        assert_eq!(s.stage(Stage::Constraints), Duration::from_micros(10));
        let text = s.render_text();
        assert!(text.contains("combos_built"));
        assert!(text.contains("constraints"));
    }

    #[test]
    fn durations_render_as_fixed_ms() {
        assert_eq!(fmt_ms(Duration::from_micros(1_234_567)), "1234.567");
        assert_eq!(fmt_ms(Duration::from_nanos(999)), "0.000");
        assert_eq!(fmt_ms(Duration::ZERO), "0.000");
        assert_eq!(fmt_ms(Duration::from_millis(2)), "2.000");
    }

    #[test]
    fn histograms_surface_in_snapshot_and_text() {
        let t = Telemetry::new();
        t.observe(Metric::ChannelDetectNs, 1_000_000);
        t.observe(Metric::PathsPerChannel, 12);
        let s = t.snapshot();
        assert_eq!(s.hist(Metric::ChannelDetectNs).count, 1);
        assert_eq!(s.hist(Metric::PathsPerChannel).max, 12);
        assert_eq!(s.hist(Metric::SolverQueryNs).count, 0);
        let text = s.render_text();
        assert!(text.contains("percentiles (p50/p90/p99/max):"));
        assert!(text.contains("channel_detect_ns"));
        assert!(text.contains("solver_query_ns"));
    }

    /// A telemetry sink where every counter, stage, and metric carries a
    /// distinct nonzero value — the probe for the exhaustiveness guards.
    fn saturated() -> Telemetry {
        let t = Telemetry::new();
        for (i, c) in Counter::all().into_iter().enumerate() {
            t.add(c, i as u64 + 1);
        }
        for (i, s) in Stage::all().into_iter().enumerate() {
            t.record(s, Duration::from_micros(i as u64 + 1));
        }
        for (i, m) in Metric::all().into_iter().enumerate() {
            t.observe(m, i as u64 + 1);
        }
        t
    }

    #[test]
    fn every_counter_belongs_to_exactly_one_subsystem() {
        let subsystems = Counter::subsystems();
        for c in Counter::all() {
            assert!(
                subsystems.contains(&c.subsystem()),
                "{} maps to unknown subsystem {}",
                c.name(),
                c.subsystem()
            );
        }
        let grouped: usize = subsystems
            .iter()
            .map(|sub| {
                Counter::all()
                    .into_iter()
                    .filter(|c| c.subsystem() == *sub)
                    .count()
            })
            .sum();
        assert_eq!(grouped, Counter::all().len());
    }

    #[test]
    fn absorb_covers_every_counter_stage_and_histogram() {
        let inner = saturated();
        let outer = Telemetry::new();
        outer.absorb(&inner.snapshot());
        for (i, c) in Counter::all().into_iter().enumerate() {
            assert_eq!(outer.get(c), i as u64 + 1, "absorb dropped {}", c.name());
        }
        for (i, s) in Stage::all().into_iter().enumerate() {
            assert_eq!(
                outer.stage_time(s),
                Duration::from_micros(i as u64 + 1),
                "absorb dropped {}",
                s.name()
            );
        }
        let snap = outer.snapshot();
        for m in Metric::all() {
            assert_eq!(snap.hist(m).count, 1, "absorb dropped {}", m.name());
        }
    }

    #[test]
    fn render_stats_json_covers_every_counter_stage_and_histogram() {
        let json = crate::diagnostics::render_stats_json(&saturated().snapshot());
        for c in Counter::all() {
            assert!(
                json.contains(&format!("\"{}\":", c.name())),
                "render_stats_json missing counter {}",
                c.name()
            );
        }
        for s in Stage::all() {
            assert!(
                json.contains(&format!("\"{}\":", s.name())),
                "render_stats_json missing stage {}",
                s.name()
            );
        }
        for m in Metric::all() {
            assert!(
                json.contains(&format!("\"{}\":", m.name())),
                "render_stats_json missing histogram {}",
                m.name()
            );
        }
    }

    #[test]
    fn render_text_groups_counters_by_subsystem_and_covers_all() {
        let text = saturated().snapshot().render_text();
        for sub in Counter::subsystems() {
            assert!(text.contains(&format!("  {sub}:\n")), "missing group {sub}");
        }
        for c in Counter::all() {
            assert!(text.contains(c.name()), "missing counter {}", c.name());
        }
        // Subsystem groups appear in the documented stable order.
        let positions: Vec<usize> = Counter::subsystems()
            .iter()
            .map(|sub| text.find(&format!("  {sub}:\n")).unwrap())
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
        // PR-6 counters surface in the text output, not just JSON.
        assert!(text.contains("alias_queries_solved"));
        assert!(text.contains("alias_functions_skipped"));
        assert!(text.contains("channel_encodings_shared"));
    }

    #[test]
    fn telemetry_is_shareable_across_threads() {
        let t = Telemetry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        t.add(Counter::GroupsChecked, 1);
                    }
                });
            }
        });
        assert_eq!(t.get(Counter::GroupsChecked), 400);
    }
}
