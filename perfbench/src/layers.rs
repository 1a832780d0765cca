//! The per-layer metrics of the traced run and the counter-determinism
//! check.

use crate::trace::{self, Recorder};
use crate::{json_num, json_str, stats, Args, Outcome};
use gcatch::{Counter, Stage, Stats};
use std::collections::BTreeMap;

/// Every per-layer metric, in output order, with its unit. Times are mean
/// milliseconds per operation of the layer's span self time; counts are
/// means per operation; ratios are ratios of totals. A layer a workload
/// does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("golite.parse_ms", "ms"),
    ("golite.parse_mb_s", "MB/s"),
    ("golite-ir.lower_ms", "ms"),
    ("golite-ir.instrs", "count"),
    ("gcatch.session_ms", "ms"),
    ("golite-ir.alias_queries_solved", "count"),
    ("golite-ir.alias_funcs_skipped", "count"),
    ("gcatch.disentangle_ms", "ms"),
    ("gcatch.pset_prims", "count"),
    ("gcatch.bmoc_ms", "ms"),
    ("gcatch.bmoc_us_per_channel", "us"),
    ("gcatch.paths_cpu_ms", "ms"),
    ("gcatch.constraints_cpu_ms", "ms"),
    ("gcatch.paths_enumerated", "count"),
    ("gcatch.combos_built", "count"),
    ("gcatch.groups_checked", "count"),
    ("gcatch.encodings_shared", "count"),
    ("minismt.queries", "count"),
    ("minismt.steps", "count"),
    ("minismt.conflicts", "count"),
    ("minismt.queries_per_group", "ratio"),
    ("gcatch.traditional_ms", "ms"),
    ("gcatch.render_ms", "ms"),
    ("gcatch.report_bytes", "bytes"),
    ("gfix.fix_ms", "ms"),
    ("gfix.patches", "count"),
    ("gfix.patch_ratio", "ratio"),
    ("golite-ir.diff_ms", "ms"),
    ("gcatch.warm_ms", "ms"),
    ("gcatch.channels_replayed", "count"),
    ("gcatch.channels_reanalyzed", "count"),
    ("gcatch.replay_ratio", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.sessions_reused", "count"),
    ("serve.requests_failed", "count"),
    ("serve.requests_shed", "count"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Counters that depend on how the per-channel worker pool interleaves:
/// with more than one job, which channel first solves a shared encoding
/// decides how many queries the others save. At one job they repeat
/// exactly like every other counter.
pub const SCHEDULING_DEPENDENT: &[&str] = &[
    "gcatch.encodings_shared",
    "minismt.queries",
    "minismt.steps",
    "minismt.conflicts",
    "minismt.queries_per_group",
];

/// Per-operation counter readings, keyed by the input they were taken on,
/// to find out which counters repeat exactly.
#[derive(Default)]
pub struct Determinism {
    seen: BTreeMap<(String, &'static str), Vec<f64>>,
}

impl Determinism {
    /// Records one reading of `counter` on input `input`.
    pub fn record(&mut self, input: &str, counter: &'static str, value: f64) {
        self.seen
            .entry((input.to_string(), counter))
            .or_default()
            .push(value);
    }

    /// For every counter read at least twice on one input: whether all its
    /// readings on each input agreed.
    pub fn verdicts(&self) -> BTreeMap<&'static str, bool> {
        let mut out: BTreeMap<&'static str, bool> = BTreeMap::new();
        for ((_, counter), values) in &self.seen {
            if values.len() < 2 {
                continue;
            }
            let same = values.iter().all(|v| *v == values[0]);
            let e = out.entry(*counter).or_insert(true);
            *e &= same;
        }
        out
    }

    /// Counters declared deterministic for a workload running `jobs`
    /// workers that nevertheless varied.
    pub fn violations(&self, jobs: usize) -> Vec<&'static str> {
        self.verdicts()
            .into_iter()
            .filter(|(c, same)| !same && (jobs == 1 || !SCHEDULING_DEPENDENT.contains(c)))
            .map(|(c, _)| c)
            .collect()
    }

    /// Whether any counter was read twice on the same input.
    pub fn checked(&self) -> bool {
        !self.verdicts().is_empty()
    }
}

/// Accumulates per-layer values over the traced operations.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets one metric. Panics on a name outside [`PER_LAYER`], which is a
    /// bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Every metric of [`PER_LAYER`] with its value (0 when unset).
    pub fn all(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|(n, u)| (*n, self.values.get(n).copied().unwrap_or(0.0), *u))
            .collect()
    }
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Layers timed by a span of the same name, with their metric.
const SPAN_LAYERS: &[(&str, &str)] = &[
    ("golite.parse_ms", "golite.parse"),
    ("golite-ir.lower_ms", "golite-ir.lower"),
    ("gcatch.session_ms", "gcatch.session"),
    ("gcatch.disentangle_ms", "gcatch.disentangle"),
    ("gcatch.bmoc_ms", "gcatch.bmoc"),
    ("gcatch.traditional_ms", "gcatch.traditional"),
    ("gcatch.render_ms", "gcatch.render"),
    ("gfix.fix_ms", "gfix.fix"),
    ("golite-ir.diff_ms", "golite-ir.diff"),
    ("gcatch.warm_ms", "gcatch.warm"),
];

/// Per-layer count metrics read from `GCatch::stats()`.
const COUNTERS: &[(&str, Counter)] = &[
    (
        "golite-ir.alias_queries_solved",
        Counter::AliasQueriesSolved,
    ),
    (
        "golite-ir.alias_funcs_skipped",
        Counter::AliasFunctionsSkipped,
    ),
    ("gcatch.pset_prims", Counter::PsetPrimsTotal),
    ("gcatch.paths_enumerated", Counter::PathsEnumerated),
    ("gcatch.combos_built", Counter::CombosBuilt),
    ("gcatch.groups_checked", Counter::GroupsChecked),
    ("gcatch.encodings_shared", Counter::ChannelEncodingsShared),
    ("minismt.queries", Counter::SolverQueries),
    ("minismt.steps", Counter::SolverSteps),
    ("minismt.conflicts", Counter::SolverConflicts),
];

/// Everything a traced pass collects. Workloads push their operations'
/// times, spans and counters, set their own layer metrics, then call
/// [`TracedPass::finish`].
#[derive(Default)]
pub struct TracedPass {
    /// The spans of the traced operations.
    pub rec: Recorder,
    /// Wall times of the interleaved untraced operations.
    pub plain_ms: Vec<f64>,
    /// Wall times of the traced operations (their `op` root spans).
    pub traced_ms: Vec<f64>,
    /// Counter readings for the determinism check.
    pub det: Determinism,
    /// Metrics set by the workload itself.
    pub layers: Layers,
    /// Source bytes the `golite.parse` spans parsed.
    pub parsed_bytes: usize,
    sessions: Vec<Stats>,
    ir_sizes: Vec<f64>,
}

impl TracedPass {
    /// Records the size of one lowered module.
    pub fn ir_size(&mut self, instrs: usize) {
        self.ir_sizes.push(instrs as f64);
    }

    /// Records one traced detection's session counters and IR size, taken
    /// on input `input`.
    pub fn detection(&mut self, input: &str, stats: Stats, instrs: usize) {
        for (metric, c) in COUNTERS {
            self.det.record(input, metric, stats.counter(*c) as f64);
        }
        self.det.record(input, "golite-ir.instrs", instrs as f64);
        self.ir_size(instrs);
        self.sessions.push(stats);
    }

    /// Mean self time per traced operation of the spans named `name`, ms.
    fn span_mean_ms(&self, self_times: &BTreeMap<&str, u64>, name: &str) -> f64 {
        let total = self_times.get(name).copied().unwrap_or(0);
        ratio(total as f64 / 1e6, self.traced_ms.len() as f64)
    }

    /// Derives the span and counter layers, coverage, overhead and the
    /// determinism verdicts; writes the spans out; and makes the per-layer
    /// metrics the outcome's metrics. `jobs` is the detector's worker count,
    /// which decides which counters may vary.
    pub fn finish(mut self, out: &mut Outcome, jobs: usize, args: &Args) -> Result<(), String> {
        let self_times = trace::self_times(self.rec.spans());
        for (metric, span) in SPAN_LAYERS {
            let ms = self.span_mean_ms(&self_times, span);
            self.layers.set(metric, ms);
        }
        let parse_s =
            self.span_mean_ms(&self_times, "golite.parse") * self.traced_ms.len() as f64 / 1e3;
        self.layers.set(
            "golite.parse_mb_s",
            ratio(self.parsed_bytes as f64 / 1e6, parse_s),
        );
        let ir = ratio(self.ir_sizes.iter().sum(), self.ir_sizes.len() as f64);
        self.layers.set("golite-ir.instrs", ir);

        if !self.sessions.is_empty() {
            let n = self.sessions.len() as f64;
            let mean = |f: &dyn Fn(&Stats) -> f64| self.sessions.iter().map(f).sum::<f64>() / n;
            let counter = |c: Counter| mean(&|s| s.counter(c) as f64);
            for (metric, c) in COUNTERS {
                self.layers.set(metric, counter(*c));
            }
            self.layers.set(
                "minismt.queries_per_group",
                ratio(
                    counter(Counter::SolverQueries),
                    counter(Counter::GroupsChecked),
                ),
            );
            let stage_ms = |st: Stage| mean(&|s| s.stage(st).as_secs_f64() * 1e3);
            self.layers
                .set("gcatch.paths_cpu_ms", stage_ms(Stage::Paths));
            self.layers
                .set("gcatch.constraints_cpu_ms", stage_ms(Stage::Constraints));
            let bmoc_ms = self.span_mean_ms(&self_times, "gcatch.bmoc");
            self.layers.set(
                "gcatch.bmoc_us_per_channel",
                ratio(bmoc_ms * 1e3, counter(Counter::ChannelsAnalyzed)),
            );
        }

        let coverage = trace::leaf_coverage(self.rec.spans());
        self.layers.set("trace.span_coverage", coverage);
        if coverage < 0.9 {
            out.problem(format!("trace.span_coverage {coverage:.3} is below 0.9"));
        }
        let plain = stats::median(&self.plain_ms).unwrap_or(0.0);
        let traced = stats::median(&self.traced_ms).unwrap_or(0.0);
        self.layers
            .set("trace.overhead_pct", ratio((traced - plain) * 100.0, plain));
        out.detail("untraced_op_ms_p50", json_num(plain));
        out.detail("traced_op_ms_p50", json_num(traced));
        out.detail("traced_ops", self.traced_ms.len().to_string());

        if !self.det.checked() {
            out.problem("no counter was read twice on one input".to_string());
        }
        for c in self.det.violations(jobs) {
            out.problem(format!("counter {c} is declared deterministic but varied"));
        }
        let verdicts: Vec<String> = self
            .det
            .verdicts()
            .iter()
            .map(|(c, repeated)| {
                let declared = if jobs > 1 && SCHEDULING_DEPENDENT.contains(c) {
                    "scheduling-dependent"
                } else {
                    "deterministic"
                };
                format!(
                    "{}:{{\"declared\":{},\"repeated\":{repeated}}}",
                    json_str(c),
                    json_str(declared)
                )
            })
            .collect();
        out.detail("counters", format!("{{{}}}", verdicts.join(",")));

        let path = args
            .work_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, self.rec.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        out.detail("trace_file", json_str(&path.display().to_string()));
        out.metrics = self.layers.all();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduling_dependent_counters_may_vary_only_with_several_jobs() {
        let mut d = Determinism::default();
        for v in [10.0, 12.0] {
            d.record("m", "minismt.queries", v);
            d.record("m", "gcatch.groups_checked", 7.0);
        }
        d.record("other", "gcatch.paths_enumerated", 1.0);
        assert!(d.checked());
        let v = d.verdicts();
        assert_eq!(v.get("minismt.queries"), Some(&false));
        assert_eq!(v.get("gcatch.groups_checked"), Some(&true));
        assert_eq!(v.get("gcatch.paths_enumerated"), None, "read once");
        assert!(d.violations(2).is_empty());
        assert_eq!(d.violations(1), vec!["minismt.queries"]);
        d.record("m", "gcatch.groups_checked", 8.0);
        assert_eq!(d.violations(2), vec!["gcatch.groups_checked"]);
    }

    #[test]
    fn every_layer_metric_is_reported() {
        let mut l = Layers::default();
        l.set("gfix.patches", 3.0);
        let all = l.all();
        assert_eq!(all.len(), PER_LAYER.len());
        assert!(all.contains(&("gfix.patches", 3.0, "count")));
        assert!(all.contains(&("gcatch.warm_ms", 0.0, "ms")));
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
