//! `perfbench` — the source-to-report benchmark of the GCatch/GFix suite.
//!
//! ```console
//! $ perfbench --workload flat_check --seed 1 --seconds 8 --trace 0 \
//!       --gcatch <target>/release/gcatch-suite --work-dir <scratch dir>
//! ```
//!
//! One invocation runs one workload in a closed loop with a single client
//! for `--seconds`, checks every output against the generator's reference,
//! and prints one JSON object as its last stdout line. With `--trace 0`
//! the metrics are the end-to-end ones, measured without spans; with
//! `--trace 1` they are the per-layer ones from a separate traced pass.
//! See `perfbench/README.md` for the workloads and metrics.

mod check;
mod corpus;
mod host;
mod inputs;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use host::HostClock;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["flat_check", "deep_check", "serve_edit", "corpus_fix"];

/// How many times each run sets the workload up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// Timed operations per second of `--seconds`, by workload. An untraced run
/// measures a fixed number of operations, so every run has the same sample
/// count and `op_ms_tail` sits at the same percentile however fast the host
/// or the program is. The `deep_check` and `corpus_fix` rates are those of
/// the 2-core x86-64 host the benchmark was written on, so a run there
/// lasts about `--seconds`. `flat_check` (0.8 to 1.6 operations a second
/// there) is set higher so that its tail lies above its median (an
/// 8-second run has 24 operations, and its tail is p58.3); `serve_edit`
/// (about 8 a second) is set higher because its throughput depends on
/// which edits the seed's stream draws, and 200 requests average that out.
fn ops_per_second(workload: &str) -> f64 {
    match workload {
        "flat_check" => 3.0,
        "deep_check" => 6.0,
        "serve_edit" => 24.0,
        _ => 63.0,
    }
}

/// A timed loop may run past this only to finish a block or a pass, so a
/// far slower program still ends within the benchmark's time limit. A loop
/// cut short reports fewer operations (and so a lower tail percentile);
/// the detail line says so.
const LOOP_LIMIT: Duration = Duration::from_secs(120);

/// How many operations an untraced run measures.
pub struct Quota {
    /// Operations to measure: a whole number of units.
    pub ops: usize,
    /// Operations per block or pass; the loop stops only between units.
    unit: usize,
}

impl Quota {
    /// The quota for `args`, rounded up to whole units of `unit` operations.
    pub fn new(args: &Args, unit: usize) -> Quota {
        let n = (ops_per_second(&args.workload) * args.seconds.as_secs_f64()).ceil() as usize;
        Quota {
            ops: n.max(1).div_ceil(unit) * unit,
            unit,
        }
    }

    /// Whether a loop that started at `start` and has measured `done`
    /// operations measures another one.
    pub fn more(&self, done: usize, start: Instant) -> bool {
        done < self.ops && (start.elapsed() < LOOP_LIMIT || !done.is_multiple_of(self.unit))
    }
}

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `gcatch-suite` binary `serve_edit` runs as its daemon.
    pub gcatch: PathBuf,
    /// Scratch directory for files the run writes.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut gcatch = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--gcatch" => gcatch = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        gcatch: gcatch.ok_or("--gcatch is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Wall time, source bytes to rendered output.
    pub ms: f64,
    /// Source bytes the operation processed.
    pub bytes: usize,
    /// The [`HostClock`] calibration taken last before the operation.
    pub cal: usize,
}

/// One set-up: wall seconds and the calibration taken last before it.
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    /// Wall seconds.
    pub s: f64,
    /// The [`HostClock`] calibration taken last before the set-up.
    pub cal: usize,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (timed operations only).
    pub attempted: u64,
    /// Operations whose output disagreed with the reference.
    pub failed: u64,
    /// Every failed check, operation or not, described.
    pub problems: Vec<String>,
    /// Metrics by name, value and unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra fields for the detail line, as `(key, raw JSON value)`.
    pub details: Vec<(String, String)>,
}

impl Outcome {
    /// Records the verdict of one timed operation.
    pub fn verdict(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.problem(format!("{what}: {e}"));
        }
    }

    /// Records a failed check that is not a timed operation of its own.
    pub fn problem(&mut self, message: String) {
        // The count is what matters; keep the output short.
        if self.problems.len() < 20 {
            self.problems.push(message);
        }
    }

    /// Adds a detail field whose value is already JSON.
    pub fn detail(&mut self, key: &str, json: String) {
        self.details.push((key.to_string(), json));
    }

    /// Sets the end-to-end metrics from the timed operations, the set-ups
    /// and the peak resident memory, with every time scaled to the
    /// reference host speed by `clock` (see [`host`]). The wall-time values
    /// go on the detail line under `raw`. `quota` is the operation count
    /// the run aimed for.
    pub fn end_to_end(
        &mut self,
        ops: &[OpSample],
        quota: &Quota,
        setups: &[SetupSample],
        clock: &HostClock,
        peak_rss_mb: f64,
    ) {
        let raw_ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
        let raw_setup: Vec<f64> = setups.iter().map(|s| s.s).collect();
        let ms: Vec<f64> = ops.iter().map(|o| o.ms * clock.factor(o.cal)).collect();
        let setup: Vec<f64> = setups.iter().map(|s| s.s * clock.factor(s.cal)).collect();
        let bytes: usize = ops.iter().map(|o| o.bytes).sum();
        self.metrics = time_metrics(&ms, bytes, &setup);
        self.metrics.push(("peak_rss_mb", peak_rss_mb, "MB"));
        let raw: Vec<String> = time_metrics(&raw_ms, bytes, &raw_setup)
            .iter()
            .map(|(name, v, _)| format!("{}:{}", json_str(name), json_num(*v)))
            .collect();
        self.detail("raw", format!("{{{}}}", raw.join(",")));
        let cals = clock.samples();
        self.detail(
            "host_speed",
            json_num(host::CAL_REF_MS / stats::median(cals).unwrap_or(f64::NAN)),
        );
        if let Some(t) = stats::tail(&ms) {
            self.detail("op_ms_tail_percentile", json_num(t.percentile));
            self.detail("op_ms_tail_beyond", t.beyond.to_string());
        }
        if let Some(q) = stats::quartiles(&ms) {
            self.detail(
                "op_ms_quartiles",
                format!("[{},{},{}]", json_num(q[0]), json_num(q[1]), json_num(q[2])),
            );
        }
        self.detail("ops", ops.len().to_string());
        self.detail("cut_short", (ops.len() < quota.ops).to_string());
        self.detail("op_ms", json_list(&ms));
        self.detail("raw_op_ms", json_list(&raw_ms));
        self.detail("setup_samples_s", json_list(&setup));
        self.detail("cal_ms", json_list(cals));
    }
}

/// The time metrics of a run: `op_ms_p50`, `op_ms_tail` and
/// `throughput_kb_s` of the operation times `ms` over `bytes` source bytes,
/// and `setup_s` of the set-up times (seconds).
fn time_metrics(
    ms: &[f64],
    bytes: usize,
    setups: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    let total_ms: f64 = ms.iter().sum();
    vec![
        ("op_ms_p50", stats::median(ms).unwrap_or(0.0), "ms"),
        ("op_ms_tail", stats::tail(ms).map_or(0.0, |t| t.value), "ms"),
        (
            "throughput_kb_s",
            layers::ratio(bytes as f64 / 1e3, total_ms / 1e3),
            "KB/s",
        ),
        ("setup_s", stats::median(setups).unwrap_or(0.0), "s"),
    ]
}

/// A finite number as JSON (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A list of numbers as JSON.
pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
    format!("[{}]", items.join(","))
}

/// A string as JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident memory (`VmHWM`) of a process, in MB (10^6 bytes).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kib * 1024.0 / 1e6)
}

fn main() -> ExitCode {
    // The calibration helper a run starts for itself (see `host`).
    if std::env::args().skip(1).eq(["--calibrator"]) {
        return match host::serve_calibrations() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench --calibrator: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "flat_check" => check::run(&args, inputs::flat_input(args.seed), 1),
        "deep_check" => check::run(&args, inputs::deep_input(args.seed), 2),
        "serve_edit" => serve::run(&args),
        _ => corpus::run(&args),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    print_outcome(&args, &out);
    ExitCode::SUCCESS
}

fn print_outcome(args: &Args, out: &Outcome) {
    let correct = out.failed == 0 && out.problems.is_empty() && out.attempted > 0;
    eprintln!(
        "perfbench: {} seed {} {} run: {} op(s), {} failed (failed_ratio {})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        out.attempted,
        out.failed,
        stats::failed_ratio(out.failed, out.attempted)
    );
    for (name, value, unit) in &out.metrics {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
    for p in &out.problems {
        eprintln!("  FAILED: {p}");
    }

    let mut detail = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"failed_ratio\":{}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds.as_secs_f64()),
        u8::from(args.trace),
        json_num(stats::failed_ratio(out.failed, out.attempted)),
    );
    for (k, v) in &out.details {
        let _ = write!(detail, ",{}:{v}", json_str(k));
    }
    let problems: Vec<String> = out.problems.iter().map(|p| json_str(p)).collect();
    let _ = write!(detail, ",\"problems\":[{}]}}", problems.join(","));
    println!("{detail}");

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, seconds: f64) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 1,
            seconds: Duration::from_secs_f64(seconds),
            trace: false,
            gcatch: PathBuf::new(),
            work_dir: PathBuf::new(),
        }
    }

    #[test]
    fn quota_is_a_fixed_count_of_whole_units() {
        let flat = Quota::new(&args("flat_check", 8.0), 1);
        assert_eq!(flat.ops, 24);
        // Twenty-four samples put the tail at p58.3, above the median.
        let samples: Vec<f64> = (1..=24).map(f64::from).collect();
        let t = stats::tail(&samples).unwrap();
        assert_eq!((t.value, t.beyond), (14.0, 10));
        assert!(t.percentile > 58.0 && t.percentile < 59.0);
        assert!(t.value > stats::median(&samples).unwrap());

        assert_eq!(Quota::new(&args("deep_check", 8.0), 1).ops, 48);
        assert_eq!(Quota::new(&args("serve_edit", 8.0), 10).ops, 200);
        assert_eq!(Quota::new(&args("corpus_fix", 8.0), 21).ops, 504);
        // Rounded up to one whole unit, never zero.
        assert_eq!(Quota::new(&args("serve_edit", 0.01), 10).ops, 10);
    }

    #[test]
    fn loop_stops_at_the_quota_or_past_the_limit_between_units() {
        let q = Quota::new(&args("serve_edit", 8.0), 10);
        let now = Instant::now();
        assert!(q.more(0, now) && q.more(199, now));
        assert!(!q.more(200, now));
        if let Some(late) = now.checked_sub(LOOP_LIMIT) {
            assert!(q.more(15, late), "finishes the block");
            assert!(!q.more(20, late));
        }
    }
}
