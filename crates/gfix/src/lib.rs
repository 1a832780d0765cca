//! # gfix — automated patching of BMOC bugs detected by GCatch
//!
//! GFix (ASPLOS '21, §4) turns each blocking misuse-of-channel bug into a
//! small source-to-source patch using Go's channel-related language
//! features, chosen for readability: Strategy I changes one line (a buffer
//! size), Strategy II defers the missed interaction, and Strategy III adds a
//! stop channel.
//!
//! The pipeline ([`Pipeline`]) mirrors Figure 2: GCatch reports feed the
//! dispatcher, each bug gets the simplest applicable strategy, and every
//! patch can be validated dynamically with the simulator
//! ([`validate::validate`]) — automating the patch-testing process the
//! paper performs manually.
//!
//! # Examples
//!
//! Fix the Figure 1 Docker bug end to end:
//!
//! ```
//! let src = r#"
//! func Exec(ctx context.Context) error {
//!     outDone := make(chan error)
//!     go func() {
//!         outDone <- nil
//!     }()
//!     select {
//!     case err := <-outDone:
//!         return err
//!     case <-ctx.Done():
//!         return ctx.Err()
//!     }
//! }
//!
//! func main() {
//!     ctx, cancel := context.WithCancel(context.Background())
//!     defer cancel()
//!     Exec(ctx)
//! }
//! "#;
//! let pipeline = gfix::Pipeline::from_source(src).unwrap();
//! let results = pipeline.run(&gcatch::DetectorConfig::default());
//! let patch = results.patches.first().expect("Figure 1 is fixable");
//! assert_eq!(patch.strategy, gfix::Strategy::IncreaseBuffer);
//! assert!(patch.after.contains("make(chan error, 1)"));
//! assert_eq!(patch.changed_lines, 2); // one line replaced
//! ```

#![warn(missing_docs)]

pub mod edit;
pub mod fix;
pub mod validate;

pub use fix::{GFix, Patch, Rejection, Strategy};
pub use validate::{try_validate, validate, Validation};

use gcatch::trace::ArgValue;
use gcatch::{DetectorConfig, GCatch, Selection, Stage, Stats, TraceLevel, TraceSnapshot};
use golite::Program;
use golite_ir::Module;

/// End-to-end detect-then-fix results.
#[derive(Debug)]
pub struct PipelineResults {
    /// Every bug GCatch reported.
    pub bugs: Vec<gcatch::BugReport>,
    /// Patches for the bugs GFix could fix, in report order.
    pub patches: Vec<Patch>,
    /// Rejections for the BMOC bugs GFix declined, in report order.
    pub rejections: Vec<(gcatch::BugReport, Rejection)>,
}

/// The full GCatch → GFix pipeline over one source file (Figure 2).
pub struct Pipeline {
    program: Program,
    module: Module,
}

impl Pipeline {
    /// Parses and lowers `src`.
    ///
    /// # Errors
    ///
    /// Returns the parse or lowering error message.
    pub fn from_source(src: &str) -> Result<Pipeline, String> {
        let program = golite::parse(src).map_err(|e| e.to_string())?;
        let module = golite_ir::lower(&program).map_err(|e| e.to_string())?;
        Ok(Pipeline { program, module })
    }

    /// The lowered module (for simulation or further analysis).
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Detects all bugs and patches every fixable BMOC bug.
    pub fn run(&self, config: &DetectorConfig) -> PipelineResults {
        self.run_with_stats(config, &Selection::default()).0
    }

    /// Runs the selected checkers through one shared
    /// [`AnalysisSession`](gcatch::AnalysisSession), patches every fixable BMOC bug under the
    /// `fix` telemetry stage, and returns the results together with the
    /// session's [`Stats`] snapshot (stage timings and pipeline counters).
    pub fn run_with_stats(
        &self,
        config: &DetectorConfig,
        selection: &Selection,
    ) -> (PipelineResults, Stats) {
        let (results, stats, _) = self.run_traced(config, selection, TraceLevel::Off);
        (results, stats)
    }

    /// [`Pipeline::run_with_stats`] with span tracing at `level`: detection
    /// spans come from the shared session's tracer, and the per-bug fix loop
    /// is wrapped in a `fix` span with one `fix_bug` child per BMOC bug
    /// whose `outcome` argument records the winning strategy label
    /// (`S-I`/`S-II`/`S-III`) or the rejection reason.
    pub fn run_traced(
        &self,
        config: &DetectorConfig,
        selection: &Selection,
        level: TraceLevel,
    ) -> (PipelineResults, Stats, TraceSnapshot) {
        let gcatch = GCatch::with_trace(&self.module, level);
        let bugs = gcatch::checkers::flatten(gcatch.run(config, selection));
        let session = gcatch.session();
        let gfix = GFix::new(
            &self.program,
            &self.module,
            &session.analysis,
            &session.prims,
        );
        let (patches, rejections) = session.telemetry().time(Stage::Fix, || {
            let mut lane = session.tracer().lane(0, "main");
            lane.begin("fix", Vec::new());
            let mut patches = Vec::new();
            let mut rejections = Vec::new();
            for bug in &bugs {
                if !bug.kind.is_bmoc() {
                    continue;
                }
                lane.begin(
                    "fix_bug",
                    vec![("primitive", ArgValue::from(bug.primitive_name.as_str()))],
                );
                let (result, attempted) = gfix.fix_annotated(bug);
                for label in &attempted {
                    lane.instant("strategy_tried", vec![("strategy", ArgValue::from(*label))]);
                }
                match result {
                    Ok(patch) => {
                        lane.instant(
                            "fix_applied",
                            vec![("outcome", patch.strategy.label().into())],
                        );
                        patches.push(patch);
                    }
                    Err(r) => {
                        lane.instant("fix_rejected", vec![("outcome", r.to_string().into())]);
                        rejections.push((bug.clone(), r));
                    }
                }
                lane.end();
            }
            lane.end();
            (patches, rejections)
        });
        (
            PipelineResults {
                bugs,
                patches,
                rejections,
            },
            gcatch.stats(),
            gcatch.trace_snapshot(),
        )
    }
}
