//! The sweep worker: claims jobs from the on-disk lease queue, executes
//! them, and journals every decision to its own crash-safe journal.
//!
//! A worker is deliberately dumb: it scans the manifest's jobs in order,
//! [claims](crate::sweep::try_claim) the first un-done, un-leased one it
//! finds, runs it through a caller-supplied executor (the CLI wires in a
//! single-job batch engine configured identically to `gcatch batch`, which
//! journals the decided record itself), marks the job done, releases the
//! lease, and moves on. All supervision — heartbeat staleness, lease
//! expiry, re-leasing, quarantining — lives in the
//! [coordinator](crate::sweep::Coordinator); a worker that dies at any
//! point simply stops renewing, and its jobs flow back into the queue.
//!
//! A background thread keeps the worker visible while a job runs: every
//! quarter-lease it bumps the worker's heartbeat counter and pushes the
//! current lease's deadline forward. The `sweep.heartbeat` fault site
//! suppresses the former (a live-but-silent worker, culled by the
//! coordinator); `sweep.lease` suppresses the latter for one claim (the
//! lease expires mid-job and the job is re-leased while this worker keeps
//! working — the duplicate-decision path). The `sweep.worker` site makes
//! the process exit with [`WORKER_KILL_EXIT`] right after a claim, the
//! cheapest faithful stand-in for a mid-job crash.

use crate::durable;
use crate::faults::{
    should_inject, with_scope, FaultPlan, SITE_SWEEP_HEARTBEAT, SITE_SWEEP_LEASE, SITE_SWEEP_WORKER,
};
use crate::sweep::{
    is_done, read_lease, release_count, remove_lease, renew_lease, shutdown_requested, try_claim,
    SweepLayout, WORKER_KILL_EXIT,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Worker-process configuration.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// This worker's id (unique within the sweep; used in lease, journal,
    /// heartbeat, and pid file names).
    pub id: String,
    /// Lease time-to-live granted on claim and restored on each renewal.
    pub lease: Duration,
    /// Idle rescan interval when nothing is claimable.
    pub poll: Duration,
    /// Fault plan for the `sweep.*` sites (`None` disarms them).
    pub plan: Option<Arc<FaultPlan>>,
}

/// What a cleanly-exited worker did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Jobs this worker claimed, executed, and marked done.
    pub executed: usize,
}

/// The lease the background thread is currently responsible for renewing.
struct CurrentLease {
    job: usize,
    generation: u64,
    /// `sweep.lease` fired for this claim: stop renewing and let the
    /// coordinator expire it mid-job.
    renew_suppressed: bool,
}

/// Runs the worker loop to completion: claim → execute → mark done →
/// release, until every manifest job is decided or the coordinator
/// requests shutdown. `exec(index, id)` must journal the job's decided
/// record durably before returning `Ok` — "done" here means "the decision
/// is on disk", nothing weaker.
pub fn run_worker(
    layout: &SweepLayout,
    ids: &[String],
    config: &WorkerConfig,
    mut exec: impl FnMut(usize, &str) -> Result<(), String>,
) -> Result<WorkerSummary, String> {
    let pid_path = layout.pid_path(&config.id);
    durable::replace(&pid_path, format!("{}\n", std::process::id()))
        .map_err(|e| format!("cannot write pid file {}: {e}", pid_path.display()))?;

    // Sticky per-worker heartbeat suppression: decided once so a suppressed
    // worker stays silent for its whole life (a flaky heartbeat would evade
    // the staleness detector).
    let hb_suppressed = match &config.plan {
        Some(plan) => with_scope(Arc::clone(plan), &config.id, 1, || {
            should_inject(SITE_SWEEP_HEARTBEAT, "hb")
        }),
        None => false,
    };

    let current: Arc<Mutex<Option<CurrentLease>>> = Arc::new(Mutex::new(None));
    let stop = Arc::new(AtomicBool::new(false));
    let beat = {
        let layout = layout.clone();
        let id = config.id.clone();
        let lease_ttl = config.lease;
        let current = Arc::clone(&current);
        let stop = Arc::clone(&stop);
        let interval = (config.lease / 4).max(Duration::from_millis(5));
        std::thread::spawn(move || {
            let mut count: u64 = 0;
            while !stop.load(Ordering::Relaxed) {
                if !hb_suppressed {
                    count += 1;
                    let _ = durable::replace(&layout.heartbeat_path(&id), format!("{count}\n"));
                }
                if let Some(cur) = current.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
                    if !cur.renew_suppressed {
                        let _ = renew_lease(&layout, cur.job, &id, cur.generation, lease_ttl);
                    }
                }
                std::thread::sleep(interval);
            }
        })
    };

    let result = (|| -> Result<WorkerSummary, String> {
        let mut summary = WorkerSummary::default();
        loop {
            let mut all_done = true;
            let mut claimed_any = false;
            for (job, id) in ids.iter().enumerate() {
                if shutdown_requested(layout) {
                    return Ok(summary);
                }
                if is_done(layout, job) {
                    continue;
                }
                all_done = false;
                let generation = release_count(layout, job);
                let claimed = try_claim(layout, job, &config.id, generation, config.lease)
                    .map_err(|e| format!("cannot claim job {job}: {e}"))?;
                if !claimed {
                    continue;
                }
                claimed_any = true;

                // Fault probes for this claim, keyed on the generation so a
                // re-leased job rolls fresh dice each time around.
                let attempt = generation as u32 + 1;
                let (kill, renew_suppressed) = match &config.plan {
                    Some(plan) => with_scope(Arc::clone(plan), id, attempt, || {
                        (
                            should_inject(SITE_SWEEP_WORKER, "kill"),
                            should_inject(SITE_SWEEP_LEASE, "renew"),
                        )
                    }),
                    None => (false, false),
                };
                if kill {
                    // A simulated crash: the lease stays held and un-renewed;
                    // the coordinator reaps the dead process and re-leases.
                    std::process::exit(WORKER_KILL_EXIT);
                }

                *current.lock().unwrap_or_else(|e| e.into_inner()) = Some(CurrentLease {
                    job,
                    generation,
                    renew_suppressed,
                });
                let outcome = exec(job, id);
                *current.lock().unwrap_or_else(|e| e.into_inner()) = None;
                outcome?;

                crate::sweep::mark_done(layout, job)
                    .map_err(|e| format!("cannot mark job {job} done: {e}"))?;
                // Release only if we still own this exact claim: an
                // expired-and-re-leased job's new lease belongs to someone
                // else and must survive us.
                if read_lease(layout, job)
                    .is_some_and(|l| l.worker == config.id && l.generation == generation)
                {
                    remove_lease(layout, job)
                        .map_err(|e| format!("cannot release job {job}: {e}"))?;
                }
                summary.executed += 1;
            }
            if all_done || shutdown_requested(layout) {
                return Ok(summary);
            }
            if !claimed_any {
                std::thread::sleep(config.poll);
            }
        }
    })();

    stop.store(true, Ordering::Relaxed);
    let _ = beat.join();
    let _ = durable::remove(&pid_path);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{JobRecord, JobStatus, Journal, JournalCodec};
    use crate::sweep::merge_journals;
    use std::time::Duration;

    fn scratch(name: &str) -> SweepLayout {
        let root = std::env::temp_dir().join(format!(
            "gcatch-worker-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&root).ok();
        let layout = SweepLayout::new(root);
        layout.init().unwrap();
        layout
    }

    #[test]
    fn two_workers_decide_every_job_exactly_once() {
        let layout = scratch("pair");
        let ids: Vec<String> = (0..12).map(|i| format!("job-{i}")).collect();
        let codec = JournalCodec::raw_json();

        let mut handles = Vec::new();
        for w in 0..2 {
            let layout = layout.clone();
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                let id = format!("w{w}");
                let journal = Journal::create(&layout.journal_path(&id), &ids).unwrap();
                let codec = JournalCodec::raw_json();
                let config = WorkerConfig {
                    id,
                    lease: Duration::from_secs(30),
                    poll: Duration::from_millis(2),
                    plan: None,
                };
                run_worker(&layout, &ids, &config, |_, job| {
                    journal
                        .record(
                            &JobRecord {
                                id: job.to_string(),
                                status: JobStatus::Done,
                                attempts: 1,
                                payload: Some(format!("{{\"job\":\"{job}\"}}")),
                                incident: None,
                                wall: Duration::ZERO,
                            },
                            &codec,
                        )
                        .map_err(|e| e.to_string())
                })
                .unwrap()
            }));
        }
        let executed: usize = handles
            .into_iter()
            .map(|h| h.join().unwrap().executed)
            .sum();
        assert_eq!(executed, ids.len(), "every job executed exactly once");

        let merge = merge_journals(&layout, &ids, &codec).unwrap();
        assert!(merge.missing.is_empty());
        assert!(merge.duplicates.is_empty(), "{:?}", merge.duplicates);
        assert_eq!(merge.records.len(), ids.len());
        for (rec, id) in merge.records.iter().zip(&ids) {
            assert_eq!(&rec.id, id);
            assert_eq!(rec.status, JobStatus::Done);
        }
        // Leases are all released and heartbeats were written.
        for job in 0..ids.len() {
            assert!(read_lease(&layout, job).is_none());
            assert!(is_done(&layout, job));
        }
        assert!(layout.heartbeat_path("w0").exists());
        std::fs::remove_dir_all(layout.root()).ok();
    }

    #[test]
    fn worker_exits_on_shutdown_marker() {
        let layout = scratch("shutdown");
        let ids = vec!["only.go".to_string()];
        crate::sweep::request_shutdown(&layout).unwrap();
        let config = WorkerConfig {
            id: "w0".to_string(),
            lease: Duration::from_secs(5),
            poll: Duration::from_millis(2),
            plan: None,
        };
        let summary = run_worker(&layout, &ids, &config, |_, _| {
            panic!("must not execute after shutdown")
        })
        .unwrap();
        assert_eq!(summary.executed, 0);
        std::fs::remove_dir_all(layout.root()).ok();
    }
}
