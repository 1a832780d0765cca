//! Host-speed scaling of the end-to-end times.
//!
//! The benchmark runs on shared hosts whose CPU speed moves in phases of
//! seconds to tens of minutes: the same operation on the same bytes takes
//! 0.6 s in one stretch and 1.2 s in another, all of it user CPU time. A
//! run cannot outlast such a phase, so the untraced runs time a fixed
//! calibration kernel (the benchmark's own code, never the program's)
//! between operations and scale every operation by how fast the host ran
//! the kernel around it:
//!
//! `scaled ms = wall ms × CAL_REF_MS / kernel ms around the operation`
//!
//! The kernel runs in a helper process of its own (`perfbench
//! --calibrator`), so neither its memory nor the heap the program leaves
//! behind reaches the other: the program's peak memory is its own, and a
//! program change cannot make the kernel faster or slower. The helper runs
//! it on the core the operation runs on (see [`Placement`]).
//! A program change moves the scaled times exactly as it moves the wall
//! times; a host phase moves both the kernel and the operation and mostly
//! cancels. The raw wall times stay on the detail line.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Near the kernel's time on the 2-core x86-64 host the benchmark was
/// written on, in a fast phase: a scaled time reads about as the wall time
/// would there.
pub const CAL_REF_MS: f64 = 10.0;

/// Calibrations beyond the nearest one on either side of a piece of work
/// that its scale also averages: three before it and three after it.
const CAL_WINDOW: usize = 2;

/// Keys of the kernel's ordered map.
const MAP_KEYS: u64 = 6_000;

/// Nodes of the kernel's graph.
const GRAPH_NODES: u64 = 40_000;

/// Where an operation runs, and so where the kernel must run to see the
/// same host speed. The two cores of a shared host can run at different
/// speeds at the same moment: a kernel on the other core followed the
/// `flat_check` operations no better than no scaling at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The operation runs on the calling thread, or in a process that
    /// thread wakes and then waits for (the serve daemon), which the
    /// scheduler starts on the same core: the kernel runs on the core the
    /// calling thread is on when it calibrates.
    Caller,
    /// The operation keeps this many threads busy and waits for the
    /// slowest: the kernel runs on as many threads at once, placed by the
    /// scheduler, and the calibration is the wall time of all of them.
    Parallel(usize),
}

/// The calibrations of one run, in the order they were taken.
pub struct HostClock {
    /// Kernel milliseconds, one per calibration.
    cals: Vec<f64>,
    /// Where the kernel runs.
    placement: Placement,
    /// The helper process that runs the kernel; `None` in unit tests.
    helper: Option<Helper>,
}

/// A running `perfbench --calibrator` process.
struct Helper {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Helper {
    /// Sends one request line and reads the kernel milliseconds.
    fn ask(&mut self, request: &str) -> Result<f64, String> {
        let stdin = self.stdin.as_mut().ok_or("calibrator closed")?;
        writeln!(stdin, "{request}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("calibrator: {e}"))?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("calibrator: {e}"))?;
        line.trim()
            .parse()
            .map_err(|_| format!("calibrator replied {line:?} to {request:?}"))
    }
}

impl HostClock {
    /// Starts the helper process for operations placed as `placement`.
    pub fn new(placement: Placement) -> Result<HostClock, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--calibrator")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start the calibrator: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(HostClock {
            cals: Vec::new(),
            placement,
            helper: Some(Helper {
                child,
                stdin,
                stdout,
            }),
        })
    }

    /// Has the helper time the kernel and records the result. Returns the
    /// index of this calibration: work done after it and before the next
    /// one is scaled by [`HostClock::factor`] of that index.
    pub fn calibrate(&mut self) -> Result<usize, String> {
        let helper = self.helper.as_mut().ok_or("no calibrator")?;
        let ms = match self.placement {
            Placement::Caller => match affinity::current_cpu() {
                Some(cpu) => helper.ask(&format!("cpu {cpu}"))?,
                None => helper.ask("threads 1")?,
            },
            Placement::Parallel(n) => helper.ask(&format!("threads {}", n.max(1)))?,
        };
        self.cals.push(ms);
        Ok(self.cals.len() - 1)
    }

    /// The scale for work done between calibration `k` and the next:
    /// `CAL_REF_MS` over the mean of the calibrations from `CAL_WINDOW`
    /// before `k` to `CAL_WINDOW` after `k + 1`, as far as they exist. A
    /// few calibrations around the work follow a host phase that changes
    /// within a run, and their mean smooths a single disturbed one.
    pub fn factor(&self, k: usize) -> f64 {
        let lo = k.saturating_sub(CAL_WINDOW);
        let hi = (k + 1 + CAL_WINDOW).min(self.cals.len() - 1);
        let around = &self.cals[lo..=hi];
        CAL_REF_MS * around.len() as f64 / around.iter().sum::<f64>()
    }

    /// Every calibration, kernel milliseconds.
    pub fn samples(&self) -> &[f64] {
        &self.cals
    }
}

impl Drop for Helper {
    /// Closes the helper's input, which ends it, and waits for it.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

/// The helper's loop (`perfbench --calibrator`): runs the kernel once
/// untimed, so the first calibration does not pay for the process's first
/// heap growth, then answers every request line with the milliseconds one
/// calibration took, until its input closes. `cpu <n>` runs the kernel on
/// core `n`; `threads <n>` runs it on `n` threads at once, on any of the
/// cores the helper started with.
pub fn serve_calibrations() -> Result<(), String> {
    let cpus = affinity::allowed_cpus();
    black_box(kernel());
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let (what, n) = line
            .split_once(' ')
            .and_then(|(w, n)| Some((w, n.trim().parse::<usize>().ok()?)))
            .ok_or_else(|| format!("bad request {line:?}"))?;
        let threads = match what {
            "cpu" => {
                affinity::pin(&[n]);
                1
            }
            "threads" => {
                affinity::pin(&cpus);
                n
            }
            _ => return Err(format!("bad request {line:?}")),
        };
        let t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(|| black_box(kernel()));
            }
            black_box(kernel());
        });
        writeln!(out, "{}", t.elapsed().as_secs_f64() * 1e3)
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The calling thread's core and CPU affinity, through glibc (the
/// benchmark runs on Linux only; it reads `/proc` too).
mod affinity {
    /// Bits of glibc's `cpu_set_t`.
    const SET_BITS: usize = 1024;

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The core the calling thread runs on.
    pub fn current_cpu() -> Option<usize> {
        // SAFETY: no arguments; returns -1 on failure.
        let cpu = unsafe { sched_getcpu() };
        usize::try_from(cpu).ok()
    }

    /// The cores the calling thread may run on.
    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; SET_BITS / 64];
        // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer.
        let rc = unsafe { sched_getaffinity(0, SET_BITS / 8, mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..SET_BITS)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// Restricts the calling thread (and the threads it starts) to `cpus`.
    pub fn pin(cpus: &[usize]) {
        let mut mask = [0u64; SET_BITS / 64];
        for &c in cpus.iter().filter(|&&c| c < SET_BITS) {
            mask[c / 64] |= 1 << (c % 64);
        }
        if mask.iter().any(|&m| m != 0) {
            // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer. A
            // failure leaves the affinity as it was, which only makes the
            // calibration less exact.
            unsafe { sched_setaffinity(0, SET_BITS / 8, mask.as_ptr()) };
        }
    }
}

/// The calibration kernel: fixed work shaped like an analysis pass. It
/// builds an ordered map of formatted string keys and sorts them, then
/// builds a graph of small heap-allocated adjacency lists and walks it
/// with a hash set of visited nodes. Of the kernels tried (dependent loads
/// over small and large tables, plain arithmetic, these two), these two
/// together followed the `flat_check` operation's slow and fast phases
/// most closely: over 110 operations on a host in a noisy stretch, the
/// medians of 15 consecutive operations spread 0.37 in wall time and 0.06
/// scaled.
fn kernel() -> u64 {
    // A generator of its own, so no repository crate can change the kernel.
    let mut state = 0x5eed_ca1b_u64;
    let mut rng = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };

    let mut map = BTreeMap::new();
    for i in 0..MAP_KEYS {
        map.insert(format!("fn_{:x}_{i}", rng() >> 40), i);
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort_unstable_by(|a, b| b.len().cmp(&a.len()).then_with(|| b.cmp(a)));

    let succs: Vec<Vec<u32>> = (0..GRAPH_NODES)
        .map(|_| {
            (0..rng() % 6)
                .map(|_| (rng() % GRAPH_NODES) as u32)
                .collect()
        })
        .collect();
    // SipHash with fixed keys: the same hashes, and so the same work, in
    // every process.
    let mut seen: HashSet<u32, BuildHasherDefault<DefaultHasher>> = HashSet::default();
    let mut stack = vec![0u32];
    while let Some(v) = stack.pop() {
        if seen.insert(v) {
            stack.extend(&succs[v as usize]);
        }
    }
    keys.len() as u64 + seen.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_by_the_calibrations_around_the_work() {
        let clock = HostClock {
            cals: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
                .map(|c| c * CAL_REF_MS)
                .to_vec(),
            placement: Placement::Caller,
            helper: None,
        };
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        // Calibrations 1..=6 around work between calibrations 3 and 4.
        assert!(close(clock.factor(3), 1.0 / 4.5));
        // Near the ends the window is cut short.
        assert!(close(clock.factor(0), 1.0 / 2.5));
        assert!(close(clock.factor(6), 1.0 / 6.0));
        let single = HostClock {
            cals: vec![2.0 * CAL_REF_MS],
            placement: Placement::Caller,
            helper: None,
        };
        assert!(close(single.factor(0), 0.5));
    }

    #[test]
    fn kernel_is_fixed_work() {
        assert_eq!(kernel(), kernel());
    }
}
