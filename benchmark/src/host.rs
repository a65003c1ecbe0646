//! Where a result was measured: the provenance block of every result
//! file, the process's peak resident memory, and confinement of a serial
//! request chain to one core.

use std::process::Command;

use crate::json::Value;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One-minute load average, when `/proc/loadavg` exists.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Words of a CPU mask: 16 × 64 = 1024 CPUs, the kernel's default ceiling.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    // pid 0 = the calling thread; cpusetsize is in bytes.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn affinity() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the buffer outlives the call and cpusetsize is its length in
    // bytes; the kernel writes at most that many.
    let ok = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) == 0 };
    ok.then_some(mask)
}

#[cfg(target_os = "linux")]
fn set_affinity(mask: &[u64; MASK_WORDS]) -> bool {
    // SAFETY: the buffer outlives the call and cpusetsize is its length in
    // bytes; the kernel only reads it.
    unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn affinity() -> Option<[u64; MASK_WORDS]> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_mask: &[u64; MASK_WORDS]) -> bool {
    false
}

/// The calling thread confined to one core until this is dropped; threads
/// and processes it starts meanwhile inherit the confinement.
///
/// One client with one request in flight is a serial chain — client →
/// connection reader → worker → writer → client — that never uses two
/// cores at once. Left to the scheduler on a two-core VM the chain either
/// settles on one core, where a hand-off is a context switch (15 µs a round
/// trip), or across both, where every hand-off wakes a halted virtual CPU
/// through the hypervisor (73 µs) — which of the two is decided per run
/// (README, "Sizing evidence"). On one core the chain costs what the
/// program's own hand-offs cost.
pub struct OneCore {
    previous: [u64; MASK_WORDS],
}

/// Confines the calling thread to the highest-numbered core it may run on
/// (any one would do; a fixed choice keeps runs alike). `None`, with a note
/// on stderr, where the kernel refuses or the platform has no such call;
/// the run goes on unconfined.
pub fn one_core() -> Option<OneCore> {
    let pinned = affinity().and_then(|previous| {
        let word = previous.iter().rposition(|&w| w != 0)?;
        let mut mask = [0u64; MASK_WORDS];
        mask[word] = 1 << (63 - previous[word].leading_zeros());
        set_affinity(&mask).then_some(OneCore { previous })
    });
    if pinned.is_none() {
        eprintln!(
            "note: could not confine this thread to one core; request chains may straddle cores"
        );
    }
    pinned
}

impl Drop for OneCore {
    fn drop(&mut self) {
        // Restoring the mask the thread had cannot fail for a reason that
        // confining it did not; nothing to do about it here anyway.
        set_affinity(&self.previous);
    }
}

/// First line a command prints, or "unknown" (the driver's checkout is
/// not a git repository, and a host may lack the tool).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// A run is degraded when it cannot give each of the two load-generating
/// sides a core, or when something else already keeps the cores busy.
pub fn degraded(nproc: usize, load_start: Option<f64>) -> bool {
    nproc < 2 || load_start.is_some_and(|l| l > nproc as f64)
}

/// The host half of the provenance block, taken at start.
pub struct Host {
    pub nproc: usize,
    pub load_start: Option<f64>,
    kernel: String,
    rustc: String,
    commit: String,
}

impl Host {
    pub fn capture() -> Host {
        Host {
            nproc: nproc(),
            load_start: load_average(),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned()),
            rustc: first_line("rustc", &["-V"]),
            commit: first_line("git", &["rev-parse", "HEAD"]),
        }
    }

    pub fn degraded(&self) -> bool {
        degraded(self.nproc, self.load_start)
    }

    /// The provenance object; `run` holds the per-run half (seed, scales,
    /// thread, worker and client counts).
    pub fn provenance(&self, run: Vec<(&'static str, Value)>) -> Value {
        let mut pairs = vec![
            ("nproc", Value::Num(self.nproc as f64)),
            ("load_average_start", Value::opt(self.load_start)),
            ("load_average_end", Value::opt(load_average())),
            ("degraded", Value::Bool(self.degraded())),
            ("kernel", Value::str(&self.kernel)),
            ("rustc", Value::str(&self.rustc)),
            ("git_commit", Value::str(&self.commit)),
        ];
        pairs.extend(run);
        Value::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_below_two_cores_or_on_a_busy_host() {
        assert!(degraded(1, Some(0.0)));
        assert!(degraded(2, Some(2.5)));
        assert!(!degraded(2, Some(1.9)));
        assert!(!degraded(8, None));
    }

    #[test]
    fn provenance_names_the_host_and_the_run() {
        let p = Host::capture().provenance(vec![("seed", Value::Num(3.0))]);
        for key in [
            "nproc",
            "load_average_start",
            "load_average_end",
            "degraded",
            "kernel",
            "rustc",
            "git_commit",
            "seed",
        ] {
            assert!(p.get(key).is_some(), "{key}");
        }
        assert!(peak_rss_mb() >= 0.0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn one_core_confines_and_restores() {
        // The mask belongs to this test's own thread.
        let before = affinity().expect("sched_getaffinity");
        let cores = |m: &[u64; MASK_WORDS]| m.iter().map(|w| w.count_ones()).sum::<u32>();
        {
            let _one = one_core().expect("a thread may always narrow its own mask");
            let during = affinity().expect("sched_getaffinity");
            assert_eq!(cores(&during), 1);
            assert!(during.iter().zip(&before).all(|(d, b)| d & !b == 0));
            // A thread started meanwhile inherits the confinement.
            let inherited = std::thread::spawn(affinity).join().expect("join");
            assert_eq!(inherited, Some(during));
        }
        assert_eq!(affinity(), Some(before));
    }
}
