//! The CHIME benchmark harness.
//!
//! Everything here measures the repo's crates **from outside**, through
//! their public items only: `bench::driver::{deploy, run_deployed}` and
//! `BenchResult` for the simulated workloads, `serve::tcp::Server` for the
//! real transport, and direct calls into `dmem`, `ycsb`, `sched`, `obs` and
//! `serve` for the per-layer host probes. Two clocks are reported and never
//! mixed: the *virtual* clock (what the modeled hardware would do; exact per
//! seed) and the *host* clock (what the simulator or server costs to run;
//! `std::time::Instant`, legal here because `chime-lint` walks `crates/*`
//! only).
//!
//! `BENCHMARK.json` at the repo root is the single source of metric and
//! workload names, units, directions and bounds; [`spec`] loads it and the
//! harness refuses to print a metric set that differs from it.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod layers;
pub mod probes;
pub mod sim;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod tcp;
pub mod workloads;

/// A named metric value as measured (unit comes from [`spec::Spec`]).
pub type Metrics = std::collections::BTreeMap<String, f64>;

/// Outcome of one workload run in either pass.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations executed in measured phases plus verification checks.
    pub attempted: u64,
    /// Verification failures plus refused, errored or unanswered requests.
    pub failed: u64,
    /// The pass's metrics by name.
    pub metrics: Metrics,
    /// Quartiles and sample count beside each host-clock median.
    pub spread: std::collections::BTreeMap<String, stats::Summary>,
}

/// Fewest repetitions a run reports a median of.
pub const MIN_REPS: usize = 3;
/// Most repetitions a run makes, however short the measured phases are.
pub const MAX_REPS: usize = 9;

/// Whether a run that has made `done` repetitions, whose measured phases add
/// up to `measured_s`, needs another one to fill `seconds`.
pub fn needs_another_rep(done: usize, measured_s: f64, seconds: f64) -> bool {
    done < MIN_REPS || (measured_s < seconds && done < MAX_REPS)
}

impl Outcome {
    /// The timed pass's outcome: the modeled metrics plus the host-clock
    /// ones, each the median of its per-repetition samples.
    pub fn timed(
        mut metrics: Metrics,
        kops: &[f64],
        setups: &[f64],
        attempted: u64,
        failed: u64,
    ) -> Outcome {
        let (kops, setups) = (stats::Summary::of(kops), stats::Summary::of(setups));
        metrics.insert("host_kops".to_string(), kops.median);
        metrics.insert("setup_s".to_string(), setups.median);
        metrics.insert("peak_rss_mb".to_string(), peak_rss_mb());
        Outcome {
            attempted,
            failed,
            metrics,
            spread: [("host_kops", kops), ("setup_s", setups)]
                .into_iter()
                .map(|(name, s)| (name.to_string(), s))
                .collect(),
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64 step: the harness's own seeded stream for verification
/// samples and the TCP request mix (the program under test only ever sees
/// the generated inputs).
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the untimed warm-up phase. It must differ from the measured
/// seed: replaying one key stream twice on one deployment reports a hotspot
/// hit ratio of 1.0 and half the wire bytes.
pub fn warmup_seed(seed: u64) -> u64 {
    seed ^ 0x9E37
}

/// Pins the calling thread, and every thread it spawns from now on, to the
/// highest-numbered CPU it may run on, and returns that CPU.
///
/// Lane handoffs (`sched`) and loopback request/reply wake-ups are
/// OS-thread wake-ups. On a two-vCPU sandbox the kernel sometimes places the
/// woken thread on the other, halted vCPU, and every switch then costs an
/// inter-processor interrupt: 38 us instead of 3.6 us, for as long as the
/// placement lasts (`update_zipf_k4` read 8 kops in one session and 31 kops in
/// the next). One CPU makes every wake-up a same-CPU context switch. No
/// workload loses by it: K = 1 runs are single-threaded, K > 1 lanes run one
/// at a time by construction, and the window-8 closed loop of `serve_tcp`
/// alternates between client and server (188 kreq/s pinned and unpinned).
/// The highest CPU leaves CPU 0 to interrupts and to whoever started us.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // The kernel's default `cpu_set_t`: 1024 bits.
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `bytes` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rfind(|(_, w)| **w != 0)?;
    let cpu = word * 64 + 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the call
    // only reads, and pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

/// Pinning is a Linux facility; elsewhere the harness runs unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
