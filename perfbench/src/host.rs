//! The host side of a run: the fixed reference kernel that measures how
//! fast the machine is running right now, process CPU time, peak RSS and
//! the provenance line.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// The reference kernel's nominal time per sample, in ms, on the machine
/// the benchmark was defined on. Set once and never retuned; the kernel is
/// sized to it, and `host.speed_factor` reports the host's speed against
/// it.
pub const NOMINAL_REF_MS: f64 = 45.0;

/// Side of the reference plane: 128×128×3 f64 is 384 KiB, L2-sized.
const REF_SIDE: usize = 128;
/// Box-sum passes per sample, sized so one sample takes about
/// [`NOMINAL_REF_MS`].
const REF_PASSES: usize = 225;

/// One 5×5 box-sum pass over a 3-plane grid, written into `out`.
fn box_sum(input: &[f64], out: &mut [f64]) {
    let n = REF_SIDE;
    for (plane_in, plane_out) in input.chunks_exact(n * n).zip(out.chunks_exact_mut(n * n)) {
        for y in 2..n - 2 {
            for x in 2..n - 2 {
                let mut acc = 0.0;
                for dy in 0..5 {
                    let row = &plane_in[(y + dy - 2) * n + x - 2..][..5];
                    acc += row[0] + row[1] + row[2] + row[3] + row[4];
                }
                plane_out[y * n + x] = acc * 0.04;
            }
        }
    }
}

/// One reference measurement in ms: wall time, and the CPU time the
/// measuring threads were given. On a shared VM the two part ways when
/// the hypervisor takes the CPU away (steal counts in wall time, not in
/// CPU time), so wall-clock metrics are scaled by the wall reading and
/// CPU-time metrics by the CPU reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ref {
    pub wall: f64,
    pub cpu: f64,
}

/// Runs the reference kernel once on the calling thread.
fn reference_kernel() -> Ref {
    let mut a: Vec<f64> = (0..3 * REF_SIDE * REF_SIDE).map(|i| (i % 251) as f64).collect();
    let mut b = vec![0.0; a.len()];
    let cpu0 = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
    let started = Instant::now();
    for _ in 0..REF_PASSES {
        box_sum(black_box(&a), &mut b);
        std::mem::swap(&mut a, &mut b);
    }
    black_box(&a);
    let wall = started.elapsed().as_secs_f64() * 1e3;
    Ref { wall, cpu: (cpu_clock_s(CLOCK_THREAD_CPUTIME_ID) - cpu0) * 1e3 }
}

/// One reference sample: the kernel runs once on each of `threads`
/// threads at the same time (so it sees the machine the way the program's
/// workers do); the sample is the mean of their readings. Call it only
/// while no program work is in flight.
pub fn reference_sample(threads: usize) -> Ref {
    let barrier = Barrier::new(threads);
    let readings: Vec<Ref> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    reference_kernel()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reference kernel panicked")).collect()
    });
    let n = readings.len() as f64;
    Ref {
        wall: readings.iter().map(|r| r.wall).sum::<f64>() / n,
        cpu: readings.iter().map(|r| r.cpu).sum::<f64>() / n,
    }
}

/// Share of a timed phase spent on reference samples after it: a long
/// phase gets several samples, so the estimate of host speed averages
/// over a fixed share of the run instead of one 45 ms glimpse.
const REF_DUTY: f64 = 0.1;

/// Reference samples taken between timed phases. Each gap between phases
/// holds one or more samples; a phase is scaled by the mean of the
/// medians of the two gaps that bracket it.
pub struct HostClock {
    threads: usize,
    samples: Vec<Ref>,
    /// Median of the latest gap's samples.
    gap: Ref,
}

fn median_ref(samples: &[Ref]) -> Ref {
    let pick =
        |f: fn(&Ref) -> f64| crate::stats::median(&samples.iter().map(f).collect::<Vec<_>>());
    Ref { wall: pick(|r| r.wall), cpu: pick(|r| r.cpu) }
}

impl HostClock {
    /// Takes the first gap's sample.
    pub fn new(threads: usize) -> Self {
        let first = reference_sample(threads);
        Self { threads, samples: vec![first], gap: first }
    }

    /// Samples the gap after a phase that took `phase_s` seconds (at
    /// least one sample, more until they add up to [`REF_DUTY`] of the
    /// phase) and returns the mean of this gap's median and the previous
    /// gap's.
    pub fn bracket(&mut self, phase_s: f64) -> Ref {
        let before = self.gap;
        let first = self.samples.len();
        let mut spent = 0.0;
        while self.samples.len() == first || spent < REF_DUTY * phase_s * 1e3 {
            let sample = reference_sample(self.threads);
            spent += sample.wall;
            self.samples.push(sample);
        }
        self.gap = median_ref(&self.samples[first..]);
        Ref { wall: (before.wall + self.gap.wall) / 2.0, cpu: (before.cpu + self.gap.cpu) / 2.0 }
    }

    /// Every sample taken so far.
    pub fn samples(&self) -> &[Ref] {
        &self.samples
    }

    /// Median of the samples from index `from` on.
    pub fn median_since(&self, from: usize) -> Ref {
        median_ref(&self.samples[from..])
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call; the clock ids are
    // constants the kernel accepts.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU time of the whole process (all threads, live or
/// exited), in seconds.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset VmHWM: {e}"))
}

/// Peak resident set size since the last reset, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The commit of the checkout, read from `.git` in the working directory
/// only (`"none"` when the checkout is not a repository).
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "none".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Number of CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The provenance line: what ran, where, and how fast the host was.
pub fn provenance(
    workload: &str,
    seed: u64,
    seconds: f64,
    threads: usize,
    reference: Ref,
    ref_samples: usize,
) -> String {
    format!(
        "{{\"git_rev\":\"{}\",\"rustc\":\"{}\",\"cpu\":\"{}\",\"nproc\":{},\"threads\":{threads},\
         \"simd\":{},\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"ref_nominal_ms\":{NOMINAL_REF_MS},\"ref_median_ms\":{:.4},\"ref_median_cpu_ms\":{:.4},\"ref_samples\":{ref_samples}}}",
        git_rev(),
        rustc_version(),
        cpu_model().replace('"', "'"),
        nproc(),
        cfg!(feature = "simd"),
        reference.wall,
        reference.cpu,
    )
}
