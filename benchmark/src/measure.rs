//! Small measurement helpers shared by both binaries: the clock, order
//! statistics, the simulation digest hash, peak RSS, and the host record.

use std::time::Instant;

/// CPU time the calling thread has consumed, in ns — the clock every timed
/// segment is measured with.
///
/// Not wall time, because the build host is an oversubscribed KVM guest:
/// its hypervisor takes the vCPU away for long stretches (`steal` in
/// `/proc/stat` grew from 5 s to 283 s during one ten-minute measurement),
/// and wall-clock ns/packet doubled and tripled with it. The engine under
/// test is one CPU-bound thread, so the CPU time that thread was given is
/// what the program costs; on a host that does not steal, the two clocks
/// agree. Where the thread clock is not available this falls back to wall
/// time since the first call.
pub fn thread_cpu_ns() -> u64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` is the C library's (std links it), the
        // struct is 64-bit Linux's `timespec` (two 64-bit fields), and `ts`
        // is a valid, writable one for the duration of the call.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
        }
    }
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Cumulative `steal` ticks of the whole machine from `/proc/stat` (time
/// the hypervisor ran someone else on our vCPUs); 0 where there is no such
/// field.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// FNV-1a, 64 bit, over little-endian words.
pub struct Fnv(u64);

impl Fnv {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes the bit pattern, so `-0.0` and `0.0` (and NaN payloads) differ:
    /// the digest pins the simulation bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has ten samples beyond it: for `n`
/// samples, the value with exactly ten larger ones, and which percentile
/// that is. Below eleven samples the median is all the data supports.
pub fn tail_percentile(values: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    let n = values.len();
    if n <= BEYOND {
        return (median(values), 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - 1 - BEYOND;
    (v[idx], 100.0 * (n - BEYOND) as f64 / n as f64)
}

/// A reported metric value, with the range of the per-repetition values it
/// came from beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// `value`, reported beside the spread of `per_rep`.
    pub fn over(value: f64, per_rep: &[f64]) -> Summary {
        Summary {
            value,
            min: per_rep.iter().copied().fold(f64::INFINITY, f64::min),
            max: per_rep.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: per_rep.len(),
        }
    }

    /// A single measured value.
    pub fn one(v: f64) -> Summary {
        Summary::over(v, &[v])
    }
}

/// `VmHWM` (peak resident set) of this process in MB, 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fixed spin-loop calibration: host ns for 2^24 steps of a xorshift
/// recurrence (register-only, one dependent chain, nothing the compiler can
/// fold). Recorded with every result so two runs on differently loaded (or
/// different) hosts can be told apart before their numbers are compared.
pub fn host_spin_ns() -> f64 {
    let run = || {
        let t0 = Instant::now();
        let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..(1u32 << 24) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        t0.elapsed().as_nanos() as f64
    };
    // Best of three: the loop is fixed work, so the minimum is the host's
    // speed and the rest is interference.
    (0..3).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// Host and run identification written into every output.
#[derive(Debug, Clone)]
pub struct Meta {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_commit: String,
    pub seed: u64,
    pub seconds: f64,
    pub host_spin_ns: f64,
    /// [`steal_ticks`] when the run began; the output records the growth.
    pub steal_ticks_at_start: u64,
}

impl Meta {
    pub fn collect(seed: u64, seconds: f64) -> Meta {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_owned(), |m| m.trim().to_owned());
        // The driver's checkout is not a git repository; say so instead of
        // failing.
        let git_commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
        Meta {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("BENCH_RUSTC_VERSION"),
            git_commit,
            seed,
            seconds,
            host_spin_ns: host_spin_ns(),
            steal_ticks_at_start: steal_ticks(),
        }
    }

    /// The line both binaries open their output with.
    pub fn header(&self, tool: &str) -> String {
        format!(
            "{tool}: seed {} seconds {} | {} x {} | {} | commit {} | spin {:.0} ns",
            self.seed,
            self.seconds,
            self.nproc,
            self.cpu_model,
            self.rustc,
            self.git_commit,
            self.host_spin_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 200 slices -> the 95th percentile, ten values above it.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (value, pct) = tail_percentile(&v);
        assert_eq!(pct, 95.0);
        assert_eq!(value, 190.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // 1000 samples support the 99th.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (990.0, 99.0));
        // Eleven samples: the smallest has ten beyond it.
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail_percentile(&v).0, 0.0);
        // Too few for any tail: fall back to the median.
        assert_eq!(tail_percentile(&[3.0, 1.0, 2.0]), (2.0, 50.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fnv_matches_reference_vectors_and_sees_every_bit() {
        // FNV-1a of eight zero bytes.
        let mut h = Fnv::new();
        h.u64(0);
        let mut expect = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..8 {
            expect = expect.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.finish(), expect);
        // Order and sign matter.
        let digest = |vals: &[f64]| {
            let mut h = Fnv::new();
            for &v in vals {
                h.f64(v);
            }
            h.finish()
        };
        assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
        assert_eq!(digest(&[1.5, 2.5]), digest(&[1.5, 2.5]));
    }
}
