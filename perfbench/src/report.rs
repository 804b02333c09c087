//! Run results: named metrics with units, output-check accounting, the
//! run header, and the small order statistics every workload shares.

use std::fmt::Write as _;

/// Version of the result and header schema this benchmark prints.
pub const SCHEMA_VERSION: u32 = 1;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Output-check accounting: every check is one attempt; a failed check
/// is counted (and its first few descriptions logged) instead of
/// aborting the run.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Records one check; `what` describes a failure for the log.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("[perfbench] check failed: {}", what());
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// Everything a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    /// Extra run-header fields (resolved threads, derived seeds, ...),
    /// rendered as JSON values.
    pub header: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn header(&mut self, key: &'static str, value: impl ToString) {
        self.header.push((key, value.to_string()));
    }
}

/// Renders the final result line. Non-finite values cannot be written
/// as JSON numbers, so they are reported as an error instead.
pub fn result_line(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.checks.failed() == 0,
        outcome.checks.attempted(),
        outcome.checks.failed()
    ))
}

/// Renders the run header as one JSON object line.
pub fn header_line(fields: &[(&'static str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"perfbench_header\": {{{}}}}}", body.join(", "))
}

/// JSON string literal for header values.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Timed operations a run makes at the least, however short `--seconds`.
pub const MIN_SAMPLES: usize = 5;

/// The fastest of a run's repeated operations. The host is shared, and
/// interference from other tenants only ever adds time, so the fastest
/// repetition of the same work is the steadiest estimate of its cost.
pub fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Repeats `op` for at least `seconds` (and [`MIN_SAMPLES`] times), in
/// rounds that run one copy on each of `copies` threads at once, and
/// hands every copy's wall time and result to `record` as its round
/// ends. Results are not kept, so peak memory does not grow with the
/// repetition count. Interference on this host hits each core on its
/// own, so concurrent copies give more chances that some repetition ran
/// undisturbed.
pub fn timed_rounds<T: Send>(
    copies: usize,
    seconds: f64,
    op: impl Fn() -> T + Sync,
    mut record: impl FnMut(f64, T),
) {
    let op = &op;
    let mut done = 0;
    let start = std::time::Instant::now();
    while done < MIN_SAMPLES || start.elapsed().as_secs_f64() < seconds {
        let round: Vec<(f64, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..copies.max(1))
                .map(|_| {
                    scope.spawn(move || {
                        let t = std::time::Instant::now();
                        let value = op();
                        (t.elapsed().as_secs_f64(), value)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("timed operation panicked"))
                .collect()
        });
        for (wall, value) in round {
            record(wall, value);
            done += 1;
        }
    }
}

/// Copies of the timed operation per round: one per core, at most two.
pub fn copies() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of an already sorted sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` mirrors the 64-bit Linux `struct rusage` layout
    // (two `timeval`s followed by fourteen `long`s), so the kernel writes
    // only inside `usage`, which outlives the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss_kb as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// splitmix64: derives independent seeds from the run seed and reseeds
/// the benchmark's own samplers.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny deterministic sampler for the benchmark's own choices (which
/// windows to re-score, which clips go into which request).
pub struct Sampler(u64);

impl Sampler {
    pub fn new(seed: u64) -> Self {
        Sampler(seed)
    }

    pub fn below(&mut self, n: usize) -> usize {
        self.0 = mix(self.0);
        (self.0 % n as u64) as usize
    }
}
