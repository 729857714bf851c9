//! The repository benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|small] [--rustc <version string>]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it replays the workload's traffic through each layer's
//! public entry points and reports the per-layer metrics. Either way the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is a
//! `machine` block. The exit code is 1 when any correctness check failed
//! and 2 on a usage error. `perfbench/README.md` documents the workloads
//! and every metric.
#![deny(unsafe_code)]

mod alloc;
mod epoch;
mod live;
mod offline;

use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <live_budget|live_dense|offline_plan|epoch_server> \
--seed <n> --seconds <s> --trace <0|1> [--scale full|small] [--rustc <version>]";

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 5;

/// Fewest measured repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Input sizes: `Full` is the benchmark, `Small` the self-test.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

impl Scale {
    pub fn pick<T>(self, full: T, small: T) -> T {
        match self {
            Self::Full => full,
            Self::Small => small,
        }
    }
}

/// One run's settings.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// End-to-end metrics a workload measures itself (`peak_rss_mb` is read
/// once for the whole process).
pub struct EndToEnd {
    /// Operations per second of each timed repetition: client arrivals,
    /// or epochs for `epoch_server`. `ops_per_s` is the fastest one: on a
    /// shared host, neighbours bring slow episodes lasting seconds to tens
    /// of seconds that only ever slow a repetition down, so the least
    /// disturbed repetition tracks the program's own speed far more
    /// steadily than the median does.
    pub rates: Vec<f64>,
    /// Median time to build the inputs and warm up.
    pub setup_s: f64,
    /// Transmitted stream-slot units over the horizon: the mean number of
    /// concurrent streams (deterministic for a seed).
    pub mean_streams: f64,
}

/// Declares [`Layers`] and its `entries` from one list of
/// `field: "metric name", "unit";` lines.
macro_rules! layers {
    ($($(#[$doc:meta])* $field:ident: $name:literal, $unit:literal;)*) => {
        /// Per-layer metrics of a traced run. A layer a workload does not
        /// reach reads 0 there.
        #[derive(Default)]
        pub struct Layers {
            $($(#[$doc])* pub $field: f64,)*
        }

        impl Layers {
            /// Every per-layer metric as `(name, value, unit)`, in a fixed
            /// order.
            fn entries(&self) -> Vec<(&'static str, f64, &'static str)> {
                vec![$(($name, self.$field, $unit)),*]
            }

            /// The field-by-field median of traced iterations.
            fn median_of(runs: &[Self]) -> Self {
                Self {
                    $($field: median(&runs.iter().map(|r| r.$field).collect::<Vec<_>>()),)*
                }
            }
        }
    };
}

layers! {
    generate_ns_per_arrival: "workload.generate_ns_per_arrival", "ns";
    merge_runs_ns_per_arrival: "core.merge_runs_ns_per_arrival", "ns";
    policy_ns_per_decision: "online.policy_ns_per_decision", "ns";
    decisions_per_arrival: "online.decisions_per_arrival", "ratio";
    push_ns_mean: "sim.push_ns_mean", "ns";
    push_ns_p50: "sim.push_ns_p50", "ns";
    push_ns_tail: "sim.push_ns_tail", "ns";
    push_tail_percentile: "sim.push_tail_percentile", "%";
    push_samples: "sim.push_samples", "count";
    finish_ms: "sim.finish_ms", "ms";
    reports_per_push: "sim.reports_per_push", "ratio";
    max_open_trees: "sim.max_open_trees", "count";
    allocs_per_push: "sim.allocs_per_push", "count";
    ingest_ns_per_arrival: "serve.ingest_ns_per_arrival", "ns";
    /// Derived from the other medians once all iterations ran.
    serve_self_ns_per_arrival: "serve.self_ns_per_arrival", "ns";
    serve_allocs_per_arrival: "serve.allocs_per_arrival", "count";
    startup_delay_p99_slots: "serve.startup_delay_p99_slots", "slots";
    startup_delay_mean_slots: "serve.startup_delay_mean_slots", "slots";
    bandwidth_units_per_arrival: "sim.bandwidth_units_per_arrival", "units";
    forest_ns_per_arrival: "offline.forest_ns_per_arrival", "ns";
    events_ns_per_arrival: "sim.events_ns_per_arrival", "ns";
    events_allocs_per_arrival: "sim.events_allocs_per_arrival", "count";
    sim_peak_streams: "sim.peak_streams", "streams";
    plan_ms_per_epoch: "server.plan_ms_per_epoch", "ms";
    memo_hit_ratio: "server.memo_hit_ratio", "ratio";
    materialize_ms_per_epoch: "server.materialize_ms_per_epoch", "ms";
    server_allocs_per_epoch: "server.allocs_per_epoch", "count";
    server_peak_streams: "server.peak_streams", "streams";
    trace_overhead_pct: "trace.overhead_pct", "%";
}

/// What one run measured and checked.
pub struct Outcome {
    /// Operations the run attempted (arrivals, or epochs).
    pub attempted: u64,
    /// Operations that errored, were rejected, or belong to a repetition
    /// whose output failed a correctness check.
    pub failed: u64,
    pub end_to_end: EndToEnd,
    /// One entry per traced iteration (empty without `--trace 1`).
    pub layers: Vec<Layers>,
}

impl Outcome {
    /// An empty outcome for a run whose set-up took `setup_s`.
    pub fn new(setup_s: f64) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            end_to_end: EndToEnd {
                rates: Vec::new(),
                setup_s,
                mean_streams: 0.0,
            },
            layers: Vec::new(),
        }
    }

    /// Counts `ops` attempted operations, all failed unless `ok`.
    pub fn tally(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }
}

/// Splitmix64 finalizer: derives independent input parameters from the
/// run's seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// Builds the inputs `SETUPS` times and returns the last build with the
/// median build time in seconds.
pub fn setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS is at least 1"), median(&times))
}

/// Calls `rep` until `seconds` have passed and at least `MIN_REPS` calls
/// were made.
pub fn repeat_for(seconds: f64, mut rep: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut reps = 0;
    while reps < MIN_REPS || Instant::now() < deadline {
        rep();
        reps += 1;
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100) of an ascending sample.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The highest of a fixed ladder of percentiles that still has at least
/// ten samples beyond it, as `(percentile, value)`.
pub fn tail(sorted: &[u64]) -> (f64, f64) {
    const LADDER: [f64; 6] = [99.999, 99.99, 99.9, 99.0, 90.0, 50.0];
    let n = sorted.len() as f64;
    let q = LADDER
        .into_iter()
        .find(|q| n * (1.0 - q / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (q, percentile(sorted, q))
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Mean cost of one `Instant::now()` read, in nanoseconds.
fn clock_read_ns() -> f64 {
    const READS: u32 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(Instant::now());
    }
    ns_since(t0) / f64::from(READS)
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

struct Args {
    workload: String,
    opts: Opts,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut rustc = String::from("unknown");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "small" => Scale::Small,
                    _ => return Err("--scale must be full or small".into()),
                }
            }
            "--rustc" => rustc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale,
        },
        rustc,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = &args.opts;
    let outcome = match args.workload.as_str() {
        "live_budget" => live::run(live::Shape::Budget, opts),
        "live_dense" => live::run(live::Shape::Dense, opts),
        "offline_plan" => offline::run(opts),
        "epoch_server" => epoch::run(opts),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(peak_rss_mb) = peak_rss_mib() else {
        eprintln!("perfbench: cannot read VmHWM from /proc/self/status");
        return ExitCode::from(2);
    };

    let metrics: Vec<(&str, f64, &str)> = if opts.trace {
        let mut m = Layers::median_of(&outcome.layers);
        // The serve loop's own time is what the layers leave of the ingest
        // time. Deriving it from the medians makes the printed figures add
        // up exactly: ingest = policy × decisions + push + finish + self.
        if m.ingest_ns_per_arrival > 0.0 {
            m.serve_self_ns_per_arrival = m.ingest_ns_per_arrival
                - m.policy_ns_per_decision * m.decisions_per_arrival
                - m.push_ns_mean
                - m.finish_ms * 1e6 / m.push_samples;
        }
        m.entries()
    } else {
        let e = &outcome.end_to_end;
        let ops_per_s = e.rates.iter().copied().fold(0.0, f64::max);
        eprintln!(
            "perfbench: {} repetitions, ops/s median {:.0}, best {ops_per_s:.0}",
            e.rates.len(),
            median(&e.rates),
        );
        vec![
            ("ops_per_s", ops_per_s, "ops/s"),
            ("setup_s", e.setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("mean_streams", e.mean_streams, "streams"),
        ]
    };

    println!(
        "{{\"machine\": {{\"cores\": {}, \"rustc\": {}, \"clock_read_ns\": {}}}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_string(&args.rustc),
        json_number(clock_read_ns())
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
