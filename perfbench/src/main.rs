//! perfbench — the repository benchmark of the CRISP simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload render-holo --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. One process runs one workload closed-loop,
//! one simulation at a time, at one thread (two in the traced run).
//! The seed picks the camera orbit step of the rendered frame; every
//! simulation's results digest must equal the committed one.
//!
//! * `--trace 0` simulates for `--seconds`, generating the inputs afresh
//!   at several points spread through that time (`setup_s` is the median),
//!   and reports the end-to-end metrics: medians of the per-simulation
//!   rates, the peak resident memory while simulating, and the share of
//!   simulations that succeeded with the committed digest.
//! * `--trace 1` runs every layer once under spans (see `layers.rs`),
//!   reports the per-layer metrics and writes a Chrome trace.
//! * `--bless` prints the digest table for `digests.txt` instead.
//!
//! Each run prints a result row keyed by workload, seed, threads, scale,
//! code identity and `nproc`, and appends it to `perfbench/out/rows.jsonl`
//! (`perfbench/compare.py` compares rows only like for like). The last line
//! of standard output is the result object.

mod digest;
mod layers;
mod spans;
mod stats;
mod workload;

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stats::Summary;
use workload::{Workload, ORBIT_STEPS};

// Counts allocations only while the traced run enables it; otherwise each
// allocation pays one relaxed atomic load.
#[global_allocator]
static ALLOC: crisp_obs::alloc::CountingAlloc = crisp_obs::alloc::CountingAlloc;

/// Input generations per untraced run, spaced evenly through the measured
/// window so that they sample the same drift of the host's speed as the
/// simulations between them; `setup_s` is their median.
const SETUP_REPS: u32 = 9;

const USAGE: &str = "usage: perfbench --workload <render-holo|vio-stream> \
                     --seed <n> --seconds <s> --trace <0|1> [--bless]";

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in output order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Extra `(key, JSON value)` fields of the result row.
    pub row: Vec<(String, String)>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut bless = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--bless" {
                bless = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0 && s.is_finite())
                            .ok_or(format!("bad --seconds {value:?}"))?,
                    )
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if bless {
            return Ok(Args {
                workload: Workload::RenderHolo,
                seed: 0,
                seconds: 0.0,
                trace: false,
                bless,
            });
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
            bless,
        })
    }
}

/// Scratch directory of one run, removed when the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> io::Result<()> {
    let out = Path::new("perfbench").join("out");
    let scratch = Scratch(out.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)?;
    if args.bless {
        return bless(&scratch.0);
    }
    let w = args.workload;
    let step = args.seed % ORBIT_STEPS;
    let o = if args.trace {
        let trace_out = out.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        layers::run(w, step, &scratch.0, &trace_out)?
    } else {
        measure(w, step, args.seconds, &scratch.0)?
    };

    let mut row = vec![
        ("workload".to_string(), format!("\"{}\"", w.name())),
        ("seed".to_string(), args.seed.to_string()),
        ("orbit_step".to_string(), step.to_string()),
        ("threads".to_string(), workload::THREADS.to_string()),
        ("scale".to_string(), "\"paper\"".to_string()),
        (
            "commit".to_string(),
            format!("\"{}\"", stats::source_id(Path::new("."))?),
        ),
        ("nproc".to_string(), stats::nproc().to_string()),
        ("trace".to_string(), args.trace.to_string()),
        ("attempted".to_string(), o.attempted.to_string()),
        ("failed".to_string(), o.failed.to_string()),
    ];
    let metrics = o
        .metrics
        .iter()
        .map(|(name, unit, value)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(",");
    row.push(("metrics".to_string(), format!("{{{metrics}}}")));
    row.extend(o.row);
    let row = format!(
        "{{{}}}",
        row.iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    crisp_obs::json::validate(&row).map_err(io::Error::other)?;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("rows.jsonl"))?
        .write_all(format!("{row}\n").as_bytes())?;
    println!("row {row}");

    for (name, unit, value) in &o.metrics {
        println!("{:<16} {name:<28} {value:>16.6} {unit}", w.name());
    }
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed
    );
    crisp_obs::json::validate(&result).map_err(io::Error::other)?;
    println!("{result}");
    Ok(())
}

/// The untraced run: `--seconds` split into `SETUP_REPS` slices, each of
/// which generates the inputs afresh and then simulates them until the
/// slice ends (at least once).
fn measure(w: Workload, step: u64, seconds: f64, dir: &Path) -> io::Result<Outcome> {
    let mut spans = spans::Spans::new();
    let expected = digest::expected(w, step);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setup_s, mut cps, mut ips) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss_reset = true;
    let mut peak_rss = 0.0f64;
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    for slice in 1..=SETUP_REPS {
        let t = Instant::now();
        let inputs = workload::setup(w, step, dir, &mut spans)?;
        setup_s.push(t.elapsed().as_secs_f64());
        // The peak mark restarts after every set-up, so the peak read
        // below covers simulations only.
        if rss_reset && stats::reset_peak_rss().is_err() {
            rss_reset = false;
            eprintln!("perfbench: cannot reset the peak-RSS mark; peak_rss_mib includes set-up");
        }
        let slice_end = start + window * slice / SETUP_REPS;
        loop {
            let b = workload::simulation(w, &inputs, dir);
            let t = Instant::now();
            let r = b.run();
            let secs = t.elapsed().as_secs_f64();
            attempted += 1;
            match r {
                Ok(r) if Some(digest::digest(&r)) == expected => {
                    let instrs: u64 = r.per_stream.values().map(|s| s.stats.instructions).sum();
                    cps.push(r.cycles as f64 / secs);
                    ips.push(instrs as f64 / secs);
                }
                Ok(r) => {
                    failed += 1;
                    eprintln!(
                        "perfbench: digest {:016x} differs from the committed {expected:016x?}",
                        digest::digest(&r)
                    );
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("perfbench: simulation failed: {e}");
                }
            }
            if Instant::now() >= slice_end {
                break;
            }
        }
        peak_rss = peak_rss.max(stats::peak_rss_mib()?);
    }

    let setup = Summary::of(&setup_s, true);
    let cps = Summary::of(&cps, false);
    let ips = Summary::of(&ips, false);
    let or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };
    let success = (attempted - failed) as f64 / attempted as f64;
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", "s", or_zero(setup.median)),
            ("sim_cycles_per_s", "1/s", or_zero(cps.median)),
            ("sim_instrs_per_s", "1/s", or_zero(ips.median)),
            ("peak_rss_mib", "MiB", peak_rss),
            ("success_rate", "ratio", success),
        ],
        row: vec![
            ("rss_reset".to_string(), rss_reset.to_string()),
            ("setup_s".to_string(), setup.json()),
            ("sim_cycles_per_s".to_string(), cps.json()),
            ("sim_instrs_per_s".to_string(), ips.json()),
        ],
    })
}

/// Print the digest table for `digests.txt`: every orbit step of both
/// workloads.
fn bless(dir: &Path) -> io::Result<()> {
    println!("# Expected results digest per workload and orbit step (perfbench --bless).");
    for w in Workload::ALL {
        for step in 0..ORBIT_STEPS {
            let inputs = workload::setup(w, step, dir, &mut spans::Spans::new())?;
            let r = workload::simulation(w, &inputs, dir)
                .run()
                .map_err(io::Error::other)?;
            println!("{} {step} {:016x}", w.name(), digest::digest(&r));
        }
    }
    Ok(())
}
