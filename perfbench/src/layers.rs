//! The traced run: one pass over every layer, timed from outside by spans
//! around calls into that layer's public functions, plus the simulator's
//! own host-clock phase split (`.host_profile(true)`) and the counting
//! allocator. End-to-end numbers never come from this run.

use std::io;
use std::path::Path;

use crisp_analyze::{AnalysisConfig, InterferenceSpec, L2Share};
use crisp_obs::HostPhase;
use crisp_sim::{GpuConfig, GpuSim, L2Policy, SimResult};
use crisp_trace::{KernelId, TraceInput, TraceSource};

use crate::digest;
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workload::{self, Input, Workload};
use crate::Outcome;

/// Untraced/traced simulation pairs behind `bench.trace_overhead`.
const OVERHEAD_PAIRS: usize = 4;

/// Every per-layer metric: name, unit, which direction is better, and the
/// end-to-end metric it should move on which workload.
pub const LAYER_METRICS: [(&str, &str, &str, &str); 44] = [
    (
        "scenes.build_s",
        "s",
        "lower",
        "setup_s on render-holo; barely on vio-stream",
    ),
    (
        "gfx.render_s",
        "s",
        "lower",
        "setup_s on render-holo; barely on vio-stream",
    ),
    (
        "scenes.compute_gen_s",
        "s",
        "lower",
        "setup_s on render-holo; barely on vio-stream",
    ),
    (
        "gfx.kernels",
        "count",
        "lower",
        "setup_s on render-holo; barely on vio-stream",
    ),
    (
        "gfx.ctas",
        "count",
        "lower",
        "setup_s on render-holo; barely on vio-stream",
    ),
    (
        "trace.encode_s",
        "s",
        "lower",
        "setup_s on vio-stream; none on render-holo",
    ),
    (
        "trace.decode_s",
        "s",
        "lower",
        "sim_cycles_per_s on vio-stream; none on render-holo",
    ),
    (
        "trace.validate_s",
        "s",
        "lower",
        "sim_cycles_per_s on vio-stream; none on render-holo",
    ),
    (
        "trace.container_bytes",
        "bytes",
        "lower",
        "sim_cycles_per_s, peak_rss_mib on vio-stream",
    ),
    (
        "trace.bytes_decoded",
        "bytes",
        "lower",
        "sim_cycles_per_s on vio-stream",
    ),
    (
        "trace.ctas_decoded",
        "count",
        "lower",
        "sim_cycles_per_s on vio-stream",
    ),
    (
        "trace.peak_resident_bytes",
        "bytes",
        "lower",
        "peak_rss_mib on vio-stream",
    ),
    (
        "analyze.run_s",
        "s",
        "lower",
        "sim_cycles_per_s on vio-stream only",
    ),
    (
        "analyze.findings",
        "count",
        "lower",
        "sim_cycles_per_s on vio-stream only",
    ),
    (
        "ckpt.write_s",
        "s",
        "lower",
        "sim_cycles_per_s on vio-stream only",
    ),
    (
        "ckpt.read_s",
        "s",
        "lower",
        "sim_cycles_per_s on vio-stream only",
    ),
    (
        "ckpt.bytes",
        "bytes",
        "lower",
        "sim_cycles_per_s on vio-stream only",
    ),
    (
        "sim.preflight_s",
        "s",
        "lower",
        "sim_cycles_per_s on every workload",
    ),
    (
        "sim.analyze_s",
        "s",
        "lower",
        "sim_cycles_per_s on vio-stream only",
    ),
    (
        "sim.dispatch_s",
        "s",
        "lower",
        "sim_cycles_per_s on every workload",
    ),
    (
        "sim.execute_s",
        "s",
        "lower",
        "sim_cycles_per_s on render-holo (SM issue) and vio-stream (idle SMs)",
    ),
    (
        "sim.barrier_wait_s",
        "s",
        "lower",
        "none at 1 thread; sim_cycles_per_s of 2-thread runs",
    ),
    (
        "sim.port_drain_s",
        "s",
        "lower",
        "sim_cycles_per_s on every workload",
    ),
    (
        "sim.mem_tick_s",
        "s",
        "lower",
        "sim_cycles_per_s on every workload",
    ),
    (
        "sim.checkpoint_io_s",
        "s",
        "lower",
        "sim_cycles_per_s on vio-stream only",
    ),
    (
        "sim.export_s",
        "s",
        "lower",
        "sim_cycles_per_s on every workload",
    ),
    (
        "sim.phase_coverage",
        "ratio",
        "higher",
        "none: the profiler's own accuracy",
    ),
    (
        "sim.shard_imbalance",
        "ratio",
        "lower",
        "none at 1 thread; sim_cycles_per_s of 2-thread runs",
    ),
    (
        "sim.allocs_per_cycle",
        "1/cycle",
        "lower",
        "sim_cycles_per_s on render-holo and vio-stream",
    ),
    (
        "sim.alloc_mib",
        "MiB",
        "lower",
        "sim_cycles_per_s on render-holo and vio-stream",
    ),
    (
        "sim.execute_ns_per_sm_cycle",
        "ns",
        "lower",
        "sim_cycles_per_s on render-holo and vio-stream",
    ),
    (
        "sm.issue_per_sm_cycle",
        "1/cycle",
        "higher",
        "none: simulated, identical across speed-only changes",
    ),
    (
        "sm.empty_slot_share",
        "ratio",
        "lower",
        "none: simulated; room for idle-SM sleep",
    ),
    (
        "sm.blocked_slot_share",
        "ratio",
        "lower",
        "none: simulated; room for issue work",
    ),
    ("sm.stall_mem_pending", "count", "lower", "none: simulated"),
    ("sm.stall_scoreboard", "count", "lower", "none: simulated"),
    ("sm.stall_mshr_full", "count", "lower", "none: simulated"),
    ("mem.l1_accesses", "count", "lower", "none: simulated"),
    ("mem.l1_hit_rate", "ratio", "higher", "none: simulated"),
    ("mem.l2_accesses", "count", "lower", "none: simulated"),
    ("mem.l2_hit_rate", "ratio", "higher", "none: simulated"),
    ("mem.dram_bytes", "bytes", "lower", "none: simulated"),
    (
        "mem.tick_ns_per_l2_access",
        "ns",
        "lower",
        "sim_cycles_per_s on every workload",
    ),
    (
        "bench.trace_overhead",
        "ratio",
        "lower",
        "none: cost of this traced run",
    ),
];

/// Run every layer once for `w` at orbit step `step` and report the
/// per-layer metrics. `dir` is scratch space; `trace_out` receives the
/// Chrome trace of the layer spans and the simulator's host profile.
pub fn run(w: Workload, step: u64, dir: &Path, trace_out: &Path) -> io::Result<Outcome> {
    let mut spans = Spans::new();
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let expected = digest::expected(w, step);
    let mut attempted = 0;
    let mut failed = 0;
    let mut check = |ok: bool, what: &str| {
        attempted += 1;
        if !ok {
            failed += 1;
            eprintln!("perfbench: {what}");
        }
    };
    let digest_ok = |r: &SimResult| Some(digest::digest(r)) == expected;

    let inputs = workload::setup(w, step, dir, &mut spans)?;
    m.push(("scenes.build_s", spans.last_secs("scenes.build")));
    m.push(("gfx.render_s", spans.last_secs("gfx.render")));
    m.push((
        "scenes.compute_gen_s",
        spans.last_secs("scenes.compute_gen"),
    ));
    m.push(("gfx.kernels", inputs.kernels as f64));
    m.push(("gfx.ctas", inputs.ctas as f64));

    // The trace layer. `vio-stream` encoded its container during set-up;
    // for the in-memory workloads the same calls run on their bundle.
    let container: Option<Vec<u8>> = match &inputs.input {
        Input::Bundle(b) => Some(spans.span("trace.encode", |_| {
            let mut v = Vec::new();
            crisp_trace::codec::write_bundle(b, &mut v).map(|()| v)
        })?),
        Input::Container(_) => None,
    };
    let open = || -> io::Result<TraceSource> {
        match (&inputs.input, &container) {
            (Input::Container(p), _) => TraceInput::from(p.as_path()).open(),
            (_, Some(bytes)) => TraceInput::reader(io::Cursor::new(bytes.clone())).open(),
            (_, None) => unreachable!("in-memory inputs were encoded above"),
        }
    };
    let container_bytes = match (&inputs.input, &container) {
        (Input::Container(p), _) => std::fs::metadata(p)?.len(),
        (_, Some(bytes)) => bytes.len() as u64,
        (_, None) => 0,
    };
    m.push(("trace.encode_s", spans.last_secs("trace.encode")));
    spans.span("trace.decode", |_| -> io::Result<()> {
        let mut src = open()?;
        for k in 0..src.n_kernels() {
            let id = KernelId(u32::try_from(k).expect("kernel count fits u32"));
            src.materialize_kernel(id)?;
        }
        Ok(())
    })?;
    m.push(("trace.decode_s", spans.last_secs("trace.decode")));
    let mut src = open()?;
    let valid = spans.span("trace.validate", |_| crisp_trace::validate_source(&mut src));
    check(valid.is_ok(), "trace validation found errors");
    m.push(("trace.validate_s", spans.last_secs("trace.validate")));
    m.push(("trace.container_bytes", container_bytes as f64));

    // The analyzer, configured as the simulator's pre-flight configures it.
    let gpu = GpuConfig::rtx3070();
    let share = match workload::partition(w, &gpu).l2 {
        L2Policy::Shared => L2Share::Shared,
        L2Policy::BankSplit => L2Share::BankSplit,
        L2Policy::Tap(_) => L2Share::Tap,
    };
    let cfg = AnalysisConfig {
        interference: Some(InterferenceSpec {
            l2_bytes: gpu.l2_bytes,
            share,
        }),
        ..AnalysisConfig::default()
    };
    let mut src = open()?;
    let report = spans.span("analyze.run", |_| {
        crisp_analyze::analyze_source(&mut src, &cfg)
    })?;
    m.push(("analyze.run_s", spans.last_secs("analyze.run")));
    m.push(("analyze.findings", report.diagnostics.len() as f64));

    // The same simulation untraced and traced, in pairs whose order
    // alternates so that a drift of the host's speed cancels; the median of
    // the pairs' time ratios is the tracing overhead. The traced metrics
    // below come from the last traced run.
    let mut ratios = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut traced = None;
    for pair in 0..OVERHEAD_PAIRS {
        let mut secs = [0.0; 2];
        for profiled in [pair % 2 == 1, pair % 2 == 0] {
            let b = workload::simulation(w, &inputs, dir).host_profile(profiled);
            let name = if profiled {
                "sim.run_traced"
            } else {
                "sim.run"
            };
            crisp_obs::alloc::reset();
            if profiled {
                crisp_obs::alloc::enable();
            }
            let r = spans.span(name, |_| b.run());
            crisp_obs::alloc::disable();
            let r = r.map_err(io::Error::other)?;
            check(
                digest_ok(&r),
                &format!("{name}: digest differs from the committed one"),
            );
            secs[usize::from(profiled)] = spans.last_secs(name);
            if profiled {
                traced = Some(r);
            }
        }
        ratios.push(secs[1] / secs[0]);
    }
    let traced = traced.expect("at least one pair");
    let overhead = Summary::of(&ratios, true).median - 1.0;

    // The sharded driver and its barrier run only above one thread: they
    // are timed on a two-thread simulation of the same inputs, which must
    // give the same digest.
    let b = workload::simulation(w, &inputs, dir)
        .threads(2)
        .host_profile(true);
    let sharded = spans
        .span("sim.run_traced_2t", |_| b.run())
        .map_err(io::Error::other)?;
    check(
        digest_ok(&sharded),
        "two-thread run: digest differs from the committed one",
    );
    let sharded = sharded
        .host_profile
        .expect("built with .host_profile(true)");

    // Checkpoint write and read of a mid-run state. The restored simulator
    // then runs to the end, outside the spans, and must reach the committed
    // digest.
    let mut sim = workload::simulation(w, &inputs, dir)
        .try_build()
        .map_err(io::Error::other)?;
    spans
        .span("sim.run_to_mid", |_| sim.run_until(traced.cycles / 2))
        .map_err(io::Error::other)?;
    let mut buf = Vec::new();
    spans.span("ckpt.write", |_| sim.write_checkpoint(&mut buf))?;
    let mut restored = spans.span("ckpt.read", |_| GpuSim::read_checkpoint(buf.as_slice()))?;
    check(
        restored.now() == sim.now(),
        "restored checkpoint is at another cycle",
    );
    drop(sim);
    let resumed = restored.run().map_err(io::Error::other)?;
    check(
        digest_ok(&resumed),
        "run resumed from the checkpoint: digest differs from the committed one",
    );
    m.push(("ckpt.write_s", spans.last_secs("ckpt.write")));
    m.push(("ckpt.read_s", spans.last_secs("ckpt.read")));
    m.push(("ckpt.bytes", buf.len() as f64));

    let prof = traced
        .host_profile
        .clone()
        .expect("built with .host_profile(true)");
    let phase_s = |p: HostPhase| prof.driver.get(p) as f64 / 1e9;
    let r = &traced;
    m.push(("trace.bytes_decoded", r.trace.bytes_decoded as f64));
    m.push(("trace.ctas_decoded", r.trace.ctas_decoded as f64));
    m.push((
        "trace.peak_resident_bytes",
        r.trace.peak_resident_bytes as f64,
    ));
    for (name, p) in [
        ("sim.preflight_s", HostPhase::Preflight),
        ("sim.analyze_s", HostPhase::Analyze),
        ("sim.dispatch_s", HostPhase::Dispatch),
        ("sim.execute_s", HostPhase::Execute),
        ("sim.port_drain_s", HostPhase::PortDrain),
        ("sim.mem_tick_s", HostPhase::MemTick),
        ("sim.checkpoint_io_s", HostPhase::CheckpointIo),
        ("sim.export_s", HostPhase::Export),
    ] {
        m.push((name, phase_s(p)));
    }
    let sm_cycles = (r.cycles * gpu.n_sms as u64).max(1) as f64;
    let alloc = prof.alloc.as_ref();
    m.push((
        "sim.barrier_wait_s",
        sharded.shards.iter().map(|s| s.wait_ns).sum::<u64>() as f64 / 1e9,
    ));
    m.push(("sim.shard_imbalance", sharded.shard_imbalance()));
    m.push(("sim.phase_coverage", prof.shard_coverage()));
    m.push(("sim.allocs_per_cycle", prof.allocs_per_cycle()));
    m.push((
        "sim.alloc_mib",
        alloc.map_or(0.0, |a| a.total_bytes as f64 / (1 << 20) as f64),
    ));
    m.push((
        "sim.execute_ns_per_sm_cycle",
        prof.driver.get(HostPhase::Execute) as f64 / sm_cycles,
    ));

    let st = r.stalls();
    let slots = (st.issued + st.empty + st.blocked).max(1) as f64;
    let instrs: u64 = r.per_stream.values().map(|s| s.stats.instructions).sum();
    m.push(("sm.issue_per_sm_cycle", instrs as f64 / sm_cycles));
    m.push(("sm.empty_slot_share", st.empty as f64 / slots));
    m.push(("sm.blocked_slot_share", st.blocked as f64 / slots));
    m.push(("sm.stall_mem_pending", st.mem_pending as f64));
    m.push(("sm.stall_scoreboard", st.scoreboard as f64));
    m.push(("sm.stall_mshr_full", st.mshr_full as f64));

    let (l1, l2) = (r.l1_stats.total(), r.l2_stats.total());
    m.push(("mem.l1_accesses", l1.accesses as f64));
    m.push(("mem.l1_hit_rate", l1.hit_rate()));
    m.push(("mem.l2_accesses", l2.accesses as f64));
    m.push(("mem.l2_hit_rate", l2.hit_rate()));
    m.push((
        "mem.dram_bytes",
        r.per_stream.values().map(|s| s.dram_bytes).sum::<u64>() as f64,
    ));
    m.push((
        "mem.tick_ns_per_l2_access",
        prof.driver.get(HostPhase::MemTick) as f64 / l2.accesses.max(1) as f64,
    ));
    m.push(("bench.trace_overhead", overhead));

    // Layer spans and the simulator's host profile as one Chrome trace,
    // the host profile shifted onto the benchmark's clock.
    let mut host = prof;
    let offset = spans
        .all()
        .iter()
        .rfind(|s| s.name == "sim.run_traced")
        .map_or(0, |s| s.start_ns);
    for s in &mut host.spans {
        s.start_ns += offset;
    }
    for hb in &mut host.heartbeats {
        hb.wall_ns += offset;
    }
    let json = crisp_obs::chrome::chrome_trace_with_host_string(&spans.to_trace_log(), &host)
        .replacen(
            "simulated gpu (ts = cycles)",
            "perfbench layer spans (ts = us wall-clock)",
            1,
        );
    crisp_obs::json::validate(&json).map_err(io::Error::other)?;
    std::fs::write(trace_out, json)?;

    let mut metrics = Vec::with_capacity(LAYER_METRICS.len());
    for (name, unit, _, moves) in LAYER_METRICS {
        let value = m
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("layer metric {name} was not measured"));
        println!("layer {name:<28} {value:>16.6} {unit:<8} moves {moves}");
        metrics.push((name, unit, value));
    }
    let self_times = spans.self_time_by_layer();
    for (layer, secs) in &self_times {
        println!("self  {layer:<28} {secs:>16.6} s");
    }
    println!("trace written to {}", trace_out.display());
    let row = vec![
        (
            "self_s".to_string(),
            format!(
                "{{{}}}",
                self_times
                    .iter()
                    .map(|(l, s)| format!("\"{l}\":{s}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        (
            "trace_overhead_ratios".to_string(),
            format!(
                "[{}]",
                ratios
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        row,
    })
}
