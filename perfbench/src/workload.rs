//! The two workloads: how their inputs are generated from the seed and
//! how each one builds its simulation.
//!
//! All run the paper-scale concurrent render+compute pair on the RTX 3070
//! preset with `Telemetry::NONE`; the modelled caches start cold, as in
//! the paper's single-frame runs.
//!
//! * `render-holo` — SponzaPbr + holo, intra-SM even split, 1 thread, an
//!   in-memory bundle. SMs are busy: SM issue, allocation and memory-tick
//!   work dominate; the trace-file layers are not used.
//! * `vio-stream` — SponzaKhronos + vio, inter-SM even split, 1 thread,
//!   streamed from an on-disk CRSP container with static analysis at
//!   build and periodic checkpoints. SMs are mostly idle, and trace
//!   decoding, analysis and checkpoint writes sit in the run.
//!
//! Both simulate at one thread. The sharded driver is measured only in the
//! traced run (see `layers.rs`): at two threads its rate spread too widely
//! between runs to gate on.

use std::io;
use std::path::{Path, PathBuf};

use crisp_core::experiments::ExpScale;
use crisp_core::{concurrent_bundle, COMPUTE_STREAM, GRAPHICS_STREAM};
use crisp_gfx::Mat4;
use crisp_scenes::{holo, vio, Scene, SceneId};
use crisp_sim::{
    GpuConfig, LintLevel, PartitionSpec, Simulation, SimulationBuilder, Telemetry, TraceBundle,
};

use crate::spans::Spans;

/// Camera orbit steps the seed chooses from. The expected results digest
/// of every step is committed in `digests.txt`. Two frames keep the
/// workload's size steady across seeds: from the third step on, the orbit
/// brings more of the scene into view (at step 3 the bundle, and so the
/// peak memory, is 23% larger than at step 0; at step 7, 63%).
pub const ORBIT_STEPS: u64 = 2;

/// Orbit angle per step, the one `Scene::render_sequence` uses.
const ORBIT_RAD_PER_STEP: f32 = 0.06;

/// Simulated cycles between the periodic checkpoints of `vio-stream`.
const CHECKPOINT_EVERY: u64 = 10_000;

/// Worker threads of every measured simulation.
pub const THREADS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RenderHolo,
    VioStream,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::RenderHolo, Workload::VioStream];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RenderHolo => "render-holo",
            Workload::VioStream => "vio-stream",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn scene(self) -> SceneId {
        match self {
            Workload::RenderHolo => SceneId::SponzaPbr,
            Workload::VioStream => SceneId::SponzaKhronos,
        }
    }
}

/// Where the simulator reads the trace from.
pub enum Input {
    /// Materialized in memory; each run gets a clone.
    Bundle(TraceBundle),
    /// A CRSP v2 container on disk, streamed by the simulator.
    Container(PathBuf),
}

/// A workload's generated inputs.
pub struct Inputs {
    pub input: Input,
    /// Kernels and CTAs of the rendered graphics stream.
    pub kernels: u64,
    pub ctas: u64,
}

/// Generate the inputs of `w` for orbit step `step`, recording one span per
/// frontend layer call. `dir` receives the container of `vio-stream`.
pub fn setup(w: Workload, step: u64, dir: &Path, spans: &mut Spans) -> io::Result<Inputs> {
    spans.span("setup", |spans| {
        let s = ExpScale::paper();
        let (width, height) = s.res.dims();
        let mut scene = spans.span("scenes.build", |_| Scene::build(w.scene(), s.detail));
        scene.view_proj = scene
            .view_proj
            .mul(&Mat4::rotate_y(step as f32 * ORBIT_RAD_PER_STEP));
        let frame = spans.span("gfx.render", |_| {
            scene.render(width, height, false, GRAPHICS_STREAM)
        });
        let compute = spans.span("scenes.compute_gen", |_| match w {
            Workload::RenderHolo => holo(COMPUTE_STREAM, s.compute),
            Workload::VioStream => vio(COMPUTE_STREAM, s.compute),
        });
        let kernels = frame.trace.kernels().count() as u64;
        let ctas = frame.trace.kernels().map(|k| k.ctas.len() as u64).sum();
        let bundle = concurrent_bundle(frame.trace, compute);
        let input = match w {
            Workload::RenderHolo => Input::Bundle(bundle),
            Workload::VioStream => {
                let path = dir.join("vio-stream.crsp");
                spans.span("trace.encode", |_| crisp_trace::codec::save(&bundle, &path))?;
                Input::Container(path)
            }
        };
        Ok(Inputs {
            input,
            kernels,
            ctas,
        })
    })
}

/// The simulation of `w` over `inputs`, ready to `.run()`. Cloning an
/// in-memory bundle happens here, outside any timed span.
pub fn simulation(w: Workload, inputs: &Inputs, dir: &Path) -> SimulationBuilder {
    let gpu = GpuConfig::rtx3070();
    let spec = partition(w, &gpu);
    let b = Simulation::builder()
        .gpu(gpu)
        .partition(spec)
        .threads(THREADS)
        .telemetry(Telemetry::NONE);
    match &inputs.input {
        Input::Bundle(bundle) => b.trace(bundle.clone()),
        Input::Container(path) => b
            .trace(path.clone())
            .analyze(LintLevel::Errors)
            .checkpoint_every(CHECKPOINT_EVERY)
            .checkpoint_to(dir.join("ckpt")),
    }
}

/// How `w` splits the GPU between the graphics and compute streams.
pub fn partition(w: Workload, gpu: &GpuConfig) -> PartitionSpec {
    match w {
        Workload::RenderHolo => PartitionSpec::fg_even(gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
        Workload::VioStream => PartitionSpec::mps_even(gpu, GRAPHICS_STREAM, COMPUTE_STREAM),
    }
}
