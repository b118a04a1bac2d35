//! Regenerate the paper's tables and figures and the ablation sweeps.
//!
//! ```text
//! repro [NAME…]
//! ```
//!
//! Each NAME is one entry of [`ENTRIES`]; its text table is printed and
//! written to `target/experiments/<NAME>.txt`, and the rendered figures
//! (fig05, fig08) also write their PPM images there. With no names every
//! entry runs, in table order. An unknown name exits with status 2 and
//! lists the valid ones. `CRISP_SCALE=quick` shrinks every experiment to
//! smoke-test size.

use std::io;
use std::process::ExitCode;

use crisp_core::experiments::{self as exp, ExpScale};
use crisp_core::{Resolution, GRAPHICS_STREAM};
use crisp_scenes::{Scene, SceneId};

/// Runs one experiment and returns its text table.
type Runner = fn(ExpScale) -> io::Result<String>;

/// Every runnable entry, by the name its output is saved under.
const ENTRIES: &[(&str, Runner)] = &[
    ("table02_configs", |_| Ok(exp::table02_configs().to_table())),
    ("fig03_vertex_batching", |s| {
        Ok(exp::fig03_vertex_batching(s).to_table())
    }),
    ("fig05_render_planets", fig05_render_planets),
    ("fig06_frame_correlation", |s| {
        Ok(exp::fig06_frame_correlation(s).to_table())
    }),
    ("fig07_mip_merge", |_| Ok(exp::fig07_mip_merge().to_table())),
    ("fig08_sponza_lod", fig08_sponza_lod),
    ("fig09_lod_mape", |s| Ok(exp::fig09_lod_mape(s).to_table())),
    ("fig10_texlines_histogram", |s| {
        Ok(exp::fig10_texlines_histogram(s).to_table())
    }),
    ("fig11_l2_composition", |s| {
        Ok(exp::fig11_l2_composition(s).to_table())
    }),
    ("fig12_warped_slicer", |s| {
        Ok(exp::fig12_warped_slicer(s).to_table())
    }),
    ("fig13_occupancy_timeline", |s| {
        Ok(exp::fig13_occupancy_timeline(s).to_table())
    }),
    ("fig14_tap", |s| Ok(exp::fig14_tap(s).to_table())),
    ("fig15_tap_composition", |s| {
        Ok(exp::fig15_tap_composition(s).to_table())
    }),
    ("ablation_batch_size", |s| {
        Ok(exp::ablation_batch_size(s).to_table())
    }),
    ("ablation_l1_ports", |s| {
        Ok(exp::ablation_l1_ports(s).to_table())
    }),
    ("ablation_mshr", |s| Ok(exp::ablation_mshr(s).to_table())),
    ("ablation_scheduler", |s| {
        Ok(exp::ablation_scheduler(s)
            .iter()
            .map(|(n, c)| format!("{n:<4} {c} cycles\n"))
            .collect())
    }),
    ("ablation_replacement", |s| {
        Ok(exp::ablation_replacement(s)
            .iter()
            .map(|(n, c, hit)| format!("{n:<7} {c} cycles, L2 hit {:.1}%\n", hit * 100.0))
            .collect())
    }),
    ("ablation_mig_banks", |s| {
        Ok(exp::ablation_mig_banks(s)
            .iter()
            .map(|(b, r)| format!("{b:>2} banks: MPS/MiG makespan ratio {r:.3}\n"))
            .collect())
    }),
];

/// Figure 5: the Planets scene rendered by the model (PPM output).
fn fig05_render_planets(s: ExpScale) -> io::Result<String> {
    let path = crisp_bench::out_dir().join("fig05_planets.ppm");
    let cov = exp::render_scene_to_ppm(
        SceneId::Planets,
        s.detail,
        Resolution::Scaled2K,
        false,
        &path,
    )?;
    Ok(format!(
        "rendered planets (lod0=false) to {} with {:.1}% coverage\n",
        path.display(),
        cov * 100.0
    ))
}

/// Figure 8: Sponza rendered with LoD on and off, with the image
/// difference quantified by PSNR.
fn fig08_sponza_lod(s: ExpScale) -> io::Result<String> {
    let dir = crisp_bench::out_dir();
    let (w, h) = Resolution::Scaled2K.dims();
    let scene = Scene::build(SceneId::SponzaKhronos, s.detail);
    let on = scene.render(w, h, false, GRAPHICS_STREAM);
    let off = scene.render(w, h, true, GRAPHICS_STREAM);
    let p_on = dir.join("fig08_sponza_lod_on.ppm");
    let p_off = dir.join("fig08_sponza_lod_off.ppm");
    on.framebuffer.write_ppm(&p_on)?;
    off.framebuffer.write_ppm(&p_off)?;
    Ok(format!(
        "LoD on  -> {}\nLoD off -> {}\nPSNR between them: {:.1} dB (mip-0 sampling aliases visibly)\n",
        p_on.display(),
        p_off.display(),
        on.framebuffer.psnr(&off.framebuffer),
    ))
}

fn main() -> ExitCode {
    let mut selected = Vec::new();
    for name in std::env::args().skip(1) {
        match ENTRIES.iter().find(|(n, _)| *n == name) {
            Some(entry) => selected.push(entry),
            None => {
                eprintln!("repro: unknown name `{name}`; valid names:");
                for (n, _) in ENTRIES {
                    eprintln!("  {n}");
                }
                return ExitCode::from(2);
            }
        }
    }
    if selected.is_empty() {
        selected.extend(ENTRIES);
    }
    let scale = crisp_bench::scale();
    for (name, run) in selected {
        match run(scale) {
            Ok(table) => crisp_bench::emit(name, &table),
            Err(e) => {
                eprintln!("repro: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
