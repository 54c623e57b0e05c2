//! A second application domain: a video motion-detection pipeline
//! (temporal difference + 3x3 spatial smoothing + threshold), explored
//! with the same methodology.
//!
//! This is the kind of workload the paper's introduction motivates:
//! data-dominated, frame-store-bound, with clear data reuse for a custom
//! hierarchy.
//!
//! Run with `cargo run --release --example video_filter`.

use memexplore::core::engine::{DesignPoint, Engine};
use memexplore::core::explore::EvaluateOptions;
use memexplore::core::hierarchy::{apply_hierarchy, HierarchyLayer};
use memexplore::ir::{AccessKind, AppSpec, AppSpecBuilder, BasicGroupId, Placement};
use memexplore::memlib::MemLibrary;

/// CIF frame (352x288) at 30 frames/s.
const W: u64 = 352;
const H: u64 = 288;
const PIXELS: u64 = W * H;

fn build_spec() -> Result<(AppSpec, BasicGroupId), Box<dyn std::error::Error>> {
    let mut b = AppSpecBuilder::new("motion_detect");
    // Frame stores are too large for on-chip memory.
    let current = b.basic_group_placed("current", PIXELS, 8, Placement::OffChip)?;
    let previous = b.basic_group_placed("previous", PIXELS, 8, Placement::OffChip)?;
    let diff = b.basic_group_placed("diff", PIXELS, 9, Placement::OffChip)?;
    // Small working arrays.
    let coeff = b.basic_group("coeff", 9, 8)?;
    let hist = b.basic_group("hist", 256, 20)?;
    let labels = b.basic_group("labels", 512, 12)?;

    // Nest 1: temporal difference, once per pixel.
    let delta = b.loop_nest("temporal_diff", PIXELS)?;
    let rc = b.access(delta, current, AccessKind::Read)?;
    let rp = b.access(delta, previous, AccessKind::Read)?;
    let wd = b.access(delta, diff, AccessKind::Write)?;
    let wh = b.access(delta, hist, AccessKind::Write)?;
    b.depend(delta, rc, wd)?;
    b.depend(delta, rp, wd)?;
    b.depend(delta, rc, wh)?;

    // Nest 2: 3x3 smoothing over the difference image: nine diff reads
    // and nine coefficient reads feed one write back.
    let smooth = b.loop_nest("smooth3x3", PIXELS)?;
    let mut inputs = Vec::new();
    for _ in 0..9 {
        inputs.push(b.access(smooth, diff, AccessKind::Read)?);
        inputs.push(b.access(smooth, coeff, AccessKind::Read)?);
    }
    let ws = b.access(smooth, diff, AccessKind::Write)?;
    for &i in &inputs {
        b.depend(smooth, i, ws)?;
    }

    // Nest 3: thresholding with a data-dependent label update (profiled
    // at 7 % of pixels).
    let thresh = b.loop_nest("threshold", PIXELS)?;
    let rd = b.access(thresh, diff, AccessKind::Read)?;
    let rh = b.access(thresh, hist, AccessKind::Read)?;
    let wl = b.access_weighted(thresh, labels, AccessKind::Write, 0.07)?;
    b.depend(thresh, rd, wl)?;
    b.depend(thresh, rh, wl)?;

    // 30 frames/s => 33.3 ms per frame; clock at ~200 MHz gives the
    // storage cycle budget.
    b.cycle_budget(6_500_000).real_time_seconds(1.0 / 30.0);
    Ok((b.build()?, diff))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (spec, diff) = build_spec()?;
    let lib = MemLibrary::default_07um();
    let point = |label, spec| DesignPoint::new(label, spec, EvaluateOptions::default());

    // The 3x3 window re-reads each diff pixel ~9 times; a 3-line buffer
    // captures that reuse entirely (reuse factor 9 with line-buffer
    // fills), a 9-register window only the horizontal part (factor 3).
    let window = HierarchyLayer::new("window", 9, 2, 3.0);
    let lines = HierarchyLayer::new("linebuf", 3 * W, 2, 9.0);
    let with_window = apply_hierarchy(&spec, diff, std::slice::from_ref(&window))?;
    let with_lines = apply_hierarchy(&spec, diff, std::slice::from_ref(&lines))?;
    let with_both = apply_hierarchy(
        &spec,
        diff,
        &[window, HierarchyLayer::new("linebuf", 3 * W, 1, 9.0)],
    )?;
    let exp = Engine::new(&lib).explore(&[
        point("No hierarchy", &spec),
        point("9-register window", &with_window.spec),
        point("3-line buffer", &with_lines.spec),
        point("window + line buffer", &with_both.spec),
    ])?;

    print!(
        "{}",
        exp.to_table("Motion detection: hierarchy exploration (CIF @ 30 fps)")
    );
    let best = exp.best(1.0, 1.0)?.expect("reports recorded");
    println!("\nChosen: {}", best.label);
    println!(
        "Off-chip needs {} port(s); schedule slack {:.2} M cycles.",
        best.organization.max_off_chip_ports(),
        best.schedule.slack() as f64 / 1e6
    );
    Ok(())
}
