//! Chip-scale Fig. 5 runs: a full 4096-core TrueNorth chip and a 2-chip
//! mesh of NApprox cells, both driven under the fault injector.
//!
//! These are the acceptance runs for the event-driven simulator core:
//! the per-tick scan engine made this scale impractical, the event queue
//! makes it a test. `spikes = 16` keeps the coding window short; the
//! circuit is window-agnostic so the differential check against the
//! standalone single-cell module is exact at any width.

use pcnn_corelets::NApproxHogCorelet;
use pcnn_truenorth::FaultPlan;
use pcnn_vision::GrayImage;

const SPIKES: u32 = 16;
/// 30 cores per cell → 136 cells = 4080 cores fill one 4096-core chip.
const FULL_CHIP_CELLS: usize = 136;

fn patch(k: usize) -> GrayImage {
    GrayImage::from_fn(10, 10, |x, y| {
        0.5 + 0.4 * ((x as f32 * (0.3 + 0.01 * k as f32)).sin() * (y as f32 * 0.7).cos())
    })
}

fn patches(n: usize) -> Vec<GrayImage> {
    (0..n).map(patch).collect()
}

#[test]
fn full_chip_runs_under_fault_injection() {
    let mut array = NApproxHogCorelet::array(SPIKES, FULL_CHIP_CELLS);
    assert_eq!(array.core_count(), 4080);
    assert_eq!(array.chip_count(), 1);

    let inputs = patches(FULL_CHIP_CELLS);

    // Healthy pass first: sampled cells must match the standalone module
    // bit for bit (same circuit, shared fabric).
    let clean = array.extract_batch(&inputs);
    let mut single = NApproxHogCorelet::new(SPIKES);
    for &k in &[0usize, 1, 67, 134, 135] {
        assert_eq!(clean[k], single.extract(&inputs[k]), "cell {k} diverged from standalone");
    }

    // Now the same chip with dead cores and a lossy fabric.
    let plan = FaultPlan::seeded(0xF165)
        .with_dead_core(60) // cell 2's stage-1 block
        .with_dead_core(2041)
        .with_drop_rate(0.02)
        .with_delay_jitter(0.01, 2);
    array.set_fault_plan(&plan).expect("plan fits the chip");
    let faulted = array.extract_batch(&inputs);
    assert_eq!(faulted.len(), FULL_CHIP_CELLS);

    let fs = array.fault_stats().expect("plan attached");
    assert!(fs.deliveries_suppressed > 0, "dead cores saw no traffic: {fs:?}");
    assert!(fs.spikes_dropped > 0, "drop rate never triggered: {fs:?}");

    // Faults must perturb the dead-core cell and leave fault-free,
    // jitter-spared cells plausible (counts bounded by the vote count).
    let votes = 64.0 * SPIKES as f32; // theoretical ceiling per cell
    for hist in &faulted {
        assert!(hist.iter().sum::<f32>() <= votes);
    }
    let dead_cell: f32 = faulted[2].iter().sum();
    let clean_cell: f32 = clean[2].iter().sum();
    assert!(dead_cell < clean_cell, "dead stage-1 core should lose votes");
}

#[test]
fn two_chip_mesh_runs_under_fault_injection() {
    // One more cell than fits a chip: cell 136 straddles the boundary
    // only if its block crosses 4096 — with 30-core blocks, cells 0..=136
    // occupy 4110 cores, so cell 136 owns cores 4080..4110 and is split
    // across chips 0 and 1 by the sequential placement.
    let cells = FULL_CHIP_CELLS + 1;
    let mut array = NApproxHogCorelet::array(SPIKES, cells);
    assert_eq!(array.core_count(), 4110);
    assert_eq!(array.chip_count(), 2);
    array.set_mesh(2).expect("line mesh over two chips");

    let inputs = patches(cells);
    let clean = array.extract_batch(&inputs);

    // The straddling cell pays hop latency on its stage-1 → AND routes,
    // but each vote's three verdict spikes share one route, so they stay
    // coincident: histograms match the standalone module exactly.
    let mut single = NApproxHogCorelet::new(SPIKES);
    for &k in &[0usize, 135, 136] {
        assert_eq!(clean[k], single.extract(&inputs[k]), "cell {k} diverged across the mesh");
    }

    // Kill a stage-1 core inside the straddling cell's block. The fault
    // is local, so every other cell must be untouched.
    let plan = FaultPlan::seeded(0x2C41).with_dead_core(4085);
    array.set_fault_plan(&plan).expect("plan fits the mesh");
    let faulted = array.extract_batch(&inputs);
    let fs = array.fault_stats().expect("plan attached");
    assert!(fs.deliveries_suppressed > 0, "dead core saw no traffic: {fs:?}");

    assert_eq!(faulted[0], clean[0]);
    assert_eq!(faulted[67], clean[67]);
    assert_eq!(faulted[135], clean[135]);
    let hurt: f32 = faulted[136].iter().sum();
    let healthy: f32 = clean[136].iter().sum();
    assert!(hurt < healthy, "dead stage-1 core should cost the straddling cell votes");
}
