//! Experiment harness: everything the per-figure binaries and the
//! result-recording benches share.
//!
//! Each figure/table of the paper maps to one binary in `src/bin/`:
//!
//! | target | reproduces |
//! |---|---|
//! | `fig3_traindata` | Figure 3 — auto-generated parrot training data |
//! | `fig4_svm_curves` | Figure 4 — FPGA vs NApprox(fp) vs NApprox, SVM classifier |
//! | `fig5_eedn_curves` | Figure 5 — NApprox vs Parrot vs Absorbed, Eedn classifier |
//! | `fig6_precision` | Figure 6 — accuracy & miss rate vs spike precision |
//! | `table1_equivalence` | Table 1 — conventional vs TrueNorth HoG operations |
//! | `table2_power` | Table 2 — power comparison |
//! | `corr_validate` | §3.1 — hardware/software ≥ 99.5 % correlation |
//! | `ablation_study` | vote threshold, voting scheme, bin count and block-norm ablations |
//! | `activity_power` | Table 2 refined with activity-based power (extension) |
//! | `fault_sweep` | classification error vs injected hardware fault rate (extension) |
//!
//! Run them in release (`cargo run --release -p pcnn-bench --bin …`);
//! passing `quick` as the first argument shrinks workloads for smoke
//! testing (`--smoke` for `fault_sweep`).
//!
//! The benches in `benches/` each record one `results/BENCH_*.json`
//! file through [`harness`]: `kernel_gemm`, `truenorth_tick`,
//! `video_streaming`, `cluster_scaling`, `cluster_chaos` and
//! `trace_overhead`. `cargo bench -p pcnn-bench` re-records them all;
//! `-- --check` compares a fresh run against the committed files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pcnn_core::{
    AbsorbedOutcome, AbsorbedSystem, Detector, EednClassifierConfig, Extractor, PartitionedSystem,
    TrainSetConfig, TrainedDetector,
};
use pcnn_hog::BlockNorm;
use pcnn_parrot::{train_parrot, ParrotExtractor, ParrotNet, ParrotTrainConfig};
use pcnn_vision::{DetectionCurve, SynthConfig, SynthDataset, SynthScene};

pub mod harness;

/// Workload sizing for the figure experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Test scenes per evaluation.
    pub test_scenes: u64,
    /// Training-set sizing.
    pub train: TrainSetConfig,
    /// Parrot training configuration.
    pub parrot: ParrotTrainConfig,
    /// Eedn classifier training configuration.
    pub eedn: EednClassifierConfig,
}

impl ExperimentScale {
    /// The full experiment scale used for the recorded results.
    pub fn full() -> Self {
        ExperimentScale {
            test_scenes: 40,
            train: TrainSetConfig { n_pos: 300, n_neg: 600, mining_scenes: 6, mining_rounds: 2 },
            parrot: ParrotTrainConfig::default(),
            eedn: EednClassifierConfig::default(),
        }
    }

    /// A reduced scale for smoke runs (`quick` argument).
    pub fn quick() -> Self {
        ExperimentScale {
            test_scenes: 6,
            train: TrainSetConfig { n_pos: 80, n_neg: 160, mining_scenes: 2, mining_rounds: 1 },
            parrot: ParrotTrainConfig::tiny(),
            eedn: EednClassifierConfig { epochs: 12, ..Default::default() },
        }
    }

    /// Picks the scale from the process arguments (`quick` selects the
    /// reduced scale).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "quick") {
            Self::quick()
        } else {
            Self::full()
        }
    }
}

/// The standard synthetic dataset every experiment shares.
pub fn standard_dataset() -> SynthDataset {
    SynthDataset::new(SynthConfig::default())
}

/// The standard evaluation scenes.
pub fn test_scenes(n: u64) -> Vec<SynthScene> {
    let ds = standard_dataset();
    (0..n).map(|i| ds.test_scene(i)).collect()
}

/// The small NApprox(fp) + SVM detector the serving benches share: 60
/// positives, 120 negatives and one hard-negative mining round over one
/// scene of the standard dataset.
pub fn small_svm_detector() -> TrainedDetector {
    PartitionedSystem::train_svm_detector(
        Extractor::napprox_fp(BlockNorm::L2),
        &standard_dataset(),
        TrainSetConfig { n_pos: 60, n_neg: 120, mining_scenes: 1, mining_rounds: 1 },
    )
}

/// Trains the parrot network used by the Parrot-paradigm experiments.
pub fn experiment_parrot(config: ParrotTrainConfig) -> ParrotNet {
    let (net, report) = train_parrot(config);
    eprintln!(
        "[parrot] trained: class accuracy {:.3}, mse {:.4}, {} cores/cell",
        report.class_accuracy, report.validation_mse, report.core_count
    );
    net
}

/// Figure 4: the three SVM-classified extractors evaluated on the same
/// scenes. Returns `(label, curve)` per extractor.
pub fn fig4_curves(scale: &ExperimentScale) -> Vec<(String, DetectionCurve)> {
    let ds = standard_dataset();
    let scenes = test_scenes(scale.test_scenes);
    let engine = Detector::default();
    [
        Extractor::fpga(),
        Extractor::napprox_fp(BlockNorm::L2),
        Extractor::napprox_quantized(64, BlockNorm::L2),
    ]
    .into_iter()
    .map(|extractor| {
        let label = extractor.kind().label().to_owned();
        eprintln!("[fig4] training SVM detector for {label}…");
        let det = PartitionedSystem::train_svm_detector(extractor, &ds, scale.train);
        let curve = engine.evaluate(&det, &scenes);
        (label, curve)
    })
    .collect()
}

/// Figure 5: NApprox and Parrot with Eedn classifiers, plus the Absorbed
/// monolithic system, on the same scenes.
pub fn fig5_curves(scale: &ExperimentScale) -> (Vec<(String, DetectionCurve)>, AbsorbedOutcome) {
    let ds = standard_dataset();
    let scenes = test_scenes(scale.test_scenes);
    let engine = Detector::default();
    let mut curves = Vec::new();

    eprintln!("[fig5] training NApprox + Eedn…");
    let napprox = PartitionedSystem::train_eedn_detector(
        Extractor::napprox_quantized(64, BlockNorm::None),
        &ds,
        scale.train,
        scale.eedn,
    );
    curves.push(("NApprox".to_owned(), engine.evaluate(&napprox, &scenes)));

    eprintln!("[fig5] training Parrot + Eedn…");
    let parrot = experiment_parrot(scale.parrot);
    let parrot_det = PartitionedSystem::train_eedn_detector(
        Extractor::parrot(ParrotExtractor::new(parrot), BlockNorm::None),
        &ds,
        scale.train,
        scale.eedn,
    );
    curves.push(("Parrot".to_owned(), engine.evaluate(&parrot_det, &scenes)));

    eprintln!("[fig5] training Absorbed monolithic network…");
    let (absorbed, outcome) = AbsorbedSystem::train(&ds, scale.train);
    curves.push(("Absorbed".to_owned(), engine.evaluate(&absorbed, &scenes)));

    (curves, outcome)
}

/// One point of the Figure 6 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Point {
    /// Spikes per value.
    pub spikes: u32,
    /// Orientation-class accuracy on the parrot validation data.
    pub class_accuracy: f32,
    /// Log-average miss rate of the full detector at this input coding.
    pub log_average_miss_rate: f64,
}

/// Figure 6: classifier accuracy and detection miss rate as input
/// precision drops from 32 to 1 spike.
pub fn fig6_sweep(scale: &ExperimentScale, windows: &[u32]) -> Vec<Fig6Point> {
    let ds = standard_dataset();
    let scenes = test_scenes(scale.test_scenes.min(10));
    let engine = Detector::default();

    // Train the parrot once; reuse its weights for every precision.
    let (mut net, _) = train_parrot(scale.parrot);
    let accuracy_points = pcnn_parrot::precision_sweep(&mut net, windows, 300, 0xF16);

    windows
        .iter()
        .zip(accuracy_points)
        .map(|(&w, p)| {
            eprintln!("[fig6] evaluating detector at {w}-spike input coding…");
            let extractor = Extractor::parrot(
                ParrotExtractor::new(net.clone()).with_stochastic_input(w, 0xF6 + u64::from(w)),
                BlockNorm::None,
            );
            let det =
                PartitionedSystem::train_eedn_detector(extractor, &ds, scale.train, scale.eedn);
            let curve = engine.evaluate(&det, &scenes);
            Fig6Point {
                spikes: w,
                class_accuracy: p.class_accuracy,
                log_average_miss_rate: curve.log_average_miss_rate(),
            }
        })
        .collect()
}

/// Smoke-level sanity: a trained detector must beat an untrained one.
pub fn lamr_of(detector: &mut TrainedDetector, scenes: &[SynthScene]) -> f64 {
    Detector::default().evaluate(detector, scenes).log_average_miss_rate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(ExperimentScale::quick().test_scenes < ExperimentScale::full().test_scenes);
    }

    #[test]
    fn standard_dataset_is_stable() {
        let a = standard_dataset().test_scene(0);
        let b = standard_dataset().test_scene(0);
        assert_eq!(a.image, b.image);
    }
}
