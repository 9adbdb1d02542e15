//! Integration test for graceful degradation: a fault plan that kills
//! the simulated NApprox module must push serving down the fallback
//! chain — detections keep flowing from a software paradigm, no panic,
//! and the report records the degradation.

use pcnn_core::pipeline::{Detector, TrainedDetector};
use pcnn_core::{Extractor, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_runtime::{canary_reference, DetectionServer, FallbackChain, RuntimeConfig, ServiceLevel};
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_trace::Counter;
use pcnn_truenorth::FaultPlan;
use pcnn_vision::{GrayImage, SynthConfig, SynthDataset};

/// The NApprox corelet's module size (16 stage-1 + 14 AND cores).
const MODULE_CORES: u32 = 30;

/// Trains one SVM on the given extractor's features over a few synthetic
/// crops and wraps it with the extractor as a detector.
fn train_level(extractor: Extractor, ds: &SynthDataset) -> TrainedDetector {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..8 {
        xs.push(extractor.crop_descriptor(&ds.train_positive(i)));
        ys.push(true);
        xs.push(extractor.crop_descriptor(&ds.train_negative(i)));
        ys.push(false);
    }
    let scaler = FeatureScaler::fit(&xs);
    let model = train(&scaler.apply_all(&xs), &ys, TrainConfig::default());
    TrainedDetector { extractor, classifier: WindowClassifier::Svm { model, scaler } }
}

#[test]
fn dead_core_plan_degrades_to_software_fallback() {
    let ds = SynthDataset::new(SynthConfig::default());
    // The documented chain: hardware NApprox, the same arithmetic in
    // software, and Traditional HoG as the floor. Hardware and software
    // NApprox share feature space, so one classifier serves both; the
    // HoG floor gets its own.
    let sw_quant = train_level(Extractor::napprox_quantized(64, BlockNorm::None), &ds);
    let hw = match &sw_quant.classifier {
        WindowClassifier::Svm { model, scaler } => TrainedDetector {
            extractor: Extractor::napprox_hardware(64, BlockNorm::None),
            classifier: WindowClassifier::Svm { model: model.clone(), scaler: scaler.clone() },
        },
        _ => unreachable!("train_level builds an SVM"),
    };
    let traditional = train_level(Extractor::traditional(), &ds);

    let chain = FallbackChain::new()
        .push("NApprox-HW", &hw)
        .push("NApprox", &sw_quant)
        .push("Traditional-HoG", &traditional);
    let config = RuntimeConfig::builder().workers(2).build().unwrap();
    let server = DetectionServer::with_chain(Detector::default(), chain, config).unwrap();

    // Window-sized frames keep the hardware extraction tractable: one
    // pyramid level, 128 cells.
    let frames: Vec<GrayImage> = (0..2).map(|i| ds.train_positive(100 + i)).collect();

    // Healthy hardware serves at the primary level.
    let healthy = server.detect_frame(&frames[0]);
    let report = server.report();
    assert_eq!(report.levels[0].label, "NApprox-HW");
    assert_eq!(report.levels[0].batches, 1);
    assert_eq!(report.counters[Counter::DegradedBatches], 0);
    assert_eq!(report.counters[Counter::HealthFailures], 0);

    // Kill the whole module. The probe must notice, skip the hardware
    // level, and serve from software NApprox — identical features, so
    // identical detections to a pure software run.
    let plan = FaultPlan::seeded(7).with_dead_cores(0..MODULE_CORES);
    hw.extractor.set_fault_plan(&plan).expect("hardware extractor accepts the plan");

    let degraded = server.detect_frame(&frames[0]);
    let report = server.report();
    assert_eq!(report.levels[1].label, "NApprox");
    assert_eq!(report.levels[1].batches, 1, "fallback level served the faulted batch");
    assert_eq!(report.counters[Counter::DegradedBatches], 1);
    assert_eq!(report.counters[Counter::DegradedFrames], 1);
    assert!(report.counters[Counter::HealthFailures] >= 1, "the dead module must fail its probe");

    let reference_config = RuntimeConfig::builder().workers(2).build().unwrap();
    let reference = DetectionServer::new(Detector::default(), &sw_quant, reference_config).unwrap();
    assert_eq!(
        degraded,
        reference.detect_frame(&frames[0]),
        "fallback serving must match the software paradigm exactly"
    );
    // Healthy and degraded runs both produced *some* answer without
    // panicking; scores may differ because the paradigms differ.
    assert_eq!(healthy.len(), healthy.len());

    // Clearing the plan restores primary-level serving.
    hw.extractor.clear_fault_plan();
    let _ = server.detect_frame(&frames[1]);
    let report = server.report();
    assert_eq!(report.levels[0].batches, 2, "healed hardware serves at the primary level again");
    assert_eq!(report.counters[Counter::DegradedBatches], 1, "no new degradation after healing");
}

#[test]
fn builder_rejects_degenerate_configs() {
    assert!(RuntimeConfig::builder().workers(0).build().is_err());
    assert!(RuntimeConfig::builder().chunk_rows(0).build().is_err());
    let ok = RuntimeConfig::builder().workers(8).chunk_rows(2).build().unwrap();
    assert_eq!(ok.workers, 8);
    assert_eq!(ok.chunk_rows, 2);
}

#[test]
fn builder_defaults_match_config_defaults() {
    let built = RuntimeConfig::builder().build().unwrap();
    assert_eq!(built, RuntimeConfig::default());
}

#[test]
fn empty_chain_is_rejected() {
    let err =
        DetectionServer::with_chain(Detector::default(), FallbackChain::new(), Default::default())
            .unwrap_err();
    assert!(err.to_string().contains("service level"), "{err}");
}

#[test]
fn default_and_new_chains_probe_at_the_same_tolerance() {
    // A primary level whose healthy reference is 5% off drifts by
    // 0.05 / 1.05 on every probe, inside the probe tolerance: it must
    // serve, whichever constructor built the chain.
    let ds = SynthDataset::new(SynthConfig::default());
    let detector = train_level(Extractor::napprox_fp(BlockNorm::None), &ds);
    let scaled: Vec<Vec<f32>> = canary_reference(&detector)
        .into_iter()
        .map(|h| h.into_iter().map(|v| v * 1.05).collect())
        .collect();
    for chain in [FallbackChain::new(), FallbackChain::default()] {
        let chain = chain
            .push_level(ServiceLevel::with_reference("primary", &detector, scaled.clone()))
            .push("floor", &detector);
        assert_eq!(chain.select(), (0, 0), "the primary level must serve");
    }
}
