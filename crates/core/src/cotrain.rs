//! The three design paradigms as trainable systems.
//!
//! * **Partitioned** ([`PartitionedSystem`]) — an explicit feature
//!   extractor (NApprox or Parrot) feeding a separately trained
//!   classifier (SVM with hard-negative mining for the Fig. 4 path, Eedn
//!   for the Fig. 5 path). This is the paper's co-training recipe: the
//!   Parrot extractor is trained first on auto-generated HoG labels,
//!   frozen, and the classifier is then trained on its outputs.
//! * **Absorbed** ([`AbsorbedSystem`]) — one monolithic Eedn network from
//!   raw window pixels to the decision, granted the combined resource
//!   budget of the partitioned pair, trained on the *same* data as the
//!   partitioned classifiers. §5.1 reports this configuration "always
//!   makes blind decisions (all-positive or all-negative)";
//!   [`AbsorbedOutcome`] measures exactly that collapse.

use crate::classifier::{EednClassifier, EednClassifierConfig, WindowClassifier};
use crate::extractor::Extractor;
use crate::pipeline::Detector;
use pcnn_svm::{mine_hard_negatives, FeatureScaler, MiningConfig, TrainConfig};
use pcnn_vision::SynthDataset;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::pipeline::TrainedDetector;

/// Training-set sizing shared by the paradigms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainSetConfig {
    /// Positive training crops.
    pub n_pos: u64,
    /// Seed negative training crops.
    pub n_neg: u64,
    /// Negative scenes scanned per hard-negative mining round.
    pub mining_scenes: u64,
    /// Hard-negative mining rounds (0 disables mining).
    pub mining_rounds: usize,
}

impl Default for TrainSetConfig {
    fn default() -> Self {
        TrainSetConfig { n_pos: 250, n_neg: 500, mining_scenes: 6, mining_rounds: 2 }
    }
}

/// Builder of partitioned (extractor + classifier) detectors.
#[derive(Debug)]
pub struct PartitionedSystem;

impl PartitionedSystem {
    /// Extracts labelled window descriptors from the dataset's crops.
    pub fn collect_descriptors(
        extractor: &Extractor,
        dataset: &SynthDataset,
        n_pos: u64,
        n_neg: u64,
    ) -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut xs = Vec::with_capacity((n_pos + n_neg) as usize);
        let mut ys = Vec::with_capacity((n_pos + n_neg) as usize);
        for i in 0..n_pos {
            xs.push(extractor.crop_descriptor(&dataset.train_positive(i)));
            ys.push(true);
        }
        for i in 0..n_neg {
            xs.push(extractor.crop_descriptor(&dataset.train_negative(i)));
            ys.push(false);
        }
        (xs, ys)
    }

    /// All cell-aligned window descriptors of one image (no pyramid) —
    /// the candidate pool hard-negative mining scans.
    pub fn scene_window_descriptors(
        extractor: &Extractor,
        img: &pcnn_vision::GrayImage,
        cell_stride: usize,
    ) -> Vec<Vec<f32>> {
        let grid = Detector::cell_grid(extractor, img);
        let (rows, cols) = Detector::window_grid(grid.first().map_or(0, Vec::len), grid.len());
        (0..rows)
            .step_by(cell_stride)
            .flat_map(|cy0| (0..cols).step_by(cell_stride).map(move |cx0| (cx0, cy0)))
            .map(|(cx0, cy0)| {
                let mut descriptor = Vec::new();
                let cell = |cx: usize, cy: usize| grid[cy][cx].as_slice();
                Detector::assemble_window(extractor, cx0, cy0, cell, &mut descriptor);
                descriptor
            })
            .collect()
    }

    /// Trains the SVM-classified partitioned system (the Fig. 4
    /// methodology: linear SVM plus hard-negative mining over negative
    /// scenes).
    pub fn train_svm_detector(
        extractor: Extractor,
        dataset: &SynthDataset,
        config: TrainSetConfig,
    ) -> TrainedDetector {
        let (xs, ys) = Self::collect_descriptors(&extractor, dataset, config.n_pos, config.n_neg);
        let scaler = FeatureScaler::fit(&xs);
        let scaled = scaler.apply_all(&xs);
        let positives: Vec<Vec<f32>> =
            scaled.iter().zip(&ys).filter(|(_, &y)| y).map(|(x, _)| x.clone()).collect();
        let negatives: Vec<Vec<f32>> =
            scaled.iter().zip(&ys).filter(|(_, &y)| !y).map(|(x, _)| x.clone()).collect();

        // Candidate pool for mining: window descriptors from negative
        // scenes (computed once; the mining closure re-scores them).
        let mut pool: Vec<Vec<f32>> = Vec::new();
        for s in 0..config.mining_scenes {
            let scene = dataset.negative_scene(s);
            for d in Self::scene_window_descriptors(&extractor, &scene.image, 2) {
                pool.push(scaler.apply(&d));
            }
        }
        let (model, _report) = mine_hard_negatives(
            &positives,
            &negatives,
            move |_m| pool.clone(),
            MiningConfig {
                rounds: config.mining_rounds,
                train: TrainConfig::default(),
                ..MiningConfig::default()
            },
        );
        TrainedDetector { extractor, classifier: WindowClassifier::Svm { model, scaler } }
    }

    /// Trains the Eedn-classified partitioned system (the Fig. 5
    /// methodology).
    pub fn train_eedn_detector(
        extractor: Extractor,
        dataset: &SynthDataset,
        config: TrainSetConfig,
        eedn: EednClassifierConfig,
    ) -> TrainedDetector {
        Self::train_eedn_detector_with(extractor, dataset, config, eedn, None, |_| {
            std::ops::ControlFlow::Continue(())
        })
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`train_eedn_detector`](PartitionedSystem::train_eedn_detector)
    /// with per-epoch checkpoint emission and resumption — the co-training
    /// entry point for long runs that must survive a process kill.
    ///
    /// The descriptor collection is deterministic in `(extractor,
    /// dataset, config)`, so a resumed run rebuilds the identical
    /// training set and continues from `resume_from` **bit-identically**
    /// to an uninterrupted run (see
    /// [`EednClassifier::try_train_with`]). `on_checkpoint` runs after
    /// every completed epoch; returning
    /// [`ControlFlow::Break`](std::ops::ControlFlow::Break) stops early
    /// with the partially trained detector.
    ///
    /// # Errors
    ///
    /// Everything [`EednClassifier::try_train_with`] reports.
    pub fn train_eedn_detector_with(
        extractor: Extractor,
        dataset: &SynthDataset,
        config: TrainSetConfig,
        eedn: EednClassifierConfig,
        resume_from: Option<&crate::classifier::EednCheckpoint>,
        on_checkpoint: impl FnMut(&crate::classifier::EednCheckpoint) -> std::ops::ControlFlow<()>,
    ) -> crate::error::Result<TrainedDetector> {
        let train_span = pcnn_trace::span(pcnn_trace::stages::COTRAIN_TRAIN);
        let collect_span = pcnn_trace::span(pcnn_trace::stages::COTRAIN_COLLECT);
        let (mut xs, mut ys) =
            Self::collect_descriptors(&extractor, dataset, config.n_pos, config.n_neg);
        // Augment with scene windows as extra negatives (a simple
        // bootstrap matching the SVM path's exposure to scene clutter).
        for s in 0..config.mining_scenes {
            let scene = dataset.negative_scene(s);
            for d in Self::scene_window_descriptors(&extractor, &scene.image, 4) {
                xs.push(d);
                ys.push(false);
            }
        }
        if collect_span.is_recording() {
            collect_span.add(pcnn_trace::Counter::Samples, xs.len() as u64);
        }
        drop(collect_span);
        if train_span.is_recording() {
            train_span.add(pcnn_trace::Counter::Samples, xs.len() as u64);
        }
        let classifier =
            EednClassifier::try_train_with(&xs, &ys, eedn, resume_from, on_checkpoint)?;
        Ok(TrainedDetector { extractor, classifier: WindowClassifier::Eedn(Box::new(classifier)) })
    }
}

/// What happened when the monolithic network was trained.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AbsorbedOutcome {
    /// Fraction of held-out predictions equal to the majority prediction
    /// — 1.0 means every input gets the same answer (the paper's "blind
    /// decisions").
    pub majority_fraction: f32,
    /// Held-out accuracy.
    pub validation_accuracy: f32,
    /// Whether the run collapsed to a blind classifier
    /// (`majority_fraction ≥ 0.95`).
    pub is_blind: bool,
    /// Core count of the monolithic network.
    pub cores: usize,
}

/// The Absorbed monolithic system.
#[derive(Debug)]
pub struct AbsorbedSystem;

impl AbsorbedSystem {
    /// The monolithic network configuration: raw 8192-pixel input, widths
    /// chosen so the grouped layers occupy at least as many cores as the
    /// partitioned pair's classifier while staying crossbar-legal.
    pub fn network_config() -> EednClassifierConfig {
        EednClassifierConfig {
            hidden1: 2048,
            hidden2: 256,
            epochs: 30,
            batch: 32,
            lr: 0.002,
            seed: 0xAB50,
        }
    }

    /// Trains the monolithic pixels-to-decision network on the same crop
    /// set the partitioned classifiers use, and measures collapse.
    ///
    /// Returns the detector (usable in the pipeline via the raw-pixel
    /// extractor) and the [`AbsorbedOutcome`].
    pub fn train(
        dataset: &SynthDataset,
        config: TrainSetConfig,
    ) -> (TrainedDetector, AbsorbedOutcome) {
        let extractor = Extractor::raw();
        let (mut xs, mut ys) =
            PartitionedSystem::collect_descriptors(&extractor, dataset, config.n_pos, config.n_neg);
        // The same scene-window negatives the partitioned classifiers see
        // ("the same training set", §3.3).
        for s in 0..config.mining_scenes {
            let scene = dataset.negative_scene(s);
            for d in PartitionedSystem::scene_window_descriptors(&extractor, &scene.image, 4) {
                xs.push(d);
                ys.push(false);
            }
        }
        // Hold out 20% for the collapse measurement — stratified by a
        // seeded shuffle (collect_descriptors returns positives first).
        use rand::seq::SliceRandom;
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(0xAB5D));
        let xs: Vec<Vec<f32>> = order.iter().map(|&i| xs[i].clone()).collect();
        let ys: Vec<bool> = order.iter().map(|&i| ys[i]).collect();
        let n_hold = xs.len() / 5;
        let (hold_x, train_x) = xs.split_at(n_hold);
        let (hold_y, train_y) = ys.split_at(n_hold);
        let classifier = EednClassifier::train(train_x, train_y, Self::network_config());

        let preds: Vec<bool> = hold_x.iter().map(|d| classifier.score(d) > 0.0).collect();
        let positives = preds.iter().filter(|&&p| p).count();
        let majority = positives.max(preds.len() - positives);
        let majority_fraction = majority as f32 / preds.len().max(1) as f32;
        let correct = preds.iter().zip(hold_y).filter(|(p, y)| *p == *y).count();
        let outcome = AbsorbedOutcome {
            majority_fraction,
            validation_accuracy: correct as f32 / preds.len().max(1) as f32,
            is_blind: majority_fraction >= 0.95,
            cores: classifier.core_count(),
        };
        (
            TrainedDetector { extractor, classifier: WindowClassifier::Eedn(Box::new(classifier)) },
            outcome,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_hog::BlockNorm;
    use pcnn_vision::SynthConfig;

    fn tiny_set() -> TrainSetConfig {
        TrainSetConfig { n_pos: 60, n_neg: 120, mining_scenes: 2, mining_rounds: 1 }
    }

    #[test]
    fn svm_partitioned_system_separates_training_data() {
        let ds = SynthDataset::new(SynthConfig::default());
        let det = PartitionedSystem::train_svm_detector(
            Extractor::napprox_fp(BlockNorm::L2),
            &ds,
            tiny_set(),
        );
        let mut correct = 0;
        for i in 0..30 {
            if det.classifier.score(&det.extractor.crop_descriptor(&ds.train_positive(500 + i)))
                > 0.0
            {
                correct += 1;
            }
            if det.classifier.score(&det.extractor.crop_descriptor(&ds.train_negative(500 + i)))
                <= 0.0
            {
                correct += 1;
            }
        }
        let acc = correct as f32 / 60.0;
        assert!(acc > 0.8, "held-out crop accuracy {acc}");
    }

    #[test]
    fn eedn_partitioned_system_learns() {
        let ds = SynthDataset::new(SynthConfig::default());
        let det = PartitionedSystem::train_eedn_detector(
            Extractor::napprox_fp(BlockNorm::None),
            &ds,
            tiny_set(),
            EednClassifierConfig { epochs: 15, ..Default::default() },
        );
        let mut correct = 0;
        for i in 0..20 {
            if det.classifier.score(&det.extractor.crop_descriptor(&ds.train_positive(700 + i)))
                > 0.0
            {
                correct += 1;
            }
            if det.classifier.score(&det.extractor.crop_descriptor(&ds.train_negative(700 + i)))
                <= 0.0
            {
                correct += 1;
            }
        }
        let acc = correct as f32 / 40.0;
        assert!(acc > 0.7, "held-out crop accuracy {acc}");
    }

    #[test]
    fn absorbed_trains_and_reports_collapse_metrics() {
        // §5.1 reports outright collapse on INRIA-scale data; on the
        // synthetic set the monolithic network does learn the crop task,
        // so the reproduction's claim lives in the *detection* comparison
        // (fig5 harness, EXPERIMENTS.md). The unit test checks the
        // mechanics: iso-resource sizing and sane collapse metrics.
        let ds = SynthDataset::new(SynthConfig::default());
        let (_det, outcome) = AbsorbedSystem::train(&ds, tiny_set());
        assert!(outcome.cores > 100, "monolithic cores {}", outcome.cores);
        assert!((0.5..=1.0).contains(&outcome.majority_fraction), "{outcome:?}");
        assert!((0.0..=1.0).contains(&outcome.validation_accuracy), "{outcome:?}");
        assert_eq!(outcome.is_blind, outcome.majority_fraction >= 0.95);
    }

    #[test]
    fn scene_windows_have_right_dimensionality() {
        let ds = SynthDataset::new(SynthConfig::default());
        let ex = Extractor::napprox_fp(BlockNorm::L2);
        let scene = ds.negative_scene(0);
        let descs = PartitionedSystem::scene_window_descriptors(&ex, &scene.image, 4);
        assert!(!descs.is_empty());
        assert!(descs.iter().all(|d| d.len() == ex.len()));
    }
}
