//! Streaming video walkthrough: train a detector, open a video stream
//! on the serving runtime, and follow pedestrians across frames with
//! the change-driven temporal cache and the greedy-IoU tracker.
//!
//! ```text
//! cargo run --release --example video_tracking
//! ```

use pcnn::core::pipeline::Detector;
use pcnn::core::{Extractor, PartitionedSystem, StreamId, TrainSetConfig};
use pcnn::hog::BlockNorm;
use pcnn::runtime::{DetectionServer, RuntimeConfig};
use pcnn::vision::{SynthConfig, SynthDataset, TemporalConfig, VideoStream};

fn main() {
    let dataset = SynthDataset::new(SynthConfig::default());

    println!("training NApprox(fp) + SVM detector…");
    let detector = PartitionedSystem::train_svm_detector(
        Extractor::napprox_fp(BlockNorm::L2),
        &dataset,
        TrainSetConfig { n_pos: 80, n_neg: 160, mining_scenes: 2, mining_rounds: 1 },
    );

    let config = RuntimeConfig::builder().workers(2).build().expect("valid runtime config");
    let server =
        DetectionServer::new(Detector::default(), &detector, config).expect("valid server");

    // A seeded crowd scene: several walkers entering, crossing and
    // leaving under a static camera. Same seed, same video — every run.
    let video = VideoStream::new(TemporalConfig::crowded_scene(42));
    let handle = server.open_stream(StreamId::new(1));

    println!("\nserving 12 frames of a crowded street scene…");
    for t in 0..12u64 {
        let frame = video.render(t);
        let result = server.detect_stream(&handle, &frame.image).expect("healthy stream");
        let total = result.cells_reused + result.cells_recomputed;
        println!(
            "frame {t:>2}: {} detection(s), {} track(s), {}/{} cells from cache",
            result.detections.len(),
            result.tracks.len(),
            result.cells_reused,
            total,
        );
        for track in &result.tracks {
            let b = &track.bbox;
            println!(
                "    track {:>2} at ({:>5.1},{:>5.1}) {:.0}x{:.0}",
                track.id, b.x, b.y, b.width, b.height
            );
        }
    }

    println!("\n{}", server.report());
}
