//! The four workloads: fixed traffic mixes over the paper's detectors.
//!
//! Every rate, topology and tail percentile is a constant here. What a
//! workload shows is fixed too: a pool of standard test scenes (or
//! crops), or twelve cameras with fixed scene seeds, so detection
//! quality and per-frame cost are the same on every seed. The run seed
//! picks the order in which pool items arrive and each source's clock
//! phase and jitter. The detectors are always trained on the standard
//! dataset at `ExperimentScale::quick()` scale.

use crate::schedule::{self, Arrival};
use pcnn_bench::{standard_dataset, test_scenes, ExperimentScale};
use pcnn_cluster::{Cluster, ClusterConfig};
use pcnn_core::{DetectorSnapshot, Extractor, ExtractorSpec, PartitionedSystem, StreamId};
use pcnn_hog::BlockNorm;
use pcnn_vision::{
    BoundingBox, GrayImage, TemporalConfig, VideoStream, WINDOW_HEIGHT, WINDOW_WIDTH,
};

/// The run length the constants below are sized for; `BENCHMARK.json`
/// commits the same value.
pub const RUN_SECONDS: u64 = 25;

/// Share of a run spent in the open-loop phase.
pub const OPEN_SHARE: f64 = 0.55;

/// Share of a run spent in closed-loop rounds; the set-ups and host
/// readings take most of the rest.
pub const CLOSED_SHARE: f64 = 0.25;

/// Which detector a workload serves, and how its inputs arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 320×240 test scenes through NApprox(fp) + L2 → SVM (Fig. 4).
    Fig4,
    /// The same scenes through 64-spike NApprox → Eedn (Fig. 5).
    Fig5,
    /// Twelve video cameras through the Fig. 4 detector, cached and tracked.
    Cameras,
    /// 64×128 crops through NApprox on simulated TrueNorth cores → SVM.
    Hardware,
}

/// One workload's fixed traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the benchmark carries it.
    pub why: &'static str,
    /// Detector and input kind.
    pub kind: Kind,
    /// Cluster shards.
    pub shards: u32,
    /// Worker threads per shard.
    pub workers: usize,
    /// Independent sources (cameras); frame workloads have one.
    pub sources: usize,
    /// Frames per second each source's clock sends in the open-loop
    /// phase.
    pub rate_hz: f64,
    /// The open-loop tail percentile: the highest that leaves ten
    /// samples beyond it at [`RUN_SECONDS`], but at least p90. The two
    /// slow workloads serve fewer than a hundred open-loop frames in a
    /// run, so their p90 has fewer than ten samples beyond it.
    pub tail_pct: u32,
    /// Frames per closed-loop round, sent as one `serve` (or
    /// `serve_streams`) call; cameras send their first frames, one
    /// frame of each camera after another.
    pub closed_batch: usize,
    /// Frames per source the agreement gate and the traced replay re-run
    /// serially.
    pub replay_frames: usize,
}

/// The workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig4_frames",
        why: "Cold dense Fig. 4 path, 9 Hz on 1 shard x 2 workers: NApprox(fp) cells, descriptor \
              assembly and SVM scoring on every window; no kernels, cache or TrueNorth.",
        kind: Kind::Fig4,
        shards: 1,
        workers: 2,
        sources: 1,
        rate_hz: 9.0,
        tail_pct: 91,
        closed_batch: 8,
        replay_frames: 10,
    },
    Workload {
        name: "fig5_frames",
        why: "Classifier-bound Fig. 5 path, 1.4 Hz on 1 x 2: per-window Eedn scoring \
              dominates, so it bypasses every extractor optimization.",
        kind: Kind::Fig5,
        shards: 1,
        workers: 2,
        sources: 1,
        rate_hz: 1.4,
        tail_pct: 90,
        closed_batch: 6,
        replay_frames: 6,
    },
    Workload {
        name: "camera_streams",
        why: "Twelve static, crowded and panning cameras at 1.8 fps each over 2 shards x 1 \
              worker: the same layers used sparsely through cell cache and tracker, plus \
              routing across shards.",
        kind: Kind::Cameras,
        shards: 2,
        workers: 1,
        sources: 12,
        rate_hz: 1.8,
        tail_pct: 96,
        closed_batch: 36,
        replay_frames: 3,
    },
    Workload {
        name: "hw_windows",
        why: "TrueNorth-bound, 1.3 Hz on 1 x 1: 64x128 crops through NApprox on simulated cores; \
              the only workload that runs the spiking simulator.",
        kind: Kind::Hardware,
        shards: 1,
        workers: 1,
        sources: 1,
        rate_hz: 1.3,
        tail_pct: 90,
        closed_batch: 6,
        replay_frames: 6,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Camera kinds, one per camera: static, crowded and panning in turn,
/// so that cameras adjacent in phase differ in cost.
const CAMERAS: [fn(u64) -> TemporalConfig; 12] = [
    TemporalConfig::static_scene,
    TemporalConfig::crowded_scene,
    TemporalConfig::panning_scene,
    TemporalConfig::static_scene,
    TemporalConfig::crowded_scene,
    TemporalConfig::panning_scene,
    TemporalConfig::static_scene,
    TemporalConfig::crowded_scene,
    TemporalConfig::panning_scene,
    TemporalConfig::static_scene,
    TemporalConfig::crowded_scene,
    TemporalConfig::panning_scene,
];

/// Stream ids. With router seed 0 over two shards, ids at even positions
/// land on shard 0 and the others on shard 1, so cameras get two of each
/// kind per shard and frame requests alternate between the shards.
pub const STREAMS: [u64; 12] = [0, 4, 1, 6, 2, 14, 3, 16, 5, 17, 7, 18];

/// Distinct scenes (or crops) a frame workload's requests show. Every
/// open loop at [`RUN_SECONDS`] shows each of them at least once, so
/// `lamr` covers the same inputs on every seed.
pub const POOL: usize = 16;

/// First crop index of the hardware pool, clear of the crops the
/// detector trains on.
const CROP_BASE: u64 = 1 << 20;

impl Workload {
    /// Frames each source sends in an open-loop phase of `seconds`.
    pub fn open_frames(&self, seconds: f64) -> usize {
        (self.rate_hz * seconds * OPEN_SHARE).round() as usize
    }

    /// Length of the open-loop schedule of `count` frames per source, µs.
    pub fn schedule_us(&self, count: usize) -> u64 {
        (count as f64 * 1e6 / self.rate_hz) as u64
    }

    /// Threads the workload keeps busy: every worker of every shard.
    pub fn threads(&self) -> usize {
        self.shards as usize * self.workers
    }

    /// The open-loop schedule of `count` frames per source.
    pub fn arrivals(&self, seed: u64, count: usize) -> Vec<Arrival> {
        schedule::clocks(seed, self.sources, self.rate_hz, count)
    }

    /// Whether frames go through the stream path (cache and tracker).
    pub fn streaming(&self) -> bool {
        self.kind == Kind::Cameras
    }

    /// The cluster topology.
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::builder()
            .shards(self.shards)
            .workers(self.workers)
            .build()
            .expect("workload topologies are valid")
    }
}

/// An input frame and its ground-truth pedestrians.
#[derive(Debug, Clone)]
pub struct Labelled {
    /// The frame.
    pub image: GrayImage,
    /// Ground-truth pedestrian boxes.
    pub truth: Vec<BoundingBox>,
}

/// The pool a frame workload's requests show: the first standard test
/// scenes, or held-out positive and negative crops in turn for the
/// hardware workload.
pub fn frame_pool(kind: Kind) -> Vec<Labelled> {
    if kind != Kind::Hardware {
        let scenes = test_scenes(POOL as u64).into_iter();
        return scenes.map(|s| Labelled { image: s.image, truth: s.pedestrians }).collect();
    }
    let ds = standard_dataset();
    let window = BoundingBox::new(0.0, 0.0, WINDOW_WIDTH as f32, WINDOW_HEIGHT as f32);
    (0..POOL as u64)
        .map(|i| match i % 2 {
            0 => Labelled { image: ds.train_positive(CROP_BASE + i), truth: vec![window] },
            _ => Labelled { image: ds.train_negative(CROP_BASE + i), truth: Vec::new() },
        })
        .collect()
}

/// The twelve cameras of a camera run; camera `c` renders scene seed `c`.
pub fn cameras() -> Vec<VideoStream> {
    CAMERAS.iter().enumerate().map(|(c, config)| VideoStream::new(config(c as u64))).collect()
}

/// The capture index of a camera's first served frame: past the first
/// walkers' entry, so the cameras show steady traffic from the start.
pub const FIRST_FRAME: u64 = 200;

/// Renders the `index`-th served frame of a camera with its ground
/// truth.
pub fn render(camera: &VideoStream, index: usize) -> Labelled {
    let scene = camera.render(FIRST_FRAME + index as u64);
    Labelled { image: scene.image, truth: scene.pedestrians }
}

/// Trains the workload's detector and captures it as the snapshot the
/// cluster is built from.
pub fn train(kind: Kind) -> DetectorSnapshot {
    let scale = ExperimentScale::quick();
    let ds = standard_dataset();
    match kind {
        Kind::Fig4 | Kind::Cameras => PartitionedSystem::train_svm_detector(
            Extractor::napprox_fp(BlockNorm::L2),
            &ds,
            scale.train,
        )
        .to_snapshot(),
        Kind::Fig5 => PartitionedSystem::train_eedn_detector(
            Extractor::napprox_quantized(64, BlockNorm::None),
            &ds,
            scale.train,
            scale.eedn,
        )
        .to_snapshot(),
        Kind::Hardware => {
            // The SVM learns on the quantized software model, then
            // serves behind the same arithmetic on simulated cores.
            let mut snapshot = PartitionedSystem::train_svm_detector(
                Extractor::napprox_quantized(64, BlockNorm::L2),
                &ds,
                scale.train,
            )
            .to_snapshot();
            snapshot.extractor = ExtractorSpec::NApproxHardware { spikes: 64, norm: BlockNorm::L2 };
            snapshot
        }
    }
}

/// Builds the workload's cluster from `snapshot` and serves the
/// warm-up frames (discarded), one shard after another.
pub fn build(workload: &Workload, snapshot: &DetectorSnapshot, warmup: &[GrayImage]) -> Cluster {
    let cluster = Cluster::new(snapshot, workload.cluster_config()).expect("cluster builds");
    for (i, frame) in warmup.iter().enumerate() {
        let stream = StreamId::new(STREAMS[i % workload.shards as usize]);
        cluster.detect(stream, frame).expect("warm-up frame serves");
    }
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tail_percentile;

    #[test]
    fn tail_percentiles_leave_ten_samples_beyond_at_run_length_or_are_p90() {
        for w in &WORKLOADS {
            let n = w.sources * w.open_frames(RUN_SECONDS as f64);
            let pct = tail_percentile(n).map_or(90, |p| p.max(90));
            assert_eq!(w.tail_pct, pct, "{}: {n} samples", w.name);
        }
    }

    #[test]
    fn frame_open_loops_show_the_whole_pool_at_run_length() {
        for w in WORKLOADS.iter().filter(|w| !w.streaming()) {
            assert!(w.open_frames(RUN_SECONDS as f64) >= POOL, "{}", w.name);
        }
    }

    #[test]
    fn streams_alternate_shards_with_two_cameras_of_each_kind_per_shard() {
        let router = pcnn_cluster::ShardRouter::new(2, 0).unwrap();
        for (c, &id) in STREAMS.iter().enumerate() {
            assert_eq!(router.route(id), (c % 2) as u32, "position {c} (stream {id})");
        }
        assert_eq!(CAMERAS.len(), STREAMS.len());
        assert_eq!(CAMERAS.len() % 6, 0, "kinds cycle with period 3 over alternating shards");
    }

    #[test]
    fn hardware_pool_alternates_positive_and_negative_crops() {
        let pool = frame_pool(Kind::Hardware);
        assert_eq!(pool.len(), POOL);
        assert!(pool.iter().step_by(2).all(|l| l.truth.len() == 1));
        assert!(pool.iter().skip(1).step_by(2).all(|l| l.truth.is_empty()));
        assert_ne!(pool[0].image, pool[2].image);
    }
}
