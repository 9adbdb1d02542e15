//! The self-healing contract, pinned under scripted chaos: a shard
//! killed (or stalled) mid-stream fails its streams over to the
//! survivors and respawns warm, and the tier still serves **every
//! accepted frame exactly once, bit-identical to the unfaulted run** —
//! trackers survive the migration, per-frame cell totals are conserved,
//! and the failover/respawn/retry counters are a pure function of the
//! chaos plan, not of worker counts or thread timing.

use pcnn_cluster::{ChaosEvent, ChaosPlan, Cluster, ClusterConfig, StreamFrame, StreamOutcome};
use pcnn_core::pipeline::TrainedDetector;
use pcnn_core::{DetectorSnapshot, Extractor, StreamId, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_runtime::{Backpressure, RetryPolicy, StreamFrameResult};
use pcnn_store::CheckpointDir;
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_trace::Counter;
use pcnn_vision::{SynthConfig, SynthDataset, TemporalConfig, VideoStream};
use std::time::Duration;

const STREAMS: u64 = 3;
const PER_STREAM: u64 = 5;
const SHARDS: u32 = 3;

fn detector_with(seed: u64) -> TrainedDetector {
    let ds = SynthDataset::new(SynthConfig { seed, ..SynthConfig::default() });
    let extractor = Extractor::napprox_fp(BlockNorm::L2);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..24 {
        xs.push(extractor.crop_descriptor(&ds.train_positive(i)));
        ys.push(true);
        xs.push(extractor.crop_descriptor(&ds.train_negative(i)));
        ys.push(false);
    }
    let scaler = FeatureScaler::fit(&xs);
    let model = train(&scaler.apply_all(&xs), &ys, TrainConfig::default());
    TrainedDetector { extractor, classifier: WindowClassifier::Svm { model, scaler } }
}

fn interleaved_streams() -> Vec<StreamFrame> {
    let sources: Vec<VideoStream> =
        (0..STREAMS).map(|s| VideoStream::new(TemporalConfig::sparse_scene(s + 1))).collect();
    let mut frames = Vec::new();
    for t in 0..PER_STREAM {
        for (s, source) in sources.iter().enumerate() {
            frames.push(StreamFrame {
                stream: StreamId::new(s as u64),
                image: source.render(t).image,
            });
        }
    }
    frames
}

fn supervised_config(workers: usize) -> ClusterConfig {
    ClusterConfig::builder()
        .shards(SHARDS)
        .router_seed(7)
        .workers(workers)
        .backpressure(Backpressure::Block)
        .retry(
            RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                deadline: None,
                jitter_pm: 0,
            }
            .with_jitter(500),
        )
        .stall_after(Duration::from_secs(5))
        .build()
        .expect("valid supervised config")
}

/// The unfaulted reference run: same config, same frames, no chaos.
fn reference_run(snapshot: &DetectorSnapshot, frames: &[StreamFrame]) -> Vec<StreamFrameResult> {
    let cluster = Cluster::new(snapshot, supervised_config(2)).unwrap();
    cluster
        .serve_streams(frames)
        .into_iter()
        .map(|r| r.expect("Block never sheds").expect("unfaulted frames succeed"))
        .collect()
}

/// A kill plan that provably fires: the victim is stream 0's shard
/// (guaranteed at least `PER_STREAM` frames), killed before its
/// `at_frame`-th frame; plus, when routing spreads streams over more
/// than one shard, a first-frame failure on a survivor to exercise the
/// retry path.
fn kill_plan(cluster: &Cluster, seed: u64) -> (ChaosPlan, u64) {
    let victim = cluster.route(StreamId::new(0));
    let at_frame = 1 + seed % 4;
    let mut plan =
        ChaosPlan::new(seed).with_event(ChaosEvent::KillShard { shard: victim, at_frame });
    let mut expected_retries = 0;
    if let Some(other) =
        (1..STREAMS).map(|s| cluster.route(StreamId::new(s))).find(|&shard| shard != victim)
    {
        plan = plan.with_event(ChaosEvent::FailFrame { shard: other, at_frame: 0 });
        expected_retries = 1;
    }
    (plan, expected_retries)
}

/// The acceptance gate: 3 seeds × {1, 2, 4} workers, a mid-stream shard
/// kill each — exactly-once, bit-identical, counters deterministic.
#[test]
fn killed_shard_fails_over_and_respawns_bit_identically() {
    let snapshot = detector_with(1).to_snapshot();
    let frames = interleaved_streams();
    let reference = reference_run(&snapshot, &frames);

    for seed in [3u64, 11, 42] {
        let mut counter_runs: Vec<(u64, u64, u64, u64)> = Vec::new();
        for workers in [1usize, 2, 4] {
            let cluster = Cluster::new(&snapshot, supervised_config(workers)).unwrap();
            let (plan, expected_retries) = kill_plan(&cluster, seed);
            let outcomes = cluster.serve_streams_with(&frames, Some(&plan));

            assert_eq!(outcomes.len(), frames.len());
            let mut redispatched_any = false;
            for (i, outcome) in outcomes.iter().enumerate() {
                let StreamOutcome::Served { result, redispatched, .. } = outcome else {
                    panic!("seed {seed} workers {workers} frame {i}: not served: {outcome:?}");
                };
                redispatched_any |= redispatched;
                // Exactly-once, bit-identical: detections and tracks
                // match the unfaulted run; the cache may run cold after
                // migration, but every cell is still accounted for.
                assert_eq!(
                    result.detections, reference[i].detections,
                    "seed {seed} workers {workers} frame {i}: detections diverged"
                );
                assert_eq!(
                    result.tracks, reference[i].tracks,
                    "seed {seed} workers {workers} frame {i}: tracks diverged (tracker lost in failover)"
                );
                assert_eq!(
                    result.cells_reused + result.cells_recomputed,
                    reference[i].cells_reused + reference[i].cells_recomputed,
                    "seed {seed} workers {workers} frame {i}: cell accounting leaked"
                );
            }
            assert!(redispatched_any, "seed {seed}: the kill must orphan at least one frame");

            let report = cluster.report();
            assert_eq!(
                report.aggregate.counters[Counter::Respawns],
                1,
                "seed {seed}: one kill, one respawn"
            );
            assert!(
                report.aggregate.counters[Counter::Failovers] >= 1,
                "seed {seed}: victim held at least one stream"
            );
            assert_eq!(
                report.aggregate.counters[Counter::Retries],
                expected_retries,
                "seed {seed}: injected-failure retries"
            );
            assert_eq!(
                report.aggregate.counters[Counter::FramesShed],
                0,
                "Block backpressure never sheds"
            );
            counter_runs.push((
                report.aggregate.counters[Counter::Failovers],
                report.aggregate.counters[Counter::Respawns],
                report.aggregate.counters[Counter::Retries],
                report.aggregate.counters[Counter::Stalls],
            ));
        }
        assert!(
            counter_runs.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: counters must not depend on worker count: {counter_runs:?}"
        );
    }
}

/// A stalled drainer is condemned by the watchdog and buried exactly
/// like a dead one: its unserved frames re-dispatch, its streams fail
/// over, the shard respawns — and the output is still bit-identical.
#[test]
fn stalled_shard_is_condemned_and_its_frames_rerouted() {
    let snapshot = detector_with(1).to_snapshot();
    let frames = interleaved_streams();
    let reference = reference_run(&snapshot, &frames);

    let mut config = supervised_config(2);
    config.supervision.stall_after = Duration::from_millis(300);
    let cluster = Cluster::new(&snapshot, config).unwrap();
    let victim = cluster.route(StreamId::new(0));
    let plan = ChaosPlan::new(5).with_event(ChaosEvent::StallShard {
        shard: victim,
        at_frame: 1,
        for_ms: 10_000,
    });
    let outcomes = cluster.serve_streams_with(&frames, Some(&plan));
    for (i, outcome) in outcomes.iter().enumerate() {
        let result = outcome.served().unwrap_or_else(|| panic!("frame {i}: {outcome:?}"));
        assert_eq!(result.detections, reference[i].detections, "frame {i}");
        assert_eq!(result.tracks, reference[i].tracks, "frame {i}");
    }
    let report = cluster.report();
    // A slow-but-healthy serve can also trip the watchdog (that heal is
    // harmless, the output above is still bit-identical), so the
    // counters are lower-bounded rather than exact here.
    assert!(
        report.aggregate.counters[Counter::Stalls] >= 1,
        "the watchdog must condemn the stalled lane"
    );
    assert!(
        report.aggregate.counters[Counter::Respawns] >= 1,
        "a condemned shard respawns like a dead one"
    );
    assert!(report.aggregate.counters[Counter::Failovers] >= 1);
}

/// With respawn disabled the victim stays drained: the survivors absorb
/// its streams for the rest of the run and still serve every frame.
#[test]
fn without_respawn_the_survivors_carry_the_dead_shards_streams() {
    let snapshot = detector_with(1).to_snapshot();
    let frames = interleaved_streams();
    let reference = reference_run(&snapshot, &frames);

    let mut config = supervised_config(2);
    config.supervision.respawn = false;
    let cluster = Cluster::new(&snapshot, config).unwrap();
    let victim = cluster.route(StreamId::new(0));
    let plan = ChaosPlan::new(9).with_event(ChaosEvent::KillShard { shard: victim, at_frame: 2 });
    let outcomes = cluster.serve_streams_with(&frames, Some(&plan));
    for (i, outcome) in outcomes.iter().enumerate() {
        let result = outcome.served().unwrap_or_else(|| panic!("frame {i}: {outcome:?}"));
        assert_eq!(result.detections, reference[i].detections, "frame {i}");
        assert_eq!(result.tracks, reference[i].tracks, "frame {i}");
    }
    let report = cluster.report();
    assert_eq!(report.aggregate.counters[Counter::Respawns], 0, "respawn is disabled");
    assert!(report.aggregate.counters[Counter::Failovers] >= 1);
    assert!(
        report.shards[victim as usize].drained,
        "the dead shard must still be out of rotation at the end of the run"
    );
}

/// Chaos corrupts the newest checkpoint right before the respawn reads
/// it: the respawn falls back to the next-newest valid epoch and the
/// tier keeps serving. Both epochs hold the same snapshot, so output
/// stays bit-identical — what changes is which file the reload trusts.
#[test]
fn respawn_survives_a_corrupted_newest_checkpoint() {
    let snapshot = detector_with(1).to_snapshot();
    let frames = interleaved_streams();
    let reference = reference_run(&snapshot, &frames);

    let tmp = tempdir("pcnn-failover-corrupt");
    let dir = CheckpointDir::create(&tmp).unwrap();
    dir.save(1, &snapshot).unwrap();
    dir.save(2, &snapshot).unwrap();

    let cluster = Cluster::warm_start(&dir, supervised_config(2)).unwrap();
    let victim = cluster.route(StreamId::new(0));
    let plan = ChaosPlan::new(13)
        .with_event(ChaosEvent::KillShard { shard: victim, at_frame: 2 })
        .with_event(ChaosEvent::CorruptNewestCheckpoint);
    let outcomes = cluster.serve_streams_with(&frames, Some(&plan));
    for (i, outcome) in outcomes.iter().enumerate() {
        let result = outcome.served().unwrap_or_else(|| panic!("frame {i}: {outcome:?}"));
        assert_eq!(result.detections, reference[i].detections, "frame {i}");
        assert_eq!(result.tracks, reference[i].tracks, "frame {i}");
    }
    let report = cluster.report();
    assert_eq!(report.aggregate.counters[Counter::Respawns], 1);
    // The respawn really did hit the corrupted epoch 2 and fall back:
    // the newest *valid* snapshot in the directory is now epoch 1.
    let (epoch, _) = dir.load_latest::<DetectorSnapshot>().unwrap().expect("epoch 1 survives");
    assert_eq!(epoch, 1, "epoch 2 must have been corrupted by the chaos plan");

    std::fs::remove_dir_all(&tmp).ok();
}

/// Old serialized configs and reports (pre-supervision) still load: the
/// new fields all default.
#[test]
fn supervision_fields_default_through_serde() {
    let config = supervised_config(2);
    let json = serde_json::to_string(&config).unwrap();
    let back: ClusterConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, config, "full round-trip");

    let snapshot = detector_with(1).to_snapshot();
    let cluster = Cluster::new(&snapshot, supervised_config(1)).unwrap();
    let report = cluster.report();
    let json = serde_json::to_string(&report).unwrap();
    let back: pcnn_cluster::ClusterReport = serde_json::from_str(&json).unwrap();
    assert_eq!(
        back.aggregate.counters[Counter::Respawns],
        report.aggregate.counters[Counter::Respawns]
    );
    assert_eq!(
        back.aggregate.counters[Counter::Failovers],
        report.aggregate.counters[Counter::Failovers]
    );
}

/// A config serialized while the queue lived in `runtime` has no
/// top-level `queue`: it fails to decode instead of silently taking the
/// default queue settings.
#[test]
fn a_config_without_a_top_level_queue_fails_to_decode() {
    let config = supervised_config(2);
    let json = serde_json::to_string(&config).unwrap();
    let queue = serde_json::to_string(&config.queue).unwrap();
    // The old shape: the queue nested in `runtime`, none at top level.
    let chunk_rows = format!("\"chunk_rows\":{}", config.runtime.chunk_rows);
    let nested = format!("{chunk_rows},\"queue\":{queue}");
    let old =
        json.replacen(&format!(",\"queue\":{queue}"), "", 1).replacen(&chunk_rows, &nested, 1);
    assert_ne!(old, json, "the document was reshaped");
    let err = serde_json::from_str::<ClusterConfig>(&old).unwrap_err();
    assert!(err.to_string().contains("missing field `queue`"), "{err}");
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
