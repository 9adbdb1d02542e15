//! Contracts of the one supervised serve loop behind every cluster entry
//! point: a failed batch frame is re-raised once every frame has an
//! outcome instead of hanging the feeder, the per-frame retry stops at
//! its attempt budget or its deadline with exact counters, and both SLO
//! harnesses record one measured latency sample per served frame.

use pcnn_cluster::{
    arrivals, run_slo, run_stream_slo, ChaosEvent, ChaosPlan, Cluster, ClusterConfig, LoadProfile,
    SloBudget, StreamFrame, StreamOutcome,
};
use pcnn_core::pipeline::TrainedDetector;
use pcnn_core::{Error, Extractor, StreamId, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_runtime::{Backpressure, RetryPolicy};
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_trace::Counter;
use pcnn_vision::{SynthConfig, SynthDataset, TemporalConfig, VideoStream};
use std::panic::AssertUnwindSafe;
use std::time::Duration;

/// Budgets no run here can miss: these tests read the samples, not the
/// verdict.
const BUDGET: SloBudget = SloBudget { p50_us: 60_000_000, p99_us: 60_000_000, shed_ppm: 0 };

fn detector() -> TrainedDetector {
    let ds = SynthDataset::new(SynthConfig::default());
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

/// A detector whose classifier was fit on 4-dim vectors behind the
/// 7560-dim `napprox_fp(L2)` extractor: every window fails to score.
fn mismatched_detector() -> TrainedDetector {
    let xs: Vec<Vec<f32>> =
        (0..8).map(|i| vec![i as f32, 8.0 - i as f32, (i % 3) as f32, (i % 2) as f32]).collect();
    let ys: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
    let scaler = FeatureScaler::fit(&xs);
    let model = train(&scaler.apply_all(&xs), &ys, TrainConfig::default());
    TrainedDetector {
        extractor: Extractor::napprox_fp(BlockNorm::L2),
        classifier: WindowClassifier::Svm { model, scaler },
    }
}

/// One shard serving [`mismatched_detector`] under `retry`, so every
/// attempt at every frame fails in the classify stage.
fn failing_cluster(retry: RetryPolicy) -> Cluster {
    let config = ClusterConfig::builder()
        .shards(1)
        .workers(1)
        .backpressure(Backpressure::Block)
        .retry(retry)
        .build()
        .unwrap();
    let cluster = Cluster::new(&detector().to_snapshot(), config).unwrap();
    // `Shard::install` takes the detector as it is; a snapshot with this
    // pairing would be rejected before it reached a shard.
    cluster.shards()[0].install(mismatched_detector());
    cluster
}

/// Four pedestrian crops, all frames of stream 0.
fn crops() -> Vec<StreamFrame> {
    let ds = SynthDataset::new(SynthConfig::default());
    (0..4).map(|i| StreamFrame { stream: StreamId::new(0), image: ds.train_positive(i) }).collect()
}

fn interleaved_streams(streams: u64, per_stream: u64) -> Vec<StreamFrame> {
    let sources: Vec<VideoStream> =
        (0..streams).map(|s| VideoStream::new(TemporalConfig::sparse_scene(s + 1))).collect();
    let mut frames = Vec::new();
    for t in 0..per_stream {
        for (s, source) in sources.iter().enumerate() {
            frames.push(StreamFrame {
                stream: StreamId::new(s as u64),
                image: source.render(t).image,
            });
        }
    }
    frames
}

fn blocking_config(shards: u32) -> ClusterConfig {
    ClusterConfig::builder()
        .shards(shards)
        .router_seed(7)
        .workers(1)
        .backpressure(Backpressure::Block)
        .build()
        .expect("valid cluster config")
}

#[test]
fn serve_reraises_a_failed_batch_frame_instead_of_hanging() {
    // One shard, one worker, a one-slot queue and one-frame batches: the
    // feeder is parked on the full queue when frame 0 fails. The run
    // gets its own thread so a hang fails after the timeout instead of
    // wedging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let run = std::thread::spawn(move || {
        let config = ClusterConfig::builder()
            .shards(1)
            .workers(1)
            .queue_capacity(1)
            .batch_size(1)
            .backpressure(Backpressure::Block)
            .build()
            .unwrap();
        let cluster = Cluster::new(&detector().to_snapshot(), config).unwrap();
        // `Shard::install` takes the detector as it is; a snapshot with
        // this pairing would be rejected before it reached a shard.
        cluster.shards()[0].install(mismatched_detector());
        let frames = crops();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| cluster.serve(&frames)));
        let message = outcome.map(|_| ()).map_err(|payload| {
            payload.downcast::<String>().map(|m| *m).unwrap_or_else(|_| "non-string panic".into())
        });
        tx.send(message).ok();
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(Err(message)) => assert!(message.contains("dimensionality mismatch"), "{message}"),
        Ok(Ok(())) => panic!("serve returned normally although every frame failed"),
        Err(_) => panic!("serve still running 60 s after frame 0 failed"),
    }
    run.join().expect("the serving thread caught the panic itself");
}

#[test]
fn exhausted_attempts_fail_every_frame_with_its_last_error() {
    let cluster = failing_cluster(RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        deadline: None,
        jitter_pm: 0,
    });
    let frames = crops();
    let outcomes = cluster.serve_streams_with(&frames, None);
    assert_eq!(outcomes.len(), frames.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        assert!(
            matches!(
                outcome,
                StreamOutcome::Failed { error: Error::WorkerPanic { stage, .. }, attempts: 2 }
                    if stage == "classify"
            ),
            "frame {i}: {outcome:?}"
        );
    }
    let report = cluster.report();
    assert_eq!(
        report.aggregate.counters[Counter::Retries],
        frames.len() as u64,
        "one retry between two attempts per frame"
    );
    assert_eq!(report.aggregate.counters[Counter::DeadlinesExceeded], 0);
}

#[test]
fn a_backoff_past_the_deadline_resolves_the_frame_without_retrying() {
    // The first backoff (50 ms) alone overruns the 40 ms deadline, so
    // each frame gives up after its first failed attempt.
    let cluster = failing_cluster(RetryPolicy {
        max_attempts: 100,
        base_backoff: Duration::from_millis(50),
        deadline: Some(Duration::from_millis(40)),
        jitter_pm: 0,
    });
    let frames = crops();
    let outcomes = cluster.serve_streams_with(&frames, None);
    assert_eq!(outcomes.len(), frames.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        assert!(matches!(outcome, StreamOutcome::DeadlineExceeded), "frame {i}: {outcome:?}");
    }
    let report = cluster.report();
    assert_eq!(report.aggregate.counters[Counter::DeadlinesExceeded], frames.len() as u64);
    assert_eq!(
        report.aggregate.counters[Counter::Retries],
        0,
        "no attempt is retried past the deadline"
    );
}

#[test]
fn stream_slo_latency_is_measured() {
    let cluster = Cluster::new(&detector().to_snapshot(), blocking_config(3)).unwrap();
    let frames = interleaved_streams(3, 5);
    // An 800 ms stall stays under the default 5 s `stall_after`: the
    // watchdog lets it pass, and the frames queued behind it are late.
    let victim = cluster.route(StreamId::new(0));
    let plan = ChaosPlan::new(5).with_event(ChaosEvent::StallShard {
        shard: victim,
        at_frame: 1,
        for_ms: 800,
    });
    let slo = run_stream_slo(&cluster, &frames, BUDGET, Some(&plan));
    assert_eq!(slo.served, frames.len() as u64, "Block serves every frame");
    assert_eq!(slo.latency.total(), slo.served, "one sample per served frame");
    // The stalled frame completes at least 800 ms after the start.
    assert!(slo.p99_us.is_some_and(|p99| p99 >= 800_000), "{slo}");
    assert_eq!(
        cluster.report().aggregate.counters[Counter::Stalls],
        0,
        "the stall is under the watchdog threshold"
    );
}

#[test]
fn run_slo_paces_and_records_one_sample_per_frame() {
    let cluster = Cluster::new(&detector().to_snapshot(), blocking_config(2)).unwrap();
    let schedule = arrivals(&LoadProfile { seed: 3, streams: 4, rate_hz: 20.0, frames: 8 });
    let ds = SynthDataset::new(SynthConfig::default());
    let slo = run_slo(&cluster, &schedule, BUDGET, |a| ds.train_positive(a.stream));
    let last_due_s = schedule.last().expect("a non-empty schedule").at_us as f64 / 1e6;
    assert!(slo.wall_s >= last_due_s, "the run ended before its last arrival: {slo:?}");
    assert_eq!(slo.served, slo.offered, "Block serves every frame");
    assert_eq!(slo.latency.total(), slo.served, "one sample per served frame");
    let report = cluster.report();
    assert_eq!(report.aggregate.counters[Counter::Frames], slo.served);
    assert_eq!(
        (
            report.aggregate.counters[Counter::Stalls],
            report.aggregate.counters[Counter::Respawns],
            report.aggregate.counters[Counter::Failovers]
        ),
        (0, 0, 0),
        "a healthy batch serve trips no supervision"
    );
}
