//! Detection on faulty hardware: inject a fault plan into the simulated
//! NApprox module and watch the serving runtime degrade down its
//! fallback chain instead of panicking or serving garbage.
//!
//! ```text
//! cargo run --release --example faulted_detection [paradigm] [fault-rate]
//! ```
//!
//! `paradigm` is parsed with `ExtractorKind::from_str` (`napprox-hw`,
//! `napprox`, `traditional`, …; default `napprox-hw`) and names the
//! chain's primary level; `fault-rate` (default `0.3`) scales the
//! injected plan — that fraction of fabric spikes dropped and of module
//! cores killed.

use pcnn::core::faultsweep::plan_for_rate;
use pcnn::core::pipeline::{Detector, TrainedDetector};
use pcnn::core::{Extractor, ExtractorKind, WindowClassifier};
use pcnn::hog::BlockNorm;
use pcnn::runtime::{DetectionServer, FallbackChain, RuntimeConfig};
use pcnn::svm::{train, FeatureScaler, TrainConfig};
use pcnn::vision::{GrayImage, SynthConfig, SynthDataset};

const SPIKES: u32 = 64;

/// An extractor of the requested paradigm, configured like the sweep.
fn build_extractor(kind: ExtractorKind) -> Extractor {
    match kind {
        ExtractorKind::Fpga => Extractor::fpga(),
        ExtractorKind::Traditional => Extractor::traditional(),
        ExtractorKind::NApproxFp => Extractor::napprox_fp(BlockNorm::None),
        ExtractorKind::NApproxQuantized => Extractor::napprox_quantized(SPIKES, BlockNorm::None),
        ExtractorKind::NApproxHardware => Extractor::napprox_hardware(SPIKES, BlockNorm::None),
        ExtractorKind::Parrot | ExtractorKind::Raw => {
            eprintln!("note: {kind} needs bespoke training; using napprox-hw instead");
            Extractor::napprox_hardware(SPIKES, BlockNorm::None)
        }
    }
}

/// Trains a small crop-level SVM detector for `extractor`.
fn train_detector(extractor: Extractor, ds: &SynthDataset) -> TrainedDetector {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..10 {
        xs.push(extractor.crop_descriptor(&ds.train_positive(i)));
        ys.push(true);
        xs.push(extractor.crop_descriptor(&ds.train_negative(i)));
        ys.push(false);
    }
    let scaler = FeatureScaler::fit(&xs);
    let model = train(&scaler.apply_all(&xs), &ys, TrainConfig::default());
    TrainedDetector { extractor, classifier: WindowClassifier::Svm { model, scaler } }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let kind: ExtractorKind = match args.next().as_deref() {
        None => ExtractorKind::NApproxHardware,
        Some(name) => match name.parse() {
            Ok(kind) => kind,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
    };
    let rate: f32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.3);

    let ds = SynthDataset::new(SynthConfig::default());
    println!("primary paradigm: {kind}   fault rate: {rate}");
    println!("training the fallback chain ({kind} -> NApprox -> Traditional-HoG)…");
    let primary = train_detector(build_extractor(kind), &ds);
    let napprox = train_detector(Extractor::napprox_quantized(SPIKES, BlockNorm::None), &ds);
    let traditional = train_detector(Extractor::traditional(), &ds);

    let chain = FallbackChain::new()
        .push(primary.extractor.kind().label(), &primary)
        .push("NApprox", &napprox)
        .push("Traditional-HoG", &traditional);
    let config = RuntimeConfig::builder().workers(2).build().expect("valid config");
    let server =
        DetectionServer::with_chain(Detector::default(), chain, config).expect("valid chain");

    // Window-sized frames keep the hardware path quick for a demo.
    let frames: Vec<GrayImage> = (0..3).map(|i| ds.train_positive(500 + i)).collect();

    println!("\nserving {} frames on healthy hardware…", frames.len());
    for frame in &frames {
        let dets = server.detect_frame(frame);
        println!("  {} detection(s)", dets.len());
    }

    let plan = plan_for_rate(rate, 0xFA17);
    println!(
        "\ninjecting fault plan: {} dead core(s), {:.0}% spike drop…",
        plan.dead_cores.len(),
        plan.drop_rate * 100.0
    );
    match primary.extractor.set_fault_plan(&plan) {
        Ok(()) => println!("plan attached to the simulated module"),
        Err(e) => println!("primary has no simulated hardware ({e}); chain stays at its level"),
    }

    println!("\nserving {} frames on faulted hardware…", frames.len());
    for frame in &frames {
        let dets = server.detect_frame(frame);
        println!("  {} detection(s)", dets.len());
    }

    println!("\n{}", server.report());
    if let Some(s) = primary.extractor.hardware_stats() {
        println!(
            "truenorth: ticks {}  routed {}  synaptic events {}",
            s.ticks, s.routed_spikes, s.synaptic_events
        );
    }
    if let Some(stats) = primary.extractor.fault_stats() {
        println!(
            "fault activity: {} suppressed deliveries, {} dropped spikes, {} forced firings",
            stats.deliveries_suppressed, stats.spikes_dropped, stats.firings_forced
        );
    }
}
