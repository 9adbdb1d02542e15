//! The feature-extraction paradigms behind one type.

use crate::error::Error;
use pcnn_corelets::NApproxHogCorelet;
use pcnn_hog::cell::CellExtractor;
use pcnn_hog::{BlockNorm, FpgaHog, HogDescriptor, NApproxHog, RawCells, TraditionalHog};
use pcnn_parrot::{ParrotExtractor, ParrotNet};
use pcnn_truenorth::{FaultPlan, FaultStats, SystemStats};
use pcnn_vision::GrayImage;
use serde::{Deserialize, Serialize};
use std::str::FromStr;
use std::sync::{Mutex, MutexGuard};

/// Which extraction paradigm an [`Extractor`] embodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtractorKind {
    /// The FPGA baseline: 9-bin fixed-point HoG.
    Fpga,
    /// The Dalal–Triggs float reference.
    Traditional,
    /// NApprox in full precision (`NApprox(fp)`).
    NApproxFp,
    /// NApprox quantized to the TrueNorth spike width.
    NApproxQuantized,
    /// NApprox running on simulated TrueNorth cores (fault-injectable).
    NApproxHardware,
    /// The trained Parrot network.
    Parrot,
    /// Raw window pixels — the identity features of the Absorbed
    /// monolithic paradigm.
    Raw,
}

impl ExtractorKind {
    /// Every paradigm, in report order — for CLI help and sweeps.
    pub const ALL: [ExtractorKind; 7] = [
        ExtractorKind::Fpga,
        ExtractorKind::Traditional,
        ExtractorKind::NApproxFp,
        ExtractorKind::NApproxQuantized,
        ExtractorKind::NApproxHardware,
        ExtractorKind::Parrot,
        ExtractorKind::Raw,
    ];

    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ExtractorKind::Fpga => "FPGA-HoG",
            ExtractorKind::Traditional => "Traditional-HoG",
            ExtractorKind::NApproxFp => "NApprox(fp)",
            ExtractorKind::NApproxQuantized => "NApprox",
            ExtractorKind::NApproxHardware => "NApprox-HW",
            ExtractorKind::Parrot => "Parrot",
            ExtractorKind::Raw => "Raw-pixels",
        }
    }
}

impl std::fmt::Display for ExtractorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ExtractorKind {
    type Err = Error;

    /// Parses a paradigm name, case-insensitively. Accepts every
    /// [`label`](ExtractorKind::label) (so `Display` round-trips) plus
    /// the short CLI aliases `fpga`, `traditional`, `napprox-fp`,
    /// `napprox`, `napprox-hw`, `parrot` and `raw`.
    fn from_str(s: &str) -> Result<Self, Error> {
        match s.to_ascii_lowercase().as_str() {
            "fpga" | "fpga-hog" => Ok(ExtractorKind::Fpga),
            "traditional" | "trad" | "traditional-hog" => Ok(ExtractorKind::Traditional),
            "napprox-fp" | "napprox_fp" | "napprox(fp)" => Ok(ExtractorKind::NApproxFp),
            "napprox" | "napprox-quantized" => Ok(ExtractorKind::NApproxQuantized),
            "napprox-hw" | "napprox_hw" | "hw" | "hardware" => Ok(ExtractorKind::NApproxHardware),
            "parrot" => Ok(ExtractorKind::Parrot),
            "raw" | "raw-pixels" => Ok(ExtractorKind::Raw),
            _ => Err(Error::UnknownExtractor { name: s.to_owned() }),
        }
    }
}

/// A serializable description of an [`Extractor`] configuration: the
/// constructor arguments, not the runtime object. [`Extractor::spec`]
/// captures one; [`Extractor::from_spec`] rebuilds an equivalent
/// extractor, so trained detectors can persist across processes.
// Variant sizes differ (the parrot spec carries a trained network);
// specs exist transiently during save/load, so boxing would only add
// indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ExtractorSpec {
    /// The FPGA baseline ([`Extractor::fpga`]).
    Fpga,
    /// The Dalal–Triggs reference ([`Extractor::traditional`] /
    /// [`Extractor::traditional_signed_18`]).
    Traditional {
        /// Whether the 18-bin signed magnitude-voted variant was used.
        signed_18: bool,
    },
    /// NApprox computed in software ([`Extractor::napprox_custom`]);
    /// covers both the full-precision and quantized paradigms.
    NApprox {
        /// The complete model configuration, including quantization.
        model: NApproxHog,
        /// Block-normalization policy.
        norm: BlockNorm,
    },
    /// NApprox on simulated TrueNorth cores
    /// ([`Extractor::napprox_hardware`]). Only the configuration is
    /// persisted — the module is rebuilt deterministically, without any
    /// attached fault plan.
    NApproxHardware {
        /// Input coding window in spikes.
        spikes: u32,
        /// Block-normalization policy.
        norm: BlockNorm,
    },
    /// A trained Parrot network ([`Extractor::parrot`]).
    Parrot {
        /// The trained network weights.
        net: ParrotNet,
        /// Block-normalization policy.
        norm: BlockNorm,
        /// Stochastic input coding: `(window, rng_state)` captured at
        /// snapshot time, if enabled.
        stochastic: Option<(u32, [u64; 4])>,
    },
    /// Raw window pixels ([`Extractor::raw`]).
    Raw,
}

/// The NApprox cell module running on actual simulated TrueNorth cores,
/// behind the [`CellExtractor`] interface — the extractor to use when
/// hardware effects (activity-based power, injected faults) must show up
/// in detection results. A `Mutex` keeps it `Sync` for the parallel
/// serving runtime; extractions serialize on the one simulated module,
/// exactly like a single physical chip would.
struct HardwareNApprox {
    module: Mutex<NApproxHogCorelet>,
}

impl HardwareNApprox {
    fn lock(&self) -> MutexGuard<'_, NApproxHogCorelet> {
        self.module.lock().expect("hardware module lock poisoned")
    }
}

impl CellExtractor for HardwareNApprox {
    fn bins(&self) -> usize {
        18
    }

    fn cell_histogram(&self, patch: &GrayImage) -> Vec<f32> {
        self.lock().extract(patch)
    }

    fn name(&self) -> &str {
        "napprox-hw"
    }
}

// Variants differ in size (the parrot carries a trained network); the
// enum is created a handful of times per experiment, so boxing would
// only add indirection.
#[allow(clippy::large_enum_variant)]
enum Cells {
    Fpga(FpgaHog),
    Traditional(TraditionalHog),
    NApprox(NApproxHog),
    Hardware(HardwareNApprox),
    Parrot(ParrotExtractor),
    Raw(RawCells),
}

/// A window-level feature extractor of any paradigm.
pub struct Extractor {
    kind: ExtractorKind,
    cells: Cells,
    norm: BlockNorm,
}

impl std::fmt::Debug for Extractor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Extractor").field("kind", &self.kind).field("len", &self.len()).finish()
    }
}

impl Extractor {
    /// The FPGA baseline with the paper's Figure 4 configuration (L2
    /// block normalization).
    pub fn fpga() -> Self {
        Extractor {
            kind: ExtractorKind::Fpga,
            cells: Cells::Fpga(FpgaHog::new()),
            norm: BlockNorm::L2,
        }
    }

    /// The Dalal–Triggs reference with L2 block normalization.
    pub fn traditional() -> Self {
        Extractor {
            kind: ExtractorKind::Traditional,
            cells: Cells::Traditional(TraditionalHog::new()),
            norm: BlockNorm::L2,
        }
    }

    /// An 18-bin signed magnitude-voted variant of the reference —
    /// isolates the count-vs-magnitude voting choice from the bin count
    /// in ablations.
    pub fn traditional_signed_18() -> Self {
        Extractor {
            kind: ExtractorKind::Traditional,
            cells: Cells::Traditional(TraditionalHog::signed_18()),
            norm: BlockNorm::L2,
        }
    }

    /// NApprox in full precision. `norm` selects block normalization:
    /// the SVM experiments (Fig. 4) use [`BlockNorm::L2`], the
    /// neuromorphic-classifier experiments (Fig. 5) elide it.
    pub fn napprox_fp(norm: BlockNorm) -> Self {
        Extractor {
            kind: ExtractorKind::NApproxFp,
            cells: Cells::NApprox(NApproxHog::full_precision()),
            norm,
        }
    }

    /// A custom-configured NApprox extractor (ablation studies: vote
    /// threshold, bin count, quantization).
    pub fn napprox_custom(model: NApproxHog, norm: BlockNorm) -> Self {
        Extractor {
            kind: if model.quant.is_some() {
                ExtractorKind::NApproxQuantized
            } else {
                ExtractorKind::NApproxFp
            },
            cells: Cells::NApprox(model),
            norm,
        }
    }

    /// NApprox quantized to `spikes`-spike input coding.
    pub fn napprox_quantized(spikes: u32, norm: BlockNorm) -> Self {
        Extractor {
            kind: ExtractorKind::NApproxQuantized,
            cells: Cells::NApprox(NApproxHog::quantized(spikes)),
            norm,
        }
    }

    /// NApprox running on the simulated TrueNorth substrate: every cell
    /// histogram is rate-coded, spiked through the 30-core module, and
    /// counted back out. Far slower than [`napprox_quantized`]
    /// (which computes the same arithmetic directly) but the only
    /// paradigm whose results respond to an attached
    /// [`FaultPlan`] — use it for yield-loss and degradation studies.
    ///
    /// [`napprox_quantized`]: Extractor::napprox_quantized
    pub fn napprox_hardware(spikes: u32, norm: BlockNorm) -> Self {
        let hw = HardwareNApprox { module: Mutex::new(NApproxHogCorelet::new(spikes)) };
        Extractor { kind: ExtractorKind::NApproxHardware, cells: Cells::Hardware(hw), norm }
    }

    /// A trained Parrot extractor (Fig. 5 configuration: no block
    /// normalization, matching the TrueNorth classifier path).
    pub fn parrot(parrot: ParrotExtractor, norm: BlockNorm) -> Self {
        Extractor { kind: ExtractorKind::Parrot, cells: Cells::Parrot(parrot), norm }
    }

    /// Raw window pixels for the Absorbed paradigm (8192 values per
    /// window, cell-block-major).
    pub fn raw() -> Self {
        Extractor {
            kind: ExtractorKind::Raw,
            cells: Cells::Raw(RawCells::new()),
            norm: BlockNorm::None,
        }
    }

    /// The paradigm.
    pub fn kind(&self) -> ExtractorKind {
        self.kind
    }

    /// The cell extractor behind every paradigm.
    fn cells(&self) -> &dyn CellExtractor {
        match &self.cells {
            Cells::Fpga(e) => e,
            Cells::Traditional(e) => e,
            Cells::NApprox(e) => e,
            Cells::Hardware(e) => e,
            Cells::Parrot(e) => e,
            Cells::Raw(e) => e,
        }
    }

    /// The simulated module, locked — `None` for paradigms without
    /// simulated cores.
    fn hardware(&self) -> Option<MutexGuard<'_, NApproxHogCorelet>> {
        match &self.cells {
            Cells::Hardware(hw) => Some(hw.lock()),
            _ => None,
        }
    }

    /// Captures the constructor arguments of this extractor as a
    /// serializable [`ExtractorSpec`]. Transient runtime state (an
    /// attached fault plan, accumulated hardware activity counters) is
    /// deliberately excluded; the Parrot stochastic RNG position *is*
    /// captured so a restored extractor resumes the noise stream.
    pub fn spec(&self) -> ExtractorSpec {
        let norm = self.norm;
        match &self.cells {
            Cells::Fpga(_) => ExtractorSpec::Fpga,
            Cells::Traditional(e) => ExtractorSpec::Traditional { signed_18: e.bins() == 18 },
            Cells::NApprox(model) => ExtractorSpec::NApprox { model: *model, norm },
            Cells::Hardware(hw) => {
                ExtractorSpec::NApproxHardware { spikes: hw.lock().window(), norm }
            }
            Cells::Parrot(p) => ExtractorSpec::Parrot {
                net: p.net().clone(),
                norm,
                stochastic: p.stochastic_state(),
            },
            Cells::Raw(_) => ExtractorSpec::Raw,
        }
    }

    /// Rebuilds an extractor from a persisted [`ExtractorSpec`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the spec carries values no
    /// constructor would accept (a zero spike window, a Parrot network
    /// with no outputs) — the decode-but-invalid shapes a corrupted or
    /// hand-edited snapshot can produce.
    pub fn from_spec(spec: ExtractorSpec) -> crate::error::Result<Self> {
        let invalid =
            |reason: String| Error::InvalidConfig { what: "extractor spec".to_owned(), reason };
        match spec {
            ExtractorSpec::Fpga => Ok(Extractor::fpga()),
            ExtractorSpec::Traditional { signed_18: false } => Ok(Extractor::traditional()),
            ExtractorSpec::Traditional { signed_18: true } => {
                Ok(Extractor::traditional_signed_18())
            }
            ExtractorSpec::NApprox { model, norm } => {
                if let Some(q) = model.quant {
                    if q.input.levels() == 0 {
                        return Err(invalid("quantized model has zero input levels".to_owned()));
                    }
                }
                Ok(Extractor::napprox_custom(model, norm))
            }
            ExtractorSpec::NApproxHardware { spikes, norm } => {
                if spikes == 0 {
                    return Err(invalid("hardware spike window must be positive".to_owned()));
                }
                Ok(Extractor::napprox_hardware(spikes, norm))
            }
            ExtractorSpec::Parrot { net, norm, stochastic } => {
                if net.out_dim() == 0 || net.in_dim() == 0 {
                    return Err(invalid("parrot network has empty dimensions".to_owned()));
                }
                let parrot = match stochastic {
                    None => ParrotExtractor::new(net),
                    Some((0, _)) => {
                        return Err(invalid(
                            "parrot stochastic window must be positive".to_owned(),
                        ));
                    }
                    Some((spikes, state)) => {
                        ParrotExtractor::new(net).with_stochastic_rng_state(spikes, state)
                    }
                };
                Ok(Extractor::parrot(parrot, norm))
            }
            ExtractorSpec::Raw => Ok(Extractor::raw()),
        }
    }

    /// Descriptor dimensionality.
    pub fn len(&self) -> usize {
        HogDescriptor::new(self.cells(), self.norm).len()
    }

    /// Whether descriptors are empty (never, for valid configurations).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of orientation bins per cell.
    pub fn bins(&self) -> usize {
        self.cells().bins()
    }

    /// Block-normalization policy.
    pub fn norm(&self) -> BlockNorm {
        self.norm
    }

    /// The descriptor of a window at `(x0, y0)` in `img`.
    pub fn window_descriptor(&self, img: &GrayImage, x0: usize, y0: usize) -> Vec<f32> {
        HogDescriptor::new(self.cells(), self.norm).window_descriptor(img, x0, y0)
    }

    /// The descriptor of an exactly window-sized crop.
    ///
    /// # Panics
    ///
    /// Panics if `crop` is not 64×128.
    pub fn crop_descriptor(&self, crop: &GrayImage) -> Vec<f32> {
        HogDescriptor::new(self.cells(), self.norm).crop_descriptor(crop)
    }

    /// The histogram of one padded 10×10 cell patch — the unit the
    /// per-level cell grid caches.
    pub fn cell_histogram(&self, patch: &GrayImage) -> Vec<f32> {
        self.cells().cell_histogram(patch)
    }

    /// The histograms of the cells of `img` whose top-left pixels are
    /// `origins`, into `out` ([`bins`](Self::bins) values per cell) —
    /// see [`CellExtractor::cell_histograms`]. Equal to
    /// [`cell_histogram`](Self::cell_histogram) on each cell's padded
    /// patch.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != origins.len() * self.bins()`.
    pub fn cell_histograms(&self, img: &GrayImage, origins: &[(usize, usize)], out: &mut [f32]) {
        self.cells().cell_histograms(img, origins, out)
    }

    /// Attaches a fault-injection plan to the simulated hardware behind
    /// this extractor. Only the [`NApproxHardware`] paradigm carries
    /// simulated cores; every other kind rejects the plan.
    ///
    /// [`NApproxHardware`]: ExtractorKind::NApproxHardware
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if this extractor has no simulated
    /// hardware; [`Error::TrueNorth`] if the plan does not fit the
    /// module's fabric.
    pub fn set_fault_plan(&self, plan: &FaultPlan) -> crate::error::Result<()> {
        match self.hardware() {
            Some(mut module) => module.set_fault_plan(plan).map_err(Error::from),
            None => Err(Error::InvalidConfig {
                what: "fault plan".to_owned(),
                reason: format!(
                    "the {} paradigm has no simulated hardware to inject into \
                     (use Extractor::napprox_hardware)",
                    self.kind.label()
                ),
            }),
        }
    }

    /// Detaches any fault plan from the simulated hardware. A no-op for
    /// paradigms without simulated cores.
    pub fn clear_fault_plan(&self) {
        if let Some(mut module) = self.hardware() {
            module.clear_fault_plan();
        }
    }

    /// Fault-activity counters from the simulated hardware — `None`
    /// unless this is the hardware paradigm with a plan attached.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.hardware()?.fault_stats()
    }

    /// Activity counters from the simulated hardware — `None` for
    /// paradigms without simulated cores.
    pub fn hardware_stats(&self) -> Option<SystemStats> {
        self.hardware().map(|module| module.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_lengths_match_paper() {
        assert_eq!(Extractor::fpga().len(), 3780);
        assert_eq!(Extractor::traditional().len(), 3780);
        assert_eq!(Extractor::napprox_fp(BlockNorm::L2).len(), 7560);
        assert_eq!(Extractor::napprox_fp(BlockNorm::None).len(), 2304);
        assert_eq!(Extractor::napprox_quantized(64, BlockNorm::None).len(), 2304);
    }

    #[test]
    fn raw_extractor_is_identity() {
        let img = GrayImage::from_fn(64, 128, |x, y| ((x + y) % 7) as f32 / 7.0);
        let e = Extractor::raw();
        assert_eq!(e.len(), 8192);
        let d = e.crop_descriptor(&img);
        // First cell block starts with pixel (0,0).
        assert_eq!(d[0], img.get(0, 0));
        assert_eq!(d.len(), 8192);
    }

    #[test]
    #[should_panic(expected = "crop must be exactly one detection window")]
    fn crop_descriptor_rejects_other_sizes() {
        let crop = GrayImage::from_fn(32, 32, |x, y| ((x * y) % 5) as f32 / 5.0);
        Extractor::napprox_fp(BlockNorm::L2).crop_descriptor(&crop);
    }

    #[test]
    fn kinds_and_labels() {
        assert_eq!(Extractor::fpga().kind().label(), "FPGA-HoG");
        assert_eq!(Extractor::napprox_fp(BlockNorm::L2).kind(), ExtractorKind::NApproxFp);
    }

    #[test]
    fn kind_display_round_trips_through_from_str() {
        for kind in ExtractorKind::ALL {
            let parsed: ExtractorKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind, "label {:?}", kind.label());
        }
    }

    #[test]
    fn kind_parses_cli_aliases() {
        assert_eq!("fpga".parse::<ExtractorKind>().unwrap(), ExtractorKind::Fpga);
        assert_eq!("TRAD".parse::<ExtractorKind>().unwrap(), ExtractorKind::Traditional);
        assert_eq!("napprox-fp".parse::<ExtractorKind>().unwrap(), ExtractorKind::NApproxFp);
        assert_eq!("napprox".parse::<ExtractorKind>().unwrap(), ExtractorKind::NApproxQuantized);
        assert_eq!("napprox-hw".parse::<ExtractorKind>().unwrap(), ExtractorKind::NApproxHardware);
        assert_eq!("Parrot".parse::<ExtractorKind>().unwrap(), ExtractorKind::Parrot);
        assert_eq!("raw".parse::<ExtractorKind>().unwrap(), ExtractorKind::Raw);
        let err = "hogg".parse::<ExtractorKind>().unwrap_err();
        assert!(matches!(err, Error::UnknownExtractor { .. }), "{err}");
    }

    #[test]
    fn hardware_extractor_matches_quantized_arithmetic() {
        let patch = GrayImage::from_fn(10, 10, |x, y| ((x * 13 + y * 7) % 11) as f32 / 11.0);
        let hw = Extractor::napprox_hardware(64, BlockNorm::None);
        assert_eq!(hw.kind(), ExtractorKind::NApproxHardware);
        assert_eq!(hw.bins(), 18);
        let sw = Extractor::napprox_quantized(64, BlockNorm::None);
        // The simulated cores compute the same quantized histogram shape;
        // both vote the same dominant bins.
        let h = hw.cell_histogram(&patch);
        let s = sw.cell_histogram(&patch);
        assert_eq!(h.len(), s.len());
        let corr = pcnn_hog::quantize::pearson_correlation(&h, &s).unwrap();
        assert!(corr > 0.8, "corr {corr}");
    }

    #[test]
    fn hardware_window_matches_software_model() {
        let hw = Extractor::napprox_hardware(64, BlockNorm::None);
        let img = GrayImage::from_fn(64, 128, |x, y| {
            0.5 + 0.35 * ((x as f32 * 0.31).sin() * (y as f32 * 0.17).cos())
        });
        let hw_desc = hw.crop_descriptor(&img);
        // Software model, cell by cell, same decision circuit.
        let sw = NApproxHog::quantized(64);
        let mut sw_desc = Vec::new();
        for cy in 0..16 {
            for cx in 0..8 {
                sw_desc.extend(sw.cell_histogram(&pcnn_hog::cell::cell_patch(&img, 0, 0, cx, cy)));
            }
        }
        assert_eq!(hw_desc.len(), sw_desc.len());
        let corr = pcnn_hog::quantize::pearson_correlation(&hw_desc, &sw_desc).unwrap();
        assert!(corr > 0.995, "window-level hw/sw correlation {corr}");
        // 128 cells through the one module, 68 ticks each: the simulator
        // work behind one served crop.
        assert_eq!(
            hw.hardware_stats(),
            Some(SystemStats {
                ticks: 128 * 68,
                routed_spikes: 189_155,
                output_spikes: 7_368,
                injected_spikes: 1_050_760,
                synaptic_events: 57_261_971,
            })
        );
    }

    #[test]
    fn fault_plan_only_attaches_to_hardware() {
        let plan = pcnn_truenorth::FaultPlan::seeded(3).with_dead_core(0);
        let sw = Extractor::napprox_quantized(64, BlockNorm::None);
        let err = sw.set_fault_plan(&plan).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }), "{err}");
        assert!(sw.fault_stats().is_none());
        assert!(sw.hardware_stats().is_none());

        let hw = Extractor::napprox_hardware(64, BlockNorm::None);
        hw.set_fault_plan(&plan).unwrap();
        let patch = GrayImage::from_fn(10, 10, |x, y| ((x + y) % 5) as f32 / 5.0);
        let _ = hw.cell_histogram(&patch);
        assert!(hw.fault_stats().is_some());
        assert!(hw.hardware_stats().is_some());
        hw.clear_fault_plan();
        assert!(hw.fault_stats().is_none());
    }

    #[test]
    fn extractors_produce_different_descriptors_same_signal() {
        let img = GrayImage::from_fn(64, 128, |x, y| {
            0.5 + 0.3 * ((x as f32 * 0.3).sin() * (y as f32 * 0.2).cos())
        });
        let a = Extractor::napprox_fp(BlockNorm::None).crop_descriptor(&img);
        let b = Extractor::napprox_quantized(64, BlockNorm::None).crop_descriptor(&img);
        assert_eq!(a.len(), b.len());
        // Same algorithm, different precision: close but not identical.
        assert_ne!(a, b);
        let corr = pcnn_hog::quantize::pearson_correlation(&a, &b).unwrap();
        assert!(corr > 0.85, "corr {corr}");
    }
}
