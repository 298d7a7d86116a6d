//! Specifications of the hardware platforms studied in the paper (Table I).
//!
//! Each [`PlatformSpec`] bundles everything needed to rebuild the platform inside the
//! reproduction: the CPU front-end configuration, the DRAM device preset and channel count,
//! and the quantitative reference values the paper reports for the real machine. The
//! reference values are *not* used by the models — they exist so that experiments can print
//! a paper-vs-measured comparison (EXPERIMENTS.md).

use mess_core::synthetic::{SyntheticFamilySpec, WriteImpact};
use mess_core::CurveFamily;
use mess_cpu::{CacheConfig, CpuConfig};
use mess_dram::{DramConfig, DramPreset, DramSystem};
use mess_types::{Bandwidth, Frequency, Latency, MessError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of one of the platforms characterized in the paper (Table I / Fig. 3), plus the
/// OpenPiton Ariane RTL platform of §IV-C.
///
/// Serializes as its [`PlatformId::key`] string (`"skylake"`, `"graviton3"`, ...), which is
/// what scenario JSON files and CSV output use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PlatformId {
    /// 24-core Intel Skylake Xeon Platinum, 6×DDR4-2666 (Fig. 3a).
    IntelSkylake,
    /// 16-core Intel Cascade Lake Xeon Gold, 6×DDR4-2666 (Fig. 3b).
    IntelCascadeLake,
    /// 64-core AMD Zen 2 EPYC 7742, 8×DDR4-3200 (Fig. 3c).
    AmdZen2,
    /// 20-core IBM Power 9, 8×DDR4-2666 (Fig. 3d).
    IbmPower9,
    /// 64-core Amazon Graviton 3, 8×DDR5-4800 (Fig. 3e).
    AmazonGraviton3,
    /// 56-core Intel Sapphire Rapids Xeon Platinum, 8×DDR5-4800 (Fig. 3f).
    IntelSapphireRapids,
    /// 48-core Fujitsu A64FX, 4×HBM2 (Fig. 3g).
    FujitsuA64fx,
    /// 132-SM NVIDIA Hopper H100, 4×HBM2E (Fig. 3h).
    NvidiaH100,
    /// 64-core OpenPiton Ariane RTL platform with in-order cores and 2-entry MSHRs (§IV-C).
    OpenPitonAriane,
}

impl PlatformId {
    /// The eight server/GPU platforms of Table I, in the paper's column order.
    pub const TABLE_ONE: [PlatformId; 8] = [
        PlatformId::IntelSkylake,
        PlatformId::IntelCascadeLake,
        PlatformId::AmdZen2,
        PlatformId::IbmPower9,
        PlatformId::AmazonGraviton3,
        PlatformId::IntelSapphireRapids,
        PlatformId::FujitsuA64fx,
        PlatformId::NvidiaH100,
    ];

    /// Every platform known to the reproduction.
    pub const ALL: [PlatformId; 9] = [
        PlatformId::IntelSkylake,
        PlatformId::IntelCascadeLake,
        PlatformId::AmdZen2,
        PlatformId::IbmPower9,
        PlatformId::AmazonGraviton3,
        PlatformId::IntelSapphireRapids,
        PlatformId::FujitsuA64fx,
        PlatformId::NvidiaH100,
        PlatformId::OpenPitonAriane,
    ];

    /// The full specification of this platform.
    pub fn spec(self) -> PlatformSpec {
        PlatformSpec::of(self)
    }

    /// Short lowercase identifier used in CSV output and CLI arguments.
    pub fn key(self) -> &'static str {
        match self {
            PlatformId::IntelSkylake => "skylake",
            PlatformId::IntelCascadeLake => "cascade-lake",
            PlatformId::AmdZen2 => "zen2",
            PlatformId::IbmPower9 => "power9",
            PlatformId::AmazonGraviton3 => "graviton3",
            PlatformId::IntelSapphireRapids => "sapphire-rapids",
            PlatformId::FujitsuA64fx => "a64fx",
            PlatformId::NvidiaH100 => "h100",
            PlatformId::OpenPitonAriane => "openpiton-ariane",
        }
    }

    /// Parses a [`PlatformId::key`] string.
    pub fn from_key(key: &str) -> Option<PlatformId> {
        PlatformId::ALL.into_iter().find(|p| p.key() == key)
    }
}

impl fmt::Display for PlatformId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

impl Serialize for PlatformId {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Str(self.key().to_string())
    }
}

impl Deserialize for PlatformId {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let key = v.as_str()?;
        PlatformId::from_key(key)
            .ok_or_else(|| serde::Error::new(format!("unknown platform key `{key}`")))
    }
}

/// A serializable *reference* to a platform: the platform's key plus optional overrides.
///
/// This is how scenario files name platforms. A bare reference resolves to the paper's full
/// configuration; the overrides express deliberate deviations — most importantly the
/// quick-fidelity scaling (fewer simulated cores and channels, see [`PlatformRef::quick`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlatformRef {
    /// Which platform to build.
    pub id: PlatformId,
    /// Overrides the simulated core count (the CPU config follows).
    pub cores: Option<u32>,
    /// Overrides the memory channel count.
    pub channels: Option<u32>,
}

impl PlatformRef {
    /// A reference to the platform's full (paper) configuration.
    pub fn full(id: PlatformId) -> Self {
        PlatformRef {
            id,
            cores: None,
            channels: None,
        }
    }

    /// A reference to the platform's quick-fidelity scaling: at most 8 cores and 1–4
    /// channels, so unit tests and smoke runs stay fast while keeping the platform's timing
    /// and cache geometry.
    pub fn quick(id: PlatformId) -> Self {
        let spec = id.spec();
        PlatformRef {
            id,
            cores: Some(spec.cores.min(8)),
            channels: Some(spec.channels.clamp(1, 4)),
        }
    }

    /// Validates the overrides without resolving the platform.
    ///
    /// # Errors
    ///
    /// Returns [`MessError::InvalidConfig`] when the core or channel override is zero: a
    /// platform needs at least one core to run a stream and one channel to map addresses.
    pub fn validate(&self) -> Result<(), MessError> {
        for (what, value) in [("cores", self.cores), ("channels", self.channels)] {
            if value == Some(0) {
                return Err(MessError::InvalidConfig(format!(
                    "platform `{}`: {what} must be nonzero",
                    self.id.key()
                )));
            }
        }
        Ok(())
    }

    /// Resolves the reference into a concrete [`PlatformSpec`], applying the overrides.
    pub fn resolve(&self) -> PlatformSpec {
        let mut platform = self.id.spec();
        if let Some(cores) = self.cores {
            platform.cores = cores;
            platform.cpu = platform.cpu_config_with_cores(cores);
        }
        if let Some(channels) = self.channels {
            platform.channels = channels;
        }
        platform
    }
}

/// Reference values reported by the paper for the real machine (Table I).
///
/// Bandwidth figures are percentages of the platform's maximum theoretical bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableOneReference {
    /// Saturated bandwidth range, low bound (% of theoretical).
    pub saturated_bw_low_pct: f64,
    /// Saturated bandwidth range, high bound (% of theoretical).
    pub saturated_bw_high_pct: f64,
    /// STREAM kernel bandwidth, low bound (% of theoretical).
    pub stream_low_pct: f64,
    /// STREAM kernel bandwidth, high bound (% of theoretical).
    pub stream_high_pct: f64,
    /// Unloaded (load-to-use) memory latency in nanoseconds.
    pub unloaded_latency_ns: f64,
    /// Maximum latency range, low bound in nanoseconds.
    pub max_latency_low_ns: f64,
    /// Maximum latency range, high bound in nanoseconds.
    pub max_latency_high_ns: f64,
}

/// The complete description of a platform under study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Which platform this is.
    pub id: PlatformId,
    /// Human-readable name, matching the paper's Table I column header.
    pub name: &'static str,
    /// Release year reported in Table I (simulation-only platforms use the paper year).
    pub released: u32,
    /// Core (or GPU SM) count.
    pub cores: u32,
    /// Core clock frequency.
    pub frequency: Frequency,
    /// DRAM device preset of one channel.
    pub preset: DramPreset,
    /// Number of memory channels.
    pub channels: u32,
    /// CPU front-end configuration (LLC, MSHRs, on-chip latency).
    pub cpu: CpuConfig,
    /// The paper's measured reference values for the real machine, if it appears in Table I.
    pub reference: Option<TableOneReference>,
    /// How the write share of the traffic shapes the platform's curves (used only by the
    /// synthetic reference family).
    pub write_impact: WriteImpact,
}

impl PlatformSpec {
    /// The specification of `id`.
    pub fn of(id: PlatformId) -> PlatformSpec {
        match id {
            PlatformId::IntelSkylake => server(
                id,
                "Intel Skylake Xeon Platinum",
                2015,
                24,
                2.1,
                DramPreset::Ddr4_2666,
                6,
                33 * 1024 * 1024,
                11,
                12,
                WriteImpact::HalfDuplexDdr,
                Some(TableOneReference {
                    saturated_bw_low_pct: 72.0,
                    saturated_bw_high_pct: 91.0,
                    stream_low_pct: 53.0,
                    stream_high_pct: 61.0,
                    unloaded_latency_ns: 89.0,
                    max_latency_low_ns: 242.0,
                    max_latency_high_ns: 391.0,
                }),
            ),
            PlatformId::IntelCascadeLake => server(
                id,
                "Intel Cascade Lake Xeon Gold",
                2019,
                16,
                2.3,
                DramPreset::Ddr4_2666,
                6,
                22 * 1024 * 1024,
                11,
                12,
                WriteImpact::HalfDuplexDdr,
                Some(TableOneReference {
                    saturated_bw_low_pct: 68.0,
                    saturated_bw_high_pct: 87.0,
                    stream_low_pct: 51.0,
                    stream_high_pct: 57.0,
                    unloaded_latency_ns: 85.0,
                    max_latency_low_ns: 182.0,
                    max_latency_high_ns: 303.0,
                }),
            ),
            PlatformId::AmdZen2 => server(
                id,
                "AMD Zen 2 EPYC 7742",
                2019,
                64,
                2.25,
                DramPreset::Ddr4_3200,
                8,
                256 * 1024 * 1024,
                16,
                12,
                WriteImpact::MixedWorst,
                Some(TableOneReference {
                    saturated_bw_low_pct: 57.0,
                    saturated_bw_high_pct: 71.0,
                    stream_low_pct: 46.0,
                    stream_high_pct: 51.0,
                    unloaded_latency_ns: 113.0,
                    max_latency_low_ns: 257.0,
                    max_latency_high_ns: 657.0,
                }),
            ),
            PlatformId::IbmPower9 => server(
                id,
                "IBM Power 9 02CY415",
                2017,
                20,
                2.4,
                DramPreset::Ddr4_2666,
                8,
                120 * 1024 * 1024,
                20,
                12,
                WriteImpact::HalfDuplexDdr,
                Some(TableOneReference {
                    saturated_bw_low_pct: 67.0,
                    saturated_bw_high_pct: 91.0,
                    stream_low_pct: 32.0,
                    stream_high_pct: 36.0,
                    unloaded_latency_ns: 96.0,
                    max_latency_low_ns: 238.0,
                    max_latency_high_ns: 546.0,
                }),
            ),
            PlatformId::AmazonGraviton3 => server(
                id,
                "Amazon Graviton 3",
                2022,
                64,
                2.6,
                DramPreset::Ddr5_4800,
                16,
                64 * 1024 * 1024,
                16,
                12,
                WriteImpact::HalfDuplexDdr,
                Some(TableOneReference {
                    saturated_bw_low_pct: 63.0,
                    saturated_bw_high_pct: 95.0,
                    stream_low_pct: 78.0,
                    stream_high_pct: 82.0,
                    unloaded_latency_ns: 129.0,
                    max_latency_low_ns: 332.0,
                    max_latency_high_ns: 527.0,
                }),
            ),
            PlatformId::IntelSapphireRapids => server(
                id,
                "Intel Sapphire Rapids Xeon Platinum",
                2023,
                56,
                2.0,
                DramPreset::Ddr5_4800,
                16,
                105 * 1024 * 1024,
                15,
                12,
                WriteImpact::HalfDuplexDdr,
                Some(TableOneReference {
                    saturated_bw_low_pct: 60.0,
                    saturated_bw_high_pct: 86.0,
                    stream_low_pct: 63.0,
                    stream_high_pct: 66.0,
                    unloaded_latency_ns: 109.0,
                    max_latency_low_ns: 238.0,
                    max_latency_high_ns: 406.0,
                }),
            ),
            PlatformId::FujitsuA64fx => server(
                id,
                "Fujitsu A64FX",
                2019,
                48,
                2.2,
                DramPreset::Hbm2,
                32,
                32 * 1024 * 1024,
                16,
                16,
                WriteImpact::HalfDuplexDdr,
                Some(TableOneReference {
                    saturated_bw_low_pct: 72.0,
                    saturated_bw_high_pct: 92.0,
                    stream_low_pct: 49.0,
                    stream_high_pct: 55.0,
                    unloaded_latency_ns: 122.0,
                    max_latency_low_ns: 338.0,
                    max_latency_high_ns: 428.0,
                }),
            ),
            PlatformId::NvidiaH100 => {
                let frequency = Frequency::from_ghz(1.1);
                let mut cpu = CpuConfig::gpu_sm_class(132, frequency);
                cpu.on_chip_latency = Latency::from_ns(300.0);
                PlatformSpec {
                    id,
                    name: "NVIDIA Hopper H100",
                    released: 2023,
                    cores: 132,
                    frequency,
                    preset: DramPreset::Hbm2e,
                    channels: 32,
                    cpu,
                    reference: Some(TableOneReference {
                        saturated_bw_low_pct: 51.0,
                        saturated_bw_high_pct: 95.0,
                        stream_low_pct: 64.0,
                        stream_high_pct: 69.0,
                        unloaded_latency_ns: 363.0,
                        max_latency_low_ns: 699.0,
                        max_latency_high_ns: 1433.0,
                    }),
                    write_impact: WriteImpact::HalfDuplexDdr,
                }
            }
            PlatformId::OpenPitonAriane => {
                let frequency = Frequency::from_ghz(1.0);
                let cpu = CpuConfig::in_order_ariane(64, frequency);
                PlatformSpec {
                    id,
                    name: "OpenPiton Ariane 64-core",
                    released: 2023,
                    cores: 64,
                    frequency,
                    preset: DramPreset::Ddr4_2666,
                    channels: 2,
                    cpu,
                    reference: None,
                    write_impact: WriteImpact::HalfDuplexDdr,
                }
            }
        }
    }

    /// Maximum theoretical bandwidth of the platform's memory system.
    pub fn theoretical_bandwidth(&self) -> Bandwidth {
        self.dram_config().theoretical_bandwidth()
    }

    /// The CPU front-end configuration.
    pub fn cpu_config(&self) -> CpuConfig {
        self.cpu
    }

    /// The configuration of the detailed DRAM model for this platform.
    pub fn dram_config(&self) -> DramConfig {
        DramConfig::new(self.preset, self.channels, self.frequency)
    }

    /// Builds the detailed multi-channel DRAM system used as the platform's "actual hardware"
    /// reference memory.
    pub fn build_dram(&self) -> DramSystem {
        DramSystem::new(self.dram_config())
    }

    /// A CPU configuration with a different number of cores, keeping every other parameter.
    ///
    /// Used when the paper scales the simulated core count to saturate a memory system
    /// (e.g. 58 and 192 ZSim cores for DDR5 and HBM2 in §V-B1).
    pub fn cpu_config_with_cores(&self, cores: u32) -> CpuConfig {
        CpuConfig { cores, ..self.cpu }
    }

    /// The paper's reference unloaded load-to-use latency, when the platform is in Table I;
    /// otherwise a latency derived from the device timing plus the on-chip path.
    pub fn reference_unloaded_latency(&self) -> Latency {
        match &self.reference {
            Some(r) => Latency::from_ns(r.unloaded_latency_ns),
            None => Latency::from_ns(
                self.preset.timing().unloaded_read_ns() + self.cpu.on_chip_latency.as_ns(),
            ),
        }
    }

    /// The synthetic-curve specification calibrated to this platform's Table I reference
    /// values.
    ///
    /// The detailed DRAM model is the preferred "actual hardware" stand-in, but a few
    /// experiments (the Mess-simulator validation and the CXL/remote-socket studies) need a
    /// curve family directly; this generator provides one with the platform's headline
    /// numbers.
    pub fn synthetic_spec(&self) -> SyntheticFamilySpec {
        let theoretical = self.theoretical_bandwidth();
        let (unloaded, read_eff, write_eff, read_sat, write_sat) = match &self.reference {
            Some(r) => (
                r.unloaded_latency_ns,
                r.saturated_bw_high_pct / 100.0,
                r.saturated_bw_low_pct / 100.0,
                r.max_latency_low_ns / r.unloaded_latency_ns,
                r.max_latency_high_ns / r.unloaded_latency_ns,
            ),
            None => (
                self.reference_unloaded_latency().as_ns(),
                0.85,
                0.65,
                2.5,
                4.0,
            ),
        };
        let mut spec = SyntheticFamilySpec::ddr_like(theoretical, unloaded);
        spec.name = format!("{} (reference curves)", self.name);
        spec.read_efficiency = read_eff;
        spec.write_efficiency = write_eff;
        spec.read_saturated_latency_factor = read_sat;
        spec.write_saturated_latency_factor = write_sat;
        spec.write_impact = self.write_impact;
        if matches!(
            self.id,
            PlatformId::IntelSkylake | PlatformId::IntelCascadeLake | PlatformId::AmdZen2
        ) {
            // Platforms where the paper observes the row-buffer-miss-induced "wave".
            spec.wave_magnitude = 0.06;
        }
        spec
    }

    /// The calibrated reference curve family for this platform (see
    /// [`PlatformSpec::synthetic_spec`]).
    pub fn reference_family(&self) -> CurveFamily {
        mess_core::synthetic::generate_family(&self.synthetic_spec())
    }
}

/// Helper building a server-class [`PlatformSpec`].
#[allow(clippy::too_many_arguments)]
fn server(
    id: PlatformId,
    name: &'static str,
    released: u32,
    cores: u32,
    ghz: f64,
    preset: DramPreset,
    channels: u32,
    llc_bytes: u64,
    llc_ways: u32,
    mshrs: u32,
    write_impact: WriteImpact,
    reference: Option<TableOneReference>,
) -> PlatformSpec {
    let frequency = Frequency::from_ghz(ghz);
    let mut cpu = CpuConfig::server_class(cores, frequency);
    cpu.llc = CacheConfig::new(llc_bytes, llc_ways);
    cpu.mshrs_per_core = mshrs;
    // On-chip latency is chosen so that the simulated unloaded load-to-use latency lands near
    // the Table I reference: the device contributes its unloaded read time, the chip the rest.
    if let Some(r) = &reference {
        let device_ns = preset.timing().unloaded_read_ns();
        cpu.on_chip_latency = Latency::from_ns((r.unloaded_latency_ns - device_ns).max(20.0));
    }
    PlatformSpec {
        id,
        name,
        released,
        cores,
        frequency,
        preset,
        channels,
        cpu,
        reference,
        write_impact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_platforms_have_reference_data() {
        for id in PlatformId::TABLE_ONE {
            let spec = id.spec();
            assert!(
                spec.reference.is_some(),
                "{id} must carry Table I reference values"
            );
        }
    }

    #[test]
    fn theoretical_bandwidth_matches_table_one() {
        // Table I: Skylake 128 GB/s, Zen2 204 GB/s, Graviton3 307 GB/s, A64FX 1024 GB/s.
        let within = |id: PlatformId, expect: f64| {
            let got = id.spec().theoretical_bandwidth().as_gbs();
            assert!(
                (got - expect).abs() / expect < 0.10,
                "{id}: theoretical {got:.0} GB/s vs paper {expect:.0} GB/s"
            );
        };
        within(PlatformId::IntelSkylake, 128.0);
        within(PlatformId::AmdZen2, 204.0);
        within(PlatformId::AmazonGraviton3, 307.0);
        within(PlatformId::IntelSapphireRapids, 307.0);
    }

    #[test]
    fn keys_round_trip() {
        for id in PlatformId::ALL {
            assert_eq!(PlatformId::from_key(id.key()), Some(id));
        }
        assert_eq!(PlatformId::from_key("not-a-platform"), None);
    }

    #[test]
    fn reference_family_matches_headline_metrics() {
        for id in PlatformId::TABLE_ONE {
            let spec = id.spec();
            let fam = spec.reference_family();
            let r = spec.reference.expect("table one platform");
            let unloaded = fam.unloaded_latency().as_ns();
            assert!(
                (unloaded - r.unloaded_latency_ns).abs() / r.unloaded_latency_ns < 0.15,
                "{id}: family unloaded {unloaded:.0} ns vs reference {}",
                r.unloaded_latency_ns
            );
            let max_bw = fam.max_bandwidth().as_gbs();
            let theo = spec.theoretical_bandwidth().as_gbs();
            assert!(
                max_bw <= theo * 1.01,
                "{id}: family max bandwidth exceeds theoretical"
            );
        }
    }

    #[test]
    fn openpiton_uses_in_order_cores_with_two_mshrs() {
        let spec = PlatformId::OpenPitonAriane.spec();
        assert_eq!(spec.cpu.mshrs_per_core, 2);
        assert!(spec.reference.is_none());
    }

    #[test]
    fn cores_match_table_one() {
        assert_eq!(PlatformId::IntelSkylake.spec().cores, 24);
        assert_eq!(PlatformId::IntelCascadeLake.spec().cores, 16);
        assert_eq!(PlatformId::AmdZen2.spec().cores, 64);
        assert_eq!(PlatformId::IbmPower9.spec().cores, 20);
        assert_eq!(PlatformId::AmazonGraviton3.spec().cores, 64);
        assert_eq!(PlatformId::IntelSapphireRapids.spec().cores, 56);
        assert_eq!(PlatformId::FujitsuA64fx.spec().cores, 48);
        assert_eq!(PlatformId::NvidiaH100.spec().cores, 132);
    }

    #[test]
    fn platform_ids_serialize_as_their_keys() {
        for id in PlatformId::ALL {
            let json = serde_json::to_string(&id).unwrap();
            assert_eq!(json, format!("\"{}\"", id.key()));
            let back: PlatformId = serde_json::from_str(&json).unwrap();
            assert_eq!(back, id);
        }
        assert!(serde_json::from_str::<PlatformId>("\"not-a-platform\"").is_err());
    }

    #[test]
    fn platform_ref_full_resolves_to_the_paper_configuration() {
        let spec = PlatformRef::full(PlatformId::AmdZen2).resolve();
        assert_eq!(spec.cores, 64);
        assert_eq!(spec.channels, 8);
        assert_eq!(spec.cpu.cores, 64);
    }

    #[test]
    fn platform_ref_quick_scales_cores_and_channels() {
        for id in PlatformId::ALL {
            let quick = PlatformRef::quick(id).resolve();
            assert!(quick.cores <= 8, "{id}");
            assert_eq!(quick.cpu.cores, quick.cores, "{id}");
            assert!((1..=4).contains(&quick.channels), "{id}");
            // Overrides never touch timing or cache geometry.
            assert_eq!(
                quick.cpu.llc.capacity_bytes,
                id.spec().cpu.llc.capacity_bytes
            );
        }
    }

    #[test]
    fn platform_ref_round_trips_through_json() {
        let reference = PlatformRef::quick(PlatformId::FujitsuA64fx);
        let json = serde_json::to_string(&reference).unwrap();
        let back: PlatformRef = serde_json::from_str(&json).unwrap();
        assert_eq!(back, reference);
    }

    #[test]
    fn platform_ref_validate_rejects_zero_overrides() {
        for id in PlatformId::ALL {
            assert!(PlatformRef::full(id).validate().is_ok(), "{id}");
            assert!(PlatformRef::quick(id).validate().is_ok(), "{id}");
        }
        let zero_cores = PlatformRef {
            cores: Some(0),
            ..PlatformRef::quick(PlatformId::IntelSkylake)
        };
        let zero_channels = PlatformRef {
            channels: Some(0),
            ..PlatformRef::quick(PlatformId::IntelSkylake)
        };
        for bad in [zero_cores, zero_channels] {
            assert!(matches!(bad.validate(), Err(MessError::InvalidConfig(_))));
        }
    }

    #[test]
    fn cpu_config_with_cores_overrides_only_the_core_count() {
        let spec = PlatformId::IntelSkylake.spec();
        let scaled = spec.cpu_config_with_cores(58);
        assert_eq!(scaled.cores, 58);
        assert_eq!(scaled.mshrs_per_core, spec.cpu.mshrs_per_core);
    }
}
