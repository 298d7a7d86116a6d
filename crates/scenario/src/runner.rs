//! The quick-fidelity plumbing every builtin report runs on: platform scaling, validation
//! workload streams and the IPC error metric.

mod tests {
    use crate::engine::{ipc_error_percent, scaled_platform, ValidationWorkload};
    use crate::Fidelity;
    use mess_platforms::PlatformId;

    #[test]
    fn every_validation_workload_builds_streams_for_every_core() {
        let platform = scaled_platform(&PlatformId::IntelSkylake.spec(), Fidelity::Quick);
        for w in ValidationWorkload::ALL {
            let streams = w.streams(&platform, Fidelity::Quick);
            assert_eq!(streams.len(), platform.cores as usize, "{}", w.label());
        }
    }

    #[test]
    fn ipc_error_is_symmetric_in_sign_and_zero_for_exact_match() {
        assert_eq!(ipc_error_percent(1.0, 1.0), 0.0);
        assert!((ipc_error_percent(0.5, 1.0) - 50.0).abs() < 1e-9);
        assert!((ipc_error_percent(1.5, 1.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_platform_reduces_cores_only_in_quick_mode() {
        let spec = PlatformId::AmdZen2.spec();
        assert_eq!(scaled_platform(&spec, Fidelity::Full).cores, 64);
        let quick = scaled_platform(&spec, Fidelity::Quick);
        assert!(quick.cores <= 8);
        assert_eq!(quick.cpu.cores, quick.cores);
    }

    #[test]
    fn quick_mode_channel_scaling_never_produces_zero_channels() {
        for id in PlatformId::ALL {
            let quick = scaled_platform(&id.spec(), Fidelity::Quick);
            assert!(
                (1..=4).contains(&quick.channels),
                "{id:?}: quick-mode channels must stay in 1..=4, got {}",
                quick.channels
            );
        }
        // Even a degenerate zero-channel spec must scale to at least one channel.
        let mut zero = PlatformId::IntelSkylake.spec();
        zero.channels = 0;
        assert_eq!(scaled_platform(&zero, Fidelity::Quick).channels, 1);
    }
}
