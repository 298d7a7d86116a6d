//! v2 protocol conformance for the trace-capturing wrapper: recording must be transparent.

use mess_bench::RecordingBackend;
use mess_memmodels::{FixedLatencyModel, SimpleDdrConfig, SimpleDdrModel};
use mess_types::{conformance, Frequency, Latency};

#[test]
fn recording_backend_is_protocol_transparent() {
    conformance::check(|| {
        RecordingBackend::new(FixedLatencyModel::new(
            Latency::from_ns(80.0),
            Frequency::from_ghz(2.0),
        ))
    });
}

#[test]
fn recording_backend_over_backpressured_model_conforms() {
    conformance::check(|| {
        RecordingBackend::new(SimpleDdrModel::new(
            SimpleDdrConfig::ddr4_2666_x6(),
            Frequency::from_ghz(2.0),
        ))
    });
}

#[test]
fn recorder_and_benchmark_streams_are_send_at_the_type_level() {
    // The parallel sweep builds probes, traffic lanes and (for trace capture) recording
    // wrappers inside mess-exec workers; `OpStream: Send` already enforces the stream side
    // at the trait level — this pins the concrete types and the recorder wrapper too.
    fn assert_send<T: Send>() {}
    assert_send::<RecordingBackend<FixedLatencyModel>>();
    assert_send::<mess_cpu::ProgramStream>();
    assert_send::<mess_bench::TrafficStream>();
    assert_send::<Box<dyn mess_cpu::OpStream>>();
}
