//! The modeled clock is a pure function of the seed.

use cxl_pod::HwccMode;
use perfbench::sim;

/// A short `pod16_sim` window: 16 hosts × this many turns.
const TURNS: u64 = 512;

#[test]
fn pod16_modeled_window_repeats_exactly_for_one_seed() {
    let (a, fa) = sim::pod16_model(1, TURNS, false).expect("first run");
    let (b, fb) = sim::pod16_model(1, TURNS, false).expect("second run");
    assert!(a.failures.is_empty(), "{:?}", a.failures);
    assert_eq!(a.tally.ops, TURNS * 16);
    assert!(a.clock_ns > 0);
    assert_eq!(a.clock_ns, b.clock_ns);
    assert_eq!(a.op_clock, b.op_clock);
    assert_eq!(a.mem, b.mem);
    assert_eq!(a.counts, b.counts);
    // The heap footprint is read at the end of the window, so it too
    // is a function of the seed alone.
    let (ha, hb) = (&fa.heap, &fb.heap);
    assert_eq!(
        (
            ha.small_slabs,
            ha.large_slabs,
            ha.small_bytes,
            ha.large_bytes,
            ha.hwcc_bytes
        ),
        (
            hb.small_slabs,
            hb.large_slabs,
            hb.small_bytes,
            hb.large_bytes,
            hb.hwcc_bytes
        )
    );
    assert!(fa.live_bytes > 0.0);
    assert_eq!(fa.live_bytes, fb.live_bytes);
    assert_eq!(fa.unreclaimed_frac, fb.unreclaimed_frac);
}

#[test]
fn arming_the_pod_tracer_changes_no_modeled_number() {
    let (plain, _) = sim::pod16_model(2, TURNS, false).expect("untraced run");
    let (traced, _) = sim::pod16_model(2, TURNS, true).expect("traced run");
    // The traced window also checks that the tracer's attribution
    // equals the Σ-clock delta; a mismatch is reported as a failure.
    assert!(traced.failures.is_empty(), "{:?}", traced.failures);
    assert_eq!(traced.trace_ns.values().sum::<u64>(), traced.clock_ns);
    assert_eq!(plain.clock_ns, traced.clock_ns);
    assert_eq!(plain.op_clock, traced.op_clock);
    assert_eq!(plain.mem, traced.mem);
}

#[test]
fn seeds_change_the_modeled_window() {
    let (a, _) = sim::pod16_model(3, TURNS, false).expect("seed 3");
    let (b, _) = sim::pod16_model(4, TURNS, false).expect("seed 4");
    assert_ne!(a.op_clock, b.op_clock);
}

#[test]
fn churn_replay_is_correct_on_a_coherent_pod() {
    let model = sim::churn_model(1, false).expect("replay");
    assert!(model.failures.is_empty(), "{:?}", model.failures);
}

/// The same replay on a limited-HWcc pod: large-heap blocks handed to
/// another host and freed there end up allocated twice, and the
/// invariant checker finds a large slab on one thread's sized list
/// owned by another.
#[test]
#[ignore = "fails: cxl-core defect in large-heap remote frees under limited HWcc"]
fn churn_replay_is_correct_on_a_limited_hwcc_pod() {
    let model = sim::churn_model_on(&sim::pair(256, HwccMode::Limited), 1, false).expect("replay");
    assert!(model.failures.is_empty(), "{:?}", model.failures);
}
