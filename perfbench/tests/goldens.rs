//! The small batch jobs' pinned answers (what the serve workloads'
//! walks are checked against) agree with the unpruned references.

use txmm::models::{Arch, Model};
use txmm::synth::{enumerate, synthesise_seq, EnumConfig};
use txmm::Session;
use txmm_perfbench::{walk_spec, walks::synth_config, Name};

#[test]
fn serve_walk_goldens_match_the_unpruned_references() {
    let spec = walk_spec(Name::ServeCold);
    let s = Session::new();
    let model = |n: &str| -> &dyn Model { s.model(s.resolve(n).expect("registered")) };
    for (arch, events, name, golden) in [
        (Arch::X86, spec.x86_events, "x86-tm", spec.x86_golden),
        (
            Arch::Power,
            spec.power_events,
            "power-tm",
            spec.power_golden,
        ),
    ] {
        let mut n = 0usize;
        enumerate(&EnumConfig::hw(arch, events), &mut |x| {
            n += usize::from(model(name).consistent(x));
        });
        assert_eq!(n, golden, "{name} at |E| = {events}");
    }
    let suite = synthesise_seq(
        &synth_config(spec.synth_events),
        model("x86-tm"),
        model("x86"),
        None,
    );
    assert_eq!(suite.forbid.len(), spec.forbid_golden);
    assert_eq!(suite.allow.len(), spec.allow_golden);
}
