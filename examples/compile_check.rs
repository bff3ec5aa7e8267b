//! Compiling C++ (with transactions) to hardware (§8.2): show the
//! standard mappings on a message-passing program and run the bounded
//! soundness check against all three targets.
//!
//! ```sh
//! cargo run --release --example compile_check
//! ```

use txmm::core::display;
use txmm::models::Cpp;
use txmm::prelude::*;
use txmm::verify::map_execution;

fn main() {
    // A C++ message-passing program with a release/acquire flag and a
    // transactional payload.
    let mut b = ExecBuilder::new();
    let t0 = b.new_thread();
    let wx = b.write(t0, 0);
    let wy = b.write_ato(t0, 1, Attrs::REL);
    b.txn_atomic(&[wx]);
    let t1 = b.new_thread();
    let ry = b.read_ato(t1, 1, Attrs::ACQ);
    let rx = b.read(t1, 0);
    b.txn_atomic(&[rx]);
    b.rf(wy, ry);
    let x = b.build().expect("well-formed");

    println!("== C++ source execution ==\n{}", display::render(&x));
    println!("C++ (TM) verdict: {}", Cpp::tm().check(&x));
    println!("racy: {}\n", Cpp::tm().racy(&x));

    for target in [Arch::X86, Arch::Power, Arch::Armv8] {
        let y = map_execution(&x, target);
        println!("== mapped to {} ==\n{}", target.name(), display::render(&y));
        let m = txmm::models::registry::by_name(match target {
            Arch::X86 => "x86-tm",
            Arch::Power => "power-tm",
            _ => "armv8-tm",
        })
        .expect("registered");
        println!("{} verdict: {}\n", target.name(), m.check(&y));
    }

    // The bounded soundness check of Table 2: no C++-forbidden,
    // race-free execution maps to a target-consistent one.
    println!("== bounded compilation-soundness check (|E| = 3) ==");
    for target in [Arch::X86, Arch::Power, Arch::Armv8] {
        let r = check_compilation(3, target, None, txmm::synth::worker_count());
        println!(
            "  C++ -> {:<6}  {} race-free forbidden executions checked in {:.2}s: {}",
            target.name(),
            r.checked,
            r.elapsed.as_secs_f64(),
            match r.counterexample {
                Some(_) => "UNSOUND (unexpected!)",
                None => "sound",
            }
        );
    }
}
