//! A parser for the pseudocode litmus format produced by
//! [`crate::render::pseudocode`], enabling round-trips (render → parse →
//! render) and hand-written test files.
//!
//! The format, line by line:
//!
//! ```text
//! NAME (ARCH)
//! Initially: x = 0, y = 0
//! thread 0:
//!   r0 <- x.acq        // deps: addr#0
//!   y.rel <- 1
//!   txbegin (fail: ok0 <- 0)
//!   txend
//!   MFENCE
//! Test: 0:r0 = 1 /\ x = 2 /\ ok0 = 1 /\ co(x) = [1,2]
//! ```

use std::fmt;

use txmm_core::{Attrs, Fence, Loc};
use txmm_models::Arch;

use crate::ast::{AccessMode, Check, Dep, DepKind, Instr, LitmusTest, Op};

/// A litmus parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LitmusParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LitmusParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "litmus parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for LitmusParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, LitmusParseError> {
    Err(LitmusParseError {
        line,
        message: message.into(),
    })
}

fn parse_loc(s: &str, line: usize) -> Result<Loc, LitmusParseError> {
    match s {
        "x" => Ok(0),
        "y" => Ok(1),
        "z" => Ok(2),
        "w" => Ok(3),
        "v" => Ok(4),
        "u" => Ok(5),
        _ => {
            if let Some(rest) = s.strip_prefix('l') {
                rest.parse().map_err(|_| LitmusParseError {
                    line,
                    message: format!("bad location {s}"),
                })
            } else {
                err(line, format!("bad location {s}"))
            }
        }
    }
}

fn parse_mode(
    suffixes: &str,
    exclusive_ok: bool,
    line: usize,
) -> Result<AccessMode, LitmusParseError> {
    let mut m = AccessMode::default();
    for part in suffixes.split('.').filter(|p| !p.is_empty()) {
        match part {
            "acq" => m.acquire = true,
            "rel" => m.release = true,
            "sc" => {
                m.sc = true;
                m.atomic = true;
            }
            "ato" => m.atomic = true,
            "ex" if exclusive_ok => m.exclusive = true,
            other => return err(line, format!("unknown access suffix .{other}")),
        }
    }
    Ok(m)
}

fn parse_deps(comment: &str, line: usize) -> Result<Vec<Dep>, LitmusParseError> {
    // "// deps: addr#0,data#2"
    let Some(idx) = comment.find("deps:") else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for part in comment[idx + 5..].split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((kind, on)) = part.split_once('#') else {
            return err(line, format!("bad dep {part}"));
        };
        let kind = match kind {
            "addr" => DepKind::Addr,
            "data" => DepKind::Data,
            "ctrl" => DepKind::Ctrl,
            _ => return err(line, format!("bad dep kind {kind}")),
        };
        let on = on.trim().parse().map_err(|_| LitmusParseError {
            line,
            message: format!("bad dep index {on}"),
        })?;
        out.push(Dep { on, kind });
    }
    Ok(out)
}

fn parse_fence(word: &str) -> Option<(Fence, Attrs)> {
    match word {
        "MFENCE" => Some((Fence::MFence, Attrs::NONE)),
        "sync" => Some((Fence::Sync, Attrs::NONE)),
        "lwsync" => Some((Fence::Lwsync, Attrs::NONE)),
        "isync" => Some((Fence::Isync, Attrs::NONE)),
        "DMB" => Some((Fence::Dmb, Attrs::NONE)),
        "DMB LD" => Some((Fence::DmbLd, Attrs::NONE)),
        "DMB ST" => Some((Fence::DmbSt, Attrs::NONE)),
        "ISB" => Some((Fence::Isb, Attrs::NONE)),
        "fence" => Some((
            Fence::CppFence,
            Attrs::SC.union(Attrs::ACQ).union(Attrs::REL),
        )),
        _ => None,
    }
}

fn parse_check(part: &str, line: usize) -> Result<Check, LitmusParseError> {
    let part = part.trim();
    if let Some(rest) = part.strip_prefix("co(") {
        // co(x) = [1,2,3]
        let Some((loc, vals)) = rest.split_once(") = [") else {
            return err(line, format!("bad co check {part}"));
        };
        let loc = parse_loc(loc.trim(), line)?;
        let vals = vals.trim_end_matches(']');
        let values = vals
            .split(',')
            .filter(|v| !v.trim().is_empty())
            .map(|v| v.trim().parse::<u32>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| LitmusParseError {
                line,
                message: format!("bad co values {vals}"),
            })?;
        return Ok(Check::CoSeq { loc, values });
    }
    let Some((lhs, rhs)) = part.split_once('=') else {
        return err(line, format!("bad check {part}"));
    };
    let lhs = lhs.trim();
    let value: u32 = rhs.trim().parse().map_err(|_| LitmusParseError {
        line,
        message: format!("bad value {rhs}"),
    })?;
    if let Some(rest) = lhs.strip_prefix("ok") {
        let txn_id = rest.parse().map_err(|_| LitmusParseError {
            line,
            message: format!("bad ok flag {lhs}"),
        })?;
        if value != 1 {
            return err(line, "ok flags are checked against 1");
        }
        return Ok(Check::TxnOk { txn_id });
    }
    if let Some((tid, reg)) = lhs.split_once(":r") {
        let tid = tid.parse().map_err(|_| LitmusParseError {
            line,
            message: format!("bad thread id {lhs}"),
        })?;
        let reg = reg.parse().map_err(|_| LitmusParseError {
            line,
            message: format!("bad register {lhs}"),
        })?;
        return Ok(Check::Reg { tid, reg, value });
    }
    Ok(Check::Loc {
        loc: parse_loc(lhs, line)?,
        value,
    })
}

/// Parse the pseudocode litmus format.
pub fn parse_litmus(src: &str) -> Result<LitmusTest, LitmusParseError> {
    let mut name = String::new();
    let mut arch = Arch::Sc;
    let mut threads: Vec<Vec<Instr>> = Vec::new();
    let mut post = Vec::new();
    let mut next_txn = 0usize;
    for (i, raw) in src.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if i == 0 {
            // "name (Arch)"
            let (n, a) = line.rsplit_once('(').unwrap_or((line, "SC)"));
            name = n.trim().to_string();
            arch = match a.trim_end_matches(')').trim() {
                "SC" => Arch::Sc,
                "x86" => Arch::X86,
                "Power" => Arch::Power,
                "ARMv8" => Arch::Armv8,
                "C++" => Arch::Cpp,
                other => return err(lineno, format!("unknown architecture {other}")),
            };
            continue;
        }
        if line.starts_with("Initially:") {
            continue; // all locations start at zero by convention
        }
        if let Some(rest) = line.strip_prefix("Test:") {
            // An empty `Test:` line is the empty conjunction.
            if !rest.trim().is_empty() {
                for part in rest.split("/\\") {
                    post.push(parse_check(part, lineno)?);
                }
            }
            continue;
        }
        if line.starts_with("thread ") && line.ends_with(':') {
            threads.push(Vec::new());
            continue;
        }
        // An instruction line, possibly with a deps comment.
        let Some(thread) = threads.last_mut() else {
            return err(lineno, "instruction before any thread header");
        };
        let (code, comment) = match line.split_once("//") {
            Some((c, k)) => (c.trim(), k),
            None => (line, ""),
        };
        let deps = parse_deps(comment, lineno)?;
        let op = if let Some(rest) = code.strip_prefix("txbegin") {
            let atomic = rest.starts_with(".atomic");
            let txn_id = next_txn;
            next_txn += 1;
            Op::TxBegin { txn_id, atomic }
        } else if code == "txend" {
            Op::TxEnd
        } else if let Some((f, a)) = parse_fence(code) {
            Op::Fence(f, a)
        } else if code.ends_with("()") {
            match code.trim_end_matches("()") {
                s @ ("L" | "U" | "Lt" | "Ut") => Op::LockCall(match s {
                    "L" => "L",
                    "U" => "U",
                    "Lt" => "Lt",
                    _ => "Ut",
                }),
                other => return err(lineno, format!("unknown call {other}")),
            }
        } else if let Some((lhs, rhs)) = code.split_once("<-") {
            let lhs = lhs.trim();
            let rhs = rhs.trim();
            if let Some(reg) = lhs.strip_prefix('r') {
                if let Ok(reg) = reg.parse::<usize>() {
                    // rN <- loc[.mode]
                    let (locname, suffix) = match rhs.split_once('.') {
                        Some((l, s)) => (l, s),
                        None => (rhs, ""),
                    };
                    let mode = parse_mode(suffix, true, lineno)?;
                    thread.push(Instr {
                        op: Op::Load {
                            reg,
                            loc: parse_loc(locname, lineno)?,
                            mode,
                        },
                        deps,
                    });
                    continue;
                }
            }
            // loc[.mode] <- value
            let (locname, suffix) = match lhs.split_once('.') {
                Some((l, s)) => (l, s),
                None => (lhs, ""),
            };
            let mode = parse_mode(suffix, true, lineno)?;
            let value = rhs.parse::<u32>().map_err(|_| LitmusParseError {
                line: lineno,
                message: format!("bad store value {rhs}"),
            })?;
            thread.push(Instr {
                op: Op::Store {
                    loc: parse_loc(locname, lineno)?,
                    value,
                    mode,
                },
                deps,
            });
            continue;
        } else {
            return err(lineno, format!("unrecognised instruction {code:?}"));
        };
        thread.push(Instr { op, deps });
    }
    Ok(LitmusTest {
        name,
        arch,
        threads,
        post,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_exec::litmus_from_execution;
    use crate::render::pseudocode;
    use txmm_models::catalog;

    fn roundtrip(x: &txmm_core::Execution, arch: Arch, name: &str) {
        let t = litmus_from_execution(name, x, arch);
        let printed = pseudocode(&t);
        let back = parse_litmus(&printed).unwrap_or_else(|e| panic!("{name}: {e}\n{printed}"));
        assert_eq!(back, t, "{name} round-trip\n{printed}");
    }

    #[test]
    fn roundtrip_catalog() {
        roundtrip(&catalog::fig1(), Arch::X86, "fig1");
        roundtrip(&catalog::fig2(), Arch::X86, "fig2");
        roundtrip(
            &catalog::sb(Some(txmm_core::Fence::MFence), false, false),
            Arch::X86,
            "sb+mfence",
        );
        roundtrip(
            &catalog::mp(Some(txmm_core::Fence::Sync), true, false),
            Arch::Power,
            "mp",
        );
        roundtrip(&catalog::power_exec3(true), Arch::Power, "iriw");
        roundtrip(&catalog::armv8_elision(false), Arch::Armv8, "elision");
        roundtrip(&catalog::rmw_txn(true), Arch::Power, "rmw-split");
    }

    /// An execution with no reads, no transactions and no contended
    /// location renders an empty `Test:` line, which must parse back
    /// and convert to the same execution.
    #[test]
    fn roundtrip_empty_postcondition() {
        let mut b = txmm_core::ExecBuilder::new();
        let t0 = b.new_thread();
        b.write(t0, 0);
        b.fence(t0, Fence::MFence);
        let t1 = b.new_thread();
        b.write(t1, 1);
        let x = b.build().unwrap();
        let t = litmus_from_execution("writes", &x, Arch::X86);
        assert!(t.post.is_empty());
        let printed = pseudocode(&t);
        let back = parse_litmus(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(back, t);
        let y = crate::to_exec::execution_from_litmus(&back).expect("converts");
        assert_eq!(
            txmm_core::canon::canon_key(&y),
            txmm_core::canon::canon_key(&x)
        );
    }

    #[test]
    fn parse_handwritten() {
        let src = "demo (x86)\n\
                   Initially: x = 0, y = 0\n\
                   thread 0:\n\
                   \u{20} x <- 1\n\
                   \u{20} MFENCE\n\
                   \u{20} r0 <- y\n\
                   thread 1:\n\
                   \u{20} y <- 1\n\
                   \u{20} r0 <- x\n\
                   Test: 0:r0 = 0 /\\ 1:r0 = 0\n";
        let t = parse_litmus(src).expect("parses");
        assert_eq!(t.arch, Arch::X86);
        assert_eq!(t.threads.len(), 2);
        assert_eq!(t.threads[0].len(), 3);
        assert_eq!(t.post.len(), 2);
        assert!(matches!(t.threads[0][1].op, Op::Fence(Fence::MFence, _)));
    }

    #[test]
    fn parse_txn_and_co_checks() {
        let src = "t (Power)\n\
                   thread 0:\n\
                   \u{20} txbegin (fail: ok0 <- 0)\n\
                   \u{20} x <- 1\n\
                   \u{20} txend\n\
                   Test: ok0 = 1 /\\ co(x) = [1,2]\n";
        let t = parse_litmus(src).expect("parses");
        assert_eq!(t.num_txns(), 1);
        assert!(t.post.contains(&Check::TxnOk { txn_id: 0 }));
        assert!(t.post.contains(&Check::CoSeq {
            loc: 0,
            values: vec![1, 2]
        }));
    }

    #[test]
    fn parse_atomic_txn_marker() {
        let src = "t (C++)\n\
                   thread 0:\n\
                   \u{20} txbegin.atomic (fail: ok0 <- 0)\n\
                   \u{20} x <- 1\n\
                   \u{20} txend\n\
                   \u{20} txbegin (fail: ok1 <- 0)\n\
                   \u{20} y <- 1\n\
                   \u{20} txend\n\
                   Test: ok0 = 1 /\\ ok1 = 1\n";
        let t = parse_litmus(src).expect("parses");
        assert!(matches!(
            t.threads[0][0].op,
            Op::TxBegin { atomic: true, .. }
        ));
        assert!(matches!(
            t.threads[0][3].op,
            Op::TxBegin { atomic: false, .. }
        ));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_litmus("t (Marvel)\n").is_err());
        assert!(
            parse_litmus("t (x86)\n  x <- 1\n").is_err(),
            "instruction before thread"
        );
        let bad = "t (x86)\nthread 0:\n  flibber\n";
        let e = parse_litmus(bad).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn parsed_tests_run_on_simulators() {
        let src = "sb (x86)\n\
                   thread 0:\n\
                   \u{20} x <- 1\n\
                   \u{20} r0 <- y\n\
                   thread 1:\n\
                   \u{20} y <- 1\n\
                   \u{20} r0 <- x\n\
                   Test: 0:r0 = 0 /\\ 1:r0 = 0\n";
        let t = parse_litmus(src).expect("parses");
        // Not asserting observability here to avoid a hwsim dev-dep
        // cycle; structural checks suffice (the integration suite runs
        // parsed tests on simulators).
        assert_eq!(t.len(), 4);
    }
}
