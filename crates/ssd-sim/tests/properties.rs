//! Property-based tests of the SSD model's conservation invariants.

use proptest::prelude::*;
use sim_engine::{EventQueue, SimTime};
use ssd_sim::{Ssd, SsdCommand, SsdConfig, SsdEvent, SsdStep};
use std::collections::HashSet;
use workload::IoType;

/// Drive an SSD with a set of commands submitted at t=0 (respecting a
/// queue-depth budget via releases) and drain everything.
fn drive(cfg: SsdConfig, cmds: &[SsdCommand]) -> (Vec<u64>, Vec<u64>) {
    let qd = cfg.queue_depth;
    let mut ssd = Ssd::new(cfg);
    let mut q: EventQueue<SsdEvent> = EventQueue::new();
    let mut pending = cmds.to_vec();
    pending.reverse();
    let mut completed = Vec::new();
    let mut released = Vec::new();
    let mut step = SsdStep::default();
    let mut refill = SsdStep::default();

    // Initial fill up to the queue depth.
    for _ in 0..qd {
        let Some(c) = pending.pop() else { break };
        step.clear();
        ssd.submit_into(c, SimTime::ZERO, &mut step);
        for &(t, e) in &step.schedule {
            q.schedule(t, e);
        }
    }
    while let Some((t, e)) = q.pop() {
        step.clear();
        ssd.handle_into(e, t, &mut step);
        for c in &step.completions {
            completed.push(c.id);
        }
        for r in &step.releases {
            released.push(r.id);
            if let Some(c) = pending.pop() {
                refill.clear();
                ssd.submit_into(c, t, &mut refill);
                for &(t2, e2) in &refill.schedule {
                    q.schedule(t2, e2);
                }
            }
        }
        for &(t2, e2) in &step.schedule {
            q.schedule(t2, e2);
        }
    }
    (completed, released)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every command completes exactly once and releases exactly once,
    /// no matter the mix of sizes, ops and addresses.
    #[test]
    fn prop_every_command_completes_and_releases_once(
        specs in proptest::collection::vec(
            (0u8..2, 0u64..100_000, 1u64..100_000), 1..120),
    ) {
        let cmds: Vec<SsdCommand> = specs
            .iter()
            .enumerate()
            .map(|(i, &(op, lba, size))| SsdCommand {
                id: i as u64,
                op: if op == 0 { IoType::Read } else { IoType::Write },
                lba,
                size,
            })
            .collect();
        let (completed, released) = drive(SsdConfig::ssd_a(), &cmds);
        prop_assert_eq!(completed.len(), cmds.len());
        prop_assert_eq!(released.len(), cmds.len());
        let cset: HashSet<u64> = completed.iter().copied().collect();
        let rset: HashSet<u64> = released.iter().copied().collect();
        prop_assert_eq!(cset.len(), cmds.len(), "duplicate completion");
        prop_assert_eq!(rset.len(), cmds.len(), "duplicate release");
    }

    /// Byte accounting matches the submitted commands exactly, for every
    /// Table II device.
    #[test]
    fn prop_byte_accounting(which in 0u8..3, n in 1usize..60) {
        let cfg = match which {
            0 => SsdConfig::ssd_a(),
            1 => SsdConfig::ssd_b(),
            _ => SsdConfig::ssd_c(),
        };
        let cmds: Vec<SsdCommand> = (0..n)
            .map(|i| SsdCommand {
                id: i as u64,
                op: if i % 3 == 0 { IoType::Write } else { IoType::Read },
                lba: (i as u64) * 97 % 50_000,
                size: 1 + (i as u64 * 7919) % 80_000,
            })
            .collect();
        let expect_read: u64 = cmds.iter().filter(|c| c.op.is_read()).map(|c| c.size).sum();
        let expect_write: u64 = cmds.iter().filter(|c| !c.op.is_read()).map(|c| c.size).sum();
        let qd = cfg.queue_depth;
        let mut ssd = Ssd::new(cfg);
        let mut q: EventQueue<SsdEvent> = EventQueue::new();
        let mut step = SsdStep::default();
        let mut refill = SsdStep::default();
        let mut i = 0usize;
        while i < cmds.len().min(qd) {
            step.clear();
            ssd.submit_into(cmds[i], SimTime::ZERO, &mut step);
            for &(t, e) in &step.schedule {
                q.schedule(t, e);
            }
            i += 1;
        }
        while let Some((t, e)) = q.pop() {
            step.clear();
            ssd.handle_into(e, t, &mut step);
            for _r in &step.releases {
                if i < cmds.len() {
                    refill.clear();
                    ssd.submit_into(cmds[i], t, &mut refill);
                    for &(t2, e2) in &refill.schedule {
                        q.schedule(t2, e2);
                    }
                    i += 1;
                }
            }
            for &(t2, e2) in &step.schedule {
                q.schedule(t2, e2);
            }
        }
        let s = ssd.stats();
        prop_assert_eq!(s.read_bytes_completed, expect_read);
        prop_assert_eq!(s.write_bytes_completed, expect_write);
        prop_assert_eq!(ssd.in_flight(), 0);
    }
}

/// Determinism: the same command sequence produces identical completion
/// order and timing.
#[test]
fn deterministic_completion_order() {
    let cmds: Vec<SsdCommand> = (0..80)
        .map(|i| SsdCommand {
            id: i,
            op: if i % 2 == 0 {
                IoType::Read
            } else {
                IoType::Write
            },
            lba: i * 131,
            size: 4096 + (i % 5) * 13_000,
        })
        .collect();
    let a = drive(SsdConfig::ssd_c(), &cmds);
    let b = drive(SsdConfig::ssd_c(), &cmds);
    assert_eq!(a, b);
}
