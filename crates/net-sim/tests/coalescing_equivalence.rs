//! Property test: packet-burst coalescing is unobservable.
//!
//! The coalesced pump elides final-hop `Arrive` events for non-last,
//! unmarked data packets and expands their delivery timestamps
//! arithmetically from a per-port ledger. Everything the rest of the
//! system can see must be identical with the fast path on or off:
//!
//! - per-flow delivery sequences `(tag, bytes, last)`, in order;
//! - the timing of every *last* delivery (the only deliveries whose
//!   timing is observable — message completion);
//! - the full DCQCN rate-change log and PFC pause log;
//! - ECN/CNP counters and total delivered bytes.
//!
//! What is deliberately *not* compared: the cross-flow interleaving of
//! non-last deliveries, whose drain timing the coalescer batches. No
//! consumer observes it (the system layer drops non-last deliveries on
//! the floor), and relaxing it is exactly where the saved events come
//! from.
//!
//! Scenarios cover the hard cases: incast congestion (ECN marks, CNPs,
//! DCQCN rate cuts mid-flight), PFC pauses, and fault windows opening
//! mid-run (degrade and loss — the setters must de-coalesce the link
//! without perturbing the shared fault draw sequence).

use net_sim::network::{NetEvent, NetStep, Network};
use net_sim::topology::build_star;
use net_sim::{DcqcnParams, FlowId, NodeId, PfcParams, DEFAULT_MTU};
use proptest::prelude::*;
use sim_engine::{EventQueue, Rate, SimDuration, SimTime};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
enum Fault {
    None,
    /// Degrade `link_pick % n_links` at `at_us`: halve bandwidth, add
    /// 5 µs delay; cleared 300 µs later.
    Degrade {
        link_pick: usize,
        at_us: u64,
    },
    /// 20 % data loss on `link_pick % n_links` at `at_us`; cleared
    /// 300 µs later.
    Loss {
        link_pick: usize,
        at_us: u64,
    },
}

/// Everything observable about a run, in comparable form.
#[derive(Debug, PartialEq)]
struct Observable {
    /// Per-flow delivery sequence: (tag, bytes, last).
    per_flow: BTreeMap<usize, Vec<(u64, u64, bool)>>,
    /// Every last-packet delivery with its exact time.
    lasts: Vec<(SimTime, usize, u64)>,
    rate_changes: Vec<(SimTime, FlowId, Rate)>,
    pauses: Vec<(SimTime, NodeId)>,
    ecn_marked: u64,
    cnps_sent: u64,
    total_bytes: u64,
}

fn apply_fault(net: &mut Network, f: &Fault, phase: u8, t: SimTime, step: &mut NetStep) {
    match (f, phase) {
        (Fault::None, _) => {}
        (Fault::Degrade { link_pick, .. }, 0) => {
            let link = link_pick % net.topology().n_links();
            net.set_link_degrade(link, 0.5, SimDuration::from_us(5), t, step);
        }
        (Fault::Degrade { link_pick, .. }, _) => {
            net.clear_link_degrade(link_pick % net.topology().n_links());
        }
        (Fault::Loss { link_pick, .. }, 0) => {
            let link = link_pick % net.topology().n_links();
            net.set_link_loss(link, 0.2, t, step);
        }
        (Fault::Loss { link_pick, .. }, _) => {
            net.clear_link_loss(link_pick % net.topology().n_links());
        }
    }
}

/// Build the star, inject the message schedule, pump to quiescence.
fn run(
    n_senders: usize,
    messages: &[(usize, u64, u64)],
    fault: Fault,
    coalescing: bool,
) -> Observable {
    let clos = build_star(n_senders + 1, Rate::from_gbps(40), SimDuration::from_us(1));
    let hosts = clos.hosts.clone();
    let mut net = Network::new(
        clos.topology,
        DcqcnParams::default(),
        PfcParams::default(),
        DEFAULT_MTU,
    );
    net.set_fault_seed(7);
    net.set_coalescing(coalescing);
    let dst = hosts[n_senders];
    let flows: Vec<FlowId> = (0..n_senders)
        .map(|i| net.add_flow(hosts[i], dst))
        .collect();

    let mut q: EventQueue<NetEvent> = EventQueue::new();
    let mut step = NetStep::default();
    for (i, &(sender, bytes, start_us)) in messages.iter().enumerate() {
        net.send_into(
            flows[sender % n_senders],
            bytes,
            i as u64,
            SimTime::ZERO + SimDuration::from_us(start_us),
            &mut step,
        );
    }
    for (t, e) in step.schedule.drain(..) {
        q.schedule(t, e);
    }

    let mut actions: Vec<(SimTime, u8)> = match fault {
        Fault::None => Vec::new(),
        Fault::Degrade { at_us, .. } | Fault::Loss { at_us, .. } => {
            let at = SimTime::ZERO + SimDuration::from_us(at_us);
            vec![(at, 0), (at + SimDuration::from_us(300), 1)]
        }
    };
    actions.reverse(); // pop() takes the earliest

    let mut obs = Observable {
        per_flow: BTreeMap::new(),
        lasts: Vec::new(),
        rate_changes: Vec::new(),
        pauses: Vec::new(),
        ecn_marked: 0,
        cnps_sent: 0,
        total_bytes: 0,
    };
    let mut budget = 10_000_000u64;
    loop {
        // Fault transitions fire between events, at their own times.
        let next_event_t = q.peek_time();
        if let Some(&(at, phase)) = actions.last() {
            if next_event_t.is_none() || at <= next_event_t.unwrap() {
                actions.pop();
                step.clear();
                apply_fault(&mut net, &fault, phase, at, &mut step);
                record(&mut obs, at, &step);
                for (t, e) in step.schedule.drain(..) {
                    q.schedule(t, e);
                }
                continue;
            }
        }
        let Some((now, ev)) = q.pop() else { break };
        budget -= 1;
        assert!(budget > 0, "event budget exceeded — livelock?");
        step.clear();
        net.handle_into(ev, now, &mut step);
        record(&mut obs, now, &step);
        for (t, e) in step.schedule.drain(..) {
            q.schedule(t, e);
        }
    }
    assert!(net.is_quiescent() || matches!(fault, Fault::Loss { .. }));
    obs.ecn_marked = net.ecn_marked();
    obs.cnps_sent = net.cnps_sent();
    obs
}

fn record(obs: &mut Observable, now: SimTime, step: &NetStep) {
    for d in &step.deliveries {
        obs.per_flow
            .entry(d.flow.0)
            .or_default()
            .push((d.tag, d.bytes, d.last));
        if d.last {
            obs.lasts.push((now, d.flow.0, d.tag));
        }
        obs.total_bytes += d.bytes;
    }
    for &(f, r) in &step.rate_changes {
        obs.rate_changes.push((now, f, r));
    }
    for &h in &step.pauses_received {
        obs.pauses.push((now, h));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Coalesced and per-packet pumps produce identical observables
    /// under incast congestion, CNP-driven rate cuts, and mid-run
    /// fault windows.
    #[test]
    fn prop_coalescing_is_unobservable(
        n_senders in 2usize..6,
        messages in proptest::collection::vec(
            (0usize..8, 5_000u64..400_000, 0u64..300), 2..14),
        fault_kind in 0usize..3,
        link_pick in 0usize..16,
        at_us in 50u64..400,
    ) {
        let fault = match fault_kind {
            0 => Fault::None,
            1 => Fault::Degrade { link_pick, at_us },
            _ => Fault::Loss { link_pick, at_us },
        };
        let fast = run(n_senders, &messages, fault, true);
        let reference = run(n_senders, &messages, fault, false);
        prop_assert_eq!(&fast.per_flow, &reference.per_flow);
        prop_assert_eq!(&fast.lasts, &reference.lasts);
        prop_assert_eq!(&fast.rate_changes, &reference.rate_changes);
        prop_assert_eq!(&fast.pauses, &reference.pauses);
        prop_assert_eq!(fast.ecn_marked, reference.ecn_marked);
        prop_assert_eq!(fast.cnps_sent, reference.cnps_sent);
        prop_assert_eq!(fast.total_bytes, reference.total_bytes);
    }
}
