//! Scenario tests for the network simulator: single-flow throughput,
//! incast congestion with ECN/CNP/PFC, DCQCN rate cuts and recovery.

use net_sim::network::{Delivery, NetEvent, NetStep, Network};
use net_sim::topology::build_star;
use net_sim::{DcqcnParams, FlowId, NodeId, PfcParams, DEFAULT_MTU};
use sim_engine::{EventQueue, Rate, SimDuration, SimTime};

/// Drive the network until quiescence (or an event budget runs out).
/// Returns deliveries with their times and the rate-change log.
struct RunResult {
    deliveries: Vec<(SimTime, Delivery)>,
    rate_changes: Vec<(SimTime, FlowId, Rate)>,
    pauses: Vec<(SimTime, NodeId)>,
    end: SimTime,
}

fn run(net: &mut Network, initial: Vec<(SimTime, NetEvent)>, max_events: usize) -> RunResult {
    let mut q: EventQueue<NetEvent> = EventQueue::new();
    for (t, e) in initial {
        q.schedule(t, e);
    }
    let mut res = RunResult {
        deliveries: Vec::new(),
        rate_changes: Vec::new(),
        pauses: Vec::new(),
        end: SimTime::ZERO,
    };
    let mut n = 0;
    let mut step = NetStep::default();
    while let Some((now, ev)) = q.pop() {
        n += 1;
        assert!(n <= max_events, "event budget exceeded — livelock?");
        step.clear();
        net.handle_into(ev, now, &mut step);
        for &d in &step.deliveries {
            res.deliveries.push((now, d));
        }
        for &(f, r) in &step.rate_changes {
            res.rate_changes.push((now, f, r));
        }
        for &h in &step.pauses_received {
            res.pauses.push((now, h));
        }
        for &(t, e) in &step.schedule {
            q.schedule(t, e);
        }
        res.end = now;
    }
    res
}

fn star(n: usize) -> (Network, Vec<NodeId>) {
    let clos = build_star(n, Rate::from_gbps(40), SimDuration::from_us(1));
    let hosts = clos.hosts.clone();
    let net = Network::new(
        clos.topology,
        DcqcnParams::default(),
        PfcParams::default(),
        DEFAULT_MTU,
    );
    (net, hosts)
}

#[test]
fn single_flow_achieves_line_rate() {
    let (mut net, hosts) = star(2);
    let f = net.add_flow(hosts[0], hosts[1]);
    // 4 MB transfer over 40 Gbps ≈ 800 µs + small per-hop overheads.
    let bytes = 4 * 1024 * 1024u64;
    let mut step = NetStep::default();
    net.send_into(f, bytes, 1, SimTime::ZERO, &mut step);
    let res = run(&mut net, step.schedule, 1_000_000);
    let delivered: u64 = res.deliveries.iter().map(|(_, d)| d.bytes).sum();
    assert_eq!(delivered, bytes);
    assert!(res.deliveries.iter().any(|(_, d)| d.last));
    let dur = res.deliveries.last().unwrap().0.since(SimTime::ZERO);
    let gbps = delivered as f64 * 8.0 / dur.as_secs_f64() / 1e9;
    assert!(gbps > 35.0, "achieved only {gbps} Gbps");
    assert!(gbps <= 40.0 + 1e-6);
    assert!(net.is_quiescent());
    // No congestion signals on an uncontended path.
    assert_eq!(net.cnps_sent(), 0);
    assert!(res.pauses.is_empty());
}

#[test]
fn messages_deliver_in_order_with_tags() {
    let (mut net, hosts) = star(2);
    let f = net.add_flow(hosts[0], hosts[1]);
    let mut init = NetStep::default();
    net.send_into(f, 10_000, 1, SimTime::ZERO, &mut init);
    net.send_into(f, 10_000, 2, SimTime::ZERO, &mut init);
    let res = run(&mut net, init.schedule, 100_000);
    let lasts: Vec<u64> = res
        .deliveries
        .iter()
        .filter(|(_, d)| d.last)
        .map(|(_, d)| d.tag)
        .collect();
    assert_eq!(lasts, vec![1, 2]);
    let total: u64 = res.deliveries.iter().map(|(_, d)| d.bytes).sum();
    assert_eq!(total, 20_000);
}

#[test]
fn incast_triggers_ecn_cnp_and_rate_cuts() {
    // 8 senders blast one receiver: the shared downlink congests.
    let (mut net, hosts) = star(9);
    let dst = hosts[8];
    let flows: Vec<FlowId> = (0..8).map(|i| net.add_flow(hosts[i], dst)).collect();
    let mut init = NetStep::default();
    for (i, &f) in flows.iter().enumerate() {
        net.send_into(f, 3 * 1024 * 1024, i as u64, SimTime::ZERO, &mut init);
    }
    let res = run(&mut net, init.schedule, 40_000_000);
    let delivered: u64 = res.deliveries.iter().map(|(_, d)| d.bytes).sum();
    assert_eq!(delivered, 8 * 3 * 1024 * 1024);
    assert!(net.ecn_marked() > 0, "ECN should mark under incast");
    assert!(net.cnps_sent() > 0, "CNPs should be generated");
    // Rate cuts observed on at least one flow.
    let min_rate = res
        .rate_changes
        .iter()
        .map(|(_, _, r)| *r)
        .min()
        .expect("rate changes recorded");
    assert!(
        min_rate < Rate::from_gbps(20),
        "DCQCN should cut below half line rate, min={min_rate:?}"
    );
    // Aggregate goodput still close to the bottleneck line rate.
    let dur = res.deliveries.last().unwrap().0.since(SimTime::ZERO);
    let gbps = delivered as f64 * 8.0 / dur.as_secs_f64() / 1e9;
    // DCQCN trades utilization for queue control during transient
    // incast — with shallow marking thresholds and slow additive
    // recovery it sacrifices a lot of bandwidth at high incast degree.
    // Expect a meaningful fraction of line rate, not all of it.
    assert!(gbps > 8.0, "aggregate goodput {gbps} too low");
    assert!(gbps <= 40.0 + 1e-6);
}

#[test]
fn severe_incast_generates_pfc_pauses() {
    // Many senders + aggressive PFC thresholds: pauses must reach hosts.
    let clos = build_star(17, Rate::from_gbps(40), SimDuration::from_us(1));
    let hosts = clos.hosts.clone();
    let mut net = Network::new(
        clos.topology,
        DcqcnParams::default(),
        PfcParams {
            xoff_bytes: 64 * 1024,
            xon_bytes: 32 * 1024,
        },
        DEFAULT_MTU,
    );
    let dst = hosts[16];
    let mut init = NetStep::default();
    for (i, &h) in hosts.iter().take(16).enumerate() {
        let f = net.add_flow(h, dst);
        net.send_into(f, 2 * 1024 * 1024, i as u64, SimTime::ZERO, &mut init);
    }
    let res = run(&mut net, init.schedule, 60_000_000);
    assert!(!res.pauses.is_empty(), "PFC pauses should fire");
    // Pause counters are per host.
    let total: u64 = (0..16).map(|i| net.host_pause_count(hosts[i])).sum();
    assert_eq!(total as usize, res.pauses.len());
    // All data still delivered (lossless fabric).
    let delivered: u64 = res.deliveries.iter().map(|(_, d)| d.bytes).sum();
    assert_eq!(delivered, 16 * 2 * 1024 * 1024);
}

#[test]
fn rate_recovers_after_congestion() {
    let (mut net, hosts) = star(3);
    let f0 = net.add_flow(hosts[0], hosts[2]);
    let f1 = net.add_flow(hosts[1], hosts[2]);
    let mut init = NetStep::default();
    net.send_into(f0, 8 * 1024 * 1024, 0, SimTime::ZERO, &mut init);
    net.send_into(f1, 8 * 1024 * 1024, 1, SimTime::ZERO, &mut init);
    let res = run(&mut net, init.schedule, 40_000_000);
    // After everything drains and recovery timers run, both flows should
    // have recovered to (near) line rate.
    let final_rate = net.flow_rate(f0).max(net.flow_rate(f1));
    assert!(
        final_rate.as_gbps_f64() > 35.0,
        "rates should recover, got {final_rate:?}"
    );
    assert!(net.is_quiescent());
    let _ = res;
}

#[test]
fn backlog_accounting() {
    let (mut net, hosts) = star(2);
    let f = net.add_flow(hosts[0], hosts[1]);
    let mut step = NetStep::default();
    net.send_into(f, 100_000, 0, SimTime::ZERO, &mut step);
    // One packet is already serializing; the rest is backlog.
    assert!(net.flow_backlog_bytes(f) < 100_000);
    assert!(net.flow_backlog_bytes(f) > 0);
    assert_eq!(net.host_backlog_bytes(hosts[0]), net.flow_backlog_bytes(f));
    assert_eq!(net.host_backlog_bytes(hosts[1]), 0);
    let res = run(&mut net, step.schedule, 100_000);
    assert_eq!(net.flow_backlog_bytes(f), 0);
    let _ = res;
}

#[test]
fn determinism() {
    let mk = || {
        let (mut net, hosts) = star(5);
        let mut init = NetStep::default();
        for i in 0..4 {
            let f = net.add_flow(hosts[i], hosts[4]);
            net.send_into(f, 1024 * 1024, i as u64, SimTime::ZERO, &mut init);
        }
        let res = run(&mut net, init.schedule, 10_000_000);
        (
            res.deliveries.len(),
            res.end,
            net.ecn_marked(),
            net.cnps_sent(),
        )
    };
    assert_eq!(mk(), mk());
}
