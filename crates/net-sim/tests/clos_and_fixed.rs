//! Scenarios on the Clos fabric and with fixed-rate (CC-exempt) flows.

use net_sim::network::{NetEvent, NetStep, Network};
use net_sim::topology::{build_clos, ClosConfig};
use net_sim::{DcqcnParams, PfcParams, DEFAULT_MTU};
use sim_engine::{EventQueue, Rate, SimDuration, SimTime};

fn drive(net: &mut Network, init: Vec<(SimTime, NetEvent)>, max: usize) -> (u64, SimTime) {
    let mut q = EventQueue::new();
    for (t, e) in init {
        q.schedule(t, e);
    }
    let mut delivered = 0u64;
    let mut end = SimTime::ZERO;
    let mut n = 0usize;
    let mut step = NetStep::default();
    while let Some((now, ev)) = q.pop() {
        n += 1;
        assert!(n <= max, "event budget exceeded");
        step.clear();
        net.handle_into(ev, now, &mut step);
        for d in &step.deliveries {
            delivered += d.bytes;
        }
        if !step.deliveries.is_empty() {
            end = now;
        }
        for &(t, e) in &step.schedule {
            q.schedule(t, e);
        }
    }
    (delivered, end)
}

#[test]
fn clos_cross_pod_transfer() {
    // Full paper-scale Clos: host in pod 0 sends to a host in pod 3
    // through ToR -> leaf -> spine -> leaf -> ToR.
    let clos = build_clos(&ClosConfig::default());
    let (a, b) = (clos.hosts[0], clos.hosts[255]);
    let mut net = Network::new(
        clos.topology,
        DcqcnParams::default(),
        PfcParams::default(),
        DEFAULT_MTU,
    );
    let f = net.add_flow(a, b);
    let bytes = 1024 * 1024u64;
    let mut init = NetStep::default();
    net.send_into(f, bytes, 1, SimTime::ZERO, &mut init);
    let (delivered, end) = drive(&mut net, init.schedule, 2_000_000);
    assert_eq!(delivered, bytes);
    // 5 hops of 1 µs propagation + serialization: a 1 MiB transfer at
    // 40 Gbps takes >= 200 µs.
    assert!(end >= SimTime::from_us(200), "end={end}");
    assert!(net.is_quiescent());
}

#[test]
fn clos_intra_pod_parallel_transfers() {
    // Many pairs inside one pod, disjoint ToRs: all complete, ECMP
    // spreads over the two leaves, no starvation.
    let clos = build_clos(&ClosConfig {
        pods: 1,
        spines: 0,
        hosts_per_pod: 16,
        ..ClosConfig::default()
    });
    let hosts = clos.hosts.clone();
    let mut net = Network::new(
        clos.topology,
        DcqcnParams::default(),
        PfcParams::default(),
        DEFAULT_MTU,
    );
    let mut init = NetStep::default();
    let per_flow = 256 * 1024u64;
    let mut flows = 0u64;
    for i in 0..8 {
        let f = net.add_flow(hosts[i], hosts[15 - i]);
        net.send_into(f, per_flow, i as u64, SimTime::ZERO, &mut init);
        flows += 1;
    }
    let (delivered, _) = drive(&mut net, init.schedule, 4_000_000);
    assert_eq!(delivered, flows * per_flow);
}

#[test]
fn fixed_rate_flow_is_shaped_and_cc_exempt() {
    let clos = net_sim::build_star(3, Rate::from_gbps(40), SimDuration::from_us(1));
    let hosts = clos.hosts.clone();
    let mut net = Network::new(
        clos.topology,
        DcqcnParams::default(),
        PfcParams::default(),
        DEFAULT_MTU,
    );
    // A fixed 2 Gbps flow and an adaptive flow sharing the same
    // destination link.
    let fixed = net.add_fixed_rate_flow(hosts[0], hosts[2], Rate::from_gbps(2));
    let adaptive = net.add_flow(hosts[1], hosts[2]);
    let mut init = NetStep::default();
    net.send_into(fixed, 2 * 1024 * 1024, 0, SimTime::ZERO, &mut init);
    net.send_into(adaptive, 2 * 1024 * 1024, 1, SimTime::ZERO, &mut init);
    let mut q = EventQueue::new();
    for (t, e) in init.schedule {
        q.schedule(t, e);
    }
    let mut fixed_bytes = 0u64;
    let mut fixed_last = SimTime::ZERO;
    let mut n = 0;
    let mut step = NetStep::default();
    while let Some((now, ev)) = q.pop() {
        n += 1;
        assert!(n < 10_000_000);
        step.clear();
        net.handle_into(ev, now, &mut step);
        for d in &step.deliveries {
            if d.flow == fixed {
                fixed_bytes += d.bytes;
                fixed_last = now;
            }
        }
        for &(t, e) in &step.schedule {
            q.schedule(t, e);
        }
    }
    assert_eq!(fixed_bytes, 2 * 1024 * 1024);
    // Shaped at ~2 Gbps: 16.8 Mbit / 2 Gbps ≈ 8.4 ms (allow slack for
    // the initial bucket burst).
    let gbps = fixed_bytes as f64 * 8.0 / fixed_last.as_secs_f64() / 1e9;
    assert!(
        (gbps - 2.0).abs() < 0.3,
        "fixed flow should hold ~2 Gbps, got {gbps:.2}"
    );
    // The fixed flow's rate never changed (CC-exempt).
    assert_eq!(net.flow_rate(fixed), Rate::from_gbps(2));
}

#[test]
fn fixed_rate_flows_never_generate_cnps() {
    // A fixed-rate overload of one link must not generate CNPs (its
    // receiver is exempt), even though ECN marks its packets.
    let clos = net_sim::build_star(4, Rate::from_gbps(40), SimDuration::from_us(1));
    let hosts = clos.hosts.clone();
    let mut net = Network::new(
        clos.topology,
        DcqcnParams::default(),
        PfcParams::default(),
        DEFAULT_MTU,
    );
    let mut init = NetStep::default();
    for i in 0..3 {
        let f = net.add_fixed_rate_flow(hosts[i], hosts[3], Rate::from_gbps(20));
        net.send_into(f, 4 * 1024 * 1024, i as u64, SimTime::ZERO, &mut init);
    }
    let (delivered, _) = drive(&mut net, init.schedule, 20_000_000);
    assert_eq!(delivered, 3 * 4 * 1024 * 1024);
    assert!(net.ecn_marked() > 0, "overload should mark");
    assert_eq!(net.cnps_sent(), 0, "fixed-rate flows are CC-exempt");
}

#[test]
fn lossless_conservation_under_mixed_load() {
    // Adaptive + fixed flows, PFC thresholds tight: every byte sent is
    // delivered exactly once (lossless fabric).
    let clos = net_sim::build_star(6, Rate::from_gbps(40), SimDuration::from_us(1));
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
    let mut init = NetStep::default();
    let mut expected = 0u64;
    for i in 0..4 {
        let f = if i % 2 == 0 {
            net.add_flow(hosts[i], hosts[5])
        } else {
            net.add_fixed_rate_flow(hosts[i], hosts[5], Rate::from_gbps(15))
        };
        let bytes = (i as u64 + 1) * 777_777;
        expected += bytes;
        net.send_into(f, bytes, i as u64, SimTime::ZERO, &mut init);
    }
    let (delivered, _) = drive(&mut net, init.schedule, 40_000_000);
    assert_eq!(delivered, expected);
    assert!(net.is_quiescent());
}
