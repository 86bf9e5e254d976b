//! Scenario tests for TIMELY rate control.

use net_sim::network::{NetEvent, NetStep, Network};
use net_sim::topology::build_star;
use net_sim::{DcqcnParams, PfcParams, TimelyParams, DEFAULT_MTU};
use sim_engine::{EventQueue, Rate, SimDuration, SimTime};

fn timely_star(n: usize) -> (Network, Vec<net_sim::NodeId>) {
    let clos = build_star(n, Rate::from_gbps(40), SimDuration::from_us(1));
    let hosts = clos.hosts.clone();
    let mut net = Network::new(
        clos.topology,
        DcqcnParams::default(),
        PfcParams::default(),
        DEFAULT_MTU,
    );
    net.use_timely(TimelyParams::default());
    (net, hosts)
}

struct Run {
    delivered: u64,
    min_rate: Rate,
    end: SimTime,
}

fn run(net: &mut Network, init: Vec<(SimTime, NetEvent)>, max: usize) -> Run {
    let mut q = EventQueue::new();
    for (t, e) in init {
        q.schedule(t, e);
    }
    let mut out = Run {
        delivered: 0,
        min_rate: Rate::from_gbps(1_000),
        end: SimTime::ZERO,
    };
    let mut n = 0;
    let mut step = NetStep::default();
    while let Some((now, ev)) = q.pop() {
        n += 1;
        assert!(n <= max, "event budget exceeded");
        step.clear();
        net.handle_into(ev, now, &mut step);
        for d in &step.deliveries {
            out.delivered += d.bytes;
            out.end = now;
        }
        for (_, r) in &step.rate_changes {
            out.min_rate = out.min_rate.min(*r);
        }
        for &(t, e) in &step.schedule {
            q.schedule(t, e);
        }
    }
    out
}

#[test]
fn single_flow_unharmed_by_timely() {
    let (mut net, hosts) = timely_star(2);
    let f = net.add_flow(hosts[0], hosts[1]);
    let bytes = 2 * 1024 * 1024u64;
    let mut init = NetStep::default();
    net.send_into(f, bytes, 1, SimTime::ZERO, &mut init);
    let r = run(&mut net, init.schedule, 4_000_000);
    assert_eq!(r.delivered, bytes);
    let gbps = r.delivered as f64 * 8.0 / r.end.as_secs_f64() / 1e9;
    // Uncongested RTTs sit near t_low: the rate stays high.
    assert!(gbps > 25.0, "single flow got {gbps:.1} Gbps under TIMELY");
    // No CNPs in TIMELY mode, ever.
    assert_eq!(net.cnps_sent(), 0);
}

#[test]
fn timely_incast_cuts_rates_and_delivers_everything() {
    let (mut net, hosts) = timely_star(9);
    let mut init = NetStep::default();
    for i in 0..8 {
        let f = net.add_flow(hosts[i], hosts[8]);
        net.send_into(f, 2 * 1024 * 1024, i as u64, SimTime::ZERO, &mut init);
    }
    let r = run(&mut net, init.schedule, 40_000_000);
    assert_eq!(r.delivered, 8 * 2 * 1024 * 1024);
    // Queue buildup inflates RTT -> TIMELY cuts well below line rate.
    assert!(
        r.min_rate < Rate::from_gbps(10),
        "TIMELY should cut rates under incast, min={:?}",
        r.min_rate
    );
    assert_eq!(net.cnps_sent(), 0, "no DCQCN machinery in TIMELY mode");
    assert!(net.is_quiescent());
}

#[test]
fn timely_and_dcqcn_both_control_the_same_incast() {
    // Same offered load under the two schemes: both must deliver all
    // bytes and both must throttle; they are interchangeable as the
    // congestion control under SRC.
    let mk = |timely: bool| {
        let clos = build_star(7, Rate::from_gbps(40), SimDuration::from_us(1));
        let hosts = clos.hosts.clone();
        let mut net = Network::new(
            clos.topology,
            DcqcnParams::default(),
            PfcParams::default(),
            DEFAULT_MTU,
        );
        if timely {
            net.use_timely(TimelyParams::default());
        }
        let mut init = NetStep::default();
        for i in 0..6 {
            let f = net.add_flow(hosts[i], hosts[6]);
            net.send_into(f, 1024 * 1024, i as u64, SimTime::ZERO, &mut init);
        }
        run(&mut net, init.schedule, 40_000_000)
    };
    let t = mk(true);
    let d = mk(false);
    assert_eq!(t.delivered, d.delivered);
    assert!(t.min_rate < Rate::from_gbps(20));
    assert!(d.min_rate < Rate::from_gbps(20));
}
