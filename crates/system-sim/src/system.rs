//! The end-to-end event loop: Initiators → network → Targets → SSDs and
//! back, with TXQ backpressure and (optionally) SRC in the loop.

use crate::config::{Assignment, CcChoice, Mode, SystemConfig, TargetSelection, TopologyKind};
use crate::report::SystemReport;
use fabric::{decode_tag, InitiatorProto, MsgKind, TargetProto, TxqPolicy};
use net_sim::network::{NetEvent, NetStep, Network};
use net_sim::topology::{build_clos, build_star, NodeId};
use net_sim::FlowId;
use serde::{Deserialize, Serialize};
use sim_engine::{
    ArrivalCursor, EventQueue, FastMap, FaultKind, FaultPlan, FaultScope, SimDuration, SimTime,
    TraceRecord, TraceSink,
};
use src_core::{SrcController, ThroughputPredictionModel};
use ssd_sim::SsdEvent;
use std::sync::Arc;
use storage_node::{DisciplineKind, NodeConfig, StorageNode};
use workload::IoType;

enum Ev {
    Issue(usize),
    Net(NetEvent),
    Ssd {
        target: usize,
        ev: SsdEvent,
    },
    /// Background burst from background source `src` (re-arms itself
    /// until the configured stop time).
    Background {
        src: usize,
    },
    /// Fault-plan event `event`'s window opens (`activate`) or closes.
    Fault {
        event: usize,
        activate: bool,
    },
    /// Initiator-side timeout check for attempt `attempt` of request
    /// `req` (stale once the request completed or attempted again).
    Timeout {
        req: usize,
        attempt: u32,
    },
    /// Retry backoff elapsed: re-issue request `req`.
    Retry {
        req: usize,
    },
}

/// Where a flow sits in the fabric.
#[derive(Clone, Copy, Debug)]
enum FlowRole {
    /// Initiator → Target (commands + write data).
    Outbound,
    /// Target → Initiator (read data + acks) — the paper's inbound flow.
    Inbound { target: usize },
    /// Background congestion flow (deliveries ignored).
    Background,
}

struct TargetState {
    host: NodeId,
    node: StorageNode,
    proto: TargetProto,
    txq: TxqPolicy,
    src: Option<SrcController>,
    /// Inbound flow back to each initiator.
    in_flows: Vec<FlowId>,
}

/// Telemetry sampling cadence for gauges (TXQ backlog, SSD utilization,
/// SSQ occupancy): 1 ms, matching the report bin width.
const SAMPLE_BIN: SimDuration = SimDuration(1_000_000_000);

/// Initiator-side robustness policy: a timeout arms on every request
/// attempt; expiry triggers a bounded exponential-backoff retry
/// (`backoff_base * 2^(attempt-1)`), and once `retry_budget` retries
/// are spent the request is abandoned and counted in
/// [`SystemReport::abandoned`] (and per Target in
/// [`SystemReport::per_target_abandoned`]). Latency for a retried
/// request measures from its last attempt.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RobustnessConfig {
    /// Per-attempt completion deadline at the Initiator.
    pub timeout: SimDuration,
    /// Maximum retries per request before abandoning it.
    pub retry_budget: u32,
    /// First retry delay; doubles on each further retry.
    pub backoff_base: SimDuration,
}

impl Default for RobustnessConfig {
    /// A deliberately generous deadline: the paper's in-cast workloads
    /// are open-loop overloaded, so fault-free tail latency is on the
    /// order of the run's makespan and a tight timeout would abandon
    /// legitimate work. Calibrate `timeout` well above your workload's
    /// congested tail (see `experiments::fault_robustness` for the
    /// scale-aware choice the fault sweep uses).
    fn default() -> Self {
        RobustnessConfig {
            timeout: SimDuration::from_ms(500),
            retry_budget: 3,
            backoff_base: SimDuration::from_ms(10),
        }
    }
}

/// Where the request assignments for a run come from.
enum AssignmentSource<'a> {
    /// Resolve `cfg.workloads` via [`SystemConfig::assignments`].
    Seed(u64),
    /// Use this pre-built assignment list as-is.
    Slice(&'a [Assignment]),
}

/// Which TPM serves each Target's SRC controller.
enum TpmAssignment<'a> {
    /// One model shared by every Target (homogeneous fleets).
    Shared(Option<Arc<ThroughputPredictionModel>>),
    /// `tpms[t]` serves Target `t` (heterogeneous fleets: each model is
    /// trained on that Target's own device).
    PerTarget(&'a [Arc<ThroughputPredictionModel>]),
}

impl TpmAssignment<'_> {
    fn for_target(&self, t: usize) -> Option<Arc<ThroughputPredictionModel>> {
        match self {
            TpmAssignment::Shared(tpm) => tpm.clone(),
            TpmAssignment::PerTarget(tpms) => Some(tpms[t].clone()),
        }
    }
}

/// Per-run options for [`run_system`]: where the workload comes from,
/// which TPM(s) drive SRC, and the optional fault plan and robustness
/// policy. Start from [`RunOptions::seeded`] (resolve `cfg.workloads`
/// with a seed) or [`RunOptions::assignments`] (a pre-built list), then
/// chain the setters.
///
/// ```ignore
/// run_system(&cfg, RunOptions::seeded(7).tpm(tpm), &mut NullSink);
/// run_system(&cfg, RunOptions::assignments(&a).tpm_fleet(&tpms), &mut sink);
/// ```
pub struct RunOptions<'a> {
    source: AssignmentSource<'a>,
    tpms: TpmAssignment<'a>,
    faults: Option<&'a FaultPlan>,
    robustness: Option<RobustnessConfig>,
    coalescing: bool,
}

impl<'a> RunOptions<'a> {
    fn new(source: AssignmentSource<'a>) -> Self {
        RunOptions {
            source,
            tpms: TpmAssignment::Shared(None),
            faults: None,
            robustness: None,
            coalescing: true,
        }
    }

    /// Drive the run from the configuration's own workload sources:
    /// `cfg.workloads` resolves to the assignment list via
    /// [`SystemConfig::assignments`] with `seed`. The declarative form
    /// for spec-driven harnesses — a config plus a seed is a complete,
    /// serializable experiment.
    pub fn seeded(seed: u64) -> Self {
        Self::new(AssignmentSource::Seed(seed))
    }

    /// Drive the run from a pre-built assignment list.
    pub fn assignments(assignments: &'a [Assignment]) -> Self {
        Self::new(AssignmentSource::Slice(assignments))
    }

    /// One TPM shared by every Target's SRC controller — correct
    /// whenever the fleet is homogeneous (the TPM is trained per device
    /// model). Required in [`Mode::DcqcnSrc`] unless
    /// [`RunOptions::tpm_fleet`] is given.
    pub fn tpm(mut self, tpm: Arc<ThroughputPredictionModel>) -> Self {
        self.tpms = TpmAssignment::Shared(Some(tpm));
        self
    }

    /// Per-Target TPMs for heterogeneous fleets: `tpms[t]` (trained on
    /// Target `t`'s own device, see [`crate::experiments::train_tpm`])
    /// drives Target `t`'s SRC weight decisions, so each controller
    /// inverts the throughput surface of the device it actually serves.
    /// With every `ssds` entry (and TPM) equal this is byte-identical
    /// to the shared form.
    pub fn tpm_fleet(mut self, tpms: &'a [Arc<ThroughputPredictionModel>]) -> Self {
        self.tpms = TpmAssignment::PerTarget(tpms);
        self
    }

    /// Override the configuration's fault plan for this run only.
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Explicit timeout/retry policy. Without one, runs with an active
    /// fault plan get [`RobustnessConfig::default`] (faults must not
    /// wedge the run waiting on a reply that will never come) and
    /// fault-free runs get none — no timeout events exist, preserving
    /// bit-identity with the pre-robustness simulator.
    pub fn robustness(mut self, robustness: RobustnessConfig) -> Self {
        self.robustness = Some(robustness);
        self
    }

    /// Disable arithmetic packet-burst coalescing in the network model.
    /// Coalescing is a pure event-count optimization — the report is
    /// byte-identical either way (asserted by the equivalence tests) —
    /// so this knob exists for those tests and for counterfactual
    /// benchmarking, not for experiments.
    pub fn no_coalescing(mut self) -> Self {
        self.coalescing = false;
        self
    }
}

/// Per-request retry bookkeeping (only allocated when a
/// [`RobustnessConfig`] is active).
#[derive(Clone, Copy)]
struct ReqState {
    /// Attempts issued so far (1 = the initial issue).
    attempt: u32,
    /// Completed or abandoned — later timeouts and retries are stale.
    done: bool,
}

/// Run one full-system simulation.
///
/// This is the single sink-polymorphic entry point — workload source,
/// TPM assignment, fault plan, and robustness policy all arrive via
/// [`RunOptions`]. Telemetry — DCQCN per-flow rate/alpha and RP-stage
/// transitions, CNP traffic, TXQ backlog and gate transitions, SSQ
/// fetch decisions and weight changes, SSD utilization, fault-recovery
/// counters, and SRC decisions — flows into `sink` as deterministic
/// [`TraceRecord`]s. Pass `&mut NullSink` for an untraced run;
/// [`TraceSink::enabled`] gates all probe buffering, so that costs
/// exactly what an untraced run always did, and the report is identical
/// either way.
///
/// The report is a pure function of `(cfg, opts, seed)` — identical at
/// any worker-thread count, with or without an active fault plan.
///
/// # Panics
/// Panics on inconsistent configuration (SRC mode without a TPM, a TPM
/// fleet shorter than `n_targets`, more hosts requested than the
/// topology provides, a `ssds` fleet whose length matches neither 1 nor
/// `n_targets`, an invalid fault plan).
pub fn run_system(
    cfg: &SystemConfig,
    opts: RunOptions<'_>,
    sink: &mut dyn TraceSink,
) -> SystemReport {
    if let TpmAssignment::PerTarget(tpms) = &opts.tpms {
        assert!(
            tpms.len() >= cfg.n_targets,
            "{} TPMs for {} targets",
            tpms.len(),
            cfg.n_targets
        );
    }
    let owned: Vec<Assignment>;
    let assignments: &[Assignment] = match opts.source {
        AssignmentSource::Slice(a) => a,
        AssignmentSource::Seed(seed) => {
            owned = cfg.assignments(seed);
            &owned
        }
    };
    let plan = opts.faults.unwrap_or(&cfg.faults);
    let robustness = opts.robustness.or(if plan.is_empty() {
        None
    } else {
        Some(RobustnessConfig::default())
    });
    cfg.validate_fleet();
    if let Err(e) = plan.validate() {
        panic!("invalid fault plan: {e}");
    }
    // The event queue and the reused step buffers that drive the hot
    // loop: each event triggers at most one network step (`net_step`);
    // sends issued while folding storage completions go through
    // `io_step`; `ssd_scheds` keeps its LIFO processing order while
    // `ssd_pool` recycles the drained step buffers, so the steady state
    // allocates nothing per event.
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut net_step = NetStep::default();
    let mut io_step = NetStep::default();
    let mut ssd_scheds: Vec<(usize, ssd_sim::SsdStep)> = Vec::new();
    let mut ssd_pool: Vec<ssd_sim::SsdStep> = Vec::new();
    let mut notified: Vec<usize> = Vec::new();
    let tracing = sink.enabled();
    let n_bg = cfg.background.as_ref().map_or(0, |b| b.n_sources);
    let n_hosts = cfg.n_initiators + cfg.n_targets + n_bg;
    let clos = match &cfg.topology {
        TopologyKind::Star { rate, delay } => build_star(n_hosts, *rate, *delay),
        TopologyKind::Clos(c) => build_clos(c),
    };
    assert!(
        clos.hosts.len() >= n_hosts,
        "topology provides {} hosts, need {n_hosts}",
        clos.hosts.len()
    );
    let init_hosts: Vec<NodeId> = clos.hosts[..cfg.n_initiators].to_vec();
    let tgt_hosts: Vec<NodeId> =
        clos.hosts[cfg.n_initiators..cfg.n_initiators + cfg.n_targets].to_vec();
    let bg_hosts: Vec<NodeId> = clos.hosts[cfg.n_initiators + cfg.n_targets..n_hosts].to_vec();

    let mut net = Network::new(clos.topology, cfg.dcqcn.clone(), cfg.pfc.clone(), cfg.mtu);
    net.set_coalescing(opts.coalescing);
    if cfg.cc == CcChoice::Timely {
        net.use_timely(net_sim::TimelyParams::default());
    }
    if !plan.is_empty() {
        net.set_fault_seed(plan.seed);
    }

    // Flows: a bidirectional pair per (initiator, target).
    let mut out_flows = vec![vec![FlowId(usize::MAX); cfg.n_targets]; cfg.n_initiators];
    // Indexed by `FlowId.0`: `Network` issues dense ids in creation order.
    let mut flow_roles: Vec<FlowRole> = Vec::new();
    let mut targets: Vec<TargetState> = Vec::with_capacity(cfg.n_targets);
    for (t_idx, &th) in tgt_hosts.iter().enumerate() {
        let discipline = match cfg.mode {
            Mode::DcqcnOnly => DisciplineKind::Fifo,
            Mode::DcqcnSrc => DisciplineKind::Ssq { weight: 1 },
        };
        let src = match cfg.mode {
            Mode::DcqcnOnly => None,
            Mode::DcqcnSrc => {
                let tpm = opts
                    .tpms
                    .for_target(t_idx)
                    .expect("DcqcnSrc mode requires a trained TPM");
                Some(SrcController::new(tpm, cfg.src.clone()))
            }
        };
        let mut in_flows = Vec::with_capacity(cfg.n_initiators);
        for (i_idx, &ih) in init_hosts.iter().enumerate() {
            let fo = net.add_flow(ih, th);
            out_flows[i_idx][t_idx] = fo;
            assert_eq!(fo.0, flow_roles.len(), "flow ids are dense");
            flow_roles.push(FlowRole::Outbound);
            let fi = net.add_flow(th, ih);
            in_flows.push(fi);
            assert_eq!(fi.0, flow_roles.len(), "flow ids are dense");
            flow_roles.push(FlowRole::Inbound { target: t_idx });
        }
        targets.push(TargetState {
            host: th,
            node: StorageNode::new(&NodeConfig {
                ssd: cfg.ssd_for(t_idx).clone(),
                discipline,
                merge_cap: None,
            }),
            proto: TargetProto::new(),
            txq: TxqPolicy::new(cfg.txq_watermarks.0, cfg.txq_watermarks.1),
            src,
            in_flows,
        });
    }
    let mut initiators: Vec<InitiatorProto> = (0..cfg.n_initiators)
        .map(|_| InitiatorProto::new())
        .collect();

    if tracing {
        net.set_telemetry(true);
        for (t_idx, t) in targets.iter_mut().enumerate() {
            t.node.set_telemetry(true, t_idx as u64);
            if let Some(src) = t.src.as_mut() {
                src.set_telemetry(true, t_idx as u64);
            }
        }
        // Heterogeneous fleets tag each Target's `ssd` gauge stream with
        // its device model up front, so per-device series can be told
        // apart in the trace. Homogeneous runs skip this — their traces
        // (including the committed fig9 fixture) stay byte-identical.
        if cfg.is_heterogeneous() {
            for t_idx in 0..cfg.n_targets {
                sink.record(TraceRecord {
                    at: SimTime::ZERO,
                    component: "ssd",
                    scope: t_idx as u64,
                    metric: cfg.ssd_for(t_idx).model_metric(),
                    value: 1.0,
                });
            }
        }
    }
    let mut last_sample = SimTime::ZERO;

    // Background congestion flows toward Initiator 0.
    let mut bg_flows: Vec<FlowId> = Vec::with_capacity(n_bg);
    if let Some(bg) = &cfg.background {
        assert!(
            !init_hosts.is_empty(),
            "background traffic requires at least one initiator"
        );
        for &bh in &bg_hosts {
            let f = net.add_fixed_rate_flow(bh, init_hosts[0], bg.rate_per_source);
            assert_eq!(f.0, flow_roles.len(), "flow ids are dense");
            flow_roles.push(FlowRole::Background);
            bg_flows.push(f);
        }
    }

    let mut report = SystemReport::new(cfg.n_targets);
    // Issues stream from the assignment list in arrival order (stable,
    // so equal arrivals keep list order) instead of being pre-scheduled.
    let mut issue_order: Vec<usize> = (0..assignments.len()).collect();
    issue_order.sort_by_key(|&i| assignments[i].request.arrival);
    let mut issues = ArrivalCursor::new(
        issue_order
            .into_iter()
            .map(|i| (assignments[i].request.arrival, i)),
    );
    if let Some(bg) = &cfg.background {
        for s in 0..bg.n_sources {
            q.schedule(bg.start, Ev::Background { src: s });
        }
    }
    // Fault windows: one activation and one deactivation event each.
    // An empty plan schedules nothing, so the event sequence (and every
    // traced timestamp) is bit-identical to a fault-free run.
    for (idx, fe) in plan.events.iter().enumerate() {
        q.schedule(
            fe.start,
            Ev::Fault {
                event: idx,
                activate: true,
            },
        );
        q.schedule(
            fe.end(),
            Ev::Fault {
                event: idx,
                activate: false,
            },
        );
    }

    // Actual Target per request (LeastLoaded selection can override the
    // static assignment at issue time).
    let mut actual_target: Vec<usize> = assignments.iter().map(|a| a.target).collect();

    // Initiator-side completion count (plus abandoned requests, which
    // will never complete) drives termination.
    let total = assignments.len();
    let mut finished = 0usize;
    let mut abandoned = 0usize;
    let mut req_state: Vec<ReqState> = if robustness.is_some() {
        vec![
            ReqState {
                attempt: 0,
                done: false,
            };
            total
        ]
    } else {
        Vec::new()
    };
    // Targets currently in a dropout window: commands vanish on
    // arrival and replies are lost.
    let mut dropped: Vec<bool> = vec![false; cfg.n_targets];
    let tgt_host_index: FastMap<NodeId, usize> =
        tgt_hosts.iter().enumerate().map(|(i, &h)| (h, i)).collect();

    while let Some((now, ev)) = issues.pop(&mut q, Ev::Issue) {
        if finished + abandoned >= total {
            break;
        }
        net_step.clear();
        debug_assert!(ssd_scheds.is_empty());

        match ev {
            Ev::Issue(i) => {
                let a = assignments[i];
                let target = match cfg.target_selection {
                    TargetSelection::Static => a.target,
                    TargetSelection::LeastLoaded => {
                        // Fewest commands pending at the Target driver +
                        // queued in its NVMe driver (what an initiator
                        // can learn from completion feedback).
                        (0..targets.len())
                            .min_by_key(|&t| {
                                targets[t].proto.in_flight() + targets[t].node.discipline().queued()
                            })
                            .expect("at least one target")
                    }
                    TargetSelection::Pack { cap } => (0..targets.len())
                        .find(|&t| targets[t].proto.in_flight() < cap)
                        .unwrap_or_else(|| {
                            (0..targets.len())
                                .min_by_key(|&t| targets[t].proto.in_flight())
                                .expect("at least one target")
                        }),
                };
                actual_target[a.request.id as usize] = target;
                let ws =
                    initiators[a.initiator].issue(&a.request, out_flows[a.initiator][target], now);
                net.send_into(ws.flow, ws.bytes, ws.tag, now, &mut net_step);
                if let Some(rb) = robustness {
                    let req = a.request.id as usize;
                    req_state[req].attempt = 1;
                    q.schedule(now + rb.timeout, Ev::Timeout { req, attempt: 1 });
                }
            }
            Ev::Net(nev) => {
                net.handle_into(nev, now, &mut net_step);
            }
            Ev::Ssd { target, ev } => {
                let mut step = ssd_pool.pop().unwrap_or_default();
                targets[target].node.on_ssd_event_into(ev, now, &mut step);
                ssd_scheds.push((target, step));
            }
            Ev::Background { src } => {
                let bg = cfg
                    .background
                    .as_ref()
                    .expect("background event without config");
                if now < bg.stop {
                    // Closed-loop source: keep the flow's NIC queue
                    // topped up (so the link stays contended at whatever
                    // rate DCQCN allows) without unbounded backlog.
                    if net.flow_backlog_bytes(bg_flows[src]) < 4 * bg.bytes_per_burst {
                        net.send_into(
                            bg_flows[src],
                            bg.bytes_per_burst,
                            u64::MAX - src as u64, // tag unused for background
                            now,
                            &mut net_step,
                        );
                    }
                    let next = now + bg.burst_interval;
                    if next < bg.stop {
                        q.schedule(next, Ev::Background { src });
                    }
                }
            }
            Ev::Fault { event, activate } => {
                let fe = &plan.events[event];
                match (fe.kind, fe.scope) {
                    (
                        FaultKind::LinkDegrade {
                            bandwidth_factor,
                            extra_delay,
                        },
                        FaultScope::Link { index },
                    ) => {
                        if activate {
                            net.set_link_degrade(
                                index,
                                bandwidth_factor,
                                extra_delay,
                                now,
                                &mut net_step,
                            );
                        } else {
                            net.clear_link_degrade(index);
                        }
                    }
                    (FaultKind::PacketLoss { probability }, FaultScope::Link { index }) => {
                        if activate {
                            net.set_link_loss(index, probability, now, &mut net_step);
                        } else {
                            net.clear_link_loss(index);
                        }
                    }
                    (FaultKind::CnpLoss { probability }, _) => {
                        if activate {
                            net.set_cnp_loss(probability);
                        } else {
                            net.clear_cnp_loss();
                        }
                    }
                    (FaultKind::SsdLatencySpike { factor }, FaultScope::Target { index }) => {
                        targets[index].node.set_ssd_latency_factor(if activate {
                            factor
                        } else {
                            1.0
                        });
                    }
                    (FaultKind::TargetFailStop, FaultScope::Target { index }) => {
                        let mut step = ssd_pool.pop().unwrap_or_default();
                        targets[index].node.set_ssd_halted(activate, now, &mut step);
                        ssd_scheds.push((index, step));
                    }
                    (FaultKind::TargetDropout, FaultScope::Target { index }) => {
                        dropped[index] = activate;
                    }
                    (kind, scope) => unreachable!("fault plan validated: {kind:?} on {scope:?}"),
                }
            }
            Ev::Timeout { req, attempt } => {
                if let Some(rb) = robustness {
                    let st = req_state[req];
                    if !st.done && st.attempt == attempt {
                        report.timeouts += 1;
                        if st.attempt <= rb.retry_budget {
                            // Bounded exponential backoff before the
                            // retry: base * 2^(attempt-1).
                            let shift = (attempt - 1).min(32);
                            let backoff =
                                SimDuration(rb.backoff_base.0.saturating_mul(1u64 << shift));
                            q.schedule(now + backoff, Ev::Retry { req });
                        } else {
                            let a = assignments[req];
                            initiators[a.initiator].abandon(a.request.id);
                            req_state[req].done = true;
                            abandoned += 1;
                            report.abandoned += 1;
                            report.per_target_abandoned[actual_target[req]] += 1;
                        }
                    }
                }
            }
            Ev::Retry { req } => {
                if let Some(rb) = robustness {
                    if !req_state[req].done {
                        let a = assignments[req];
                        let target = actual_target[req];
                        req_state[req].attempt += 1;
                        report.retries += 1;
                        let ws = initiators[a.initiator].reissue(
                            &a.request,
                            out_flows[a.initiator][target],
                            now,
                        );
                        net.send_into(ws.flow, ws.bytes, ws.tag, now, &mut net_step);
                        q.schedule(
                            now + rb.timeout,
                            Ev::Timeout {
                                req,
                                attempt: req_state[req].attempt,
                            },
                        );
                    }
                }
            }
        }

        // Process network outputs (may cascade into storage submissions,
        // which in turn produce more sends).
        {
            let step = &net_step;
            for &(t, e) in &step.schedule {
                q.schedule(t, Ev::Net(e));
            }
            for &host in &step.pauses_received {
                if tgt_host_index.contains_key(&host) {
                    report.pauses_total += 1;
                    report.pause_series.add(now, 1.0);
                }
            }
            // SRC: congestion notifications from inbound-flow rate
            // changes, aggregated per target.
            notified.clear();
            for (flow, rate) in &step.rate_changes {
                if let FlowRole::Inbound { target } = &flow_roles[flow.0] {
                    report.min_inbound_rate_gbps =
                        report.min_inbound_rate_gbps.min(rate.as_gbps_f64());
                    if !notified.contains(target) {
                        notified.push(*target);
                    }
                }
            }
            for &t_idx in &notified {
                let demanded_bps: u64 = targets[t_idx]
                    .in_flows
                    .iter()
                    .map(|&f| net.flow_rate(f).as_bps())
                    .sum();
                let demanded = sim_engine::Rate::from_bps(demanded_bps);
                // Per-target DCQCN aggregate: the sum of the granted
                // rates of every flow into this Target, sampled at each
                // rate-change notification — in every mode, so baseline
                // and SRC traces carry the same series.
                if tracing {
                    sink.record(TraceRecord {
                        at: now,
                        component: "net",
                        scope: t_idx as u64,
                        metric: "inbound_gbps",
                        value: demanded.as_gbps_f64(),
                    });
                }
                let t = &mut targets[t_idx];
                if let Some(src) = t.src.as_mut() {
                    if let Some(w) = src.on_congestion_notification(demanded, now) {
                        t.node.set_weight_ratio(w);
                        let mut s = ssd_pool.pop().unwrap_or_default();
                        t.node.pump_into(now, &mut s);
                        ssd_scheds.push((t_idx, s));
                    }
                }
            }
            for d in &step.deliveries {
                if matches!(flow_roles[d.flow.0], FlowRole::Background) {
                    continue;
                }
                if !d.last {
                    continue;
                }
                let (kind, req_id) = decode_tag(d.tag);
                let a = assignments[req_id as usize];
                let tgt_idx = actual_target[req_id as usize];
                match kind {
                    MsgKind::ReadCmd | MsgKind::WriteCmd => {
                        if dropped[tgt_idx] {
                            // The Target is in a dropout window: the
                            // command vanishes at the dead host and the
                            // initiator's timeout recovers.
                            continue;
                        }
                        let t = &mut targets[tgt_idx];
                        if let Some(src) = t.src.as_mut() {
                            src.observe(&a.request, now);
                        }
                        // None: a retry raced the original, still in
                        // service — its completion answers both over
                        // the refreshed reply flow.
                        if let Some(sub) =
                            t.proto
                                .on_command(kind, &a.request, t.in_flows[a.initiator], now)
                        {
                            if t.node.ssd().has_command(sub.request.id) {
                                // Retried write whose ack was lost: the
                                // device still holds the original
                                // (destage in flight), so the data is
                                // already accepted — ack immediately
                                // instead of resubmitting.
                                let ws = t.proto.on_storage_completion(sub.request.id, now);
                                io_step.clear();
                                net.send_into(ws.flow, ws.bytes, ws.tag, now, &mut io_step);
                                for &(tt, e) in &io_step.schedule {
                                    q.schedule(tt, Ev::Net(e));
                                }
                            } else {
                                let mut s = ssd_pool.pop().unwrap_or_default();
                                t.node.submit_into(sub.request, now, &mut s);
                                ssd_scheds.push((tgt_idx, s));
                            }
                        }
                    }
                    MsgKind::ReadData => {
                        // None: a late reply to a request already
                        // completed (a retry raced it) or abandoned.
                        if let Some(c) = initiators[a.initiator].on_inbound(kind, req_id, now) {
                            report.reads_completed += 1;
                            report.read_bytes += c.size;
                            report.per_target[tgt_idx].reads_completed += 1;
                            report.per_target[tgt_idx].read_bytes += c.size;
                            report.read_series.add(now, c.size as f64);
                            report.read_latency_us.push(now.since(c.issued).as_us_f64());
                            finished += 1;
                            if let Some(st) = req_state.get_mut(req_id as usize) {
                                st.done = true;
                            }
                        }
                    }
                    MsgKind::WriteAck => {
                        if initiators[a.initiator]
                            .on_inbound(kind, req_id, now)
                            .is_some()
                        {
                            finished += 1;
                            if let Some(st) = req_state.get_mut(req_id as usize) {
                                st.done = true;
                            }
                        }
                    }
                }
            }
        }

        // Fold storage-side schedules and new completions that appeared
        // while pumping.
        while let Some((t_idx, mut step)) = ssd_scheds.pop() {
            // A dropout window swallows this Target's replies: proto
            // state is still cleared (the device did the work), but
            // nothing is counted or sent — the initiator's timeout
            // recovers the request.
            let lost = dropped[t_idx];
            for c in &step.completions {
                if c.op == IoType::Write && !lost {
                    report.writes_completed += 1;
                    report.write_bytes += c.size;
                    report.per_target[t_idx].writes_completed += 1;
                    report.per_target[t_idx].write_bytes += c.size;
                    report.write_series.add(now, c.size as f64);
                    let issued = assignments[c.id as usize].request.arrival;
                    report.write_latency_us.push(now.since(issued).as_us_f64());
                }
                let ws = targets[t_idx].proto.on_storage_completion(c.id, now);
                if !lost {
                    io_step.clear();
                    net.send_into(ws.flow, ws.bytes, ws.tag, now, &mut io_step);
                    for &(t, e) in &io_step.schedule {
                        q.schedule(t, Ev::Net(e));
                    }
                    // (Sends here can't complete requests or change
                    // rates synchronously; deliveries come back as
                    // events.)
                    debug_assert!(io_step.deliveries.is_empty());
                }
            }
            for &(t, e) in &step.schedule {
                q.schedule(
                    t,
                    Ev::Ssd {
                        target: t_idx,
                        ev: e,
                    },
                );
            }
            step.clear();
            ssd_pool.push(step);
        }

        // TXQ backpressure: observe every target's NIC backlog and open/
        // close the SSD fetch gate accordingly.
        for (t_idx, t) in targets.iter_mut().enumerate() {
            let backlog = net.host_backlog_bytes(t.host);
            if let Some(open) = t.txq.observe(backlog) {
                // TxqPolicy has no clock or buffer of its own, so gate
                // transitions are recorded here at the observation site.
                if tracing {
                    sink.record(TraceRecord {
                        at: now,
                        component: "txq",
                        scope: t_idx as u64,
                        metric: "gate_open",
                        value: if open { 1.0 } else { 0.0 },
                    });
                }
                t.node.set_read_gate(open);
                if open {
                    let lost = dropped[t_idx];
                    let mut step = ssd_pool.pop().unwrap_or_default();
                    t.node.pump_into(now, &mut step);
                    for c in &step.completions {
                        if c.op == IoType::Write && !lost {
                            report.writes_completed += 1;
                            report.write_bytes += c.size;
                            report.per_target[t_idx].writes_completed += 1;
                            report.per_target[t_idx].write_bytes += c.size;
                            report.write_series.add(now, c.size as f64);
                            let issued = assignments[c.id as usize].request.arrival;
                            report.write_latency_us.push(now.since(issued).as_us_f64());
                        }
                        let ws = t.proto.on_storage_completion(c.id, now);
                        if !lost {
                            io_step.clear();
                            net.send_into(ws.flow, ws.bytes, ws.tag, now, &mut io_step);
                            for &(tt, e) in &io_step.schedule {
                                q.schedule(tt, Ev::Net(e));
                            }
                        }
                    }
                    for &(tt, e) in &step.schedule {
                        q.schedule(
                            tt,
                            Ev::Ssd {
                                target: t_idx,
                                ev: e,
                            },
                        );
                    }
                    step.clear();
                    ssd_pool.push(step);
                } else {
                    report.gate_closures.push((now, t_idx));
                }
            }
        }

        // Telemetry: sample gauges once per bin, then drain every
        // component's probe buffer in a fixed order so the trace is
        // deterministic.
        if tracing {
            if now.since(last_sample) >= SAMPLE_BIN {
                last_sample = now;
                for (t_idx, t) in targets.iter_mut().enumerate() {
                    t.node.sample_telemetry(now);
                    let scope = t_idx as u64;
                    let gauges: [(&'static str, &'static str, f64); 6] = [
                        (
                            "txq",
                            "backlog_bytes",
                            net.host_backlog_bytes(t.host) as f64,
                        ),
                        ("ssq", "weight_ratio", t.node.weight_ratio() as f64),
                        (
                            "ssq",
                            "outstanding",
                            t.node.discipline().outstanding() as f64,
                        ),
                        ("ssd", "cache_occupancy", t.node.ssd().cache_occupancy()),
                        ("ssd", "in_flight", t.node.ssd().in_flight() as f64),
                        ("tgt", "proto_in_flight", t.proto.in_flight() as f64),
                    ];
                    for (component, metric, value) in gauges {
                        sink.record(TraceRecord {
                            at: now,
                            component,
                            scope,
                            metric,
                            value,
                        });
                    }
                }
            }
            net.drain_probes_into(sink);
            for t in targets.iter_mut() {
                t.node.drain_probes_into(sink);
                if let Some(src) = t.src.as_mut() {
                    src.drain_probes_into(sink);
                }
            }
        }

        report.makespan = report.makespan.max(now.since(SimTime::ZERO));
        if finished + abandoned >= total {
            break;
        }
    }

    assert!(
        finished + abandoned >= total,
        "system run starved: {finished}/{total} requests finished ({abandoned} abandoned)"
    );
    for (t_idx, t) in targets.iter().enumerate() {
        if let Some(src) = t.src.as_ref() {
            report.decisions[t_idx] = src.decisions().to_vec();
            let (hits, misses) = src.tpm_cache_stats();
            report.tpm_cache_hits += hits;
            report.tpm_cache_misses += misses;
        }
    }
    report.ecn_marked = net.ecn_marked();
    report.cnps = net.cnps_sent();
    report.packets_coalesced = net.packets_coalesced();
    for link in 0..net.topology().n_links() {
        report.bursts_coalesced += net.bursts_coalesced(link);
    }
    if tracing {
        sink.count(("net", 0, "ecn_marked"), report.ecn_marked);
        sink.count(("net", 0, "cnps_sent"), report.cnps);
        sink.count(("net", 0, "pauses_received"), report.pauses_total);
        sink.count(
            ("txq", 0, "gate_closures"),
            report.gate_closures.len() as u64,
        );
        sink.count(("sys", 0, "reads_completed"), report.reads_completed);
        sink.count(("sys", 0, "writes_completed"), report.writes_completed);
        // Fault-recovery counters only exist when the machinery is
        // active, keeping legacy traces byte-identical.
        if robustness.is_some() || !plan.is_empty() {
            sink.count(("fabric", 0, "timeouts"), report.timeouts);
            sink.count(("fabric", 0, "retries"), report.retries);
            sink.count(("fabric", 0, "abandoned"), report.abandoned);
            for (t_idx, &n) in report.per_target_abandoned.iter().enumerate() {
                sink.count(("fabric", t_idx as u64, "abandoned_at_target"), n);
            }
        }
        // Fast-path counters are new in the PR-9 trace vocabulary;
        // emitting them only in SRC mode keeps the pinned DCQCN-only
        // fixture traces byte-identical.
        if matches!(cfg.mode, Mode::DcqcnSrc) {
            for (t_idx, t) in targets.iter().enumerate() {
                let (hits, misses) = t.src.as_ref().map_or((0, 0), |s| s.tpm_cache_stats());
                sink.count(("src", t_idx as u64, "tpm_cache_hits"), hits);
                sink.count(("src", t_idx as u64, "tpm_cache_misses"), misses);
            }
            for link in 0..net.topology().n_links() {
                let n = net.bursts_coalesced(link);
                if n > 0 {
                    sink.count(("net", link as u64, "bursts_coalesced"), n);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::spread_trace;
    use workload::micro::{generate_micro, MicroConfig};

    fn small_assignments(n: usize, seed: u64) -> Vec<Assignment> {
        let t = generate_micro(
            &MicroConfig {
                read_count: n / 2,
                write_count: n / 2,
                read_iat_mean_us: 20.0,
                write_iat_mean_us: 20.0,
                read_size_mean: 24_000.0,
                write_size_mean: 24_000.0,
                ..MicroConfig::default()
            },
            seed,
        );
        spread_trace(&t, 1, 2)
    }

    #[test]
    fn baseline_run_completes() {
        let cfg = SystemConfig::default();
        let a = small_assignments(400, 1);
        let r = run_system(&cfg, RunOptions::assignments(&a), &mut sim_engine::NullSink);
        assert_eq!(r.reads_completed, 200);
        // Writes counted at Targets.
        assert_eq!(r.writes_completed, 200);
        assert!(r.read_latency_us.mean() > 0.0);
        assert!(r.makespan > sim_engine::SimDuration::ZERO);
        assert_eq!((r.timeouts, r.retries, r.abandoned), (0, 0, 0));
    }

    #[test]
    fn deterministic() {
        let cfg = SystemConfig::default();
        let a = small_assignments(200, 2);
        let r1 = run_system(&cfg, RunOptions::assignments(&a), &mut sim_engine::NullSink);
        let r2 = run_system(&cfg, RunOptions::assignments(&a), &mut sim_engine::NullSink);
        assert_eq!(r1.read_series.bins(), r2.read_series.bins());
        assert_eq!(r1.pauses_total, r2.pauses_total);
        assert_eq!(r1.makespan, r2.makespan);
    }

    #[test]
    fn seeded_options_match_explicit_assignments() {
        let cfg = SystemConfig::default();
        let a = cfg.assignments(11);
        let from_seed = run_system(&cfg, RunOptions::seeded(11), &mut sim_engine::NullSink);
        let from_slice = run_system(&cfg, RunOptions::assignments(&a), &mut sim_engine::NullSink);
        assert_eq!(from_seed.makespan, from_slice.makespan);
        assert_eq!(from_seed.read_series.bins(), from_slice.read_series.bins());
    }

    #[test]
    fn traced_run_is_identical_and_deterministic() {
        use sim_engine::RingSink;
        let cfg = SystemConfig::default();
        let a = small_assignments(200, 4);
        let plain = run_system(&cfg, RunOptions::assignments(&a), &mut sim_engine::NullSink);
        let mut sink = RingSink::new(1 << 18);
        let traced = run_system(&cfg, RunOptions::assignments(&a), &mut sink);
        // A no-op sink gives the same report as a recording one.
        let nulled = run_system(&cfg, RunOptions::assignments(&a), &mut sim_engine::NullSink);
        assert_eq!(nulled.reads_completed, traced.reads_completed);
        assert_eq!(nulled.read_series.bins(), traced.read_series.bins());
        assert_eq!(nulled.makespan, traced.makespan);
        // Telemetry must not perturb the simulation.
        assert_eq!(plain.reads_completed, traced.reads_completed);
        assert_eq!(plain.writes_completed, traced.writes_completed);
        assert_eq!(plain.read_series.bins(), traced.read_series.bins());
        assert_eq!(plain.write_series.bins(), traced.write_series.bins());
        assert_eq!(plain.pauses_total, traced.pauses_total);
        assert_eq!(plain.ecn_marked, traced.ecn_marked);
        assert_eq!(plain.makespan, traced.makespan);
        let rep = sink.into_report();
        assert!(!rep.series("txq", "backlog_bytes").is_empty());
        assert!(!rep.series("ssd", "chip_util").is_empty());
        assert_eq!(rep.counter(("net", 0, "ecn_marked")), plain.ecn_marked);
        assert_eq!(
            rep.counter(("sys", 0, "reads_completed")),
            plain.reads_completed
        );
        // Same inputs: byte-identical JSON-lines export.
        let mut sink2 = RingSink::new(1 << 18);
        let _ = run_system(&cfg, RunOptions::assignments(&a), &mut sink2);
        assert_eq!(rep.to_json_lines(), sink2.into_report().to_json_lines());
    }

    #[test]
    #[should_panic(expected = "requires a trained TPM")]
    fn src_mode_needs_tpm() {
        let cfg = SystemConfig {
            mode: Mode::DcqcnSrc,
            ..SystemConfig::default()
        };
        let a = small_assignments(10, 3);
        let _ = run_system(&cfg, RunOptions::assignments(&a), &mut sim_engine::NullSink);
    }

    #[test]
    fn dropout_abandons_requests_and_counts() {
        use sim_engine::FaultEvent;
        let cfg = SystemConfig::default();
        let a = small_assignments(40, 5);
        // Target 1 is gone for the whole run; a tight budget abandons
        // everything routed there while Target 0 completes normally.
        let plan = FaultPlan::seeded(9).with(FaultEvent {
            scope: FaultScope::Target { index: 1 },
            kind: FaultKind::TargetDropout,
            start: SimTime::ZERO,
            duration: SimDuration::from_ms(10_000),
        });
        let rb = RobustnessConfig {
            timeout: SimDuration::from_us(500),
            retry_budget: 1,
            backoff_base: SimDuration::from_us(100),
        };
        let r = run_system(
            &cfg,
            RunOptions::assignments(&a).faults(&plan).robustness(rb),
            &mut sim_engine::NullSink,
        );
        assert!(r.abandoned > 0, "dropout must abandon requests");
        assert_eq!(r.abandoned, r.per_target_abandoned.iter().sum::<u64>());
        assert_eq!(r.per_target_abandoned[0], 0);
        assert!(r.availability(1) < 1.0);
        assert!((r.availability(0) - 1.0).abs() < 1e-12);
        assert!(r.timeouts >= r.abandoned);
        assert!(r.retries <= r.timeouts);
        assert_eq!(
            r.reads_completed + r.writes_completed + r.abandoned,
            a.len() as u64
        );
    }
}
