//! The fault plan's clock both simulators share.
//!
//! A [`FaultPlan`] decides every injected fault by a pure hash, but three
//! of its schedules run on the clock: node and rack crashes, rack
//! partitions and checkpoint-store leaks each tick once per window of sim
//! time. [`FaultClock`] holds the plan and the one piece of state those
//! ticks keep (the rack a partition isolates now), and the provided
//! methods of [`FaultHost`] run the tick chains: which chains a plan
//! starts, the crash-oracle sweep over the nodes that are up, the
//! partition's start/end records and its heal once the workload drains,
//! and a crashed node's return. A simulator implements [`FaultHost`] with
//! only what differs between them: how a node crashes, what it does after
//! a tick and how it tells that work remains.

use cbp_faults::FaultPlan;
use cbp_simkit::{EventQueue, SimTime};
use cbp_telemetry::{TraceRecord, TraceSink};

use crate::ckpt_path::CkptPath;

/// One tick of the fault plan's schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTick {
    /// Window boundary of the crash schedule: evaluate the stateless
    /// crash oracle for every up node (and its rack).
    Crash,
    /// Window boundary of the partition schedule: start or heal the rack
    /// partition the stateless oracle dictates.
    Partition,
    /// Window boundary of the pressure plan's leak schedule: reserve
    /// checkpoint-device bytes that no live image owns on the nodes the
    /// leak oracle picks (orphaned dump directories a real NodeManager
    /// forgets to clean up).
    Pressure,
    /// A crashed node comes back into service and its datanode
    /// re-registers (separate from any other failure model's recovery, so
    /// that model's own chain stays untouched).
    Recover(u32),
}

impl FaultTick {
    /// The tick's event-kind name, as the engine's observers see it.
    pub fn kind(self) -> &'static str {
        match self {
            FaultTick::Crash => "chaos_crash_tick",
            FaultTick::Partition => "chaos_partition_tick",
            FaultTick::Pressure => "pressure_tick",
            FaultTick::Recover(_) => "chaos_recover",
        }
    }
}

/// The fault plan (absent when injection is off) and where the run is in
/// its schedules.
#[derive(Debug)]
pub struct FaultClock {
    plan: Option<FaultPlan>,
    nodes: usize,
    /// The cluster's rack count under the plan's rack size.
    racks: u32,
    /// The rack a partition isolates now.
    partition: Option<u32>,
}

impl FaultClock {
    /// A clock for `plan` on a cluster of `nodes` nodes.
    pub fn new(plan: Option<FaultPlan>, nodes: usize) -> Self {
        let racks = match (&plan, nodes) {
            (Some(plan), n) if n > 0 => plan.rack_of(n as u32 - 1) + 1,
            _ => 0,
        };
        FaultClock {
            plan,
            nodes,
            racks,
            partition: None,
        }
    }

    /// The plan. Every decision it makes is a pure hash of (plan seed,
    /// identity), so an inert plan perturbs nothing and the same plan
    /// replays identically.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Partition multiplier for checkpoint I/O touching `node`: the plan's
    /// penalty while a partition isolates `node`'s rack, else 1. The DFS
    /// write pipeline and remote reads cross the partition boundary, so
    /// transfers and every cost estimator apply the same factor.
    pub fn partition_factor(&self, node: usize) -> f64 {
        match (&self.plan, self.partition) {
            (Some(plan), Some(rack)) if plan.rack_of(node as u32) == rack => {
                plan.partition().map_or(1.0, |p| p.penalty)
            }
            _ => 1.0,
        }
    }

    /// Slowdown of checkpoint I/O touching `node` at `now`: the plan's
    /// stall window on the node's device times the partition penalty (1
    /// without a plan, or while the node is healthy).
    pub(crate) fn device_factor(&self, node: usize, now: SimTime) -> f64 {
        let Some(plan) = &self.plan else {
            return 1.0;
        };
        plan.device_factor(node as u32, now) * self.partition_factor(node)
    }
}

/// A simulator the [`FaultClock`] drives. The required methods are what
/// differs between the simulators; the provided ones are the clock.
pub trait FaultHost {
    /// The simulator's event type.
    type Event;

    /// Wraps `tick` in the simulator's event type.
    fn fault_event(tick: FaultTick) -> Self::Event;

    /// The fault clock, the checkpoint path and the trace sink, borrowed
    /// together.
    fn fault_parts(&mut self) -> (&mut FaultClock, &mut CkptPath, &mut TraceSink);

    /// Whether `node` is in service.
    fn node_up(&mut self, node: usize) -> &mut bool;

    /// Crashes `node`: every container on it is lost.
    fn crash(&mut self, node: usize, now: SimTime, q: &mut EventQueue<Self::Event>);

    /// True while the workload has work left. The tick chains stop once
    /// it is false, else they would keep the run alive forever.
    fn work_remains(&self) -> bool;

    /// Reacts to a crash tick (after every crash it caused) or to a
    /// node's return.
    fn follow_up(&mut self, after: FaultTick, now: SimTime, q: &mut EventQueue<Self::Event>);

    /// Pushes the first tick of every chain the plan starts, at time zero:
    /// crash, then partition, then pressure (the queue breaks ties
    /// between same-time events by insertion order).
    fn start_fault_clock(&mut self, q: &mut EventQueue<Self::Event>) {
        let Some(plan) = self.fault_parts().0.plan() else {
            return;
        };
        let chains = [
            (plan.crash().is_some(), FaultTick::Crash),
            (plan.partition().is_some(), FaultTick::Partition),
            (
                plan.pressure().is_some_and(|p| p.leak_prob > 0.0),
                FaultTick::Pressure,
            ),
        ];
        for (starts, tick) in chains {
            if starts {
                q.push(SimTime::ZERO, Self::fault_event(tick));
            }
        }
    }

    /// Handles one fault tick at `now`.
    fn on_fault_tick(&mut self, tick: FaultTick, now: SimTime, q: &mut EventQueue<Self::Event>) {
        match tick {
            FaultTick::Crash => {
                // One stateless oracle evaluation per window: which up
                // nodes crash in the window starting now?
                let nodes = self.fault_parts().0.nodes;
                let up: Vec<bool> = (0..nodes).map(|i| *self.node_up(i)).collect();
                let (window, downtime, crashed) = {
                    let Some(plan) = self.fault_parts().0.plan() else {
                        return;
                    };
                    let Some(c) = plan.crash() else { return };
                    let widx = now.as_micros() / c.window.as_micros().max(1);
                    let crashed: Vec<usize> = (0..nodes)
                        .filter(|&i| up[i] && plan.node_crashes(i as u32, widx))
                        .collect();
                    (c.window, c.downtime, crashed)
                };
                for node in crashed {
                    self.crash(node, now, q);
                    // Parse-time validation guarantees downtime < window,
                    // so the node is back before its next crash draw.
                    q.push(
                        now + downtime,
                        Self::fault_event(FaultTick::Recover(node as u32)),
                    );
                }
                if self.work_remains() {
                    q.push(now + window, Self::fault_event(FaultTick::Crash));
                }
                self.follow_up(tick, now, q);
            }
            FaultTick::Partition => {
                let more = self.work_remains();
                let (clock, _, trace) = self.fault_parts();
                let Some(plan) = &clock.plan else { return };
                let Some(p) = plan.partition() else { return };
                let widx = now.as_micros() / p.window.as_micros().max(1);
                let next = plan.partition_isolates(widx, clock.racks);
                let window = p.window;
                if next != clock.partition {
                    if trace.on() {
                        if let Some(rack) = clock.partition {
                            trace.record(now.as_micros(), TraceRecord::PartitionEnd { rack });
                        }
                        if let Some(rack) = next {
                            trace.record(now.as_micros(), TraceRecord::PartitionStart { rack });
                        }
                    }
                    clock.partition = next;
                }
                if more {
                    q.push(now + window, Self::fault_event(tick));
                } else if let Some(rack) = clock.partition.take() {
                    // Heal the partition when the schedule winds down so
                    // the trace's start/end records tile.
                    trace.record(now.as_micros(), TraceRecord::PartitionEnd { rack });
                }
            }
            FaultTick::Pressure => {
                let nodes = self.fault_parts().0.nodes;
                let up: Vec<bool> = (0..nodes).map(|i| *self.node_up(i)).collect();
                let (clock, ckpt, _) = self.fault_parts();
                let Some(plan) = &clock.plan else { return };
                let Some(window) = ckpt.pressure_tick(plan, now, &|i| up[i]) else {
                    return;
                };
                if self.work_remains() {
                    q.push(now + window, Self::fault_event(tick));
                }
            }
            FaultTick::Recover(node) => {
                let up = self.node_up(node as usize);
                if *up {
                    return; // stale (never expected, but harmless)
                }
                *up = true;
                let (_, ckpt, trace) = self.fault_parts();
                // Re-registration: the datanode rejoins empty (its blocks
                // were re-replicated or lost at crash time).
                ckpt.recover_datanode(node as usize);
                trace.record(now.as_micros(), TraceRecord::NodeUp { node });
                self.follow_up(tick, now, q);
            }
        }
    }
}
