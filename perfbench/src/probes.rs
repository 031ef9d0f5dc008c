//! Isolated layer probes, each timed from outside around public calls:
//! the steady-state interpreter and the event queue's hold model.

use crate::report::Report;
use crate::stats::median;
use crate::sys;
use retry::{Dur, Time};
use simgrid::{EventQueue, SimRng};
use std::hint::black_box;
use std::time::Instant;

/// A control-and-variable-heavy script re-run under a bounded retry
/// loop with instant virtual completions. It isolates statement
/// interpretation from command dispatch (the `figures --stats`
/// steady-interpreter workload).
pub fn vm_steady_source() -> String {
    let body = "  a=${b}\n  if ${a} .eql. base\n    c=${a}${b}\n  else\n    c=err\n  end\n  forany v in ${a} ${c}\n    d=${v}\n  end\n  e=${d}\n"
        .repeat(64);
    format!("b=base\ntry 2000 times every 1 ms\n{body}  failure\nend\n")
}

/// One run of the steady script on the default backend: `(ticks,
/// seconds, allocations)`.
fn vm_steady_leg(script: &ftsh::Script) -> (u64, f64, u64) {
    use ftsh::vm::{CmdResult, Effect, VmStatus};
    let mut vm = ftsh::Vm::with_env_seed(script, ftsh::Env::new(), 7);
    vm.set_log_detail(false);
    let mut now = Time::ZERO;
    let mut ticks = 0u64;
    let mut effects = Vec::new();
    let a0 = sys::allocs();
    let start = Instant::now();
    loop {
        ticks += 1;
        let status = vm.tick_into(now, &mut effects);
        for e in effects.drain(..) {
            if let Effect::Start { token, .. } = e {
                vm.complete(token, CmdResult::fail());
            }
        }
        match status {
            VmStatus::Done { .. } => break,
            VmStatus::Running { next_wake } => {
                if let Some(w) = next_wake {
                    now = now.max(w);
                }
            }
        }
    }
    (ticks, start.elapsed().as_secs_f64(), sys::allocs() - a0)
}

/// `ftsh.vm.*`: ticks per second (median of three runs after a warm-up)
/// and allocations per tick.
pub fn vm_probe(r: &mut Report) {
    let script = ftsh::parse(&vm_steady_source()).expect("steady workload parses");
    let _ = vm_steady_leg(&script);
    let legs: Vec<(u64, f64, u64)> = (0..3).map(|_| vm_steady_leg(&script)).collect();
    let rates: Vec<f64> = legs.iter().map(|&(t, s, _)| t as f64 / s).collect();
    let (ticks, allocs) = legs
        .iter()
        .fold((0, 0), |(t, a), &(lt, _, la)| (t + lt, a + la));
    r.check(legs.iter().all(|l| l.0 == legs[0].0), || {
        "vm probe: tick count differs between identical runs".into()
    });
    r.metric("ftsh.vm.ticks_per_s", "1/s", median(&rates));
    r.metric(
        "ftsh.vm.allocs_per_tick",
        "allocs/tick",
        allocs as f64 / ticks as f64,
    );
    r.info("ftsh.vm.ticks", "count", legs[0].0 as f64);
}

/// Mean ns per hold operation (pop the earliest event, schedule one a
/// random delay later) on a queue holding `pending` events keyed like
/// a client population.
fn hold_ns(pending: usize, ops: usize, seed: u64) -> (f64, u64) {
    let mut rng = SimRng::new(seed);
    let mut q: EventQueue<usize> = EventQueue::new();
    for c in 0..pending {
        q.schedule_keyed(
            c,
            Time::ZERO + Dur::from_micros(rng.range_u64(0, 10_000_000)),
            c,
        );
    }
    let delays: Vec<Dur> = (0..4096)
        .map(|_| Dur::from_micros(rng.range_u64(1, 10_000_000)))
        .collect();
    let start = Instant::now();
    for i in 0..ops {
        let (_, c) = q.pop().expect("the hold model keeps the queue full");
        q.schedule_in_keyed(c, delays[i & 4095], black_box(c));
    }
    let ns = start.elapsed().as_nanos() as f64 / ops as f64;
    (ns, q.popped())
}

/// `simgrid.queue.hold_ns.{small,large}`: the hold model at ~500 and
/// ~30k pending events, median of three runs each.
pub fn queue_probe(r: &mut Report, seed: u64) {
    for (label, pending, ops) in [("small", 500, 400_000), ("large", 30_000, 400_000)] {
        let runs: Vec<(f64, u64)> = (0..3).map(|i| hold_ns(pending, ops, seed ^ i)).collect();
        r.check(runs.iter().all(|&(_, p)| p == ops as u64), || {
            format!("queue probe {label}: pop count is off")
        });
        let ns: Vec<f64> = runs.iter().map(|&(ns, _)| ns).collect();
        r.metric(format!("simgrid.queue.hold_ns.{label}"), "ns", median(&ns));
    }
}
