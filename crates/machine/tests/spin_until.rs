//! Differential identity of `Step::SpinUntil`: a producer/consumer program
//! that spins through `SpinUntil` must run exactly like the same program
//! spelling its spin loop out in `SpinLoad`/`SpinWait` steps — equal
//! `RunStats` (events, cycles, per-node buckets, cache hits), equal
//! master memory and, under the full correctness harness, an equal
//! SC-oracle log with one record per poll.

use std::any::Any;

use commsense_cache::{Heap, LineHandle, Word};
use commsense_machine::program::{HandlerCtx, NodeCtx, Program, RmwOp, SpinExit, Step};
use commsense_machine::{
    CheckConfig, LatencyEmulation, Machine, MachineConfig, MachineSpec, Mechanism,
};
use commsense_mesh::CrossTrafficConfig;
use commsense_msgpass::{ActiveMessage, HandlerId};

const NODES: usize = 4;
const ROWS: usize = 24;
/// Backoff between polls. A cache hit is one cycle, so a spin advances in
/// periods of `HIT + BACKOFF` cycles.
const BACKOFF: u64 = 5;
const HIT: u64 = 1;
const NOTE: u16 = 1;

/// Row `r` is spun on by its owner and contributed to by every other node.
fn owner(r: usize) -> usize {
    r % NODES
}

/// Where row `r`'s line lives: at the owner for some rows (polls hit a
/// local line), elsewhere for the rest (polls miss remotely).
fn home(r: usize) -> usize {
    (r * 3) % NODES
}

/// Contributions row `r` waits for. Every fifth row waits for none, so its
/// spin exits on the first poll.
fn contributions(r: usize) -> usize {
    if r % 5 == 3 {
        0
    } else {
        NODES - 1
    }
}

/// Cycles producer `p` computes before contributing to row `r`: long
/// against the batch budget, so a consumer spins through several batches.
fn delay(p: usize, r: usize) -> u64 {
    40 + 37 * ((p * 7 + r * 13) % 11) as u64
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum At {
    /// Start the current row.
    Row,
    /// Consumer: the warm-up load of the row's accumulator returned.
    Warmed,
    /// Consumer: start spinning.
    Spin,
    /// Hand-written loop: a poll returned; check it.
    Check,
    /// Hand-written loop: the backoff elapsed; poll again.
    Backoff,
    /// Consumer: the spin ended; read the accumulator.
    Read,
    /// Consumer: the accumulator returned; drain messages.
    Drain,
    /// Producer: computed; contribute.
    Contribute,
    /// Producer: contributed; notify the owner.
    Notify,
    /// Move to the next row.
    Next,
}

struct ProdCons {
    node: usize,
    rows: LineHandle,
    native: bool,
    /// Cycles the consumer computes between its warm-up load and its spin:
    /// where in the batch budget the spin starts.
    offset: u64,
    row: usize,
    at: At,
    /// Accumulator values the consumer read, one per owned row.
    seen: Vec<f64>,
    notes: u64,
}

impl ProdCons {
    fn counter(&self) -> Word {
        self.rows.word(self.row, 1)
    }
}

impl Program for ProdCons {
    fn resume(&mut self, ctx: &mut NodeCtx) -> Step {
        loop {
            match self.at {
                At::Row => {
                    if self.row == ROWS {
                        return Step::Done;
                    }
                    if owner(self.row) == self.node {
                        if self.row % 2 == 0 {
                            // Bring the line into the cache first: the
                            // spin's first poll hits, and the batch it
                            // starts in begins at the load's completion.
                            self.at = At::Warmed;
                            return Step::Load(self.rows.word(self.row, 0));
                        }
                        self.at = At::Spin;
                    } else if contributions(self.row) > 0 {
                        self.at = At::Contribute;
                        return Step::Compute(delay(self.node, self.row));
                    } else {
                        self.at = At::Next;
                    }
                }
                At::Warmed => {
                    self.at = At::Spin;
                    return Step::Compute(self.offset);
                }
                At::Spin => {
                    if self.native {
                        self.at = At::Read;
                        return Step::SpinUntil {
                            word: self.counter(),
                            backoff: BACKOFF,
                            until: SpinExit::AtMost(0.0),
                        };
                    }
                    self.at = At::Check;
                    return Step::SpinLoad(self.counter());
                }
                At::Check => {
                    // The exit spelled out, independent of `SpinExit`.
                    if ctx.loaded <= 0.0 {
                        self.at = At::Read;
                    } else {
                        self.at = At::Backoff;
                        return Step::SpinWait(BACKOFF);
                    }
                }
                At::Backoff => {
                    self.at = At::Check;
                    return Step::SpinLoad(self.counter());
                }
                At::Read => {
                    assert!(ctx.loaded <= 0.0, "spin resumed before its exit");
                    self.at = At::Drain;
                    return Step::Load(self.rows.word(self.row, 0));
                }
                At::Drain => {
                    self.seen.push(ctx.loaded);
                    self.at = At::Next;
                    return Step::Poll;
                }
                At::Contribute => {
                    self.at = At::Notify;
                    return Step::Rmw(
                        self.rows.line(self.row),
                        RmwOp::SubW0DecW1((self.node * 100 + self.row) as f64),
                    );
                }
                At::Notify => {
                    self.at = At::Next;
                    let to = owner(self.row);
                    return Step::Send(ActiveMessage::new(
                        to,
                        HandlerId(NOTE),
                        vec![self.row as u64],
                    ));
                }
                At::Next => {
                    self.row += 1;
                    self.at = At::Row;
                }
            }
        }
    }

    fn on_message(&mut self, _h: u16, _a: &[u64], _b: &[u64], ctx: &mut HandlerCtx) {
        // Interrupts land between batches, in the middle of spins.
        self.notes += 1;
        ctx.charge(7);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn machine(cfg: &MachineConfig, native: bool, offset: u64) -> Machine {
    let mut heap = Heap::new(NODES);
    let rows = heap.alloc(ROWS, home);
    let mut initial = vec![0.0; heap.total_words()];
    for r in 0..ROWS {
        initial[rows.word(r, 0).flat_index()] = 1000.0 + r as f64;
        initial[rows.word(r, 1).flat_index()] = contributions(r) as f64;
    }
    let programs: Vec<Box<dyn Program>> = (0..NODES)
        .map(|node| {
            Box::new(ProdCons {
                node,
                rows,
                native,
                offset,
                row: 0,
                at: At::Row,
                seen: Vec::new(),
                notes: 0,
            }) as Box<dyn Program>
        })
        .collect();
    Machine::new(
        cfg.clone(),
        MachineSpec {
            heap,
            initial,
            programs,
        },
    )
}

/// Everything a run produces that must not depend on how the spin is
/// written.
fn run(cfg: &MachineConfig, native: bool, offset: u64) -> String {
    let mut m = machine(cfg, native, offset);
    let stats = m.run();
    let oracle = m.oracle_log().map(|log| format!("{:?}", log.events()));
    let master = m.master().to_vec();
    let finals: Vec<(Vec<f64>, u64)> = m
        .into_programs()
        .iter()
        .map(|p| {
            let p = p.as_any().downcast_ref::<ProdCons>().expect("ProdCons");
            (p.seen.clone(), p.notes)
        })
        .collect();
    format!("{stats:?}\n{master:?}\n{finals:?}\n{oracle:?}")
}

fn configs() -> Vec<(&'static str, MachineConfig)> {
    let base = MachineConfig::tiny();
    let mut emu = base.clone();
    emu.latency_emulation = Some(LatencyEmulation::uniform(200));
    let mut cross = base.clone();
    cross.cross_traffic = Some(CrossTrafficConfig::consuming(
        2.0,
        cross.clock(),
        64,
        cross.net.topo.build().io_streams(),
    ));
    let mut checked = base.clone();
    checked.check = Some(CheckConfig::full());
    let mut checked_emu = emu.clone();
    checked_emu.check = Some(CheckConfig::full());
    vec![
        ("base", base),
        ("latency-emulation", emu),
        ("cross-traffic", cross),
        ("checked", checked),
        ("checked-latency-emulation", checked_emu),
    ]
}

/// Sweeping the spin's start offset over one full `HIT + BACKOFF` period
/// puts the batch budget at every phase of the poll/backoff cycle: for one
/// offset a warmed spin's first batch ends exactly on the budget after a
/// poll, for another exactly after a backoff (whatever the budget is, as
/// long as it exceeds one period). The odd rows' first polls miss and
/// block; every fifth row exits on its first poll.
#[test]
fn spin_until_is_identical_to_the_hand_written_loop() {
    for mech in Mechanism::ALL {
        for (label, cfg) in configs() {
            let cfg = cfg.with_mechanism(mech);
            for offset in 1..=HIT + BACKOFF {
                let native = run(&cfg, true, offset);
                let looped = run(&cfg, false, offset);
                assert_eq!(
                    native, looped,
                    "{mech} / {label} / offset {offset}: SpinUntil diverged"
                );
            }
        }
    }
}

/// The programs really do spin and really are checked: polls outnumber
/// rows many times over, and the oracle log holds a record per poll.
#[test]
fn the_differential_program_spins_under_the_oracle() {
    let mut cfg = MachineConfig::tiny().with_mechanism(Mechanism::SharedMem);
    cfg.check = Some(CheckConfig::full());
    let mut m = machine(&cfg, true, 1);
    m.run();
    let log = m.oracle_log().expect("oracle on");
    let counter_reads = log
        .events()
        .iter()
        .filter(|e| {
            matches!(e.op, commsense_machine::oracle::OracleOp::Read { word, .. }
                if word % 2 == 1)
        })
        .count();
    assert!(
        counter_reads > 10 * ROWS,
        "expected long spins, got {counter_reads} counter polls for {ROWS} rows"
    );
}
