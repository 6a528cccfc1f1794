//! Structured random circuit generation and corpus mutation.
//!
//! The generator builds random sequential circuits directly on the
//! [`Circuit`] API — never through the text parsers — so every candidate is
//! well-formed by construction: the gate network is a DAG (gates only
//! reference earlier declarations) and every feedback loop passes through a
//! flip-flop (data pins are connected last, to arbitrary nets).
//!
//! Delays are drawn from a rational grid chosen to stress the sweep's
//! breakpoint arithmetic `τ = k/j`: values like 333 and 3333 milli-ticks
//! produce breakpoints with awkward denominators, while the round multiples
//! of 1000 land candidate periods exactly *on* breakpoint boundaries, where
//! off-by-one bugs in interval endpoints would hide.

use mct_netlist::{Circuit, GateKind, NetId, PinDelay, Time};
use mct_prng::SmallRng;

use crate::edit::{apply_plan, permute_registers, rename_signals, EditPlan};

/// The delay grid, in milli-ticks. A mix of breakpoint-hostile values
/// (non-divisors like 333/3333), unit multiples (exactly on breakpoints),
/// and halves/quarters.
pub const DELAY_GRID_MILLIS: &[i64] = &[
    250, 333, 500, 750, 1000, 1250, 1500, 2000, 2500, 3000, 3333, 4000, 5000,
];

/// Size limits for generated circuits. The defaults keep every candidate
/// small enough that a full analyzer run takes milliseconds, which is what
/// makes per-iteration differential checking affordable.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Inclusive upper bound on primary inputs (at least 1 is generated).
    pub max_inputs: usize,
    /// Inclusive upper bound on flip-flops (at least 1 is generated).
    pub max_dffs: usize,
    /// Inclusive upper bound on gates (at least 2 are generated).
    pub max_gates: usize,
    /// Inclusive upper bound on gate fan-in.
    pub max_fanin: usize,
    /// Bias pin delays toward the top of [`DELAY_GRID_MILLIS`]. Under
    /// bounded delay variation the per-class shift interval width scales
    /// with the delay itself, so large delays give each class several
    /// feasible shifts — the regime that exercises the Φ walk and LP
    /// coupling instead of degenerate one-combination products.
    pub wide_delays: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_inputs: 3,
            max_dffs: 6,
            max_gates: 20,
            max_fanin: 4,
            wide_delays: false,
        }
    }
}

fn grid_delay(rng: &mut SmallRng, wide: bool) -> Time {
    // Wide mode keeps a 1-in-4 draw from the full grid so small delays
    // (and their awkward breakpoints) still appear.
    let lo = if wide && rng.gen_range(0..4usize) != 0 {
        DELAY_GRID_MILLIS.len() / 2
    } else {
        0
    };
    Time::from_millis(DELAY_GRID_MILLIS[rng.gen_range(lo..DELAY_GRID_MILLIS.len())])
}

fn pin_delay(rng: &mut SmallRng, wide: bool) -> PinDelay {
    let rise = grid_delay(rng, wide);
    if rng.gen_range(0..4usize) == 0 {
        // Rise/fall-asymmetric pin: the transition-delay machinery must
        // track both edges separately.
        PinDelay::new(rise, grid_delay(rng, wide))
    } else {
        PinDelay::symmetric(rise)
    }
}

const GATE_KINDS: &[GateKind] = &[
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Not,
    GateKind::Buf,
];

/// Generates a random well-formed sequential circuit named `fuzz-<tag>`.
pub fn random_circuit(rng: &mut SmallRng, cfg: &GenConfig, tag: u64) -> Circuit {
    let mut c = Circuit::new(format!("fuzz-{tag}"));
    let n_inputs = rng.gen_range(1..=cfg.max_inputs.max(1));
    let n_dffs = rng.gen_range(1..=cfg.max_dffs.max(1));
    let n_gates = rng.gen_range(2..=cfg.max_gates.max(2));

    let mut pool: Vec<NetId> = Vec::new();
    for i in 0..n_inputs {
        pool.push(c.add_input(format!("in{i}")));
    }
    for i in 0..n_dffs {
        let c2q = Time::from_millis([0, 250, 500][rng.gen_range(0..3usize)]);
        pool.push(c.add_dff(format!("q{i}"), rng.gen_bool(), c2q));
    }
    let mut gates: Vec<NetId> = Vec::new();
    for i in 0..n_gates {
        let kind = GATE_KINDS[rng.gen_range(0..GATE_KINDS.len())];
        let fanin = if matches!(kind, GateKind::Not | GateKind::Buf) {
            1
        } else {
            rng.gen_range(2..=cfg.max_fanin.max(2))
        };
        let pins: Vec<NetId> = (0..fanin)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        let delays: Vec<PinDelay> = (0..fanin)
            .map(|_| pin_delay(rng, cfg.wide_delays))
            .collect();
        let g = c.add_gate_with_delays(format!("g{i}"), kind, &pins, delays);
        pool.push(g);
        gates.push(g);
    }
    // Feedback: each register samples a random net — preferentially a gate,
    // so most loops exercise real combinational logic.
    for i in 0..n_dffs {
        let src = if !gates.is_empty() && rng.gen_range(0..8usize) != 0 {
            gates[rng.gen_range(0..gates.len())]
        } else {
            pool[rng.gen_range(0..pool.len())]
        };
        c.connect_dff_data(&format!("q{i}"), src)
            .expect("fresh dff");
    }
    let n_outputs = rng.gen_range(1..=2usize);
    for _ in 0..n_outputs {
        c.set_output(pool[rng.gen_range(0..pool.len())]);
    }
    debug_assert!(c.validate().is_ok());
    c
}

/// Mutates an existing circuit: perturb delays, splice a gate out, convert
/// a register to an input, rename signals, or permute leaf declarations.
/// Falls back to delay perturbation when a structural edit fails validation.
pub fn mutate_circuit(base: &Circuit, rng: &mut SmallRng, tag: u64) -> Circuit {
    let mut out = match rng.gen_range(0..5usize) {
        // Splice a random gate out of the network.
        1 if base.num_gates() > 1 => {
            let gates = base.gates();
            let victim = gates[rng.gen_range(0..gates.len())];
            let plan = EditPlan {
                splice: [victim.index()].into(),
                ..EditPlan::default()
            };
            apply_plan(base, &plan)
        }
        // Convert a random flip-flop into a primary input.
        2 if base.num_dffs() > 1 => {
            let dffs = base.dffs();
            let victim = dffs[rng.gen_range(0..dffs.len())];
            let plan = EditPlan {
                inputize: [victim.index()].into(),
                ..EditPlan::default()
            };
            apply_plan(base, &plan)
        }
        // Deterministic rename of every signal.
        3 => rename_signals(base, |_, i| format!("m{tag}_{i}")),
        // Random permutation of the register declaration order.
        4 => {
            let n = base.num_dffs();
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            permute_registers(base, &perm)
        }
        _ => None,
    }
    .unwrap_or_else(|| base.clone());
    perturb_delays(&mut out, rng);
    out.set_name(format!("fuzz-{tag}"));
    out
}

/// Re-draws roughly a quarter of the pin delays (and occasionally a
/// clock-to-Q) from the grid, in place.
pub fn perturb_delays(c: &mut Circuit, rng: &mut SmallRng) {
    for id in c.gates() {
        let fanin = match c.node(id) {
            mct_netlist::Node::Gate { inputs, .. } => inputs.len(),
            _ => unreachable!("gates() returned a non-gate"),
        };
        for p in 0..fanin {
            if rng.gen_range(0..4usize) == 0 {
                let d = pin_delay(rng, false);
                c.set_gate_pin_delay(id, p, d).expect("pin in range");
            }
        }
    }
    for id in c.dffs() {
        if rng.gen_range(0..8usize) == 0 {
            let c2q = Time::from_millis([0, 250, 500][rng.gen_range(0..3usize)]);
            c.set_dff_clock_to_q(id, c2q).expect("dff id");
        }
    }
}
