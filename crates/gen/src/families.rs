//! Parameterized FSM families.
//!
//! Each generator plants a specific structural mechanism from the paper's
//! analysis, so the benchmark suite can reproduce the *shape* of its
//! Table 1 without the original ISCAS'89 netlists:
//!
//! | family | mechanism | expected delay relations |
//! |---|---|---|
//! | [`toggler`], [`ring_counter`], [`johnson_counter`], [`lfsr`], [`binary_counter`], [`random_fsm`] | none (neutral) | MCT ≈ floating ≈ topological |
//! | [`periodic_slack`] | the Figure-2 pattern: a redundant long path cancelled by the *periodicity* of the state sequence | MCT < floating < topological |
//! | [`unreachable_slack`] | a long path sensitized only from *unreachable* states | MCT < floating = topological (the paper's `‡` rows) |
//! | [`comb_false_path`] | a statically false long path | MCT = floating < topological (the paper's `§` rows) |
//! | [`deep_false_path`] | extreme unreachable slack | MCT < topological / 4 (the paper's s38584 row) |
//! | [`skew_ring`], [`skew_pipeline`] | unbalanced loop stages whose slack moves under intentional clock skew | skew-optimal MCT < zero-skew MCT by an exact margin |

use mct_netlist::{Circuit, GateKind, NetId, Time};
use mct_prng::SmallRng;

fn t(v: f64) -> Time {
    Time::from_f64(v)
}

/// A single inverter loop: `q' = ¬q` with the given gate delay.
pub fn toggler(delay: Time) -> Circuit {
    let mut c = Circuit::new("toggler");
    let q = c.add_dff("q", false, Time::ZERO);
    let nq = c.add_gate("nq", GateKind::Not, &[q], delay);
    c.connect_dff_data("q", nq).unwrap();
    c.set_output(q);
    c
}

/// A one-hot ring counter: bit 0 initialized to 1, each bit a buffered copy
/// of its predecessor.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn ring_counter(bits: usize, delay: Time) -> Circuit {
    assert!(bits > 0, "need at least one bit");
    let mut c = Circuit::new("ring");
    let qs: Vec<NetId> = (0..bits)
        .map(|i| c.add_dff(format!("q{i}"), i == 0, Time::ZERO))
        .collect();
    for i in 0..bits {
        let from = qs[(i + bits - 1) % bits];
        let b = c.add_gate(format!("b{i}"), GateKind::Buf, &[from], delay);
        c.connect_dff_data(&format!("q{i}"), b).unwrap();
    }
    c.set_output(qs[bits - 1]);
    c
}

/// A Johnson (twisted-ring) counter: like the ring but the feedback is
/// inverted, visiting `2·bits` of the `2^bits` states.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn johnson_counter(bits: usize, delay: Time) -> Circuit {
    assert!(bits > 0, "need at least one bit");
    let mut c = Circuit::new("johnson");
    let qs: Vec<NetId> = (0..bits)
        .map(|i| c.add_dff(format!("q{i}"), false, Time::ZERO))
        .collect();
    let nlast = c.add_gate("twist", GateKind::Not, &[qs[bits - 1]], delay);
    c.connect_dff_data("q0", nlast).unwrap();
    for i in 1..bits {
        let b = c.add_gate(format!("b{i}"), GateKind::Buf, &[qs[i - 1]], delay);
        c.connect_dff_data(&format!("q{i}"), b).unwrap();
    }
    c.set_output(qs[bits - 1]);
    c
}

/// A Fibonacci LFSR with the given feedback taps (bit indices).
///
/// # Panics
///
/// Panics if `bits == 0`, `taps` is empty, or a tap is out of range.
pub fn lfsr(bits: usize, taps: &[usize], delay: Time) -> Circuit {
    assert!(bits > 0 && !taps.is_empty(), "need bits and taps");
    assert!(taps.iter().all(|&tp| tp < bits), "tap out of range");
    let mut c = Circuit::new("lfsr");
    let qs: Vec<NetId> = (0..bits)
        .map(|i| c.add_dff(format!("q{i}"), i == 0, Time::ZERO))
        .collect();
    let tap_nets: Vec<NetId> = taps.iter().map(|&tp| qs[tp]).collect();
    let feedback = if tap_nets.len() == 1 {
        c.add_gate("fb", GateKind::Buf, &[tap_nets[0]], delay)
    } else {
        c.add_gate("fb", GateKind::Xor, &tap_nets, delay)
    };
    c.connect_dff_data("q0", feedback).unwrap();
    for i in 1..bits {
        let b = c.add_gate(format!("sh{i}"), GateKind::Buf, &[qs[i - 1]], delay);
        c.connect_dff_data(&format!("q{i}"), b).unwrap();
    }
    c.set_output(qs[bits - 1]);
    c
}

/// A binary ripple-carry up-counter with enable input: bit `i` toggles when
/// all lower bits (and the enable) are 1. The carry chain gives genuinely
/// sensitizable long paths, so every delay metric coincides.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn binary_counter(bits: usize, stage_delay: Time) -> Circuit {
    assert!(bits > 0, "need at least one bit");
    let mut c = Circuit::new("counter");
    let en = c.add_input("en");
    let qs: Vec<NetId> = (0..bits)
        .map(|i| c.add_dff(format!("q{i}"), false, Time::ZERO))
        .collect();
    let mut carry = en;
    for (i, &q) in qs.iter().enumerate() {
        let nx = c.add_gate(format!("nx{i}"), GateKind::Xor, &[q, carry], stage_delay);
        c.connect_dff_data(&format!("q{i}"), nx).unwrap();
        if i + 1 < bits {
            carry = c.add_gate(format!("cy{i}"), GateKind::And, &[carry, q], stage_delay);
        }
    }
    c.set_output(qs[bits - 1]);
    c
}

/// A deterministic random FSM: `gates` random 2-input gates over the
/// registers and inputs, with the last `state_bits` gate outputs feeding the
/// registers. Delays are random multiples of 0.1 units. Neutral with high
/// probability.
///
/// # Panics
///
/// Panics if `state_bits == 0` or `gates < state_bits`.
pub fn random_fsm(seed: u64, state_bits: usize, input_bits: usize, gates: usize) -> Circuit {
    assert!(state_bits > 0, "need at least one state bit");
    assert!(gates >= state_bits, "need at least one gate per state bit");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut c = Circuit::new(format!("rand{seed}"));
    let mut nets: Vec<NetId> = Vec::new();
    for i in 0..input_bits {
        nets.push(c.add_input(format!("in{i}")));
    }
    for i in 0..state_bits {
        nets.push(c.add_dff(format!("q{i}"), rng.gen_bool(), Time::ZERO));
    }
    let kinds = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
    ];
    for g in 0..gates {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let a = nets[rng.gen_range(0..nets.len())];
        let inputs: Vec<NetId> = if kind.max_inputs() == Some(1) {
            vec![a]
        } else {
            vec![a, nets[rng.gen_range(0..nets.len())]]
        };
        let delay = Time::from_millis(rng.gen_range(1..=20i64) * 100);
        nets.push(c.add_gate(format!("g{g}"), kind, &inputs, delay));
    }
    for i in 0..state_bits {
        let src = nets[nets.len() - 1 - (i % state_bits.min(8))];
        c.connect_dff_data(&format!("q{i}"), src).unwrap();
    }
    c.set_output(*nets.last().expect("nonempty"));
    c
}

/// The Figure-2 *periodicity* pattern planted on a toggler, composed with a
/// fast ring counter for bulk: the toggler's next-state function is
/// `¬q ∨ (q(d1)·q̄(d2)·q(d3))` with `d1 < d2 < d3`. The product term is
/// identically zero in steady state, the floating delay is `d2`, the
/// topological delay `d3`, and the exact minimum cycle time sits near
/// `d3/2` — strictly below the floating delay.
///
/// With the paper's `(1.5, 4, 5)` (and `base_bits = 0` extras) this *is*
/// Figure 2.
///
/// # Panics
///
/// Panics unless `d1 < d2 < d3`.
pub fn periodic_slack(d1: Time, d2: Time, d3: Time, base_bits: usize) -> Circuit {
    assert!(d1 < d2 && d2 < d3, "delays must be ascending");
    let mut c = Circuit::new("periodic_slack");
    let q = c.add_dff("q", true, Time::ZERO);
    let c1 = c.add_gate("c1", GateKind::Buf, &[q], d1);
    let c2 = c.add_gate("c2", GateKind::Not, &[q], d2);
    let c3 = c.add_gate("c3", GateKind::Buf, &[q], d3);
    let prod = c.add_gate("prod", GateKind::And, &[c1, c2, c3], Time::ZERO);
    let nq = c.add_gate("nq", GateKind::Not, &[q], d1.min(t(1.0)).max(t(0.5)));
    let nx = c.add_gate("nx", GateKind::Or, &[prod, nq], Time::ZERO);
    c.connect_dff_data("q", nx).unwrap();
    c.set_output(q);
    // Bulk: an independent fast ring.
    let ring_delay = t(0.5);
    let qs: Vec<NetId> = (0..base_bits)
        .map(|i| c.add_dff(format!("r{i}"), i == 0, Time::ZERO))
        .collect();
    for i in 0..base_bits {
        let from = qs[(i + base_bits - 1) % base_bits];
        let b = c.add_gate(format!("rb{i}"), GateKind::Buf, &[from], ring_delay);
        c.connect_dff_data(&format!("r{i}"), b).unwrap();
    }
    if let Some(&last) = qs.last() {
        c.set_output(last);
    }
    c
}

/// The *reachability* pattern: a `bits`-wide one-hot rotator whose last
/// next-state function carries a trap term `q0 ∧ q1 ∧ slow(q_{bits−1})`
/// (XOR-ed in). The condition `q0 ∧ q1` never holds one-hot, so the slow
/// path of delay `d_long` is sequentially false — but it *is* floating-mode
/// sensitizable, making the floating delay equal the topological delay
/// while the true minimum cycle time is set by the base delay `d_base`.
/// This is the paper's `‡`-row shape (e.g. s526: 22.5 → 18.4).
///
/// # Panics
///
/// Panics unless `bits ≥ 3` and `d_base < d_long`.
pub fn unreachable_slack(bits: usize, d_base: Time, d_long: Time) -> Circuit {
    assert!(bits >= 3, "need at least three bits for the rotator");
    assert!(d_base < d_long, "the trap path must be the longest");
    let mut c = Circuit::new("unreachable_slack");
    let qs: Vec<NetId> = (0..bits)
        .map(|i| c.add_dff(format!("q{i}"), i == 0, Time::ZERO))
        .collect();
    for i in 0..bits - 1 {
        let from = qs[(i + bits - 1) % bits];
        let b = c.add_gate(format!("b{i}"), GateKind::Buf, &[from], d_base);
        c.connect_dff_data(&format!("q{i}"), b).unwrap();
    }
    let slow = c.add_gate("slow", GateKind::Buf, &[qs[bits - 1]], d_long);
    let trap = c.add_gate("trap", GateKind::And, &[qs[0], qs[1], slow], Time::ZERO);
    let base = c.add_gate("base", GateKind::Buf, &[qs[bits - 2]], d_base);
    let nx = c.add_gate("nx", GateKind::Xor, &[base, trap], Time::ZERO);
    c.connect_dff_data(&format!("q{}", bits - 1), nx).unwrap();
    c.set_output(qs[bits - 1]);
    c
}

/// A *combinationally* false long path (the paper's `§` rows, where the
/// floating delay already beats the topological delay): the long path is
/// blocked by a constant-false side condition `a ∧ ¬a` with zero-delay
/// guards, so even single-vector analysis sees through it.
///
/// # Panics
///
/// Panics unless `d_fast < d_slow`.
pub fn comb_false_path(d_fast: Time, d_slow: Time, state_bits: usize) -> Circuit {
    assert!(d_fast < d_slow, "the false path must be the longest");
    assert!(state_bits >= 1, "need state");
    let mut c = Circuit::new("comb_false_path");
    let a = c.add_input("a");
    let qs: Vec<NetId> = (0..state_bits)
        .map(|i| c.add_dff(format!("q{i}"), false, Time::ZERO))
        .collect();
    // dead = slow(q0) ∧ a ∧ ¬a — structurally long, logically 0.
    let slow = c.add_gate("slow", GateKind::Buf, &[qs[0]], d_slow);
    let na = c.add_gate("na", GateKind::Not, &[a], Time::ZERO);
    let dead = c.add_gate("dead", GateKind::And, &[slow, a, na], Time::ZERO);
    // live next-state: a shifted xor of state and input.
    for i in 0..state_bits {
        let prev = qs[(i + state_bits - 1) % state_bits];
        let live = c.add_gate(format!("live{i}"), GateKind::Xor, &[prev, a], d_fast);
        let nx = if i == 0 {
            c.add_gate("nx0", GateKind::Or, &[live, dead], Time::ZERO)
        } else {
            live
        };
        c.connect_dff_data(&format!("q{i}"), nx).unwrap();
    }
    c.set_output(qs[state_bits - 1]);
    c
}

/// A composite machine: several independent components (a binary counter,
/// an LFSR, and an unreachable-slack rotator) side by side, approximating
/// the heterogeneous structure of the larger ISCAS'89 circuits. The overall
/// minimum cycle time is governed by the slowest component; with the slack
/// rotator planted as the critical one, the sequential bound beats the
/// floating delay on a machine big enough for the analysis cost to be
/// visible in the CPU columns.
///
/// # Panics
///
/// Panics if any component parameter is degenerate (see the component
/// generators).
pub fn composite(
    counter_bits: usize,
    lfsr_bits: usize,
    rotator_bits: usize,
    d_base: Time,
    d_long: Time,
) -> Circuit {
    let mut c = Circuit::new("composite");
    // Component 1: ripple counter with enable.
    let en = c.add_input("en");
    let qs: Vec<NetId> = (0..counter_bits)
        .map(|i| c.add_dff(format!("c{i}"), false, Time::ZERO))
        .collect();
    let mut carry = en;
    for (i, &q) in qs.iter().enumerate() {
        let nx = c.add_gate(format!("cnx{i}"), GateKind::Xor, &[q, carry], t(0.4));
        c.connect_dff_data(&format!("c{i}"), nx).unwrap();
        if i + 1 < counter_bits {
            carry = c.add_gate(format!("ccy{i}"), GateKind::And, &[carry, q], t(0.4));
        }
    }
    c.set_output(qs[counter_bits - 1]);
    // Component 2: LFSR.
    let ls: Vec<NetId> = (0..lfsr_bits)
        .map(|i| c.add_dff(format!("l{i}"), i == 0, Time::ZERO))
        .collect();
    let fb = c.add_gate(
        "lfb",
        GateKind::Xor,
        &[ls[lfsr_bits - 1], ls[lfsr_bits / 2]],
        t(1.0),
    );
    c.connect_dff_data("l0", fb).unwrap();
    for i in 1..lfsr_bits {
        let b = c.add_gate(format!("lsh{i}"), GateKind::Buf, &[ls[i - 1]], t(1.0));
        c.connect_dff_data(&format!("l{i}"), b).unwrap();
    }
    c.set_output(ls[lfsr_bits - 1]);
    // Component 3: the critical unreachable-slack rotator.
    let rs: Vec<NetId> = (0..rotator_bits)
        .map(|i| c.add_dff(format!("r{i}"), i == 0, Time::ZERO))
        .collect();
    for i in 0..rotator_bits - 1 {
        let from = rs[(i + rotator_bits - 1) % rotator_bits];
        let b = c.add_gate(format!("rb{i}"), GateKind::Buf, &[from], d_base);
        c.connect_dff_data(&format!("r{i}"), b).unwrap();
    }
    let slow = c.add_gate("rslow", GateKind::Buf, &[rs[rotator_bits - 1]], d_long);
    let trap = c.add_gate("rtrap", GateKind::And, &[rs[0], rs[1], slow], Time::ZERO);
    let base = c.add_gate("rbase", GateKind::Buf, &[rs[rotator_bits - 2]], d_base);
    let nx = c.add_gate("rnx", GateKind::Xor, &[base, trap], Time::ZERO);
    c.connect_dff_data(&format!("r{}", rotator_bits - 1), nx)
        .unwrap();
    c.set_output(rs[rotator_bits - 1]);
    c
}

/// A shared-trunk star for the variable-delay (Section 7) engine: one
/// register, two fast direct gates, and `branches` slow gates hanging off
/// a common trunk buffer, all conjoined into the feedback.
///
/// Every branch class's register-to-register path runs through the trunk
/// pin, so with path-coupled LPs the per-class shift constraints are
/// *jointly* constrained through the shared trunk delay variable. The
/// trunk delay dominates each branch path (small ascending branch
/// increments on a long trunk), so each class's *independent* interval is
/// wide — the per-class closed form keeps almost every combination — while
/// the *coupled* system pins every class to nearly the same shared trunk
/// value, so shift vectors that would need incompatible trunk windows are
/// LP-infeasible. Scaling `branches` scales the delay-class count, and
/// with a wide variation interval the combination count grows
/// geometrically: a σ-heavy workload for the Φ walk and LP coupling.
///
/// # Panics
///
/// Panics if `branches == 0`.
pub fn sigma_star(branches: usize) -> Circuit {
    assert!(branches > 0, "need at least one branch");
    let mut c = Circuit::new("sigma_star");
    let f = c.add_dff("f", true, Time::ZERO);
    let u = c.add_gate("u", GateKind::Buf, &[f], t(0.4));
    let v = c.add_gate("v", GateKind::Not, &[f], t(0.7));
    let x = c.add_gate("x", GateKind::Buf, &[f], t(4.0));
    let mut pins = vec![u, v];
    for i in 0..branches {
        let kind = if i % 2 == 0 {
            GateKind::Buf
        } else {
            GateKind::Not
        };
        let b = c.add_gate(format!("b{i}"), kind, &[x], t(0.3 + 0.2 * i as f64));
        pins.push(b);
    }
    let g = c.add_gate("g", GateKind::And, &pins, Time::ZERO);
    c.connect_dff_data("f", g).unwrap();
    c.set_output(f);
    c
}

/// Extreme unreachable slack: the trap path is more than four times the
/// base delay, so the certified minimum cycle time is below a quarter of
/// the topological delay — the paper's s38584 phenomenon, where a correct
/// 2-vector bound (at best `topological/2`) would overstate the cycle time
/// by over 200%.
pub fn deep_false_path() -> Circuit {
    let mut c = unreachable_slack(4, t(2.0), t(9.0));
    c.set_name("deep_false_path");
    c
}

/// The minimal machine where intentional clock skew provably beats the
/// zero-skew minimum cycle time: a two-register ring with one slow stage
/// (`¬q0`, delay `d_slow`) and one fast stage (`q1` buffered, `d_fast`).
///
/// Zero-skew, the slow stage pins the cycle time at `d_slow`. Delaying
/// `q1`'s clock edge by `(d_slow − d_fast)/2` moves that slack to the fast
/// stage until both effective delays equal `(d_slow + d_fast)/2` — the
/// cycle-ratio optimum, since the loop's total delay is conserved under
/// any skew assignment. The provable margin is `(d_slow − d_fast)/2`.
///
/// The circuit carries *no* annotations; the skew-optimization tier must
/// discover the witness itself.
///
/// # Panics
///
/// Panics unless `d_fast < d_slow`.
pub fn skew_ring(d_slow: Time, d_fast: Time) -> Circuit {
    assert!(d_fast < d_slow, "the ring must be unbalanced");
    let mut c = Circuit::new("skew/ring");
    let q0 = c.add_dff("q0", false, Time::ZERO);
    let q1 = c.add_dff("q1", false, Time::ZERO);
    let n1 = c.add_gate("n1", GateKind::Not, &[q0], d_slow);
    let n0 = c.add_gate("n0", GateKind::Buf, &[q1], d_fast);
    c.connect_dff_data("q1", n1).unwrap();
    c.connect_dff_data("q0", n0).unwrap();
    c.set_output(q0);
    c
}

/// A twisted pipeline loop (a Johnson counter with per-stage delays):
/// stage `i` feeds register `i+1` through a buffer of delay
/// `stage_delays[i]`, with the wrap-around stage inverted so the state
/// sequence is non-trivial (period `2·stages`).
///
/// The loop conserves its total delay under skewing, so the skew-optimal
/// period is the *average* stage delay (rounded up to the milli grid)
/// while the zero-skew cycle time is pinned by the *maximum* stage delay —
/// with unbalanced stages the margin is exactly
/// `max(d_i) − ⌈mean(d_i)⌉_millis`. Equal stage delays make skew
/// provably useless (the neutral control case).
///
/// # Panics
///
/// Panics if fewer than two stage delays are given.
pub fn skew_pipeline(stage_delays: &[Time]) -> Circuit {
    assert!(stage_delays.len() >= 2, "need at least two pipeline stages");
    let stages = stage_delays.len();
    let mut c = Circuit::new("skew/pipeline");
    let qs: Vec<NetId> = (0..stages)
        .map(|i| c.add_dff(format!("q{i}"), false, Time::ZERO))
        .collect();
    for (i, &d) in stage_delays.iter().enumerate() {
        let snk = (i + 1) % stages;
        let kind = if snk == 0 {
            GateKind::Not
        } else {
            GateKind::Buf
        };
        let g = c.add_gate(format!("st{i}"), kind, &[qs[i]], d);
        c.connect_dff_data(&format!("q{snk}"), g).unwrap();
    }
    c.set_output(qs[stages - 1]);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggler_alternates() {
        let c = toggler(t(1.0));
        let s0 = c.initial_state();
        let (s1, _) = c.step(&s0, &[]);
        let (s2, _) = c.step(&s1, &[]);
        assert_ne!(s0, s1);
        assert_eq!(s0, s2);
    }

    #[test]
    fn ring_counter_rotates_one_hot() {
        let c = ring_counter(5, t(1.0));
        let mut s = c.initial_state();
        for _ in 0..5 {
            assert_eq!(s.iter().filter(|&&b| b).count(), 1, "one-hot invariant");
            (s, _) = c.step(&s, &[]);
        }
        assert_eq!(s, c.initial_state(), "period equals width");
    }

    #[test]
    fn johnson_counter_period_is_2n() {
        let c = johnson_counter(4, t(1.0));
        let mut s = c.initial_state();
        let start = s.clone();
        let mut period = 0;
        loop {
            (s, _) = c.step(&s, &[]);
            period += 1;
            if s == start || period > 20 {
                break;
            }
        }
        assert_eq!(period, 8);
    }

    #[test]
    fn lfsr_visits_many_states() {
        // x^4 + x^3 + 1 is maximal: period 15.
        let c = lfsr(4, &[2, 3], t(1.0));
        let mut s = c.initial_state();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20 {
            seen.insert(s.clone());
            (s, _) = c.step(&s, &[]);
        }
        assert_eq!(seen.len(), 15, "maximal LFSR visits 15 states");
    }

    #[test]
    fn binary_counter_counts() {
        let c = binary_counter(4, t(0.5));
        let mut s = c.initial_state();
        for expect in 1..=10u32 {
            (s, _) = c.step(&s, &[true]);
            let val: u32 = s.iter().enumerate().map(|(i, &b)| u32::from(b) << i).sum();
            assert_eq!(val, expect % 16);
        }
        // Disabled: holds.
        let before = s.clone();
        (s, _) = c.step(&s, &[false]);
        assert_eq!(s, before);
    }

    #[test]
    fn random_fsm_is_deterministic() {
        let a = random_fsm(7, 5, 2, 30);
        let b = random_fsm(7, 5, 2, 30);
        assert_eq!(a.num_gates(), b.num_gates());
        let (sa, _) = a.step(&a.initial_state(), &[true, false]);
        let (sb, _) = b.step(&b.initial_state(), &[true, false]);
        assert_eq!(sa, sb);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn periodic_slack_is_figure2_functionally() {
        // The planted product is identically 0 in operation: the machine
        // behaves as a toggler.
        let c = periodic_slack(t(1.5), t(4.0), t(5.0), 3);
        let mut s = c.initial_state();
        for _ in 0..4 {
            let q_before = s[0];
            (s, _) = c.step(&s, &[]);
            assert_eq!(s[0], !q_before, "toggler bit inverts every cycle");
        }
        assert!(c.validate().is_ok());
    }

    #[test]
    fn unreachable_slack_preserves_rotation() {
        let c = unreachable_slack(4, t(2.0), t(8.0));
        let mut s = c.initial_state();
        for _ in 0..8 {
            assert_eq!(s.iter().filter(|&&b| b).count(), 1, "one-hot preserved");
            (s, _) = c.step(&s, &[]);
        }
        assert_eq!(s, c.initial_state());
    }

    #[test]
    fn comb_false_path_dead_branch_is_dead() {
        let c = comb_false_path(t(1.0), t(6.0), 3);
        // The `dead` net must evaluate to 0 under every leaf assignment.
        let dead = c.lookup("dead").unwrap();
        let leaves: Vec<_> = c.inputs().into_iter().chain(c.dffs()).collect();
        for mask in 0..(1u32 << leaves.len()) {
            let vals = c.eval(|id| {
                leaves
                    .iter()
                    .position(|&l| l == id)
                    .map(|i| mask >> i & 1 == 1)
                    .unwrap_or(false)
            });
            assert!(!vals[dead.index()], "dead must be constant 0");
        }
    }

    #[test]
    fn deep_false_path_ratio_exceeds_four() {
        let c = deep_false_path();
        assert!(c.validate().is_ok());
        // Longest path 9.0 vs base 2.0: certified below 9/4 later by the
        // integration tests; here just check the structure.
        assert_eq!(c.num_dffs(), 4);
    }

    #[test]
    fn sigma_star_scales_delay_classes() {
        for branches in [1, 3, 5] {
            let c = sigma_star(branches);
            assert!(c.validate().is_ok());
            assert_eq!(c.num_gates(), 4 + branches);
            // The conjunction contains q ∧ ¬q, so the feedback is
            // identically 0: after one step the register sticks at 0.
            let (s1, _) = c.step(&c.initial_state(), &[]);
            let (s2, _) = c.step(&s1, &[]);
            assert_eq!(s1, vec![false]);
            assert_eq!(s2, vec![false]);
        }
    }

    #[test]
    fn composite_components_are_independent() {
        let c = composite(6, 5, 4, t(6.0), t(8.0));
        assert_eq!(c.num_dffs(), 15);
        assert!(c.validate().is_ok());
        // The rotator stays one-hot, the counter counts.
        let mut s = c.initial_state();
        for _ in 0..6 {
            (s, _) = c.step(&s, &[true]);
            let rot = &s[11..15];
            assert_eq!(rot.iter().filter(|&&b| b).count(), 1, "one-hot rotator");
        }
        let count: u32 = s[..6]
            .iter()
            .enumerate()
            .map(|(i, &b)| u32::from(b) << i)
            .sum();
        assert_eq!(count, 6);
    }

    #[test]
    fn skew_ring_is_functionally_a_twisted_pair() {
        let c = skew_ring(t(5.0), t(1.0));
        assert!(c.validate().is_ok());
        // q0,q1 walk the 4-state Johnson sequence.
        let mut s = c.initial_state();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            seen.insert(s.clone());
            (s, _) = c.step(&s, &[]);
        }
        assert_eq!(seen.len(), 4);
        assert_eq!(s, c.initial_state());
    }

    #[test]
    fn skew_pipeline_period_is_2n() {
        let c = skew_pipeline(&[t(6.0), t(2.0), t(1.0)]);
        assert!(c.validate().is_ok());
        let mut s = c.initial_state();
        let start = s.clone();
        let mut period = 0;
        loop {
            (s, _) = c.step(&s, &[]);
            period += 1;
            if s == start || period > 20 {
                break;
            }
        }
        assert_eq!(period, 6, "twisted loop visits 2·stages states");
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn skew_ring_rejects_balanced_delays() {
        let _ = skew_ring(t(2.0), t(2.0));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn periodic_slack_validates_order() {
        let _ = periodic_slack(t(4.0), t(1.5), t(5.0), 0);
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn unreachable_slack_needs_three_bits() {
        let _ = unreachable_slack(2, t(1.0), t(2.0));
    }
}
