//! Benches regenerating every table and figure of the paper, plus the
//! ablations called out in `DESIGN.md`. A self-contained harness (no
//! external bench framework): each scenario is calibrated with one warm-up
//! run, then timed over enough iterations to smooth scheduler noise, and
//! reported as mean wall-clock per iteration.
//!
//! Experiment index (see `DESIGN.md` §5):
//!
//! * `table1/*` — the columns of the paper's Table 1 per suite circuit
//!   (floating, transition, and the sequential MCT bound);
//! * `fig1/*` — TBF gate-model evaluation (Figure 1);
//! * `fig2/*` — the worked Example 2 end to end (Figure 2);
//! * `theorems/*` — the dynamic simulator sweeps behind Theorems 1 and 2;
//! * `ablation/*` — reachability restriction on/off, path-coupled LP
//!   on/off, Φ-signature cache effectiveness (exhaustive sweep).
//!
//! Run with `cargo bench` or `cargo bench --bench paper_benches -- table1`
//! to filter by scenario-name substring.

use mct_bdd::BddManager;
use mct_core::{MctAnalyzer, MctOptions, VarOrder};
use mct_gen::{paper_figure2, standard_suite};
use mct_netlist::{FsmView, PinDelay, Time};
use mct_sim::{SimConfig, Simulator};
use mct_tbf::{Tbf, TimedVarTable, Waveform};
use std::time::{Duration, Instant};

/// Minimum measured wall-clock per scenario; more iterations are added
/// until this is reached (or the per-iteration cost alone exceeds it).
const TARGET: Duration = Duration::from_millis(300);
/// Hard cap on iterations for very cheap bodies.
const MAX_ITERS: u32 = 10_000;

struct Harness {
    filter: Vec<String>,
    results: Vec<(String, Duration, u32)>,
}

impl Harness {
    fn new() -> Self {
        let filter = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        Harness {
            filter,
            results: Vec::new(),
        }
    }

    fn wants(&self, name: &str) -> bool {
        self.filter.is_empty() || self.filter.iter().any(|f| name.contains(f.as_str()))
    }

    /// Times `body`, discarding its result (the closure must still compute
    /// it fully — all bodies here return data derived from the real work).
    fn bench<T>(&mut self, name: &str, mut body: impl FnMut() -> T) {
        if !self.wants(name) {
            return;
        }
        // Warm-up + calibration run.
        let t0 = Instant::now();
        let first = body();
        let once = t0.elapsed();
        std::hint::black_box(&first);
        let iters = if once >= TARGET {
            1
        } else {
            let per = once.max(Duration::from_nanos(50));
            ((TARGET.as_nanos() / per.as_nanos()).max(1) as u32).min(MAX_ITERS)
        };
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(body());
        }
        let total = t0.elapsed();
        let mean = total / iters;
        println!("{name:<44} {:>12.3?}  ({iters} iters)", mean);
        self.results.push((name.to_owned(), mean, iters));
    }
}

fn bench_table1(h: &mut Harness) {
    let suite = standard_suite();
    for name in [
        "fig2",
        "s27",
        "syn-s526",
        "syn-s820",
        "syn-s444",
        "syn-s38584",
    ] {
        let entry = suite
            .iter()
            .find(|e| e.circuit.name() == name)
            .expect("suite circuit");
        h.bench(&format!("table1/row/{name}"), || {
            mct_bench::compute_row(entry, &MctOptions::paper()).unwrap()
        });
    }
    // Individual columns on the worked example.
    let fig2 = paper_figure2();
    h.bench("table1/column/floating/fig2", || {
        let mut m = BddManager::new();
        let mut t = TimedVarTable::new();
        let view = FsmView::new(&fig2).unwrap();
        mct_delay::floating_delay(&view, &mut m, &mut t).unwrap()
    });
    h.bench("table1/column/transition/fig2", || {
        let mut m = BddManager::new();
        let mut t = TimedVarTable::new();
        let view = FsmView::new(&fig2).unwrap();
        mct_delay::transition_delay(&view, &mut m, &mut t).unwrap()
    });
}

fn bench_fig1_models(h: &mut Harness) {
    // The OR gate of Figure 1(b): pin 1 rise 1 / fall 2, pin 2 rise 4 / fall 3.
    let gate = Tbf::gate(
        mct_netlist::GateKind::Or,
        vec![Tbf::signal(0), Tbf::signal(1)],
        &[
            PinDelay::new(Time::from_f64(1.0), Time::from_f64(2.0)),
            PinDelay::new(Time::from_f64(4.0), Time::from_f64(3.0)),
        ],
    );
    let w0 = Waveform::from_cycles(
        false,
        Time::from_f64(2.0),
        &[true, false, true, true, false],
    );
    let w1 = Waveform::from_cycles(true, Time::from_f64(3.0), &[false, true, false]);
    h.bench("fig1/or_gate_eval_sweep", || {
        let mut ones = 0u32;
        for step in 0..200 {
            let t = Time::from_millis(step * 100);
            if gate.eval(t, Time::UNIT, &|s, at| {
                if s == 0 {
                    w0.value_at(at)
                } else {
                    w1.value_at(at)
                }
            }) {
                ones += 1;
            }
        }
        ones
    });
}

fn bench_fig2(h: &mut Harness) {
    let fig2 = paper_figure2();
    h.bench("fig2/mct_fixed", || {
        MctAnalyzer::new(&fig2)
            .unwrap()
            .run(&MctOptions::fixed_delays())
            .unwrap()
            .mct_upper_bound
    });
    h.bench("fig2/mct_variation", || {
        MctAnalyzer::new(&fig2)
            .unwrap()
            .run(&MctOptions::paper())
            .unwrap()
            .mct_upper_bound
    });
}

fn bench_theorems(h: &mut Harness) {
    let fig2 = paper_figure2();
    let sim = Simulator::new(&fig2).unwrap();
    h.bench("theorems/sim_sweep_fig2", || {
        // Sweep periods across the Theorem-2 boundary (2 < 2.5 < 4 < 5)
        // and count how many behave correctly.
        let mut correct = 0;
        for period_millis in [2000i64, 2200, 2500, 2600, 4000, 5000] {
            let config = SimConfig::at_period(Time::from_millis(period_millis)).with_cycles(32);
            let trace = sim.run(&config, |_, _| false);
            let (states, outputs) = mct_sim::functional_trace(&fig2, 32, |_, _| false);
            if trace.matches(&states, &outputs) {
                correct += 1;
            }
        }
        correct
    });
}

fn bench_ablations(h: &mut Harness) {
    let suite = standard_suite();
    let s820 = suite
        .iter()
        .find(|e| e.circuit.name() == "syn-s820")
        .expect("syn-s820");
    h.bench("ablation/reachability/on", || {
        MctAnalyzer::new(&s820.circuit)
            .unwrap()
            .run(&MctOptions {
                use_reachability: true,
                ..MctOptions::paper()
            })
            .unwrap()
            .mct_upper_bound
    });
    h.bench("ablation/reachability/off", || {
        MctAnalyzer::new(&s820.circuit)
            .unwrap()
            .run(&MctOptions {
                use_reachability: false,
                ..MctOptions::paper()
            })
            .unwrap()
            .mct_upper_bound
    });
    let fig2 = paper_figure2();
    h.bench("ablation/feasibility/closed_form", || {
        MctAnalyzer::new(&fig2)
            .unwrap()
            .run(&MctOptions {
                path_coupled_lp: false,
                ..MctOptions::paper()
            })
            .unwrap()
            .mct_upper_bound
    });
    h.bench("ablation/feasibility/lp", || {
        MctAnalyzer::new(&fig2)
            .unwrap()
            .run(&MctOptions {
                path_coupled_lp: true,
                ..MctOptions::paper()
            })
            .unwrap()
            .mct_upper_bound
    });
    h.bench("ablation/sigma_cache/exhaustive_sweep", || {
        MctAnalyzer::new(&fig2)
            .unwrap()
            .run(&MctOptions {
                exhaustive_floor: Some(1.0),
                ..MctOptions::paper()
            })
            .unwrap()
            .sigma_cache_hits
    });
}

fn bench_substrates_extra(h: &mut Harness) {
    // LP solver on the Section-7 shaped program.
    h.bench("substrate/lp_tau_program", || {
        let mut lp = mct_lp::Simplex::new(5);
        lp.set_objective(&[1.0, 0.0, 0.0, 0.0, 0.0]);
        for i in 1..5 {
            lp.add_bounds(i, 900.0 * i as f64, 1000.0 * i as f64);
            let mut upper = vec![0.0; 5];
            upper[0] = -(i as f64);
            upper[i] = 1.0;
            lp.add_le(&upper, 0.0);
            let mut lower = vec![0.0; 5];
            lower[0] = i as f64 - 1.0;
            lower[i] = -1.0;
            lp.add_le(&lower, -0.001);
        }
        lp.solve()
    });
    // Parsing throughput on the embedded s27 text.
    h.bench("substrate/parse_s27", || {
        mct_netlist::parse_bench(mct_gen::S27_BENCH, &mct_netlist::DelayModel::Mapped)
            .unwrap()
            .num_gates()
    });
    // Reachability on the composite machine.
    let suite = standard_suite();
    let comp = suite
        .iter()
        .find(|e| e.circuit.name() == "syn-s5378x")
        .expect("composite entry");
    h.bench("substrate/reachability_composite", || {
        let mut m = BddManager::new();
        let mut t = TimedVarTable::new();
        let view = FsmView::new(&comp.circuit).unwrap();
        let ex = mct_tbf::ConeExtractor::new(&view);
        mct_tbf::reachable_states(&ex, &mut m, &mut t).unwrap()
    });
    // Symbolic flattening of figure 2 (Example 1).
    let fig2 = paper_figure2();
    h.bench("substrate/flatten_fig2_tbf", || {
        let view = FsmView::new(&fig2).unwrap();
        let g = fig2.lookup("g").unwrap();
        mct_tbf::circuit_tbf(&view, g, 10_000).unwrap().max_shift()
    });
}

fn bench_substrates(h: &mut Harness) {
    // BDD baseline: a 16-bit parity chain.
    h.bench("substrate/bdd_parity16", || {
        let mut m = BddManager::new();
        let mut f = m.zero();
        for i in 0..16 {
            let v = m.var(mct_bdd::Var::new(i));
            f = m.xor(f, v);
        }
        m.size(f)
    });
    // Simulator throughput on a mid-size machine.
    let suite = standard_suite();
    let lfsr = suite
        .iter()
        .find(|e| e.circuit.name() == "syn-s35932")
        .expect("lfsr entry");
    let sim = Simulator::new(&lfsr.circuit).unwrap();
    h.bench("substrate/sim_lfsr_256_cycles", || {
        let config = SimConfig::at_period(Time::from_f64(4.0)).with_cycles(256);
        sim.run(&config, |_, _| false).events_processed
    });
}

/// Micro-benchmarks of the BDD kernel itself (the `bdd_ops` group of
/// `BENCH_3.json`), plus the end-to-end exhaustive fig2 sweep that the
/// kernel-rewrite acceptance numbers are quoted from. Every body sticks to
/// the public `BddManager` API so the same scenarios time both the
/// pre-complement-edge kernel and its replacement. Each body also returns
/// the final arena node count so peak-memory effects stay visible.
fn bench_bdd_ops(h: &mut Harness) {
    use mct_bdd::{Bdd, Var};
    use mct_prng::SmallRng;

    // Dense ITE load: a seeded random expression DAG over 18 variables.
    h.bench("bdd_ops/ite/random_dag18", || {
        let mut m = BddManager::new();
        let mut rng = SmallRng::seed_from_u64(0x1234);
        let mut pool: Vec<_> = (0..18).map(|i| m.var(Var::new(i))).collect();
        for _ in 0..400 {
            let pick = |rng: &mut SmallRng, n: usize| rng.gen_range(0..n as u64) as usize;
            let f = pool[pick(&mut rng, pool.len())];
            let g = pool[pick(&mut rng, pool.len())];
            let x = pool[pick(&mut rng, pool.len())];
            let x = if rng.gen_bool() { m.not(x) } else { x };
            pool.push(m.ite(f, g, x));
        }
        m.stats().nodes
    });
    // Negation-heavy parity mixing (the old kernel's `not_cache` hot path;
    // complement edges make every `not` free).
    h.bench("bdd_ops/not/parity_mix32", || {
        let mut m = BddManager::new();
        let mut f = m.zero();
        for i in 0..32 {
            let v = m.var(Var::new(i));
            let nf = m.not(f);
            let g = m.xor(nf, v);
            f = m.not(g);
        }
        m.size(f)
    });
    // Relational product: conjunction of per-bit xnor constraints over
    // interleaved current/next variables, then quantify out one rail —
    // the exact shape of the reachability fixpoint step.
    h.bench("bdd_ops/exists/relation20", || {
        let mut m = BddManager::new();
        let n = 20u32;
        let mut trans = m.one();
        for i in 0..n {
            let cur = m.var(Var::new(2 * i));
            let nxt = m.var(Var::new(2 * i + 1));
            let prev = m.var(Var::new(2 * ((i + 1) % n)));
            let rhs = m.xor(cur, prev);
            let bit = m.xnor(nxt, rhs);
            trans = m.and(trans, bit);
        }
        let quantified: Vec<Var> = (0..n).map(|i| Var::new(2 * i)).collect();
        let img = m.exists(trans, &quantified);
        m.size(img)
    });
    // Functional composition: unroll a twisted-feedback register vector
    // through itself, the Algorithm 6.1 basis/induction workload.
    h.bench("bdd_ops/compose/unroll16x4", || {
        let mut m = BddManager::new();
        let n = 16u32;
        let vars: Vec<_> = (0..n).map(|i| m.var(Var::new(i))).collect();
        let mut next: Vec<_> = (0..n as usize)
            .map(|i| {
                let a = vars[(i + 1) % n as usize];
                let b = vars[(i + 5) % n as usize];
                let c = vars[i];
                let ab = m.and(a, b);
                m.xor(ab, c)
            })
            .collect();
        let subst: Vec<(Var, Bdd)> = (0..n).map(|i| (Var::new(i), next[i as usize])).collect();
        for _ in 0..4 {
            next = next.iter().map(|&f| m.vector_compose(f, &subst)).collect();
        }
        m.stats().nodes
    });
    // Locality rows: a live set accreted one node at a time between bursts
    // of short-lived junk — after collection the survivors sit scattered
    // across a hole-ridden arena, consecutive chain nodes far apart — vs.
    // the same graph after DFS-preorder compaction (children follow
    // parents, dense indices). Compaction runs once in the setup: these
    // rows time the steady-state traversals the analysis pays *between*
    // collections, while the end-to-end `ordering/*` rows charge the
    // compaction pass itself to the run that triggers it.
    fn fragmented_dag(compact: bool) -> (BddManager, Vec<Bdd>) {
        const SLOTS: usize = 12;
        const ROUNDS: u32 = 16_000;
        let mut m = BddManager::new();
        let mut rng = SmallRng::seed_from_u64(0x9e37);
        let junk_vars: Vec<_> = (0..32).map(|i| m.var(Var::new(i))).collect();
        let mut keep = vec![m.zero(); SLOTS];
        for round in 0..ROUNDS {
            for (j, slot) in keep.iter_mut().enumerate() {
                // Two short-lived junk products at the allocation frontier,
                // dead by the time the collector runs.
                for _ in 0..2 {
                    let mut g = junk_vars[rng.gen_range(0..32) as usize];
                    for _ in 0..6 {
                        let v = junk_vars[rng.gen_range(0..32) as usize];
                        g = if rng.gen_bool() {
                            m.and(g, v)
                        } else {
                            m.xor(g, v)
                        };
                    }
                }
                // One node of the kept chain: the fresh variable sits
                // *above* the chain so the accreted structure is reused,
                // never rebuilt — each chain node lands in a different
                // allocation epoch.
                let v = m.var(Var::new(100 + (ROUNDS - round) + 40_000 * j as u32));
                *slot = m.xor(v, *slot);
            }
        }
        m.collect_garbage(&keep);
        if compact {
            let map = m.compact(&keep);
            for f in &mut keep {
                *f = map.rewrite(*f);
            }
        }
        (m, keep)
    }
    // Pure traversal: reachable-node counts over every kept function — no
    // ops cache in the way, just pointer chasing in DFS order (the order
    // compaction lays nodes out in).
    fn traverse_workload(m: &BddManager, keep: &[Bdd]) -> usize {
        keep.iter().map(|&f| m.size(f)).sum()
    }
    // Pure path tracing: evaluate every kept chain under rotating
    // assignments — one arena read per level, nothing allocated, the
    // sharpest possible probe of node layout.
    fn eval_workload(m: &BddManager, keep: &[Bdd]) -> usize {
        let mut acc = 0usize;
        for pat in 0..4u64 {
            for &f in keep {
                let hit = m.eval(f, |v| {
                    (v.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> pat & 1 == 1
                });
                acc = acc.wrapping_add(hit as usize);
            }
        }
        acc
    }
    let locality_rows = [
        "bdd_ops/traverse/fragmented_dag",
        "bdd_ops/traverse/compacted_dag",
        "bdd_ops/eval/fragmented_dag",
        "bdd_ops/eval/compacted_dag",
    ];
    if locality_rows.iter().any(|s| h.wants(s)) {
        let (frag_m, frag_keep) = fragmented_dag(false);
        let (comp_m, comp_keep) = fragmented_dag(true);
        h.bench(locality_rows[0], || traverse_workload(&frag_m, &frag_keep));
        h.bench(locality_rows[1], || traverse_workload(&comp_m, &comp_keep));
        h.bench(locality_rows[2], || eval_workload(&frag_m, &frag_keep));
        h.bench(locality_rows[3], || eval_workload(&comp_m, &comp_keep));
    }
    // End-to-end sanity check: the exhaustive fig2 sweep (every breakpoint
    // candidate stays in play). Dominated by fixed per-analysis setup, not
    // kernel throughput — the speedup target is measured on the ite/compose
    // scenarios above.
    let fig2 = paper_figure2();
    h.bench("bdd_ops/fig2_exhaustive_sweep", || {
        MctAnalyzer::new(&fig2)
            .unwrap()
            .run(&MctOptions {
                exhaustive_floor: Some(1.0),
                ..MctOptions::paper()
            })
            .unwrap()
            .candidates_checked
    });
}

/// A 16-bit parity chain feeding one register: the classic order-neutral
/// control case (parity BDDs are linear in any variable order).
fn parity16_circuit() -> mct_netlist::Circuit {
    use mct_netlist::{Circuit, GateKind};
    let mut c = Circuit::new("parity16");
    let q = c.add_dff("q", false, Time::ZERO);
    let mut acc = q;
    for i in 0..16 {
        let x = c.add_input(format!("x{i}"));
        acc = c.add_gate(
            format!("p{i}"),
            GateKind::Xor,
            &[acc, x],
            Time::from_f64(0.3),
        );
    }
    c.connect_dff_data("q", acc).unwrap();
    c.set_output(acc);
    c
}

/// Variable-ordering policies on the composite machines (the paper's
/// s5378/s15850 stand-ins) and the parity control: wall time through the
/// harness, peak arena nodes printed per scenario (deterministic —
/// `BENCH_4.json` is transcribed from this output).
fn bench_ordering(h: &mut Harness) {
    let suite = standard_suite();
    let parity16 = parity16_circuit();
    let scenarios: Vec<(&str, &mct_netlist::Circuit, MctOptions)> = vec![
        (
            "syn-s5378x",
            &suite
                .iter()
                .find(|e| e.circuit.name() == "syn-s5378x")
                .expect("suite circuit")
                .circuit,
            MctOptions::paper(),
        ),
        (
            "syn-s15850x",
            &suite
                .iter()
                .find(|e| e.circuit.name() == "syn-s15850x")
                .expect("suite circuit")
                .circuit,
            MctOptions::paper(),
        ),
        ("parity16", &parity16, MctOptions::fixed_delays()),
    ];
    for (name, circuit, base) in scenarios {
        for (label, ordering) in [("alloc", VarOrder::Alloc), ("static", VarOrder::Static)] {
            let scenario = format!("ordering/{name}/{label}");
            if !h.wants(&scenario) {
                continue;
            }
            let opts = MctOptions {
                ordering,
                ..base.clone()
            };
            // One deterministic probe run for the node-count column.
            let report = MctAnalyzer::new(circuit).unwrap().run(&opts).unwrap();
            let k = &report.kernel;
            println!(
                "{scenario:<44} peak_nodes {} (compactions {})",
                k.peak_nodes, k.compactions
            );
            h.bench(&scenario, || {
                MctAnalyzer::new(circuit)
                    .unwrap()
                    .run(&opts)
                    .unwrap()
                    .kernel
                    .peak_nodes
            });
        }
    }
}

fn main() {
    let mut h = Harness::new();
    bench_table1(&mut h);
    bench_fig1_models(&mut h);
    bench_fig2(&mut h);
    bench_theorems(&mut h);
    bench_ablations(&mut h);
    bench_substrates(&mut h);
    bench_substrates_extra(&mut h);
    bench_bdd_ops(&mut h);
    bench_ordering(&mut h);
    if h.results.is_empty() {
        eprintln!("no scenario matched the filter");
        std::process::exit(1);
    }
    println!("\n{} scenarios timed.", h.results.len());
}
