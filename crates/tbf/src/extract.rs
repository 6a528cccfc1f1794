//! Compilation of combinational cones into BDDs over timed variables.
//!
//! This is the workhorse shared by every analysis in the suite. Given a
//! sink net of the combinational network, a dynamic program walks the gate
//! DAG toward the leaves accumulating the downstream path delay; at each
//! leaf it asks a caller-supplied *leaf policy* for the BDD representing
//! "this leaf observed through a path of total delay `k`". Choosing the
//! policy instantiates the paper's different formulations:
//!
//! * period `τ`: leaf ↦ variable `(leaf, ⌈k/τ⌉)` — the discretized TBF of
//!   Section 6 (shifts `m_i = −⌊−k_i/τ⌋`);
//! * steady state: leaf ↦ variable `(leaf, 1)` — the paper's `y(n, L)`;
//! * floating mode: leaf ↦ current-vector variable if `k ≤ t`, else a fresh
//!   "arbitrary" variable per `(leaf, k)` — single-vector delay;
//! * transition mode: leaf ↦ current vector if `k ≤ t`, else the
//!   old-vector variable — 2-vector delay;
//! * untimed: leaf ↦ variable `(leaf, 0)` — the plain next-state function
//!   for reachability.
//!
//! Unequal rise/fall pin delays are handled with the paper's buffer model
//! (Figure 1b): the pin contributes the conjunction (slow rise) or
//! disjunction (slow fall) of the two shifted copies of its driver.
//!
//! The DP memoizes on `(node, accumulated downstream delay)`; the number of
//! such states equals the number of distinct partial path-delay sums, which
//! the extractor caps (configurable) to fail cleanly on pathological
//! circuits instead of exhausting memory.

use crate::error::TbfError;
use crate::vars::{TimedVar, TimedVarTable};
use mct_bdd::{Bdd, BddManager};
use mct_netlist::{FsmView, GateKind, NetId, Node, SinkKind};
use std::collections::HashMap;

/// A leaf policy: maps `(leaf index, total path delay in milli-units)` to
/// the BDD standing for that observation.
///
/// The policy **must** be a pure function of its `(leaf, delay)` arguments —
/// results are memoized per `(node, delay)` state. The total delay includes
/// the source flip-flop's clock-to-Q contribution.
pub trait LeafPolicy {
    /// Produces the BDD for leaf `leaf` observed through total path delay
    /// `delay_millis`.
    fn leaf(
        &mut self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        leaf: usize,
        delay_millis: i64,
    ) -> Bdd;
}

impl<F> LeafPolicy for F
where
    F: FnMut(&mut BddManager, &mut TimedVarTable, usize, i64) -> Bdd,
{
    fn leaf(
        &mut self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        leaf: usize,
        delay_millis: i64,
    ) -> Bdd {
        self(manager, table, leaf, delay_millis)
    }
}

/// One edge of a representative register-to-register path: a specific gate
/// input pin and the delay it contributed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PathEdge {
    /// The gate whose input pin was traversed.
    pub node: NetId,
    /// The input pin index.
    pub pin: usize,
    /// The pin delay used, in milli-units (rise or fall, whichever the path
    /// took).
    pub delay: i64,
}

/// A *delay class*: a distinct `(leaf, total path delay)` pair reaching any
/// analyzed sink — the paper's `k_i`. Carries one representative gate path
/// realizing the delay, for the path-coupled linear programs of Section 7.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DelayClass {
    /// Dense leaf index (flip-flop or primary input).
    pub leaf: usize,
    /// Total path delay in milli-units, including the source clock-to-Q.
    /// Under skewed extraction this is the *effective* delay
    /// `k + s_leaf − s_sink`, the argument the register model discretizes.
    pub delay: i64,
    /// The clock-skew constant folded into [`delay`](Self::delay)
    /// (`s_leaf − s_sink`), zero for unskewed analyses. Delay variation
    /// scales only the physical portion `delay − skew_offset`; when the same
    /// `(leaf, delay)` pair is reachable under several offsets the smallest
    /// is kept (widest variation interval — conservative and deterministic).
    pub skew_offset: i64,
    /// A representative path realizing the delay, sink-to-leaf order.
    pub path: Vec<PathEdge>,
}

/// Extraction engine over one [`FsmView`].
///
/// # Examples
///
/// ```
/// use mct_bdd::BddManager;
/// use mct_netlist::{Circuit, FsmView, GateKind, Time};
/// use mct_tbf::{ConeExtractor, TimedVar, TimedVarTable};
///
/// let mut c = Circuit::new("toggler");
/// let q = c.add_dff("q", false, Time::ZERO);
/// let nq = c.add_gate("nq", GateKind::Not, &[q], Time::UNIT);
/// c.connect_dff_data("q", nq).unwrap();
/// c.set_output(q);
/// let view = FsmView::new(&c).unwrap();
/// let extractor = ConeExtractor::new(&view);
/// let mut m = BddManager::new();
/// let mut table = TimedVarTable::new();
/// // Steady-state policy: every leaf becomes (leaf, shift 1).
/// let cones = extractor
///     .extract(&mut m, &mut table, &[nq], &mut |mgr: &mut BddManager,
///         tbl: &mut TimedVarTable, leaf, _delay| {
///         let v = tbl.var(TimedVar::Shifted { leaf, shift: 1 });
///         mgr.var(v)
///     })
///     .unwrap();
/// let q1 = table.lookup(TimedVar::Shifted { leaf: 0, shift: 1 }).unwrap();
/// let expected = {
///     let v = m.var(q1);
///     m.not(v)
/// };
/// assert_eq!(cones[0], expected); // next q = ¬q(n−1)
/// ```
#[derive(Clone, Debug)]
pub struct ConeExtractor<'c> {
    view: &'c FsmView<'c>,
    node_limit: usize,
}

impl<'c> ConeExtractor<'c> {
    /// Creates an extractor with the default state limit (4 million
    /// `(node, delay)` pairs).
    pub fn new(view: &'c FsmView<'c>) -> Self {
        ConeExtractor {
            view,
            node_limit: 4_000_000,
        }
    }

    /// Overrides the `(node, delay)` state limit.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    /// The view this extractor works on.
    pub fn view(&self) -> &'c FsmView<'c> {
        self.view
    }

    /// Compiles each sink's cone into a BDD under `policy`. The memo is
    /// shared across the sinks of one call (they usually overlap heavily)
    /// and discarded afterwards, so different policies can never
    /// cross-contaminate.
    ///
    /// # Errors
    ///
    /// [`TbfError::ConeExplosion`] if the number of distinct
    /// `(node, downstream-delay)` states exceeds the limit.
    pub fn extract<P: LeafPolicy + ?Sized>(
        &self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        sinks: &[NetId],
        policy: &mut P,
    ) -> Result<Vec<Bdd>, TbfError> {
        let starts: Vec<(NetId, i64)> = sinks.iter().map(|&s| (s, 0)).collect();
        self.extract_inner(manager, table, &starts, policy, false)
    }

    /// Skew-aware variant of [`extract`](Self::extract): each sink comes
    /// with a start accumulator (normally `-s_sink`, see
    /// [`FsmView::sink_starts`]), and each leaf adds its own skew `+s_leaf`
    /// on top of the clock-to-Q, so the policy observes the *effective*
    /// path delay `k + s_leaf − s_sink` of the skewed register model. With
    /// all-zero skews this is arithmetically identical to `extract` (same
    /// memo keys, same BDDs).
    ///
    /// # Errors
    ///
    /// [`TbfError::ConeExplosion`] under the same conditions as
    /// [`extract`](Self::extract).
    pub fn extract_at<P: LeafPolicy + ?Sized>(
        &self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        starts: &[(NetId, i64)],
        policy: &mut P,
    ) -> Result<Vec<Bdd>, TbfError> {
        self.extract_inner(manager, table, starts, policy, true)
    }

    fn extract_inner<P: LeafPolicy + ?Sized>(
        &self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        starts: &[(NetId, i64)],
        policy: &mut P,
        skewed: bool,
    ) -> Result<Vec<Bdd>, TbfError> {
        let circuit = self.view.circuit();
        let mut memo: HashMap<(NetId, i64), Bdd> = HashMap::new();
        enum Frame {
            Enter(NetId, i64),
            Exit(NetId, i64),
        }
        let mut results = Vec::with_capacity(starts.len());
        for &(sink, start) in starts {
            let mut stack = vec![Frame::Enter(sink, start)];
            while let Some(frame) = stack.pop() {
                match frame {
                    Frame::Enter(net, acc) => {
                        if memo.contains_key(&(net, acc)) {
                            continue;
                        }
                        if memo.len() >= self.node_limit {
                            return Err(TbfError::ConeExplosion {
                                entries: memo.len(),
                            });
                        }
                        match circuit.node(net) {
                            Node::Input { .. } | Node::Dff { .. } => {
                                let leaf = self
                                    .view
                                    .leaf_index(net)
                                    .expect("inputs and dffs are leaves");
                                let mut total = acc + self.view.leaf_source_delay(leaf).millis();
                                if skewed {
                                    total += self.view.leaf_skew(leaf).millis();
                                }
                                let bdd = policy.leaf(manager, table, leaf, total);
                                memo.insert((net, acc), bdd);
                            }
                            Node::Gate {
                                inputs, pin_delays, ..
                            } => {
                                stack.push(Frame::Exit(net, acc));
                                for (inp, pd) in inputs.iter().zip(pin_delays) {
                                    stack.push(Frame::Enter(*inp, acc + pd.rise.millis()));
                                    if pd.rise != pd.fall {
                                        stack.push(Frame::Enter(*inp, acc + pd.fall.millis()));
                                    }
                                }
                            }
                        }
                    }
                    Frame::Exit(net, acc) => {
                        let (kind, pins) = match circuit.node(net) {
                            Node::Gate {
                                kind,
                                inputs,
                                pin_delays,
                                ..
                            } => {
                                let pins: Vec<Bdd> = inputs
                                    .iter()
                                    .zip(pin_delays)
                                    .map(|(inp, pd)| {
                                        let rise = memo[&(*inp, acc + pd.rise.millis())];
                                        if pd.rise == pd.fall {
                                            rise
                                        } else {
                                            let fall = memo[&(*inp, acc + pd.fall.millis())];
                                            if pd.rise > pd.fall {
                                                manager.and(rise, fall)
                                            } else {
                                                manager.or(rise, fall)
                                            }
                                        }
                                    })
                                    .collect();
                                (*kind, pins)
                            }
                            _ => unreachable!("only gates get Exit frames"),
                        };
                        let out = apply_gate(manager, kind, &pins);
                        memo.insert((net, acc), out);
                    }
                }
            }
            results.push(memo[&(sink, start)]);
        }
        Ok(results)
    }

    /// Enumerates the delay classes (distinct `(leaf, path delay)` pairs)
    /// reaching any of `sinks`, each with one representative path.
    ///
    /// # Errors
    ///
    /// [`TbfError::ConeExplosion`] under the same conditions as
    /// [`extract`](Self::extract).
    pub fn delay_classes(&self, sinks: &[NetId]) -> Result<Vec<DelayClass>, TbfError> {
        let circuit = self.view.circuit();
        // Predecessor edge of the first visit, for path reconstruction.
        let mut pred: PredMap = HashMap::new();
        let mut classes: HashMap<(usize, i64), DelayClass> = HashMap::new();
        for &sink in sinks {
            if pred.contains_key(&(sink, 0)) {
                continue;
            }
            pred.insert((sink, 0), None);
            let mut stack = vec![(sink, 0i64)];
            while let Some((net, acc)) = stack.pop() {
                if pred.len() >= self.node_limit {
                    return Err(TbfError::ConeExplosion {
                        entries: pred.len(),
                    });
                }
                match circuit.node(net) {
                    Node::Input { .. } | Node::Dff { .. } => {
                        let leaf = self
                            .view
                            .leaf_index(net)
                            .expect("inputs and dffs are leaves");
                        let total = acc + self.view.leaf_source_delay(leaf).millis();
                        classes.entry((leaf, total)).or_insert_with(|| DelayClass {
                            leaf,
                            delay: total,
                            skew_offset: 0,
                            path: reconstruct_path(&pred, (net, acc)),
                        });
                    }
                    Node::Gate {
                        inputs, pin_delays, ..
                    } => {
                        for (pin, (inp, pd)) in inputs.iter().zip(pin_delays).enumerate() {
                            let mut delays = vec![pd.rise.millis()];
                            if pd.fall != pd.rise {
                                delays.push(pd.fall.millis());
                            }
                            for d in delays {
                                let key = (*inp, acc + d);
                                if let std::collections::hash_map::Entry::Vacant(e) =
                                    pred.entry(key)
                                {
                                    e.insert(Some((
                                        (net, acc),
                                        PathEdge {
                                            node: net,
                                            pin,
                                            delay: d,
                                        },
                                    )));
                                    stack.push(key);
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut out: Vec<DelayClass> = classes.into_values().collect();
        out.sort_by_key(|c| (c.leaf, c.delay));
        Ok(out)
    }

    /// Skew-aware variant of [`delay_classes`](Self::delay_classes): each
    /// sink comes with a start accumulator (normally `-s_sink`), leaves add
    /// their own skew, and every class records its
    /// [`skew_offset`](DelayClass::skew_offset). When no start or register
    /// skew is nonzero this delegates to the unskewed walk, so the class
    /// set, ordering, and representative paths are bit-identical to
    /// `delay_classes` on skew-free circuits.
    ///
    /// Skewed walks do not share the visited-state map across sinks (each
    /// walk's start determines the leaf offsets exactly), so representative
    /// paths come from the first start reaching each `(leaf, delay)` pair.
    ///
    /// # Errors
    ///
    /// [`TbfError::ConeExplosion`] if any single walk exceeds the state
    /// limit.
    pub fn delay_classes_at(&self, starts: &[(NetId, i64)]) -> Result<Vec<DelayClass>, TbfError> {
        if starts.iter().all(|&(_, s)| s == 0) && !self.view.has_skew() {
            let nets: Vec<NetId> = starts.iter().map(|&(n, _)| n).collect();
            return self.delay_classes(&nets);
        }
        let circuit = self.view.circuit();
        let mut classes: HashMap<(usize, i64), DelayClass> = HashMap::new();
        for &(sink, start) in starts {
            let mut pred: PredMap = HashMap::new();
            pred.insert((sink, start), None);
            let mut stack = vec![(sink, start)];
            while let Some((net, acc)) = stack.pop() {
                if pred.len() >= self.node_limit {
                    return Err(TbfError::ConeExplosion {
                        entries: pred.len(),
                    });
                }
                match circuit.node(net) {
                    Node::Input { .. } | Node::Dff { .. } => {
                        let leaf = self
                            .view
                            .leaf_index(net)
                            .expect("inputs and dffs are leaves");
                        let leaf_skew = self.view.leaf_skew(leaf).millis();
                        let total = acc + self.view.leaf_source_delay(leaf).millis() + leaf_skew;
                        let offset = start + leaf_skew;
                        match classes.entry((leaf, total)) {
                            std::collections::hash_map::Entry::Occupied(mut e) => {
                                let c = e.get_mut();
                                c.skew_offset = c.skew_offset.min(offset);
                            }
                            std::collections::hash_map::Entry::Vacant(e) => {
                                e.insert(DelayClass {
                                    leaf,
                                    delay: total,
                                    skew_offset: offset,
                                    path: reconstruct_path(&pred, (net, acc)),
                                });
                            }
                        }
                    }
                    Node::Gate {
                        inputs, pin_delays, ..
                    } => {
                        for (pin, (inp, pd)) in inputs.iter().zip(pin_delays).enumerate() {
                            let mut delays = vec![pd.rise.millis()];
                            if pd.fall != pd.rise {
                                delays.push(pd.fall.millis());
                            }
                            for d in delays {
                                let key = (*inp, acc + d);
                                if let std::collections::hash_map::Entry::Vacant(e) =
                                    pred.entry(key)
                                {
                                    e.insert(Some((
                                        (net, acc),
                                        PathEdge {
                                            node: net,
                                            pin,
                                            delay: d,
                                        },
                                    )));
                                    stack.push(key);
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut out: Vec<DelayClass> = classes.into_values().collect();
        out.sort_by_key(|c| (c.leaf, c.delay));
        Ok(out)
    }
}

/// Predecessor map of the class-enumeration DFS: each `(node, downstream
/// delay)` state remembers the first parent state and edge that reached it.
type PredMap = HashMap<(NetId, i64), Option<((NetId, i64), PathEdge)>>;

fn reconstruct_path(pred: &PredMap, mut key: (NetId, i64)) -> Vec<PathEdge> {
    let mut path = Vec::new();
    while let Some(Some((parent, edge))) = pred.get(&key) {
        path.push(*edge);
        key = *parent;
    }
    path
}

fn apply_gate(m: &mut BddManager, kind: GateKind, pins: &[Bdd]) -> Bdd {
    match kind {
        GateKind::Buf => pins[0],
        GateKind::Not => m.not(pins[0]),
        GateKind::And => m.and_all(pins.iter().copied()),
        GateKind::Nand => {
            let a = m.and_all(pins.iter().copied());
            m.not(a)
        }
        GateKind::Or => m.or_all(pins.iter().copied()),
        GateKind::Nor => {
            let o = m.or_all(pins.iter().copied());
            m.not(o)
        }
        GateKind::Xor => pins[1..].iter().fold(pins[0], |acc, &p| m.xor(acc, p)),
        GateKind::Xnor => {
            let x = pins[1..].iter().fold(pins[0], |acc, &p| m.xor(acc, p));
            m.not(x)
        }
    }
}

/// The discretized machine at one clock period (or in steady state): BDDs
/// for every next-state function and every output, over
/// [`TimedVar::Shifted`] variables.
///
/// This is the paper's normal form
/// `y_i(n) = f_i(y_1(n − m_{i1}), …, y_s(n − m_{is}))` with the shifts
/// produced by the supplied shift function (usually `m = ⌈k/τ⌉`).
#[derive(Clone, Debug)]
pub struct DiscreteMachine {
    /// Next-state functions, one per flip-flop in [`mct_netlist::Circuit::dffs`] order.
    pub next_state: Vec<Bdd>,
    /// Output functions, one per primary output.
    pub outputs: Vec<Bdd>,
    /// The largest shift referenced by any function (the paper's `m`).
    pub max_shift: i64,
}

impl DiscreteMachine {
    /// Builds the machine with an arbitrary shift function
    /// `(leaf, path-delay millis) → shift`. The delay handed to the shift
    /// function is the *effective* delay of the skewed register model,
    /// `k + s_leaf − s_sink` (identical to the raw path delay when the
    /// circuit carries no skew annotations).
    ///
    /// Shifts returned as `0` are clamped to `1`: a zero-delay
    /// register-to-register path still launches from the previous edge (the
    /// limit `k → 0⁺` of `⌈k/τ⌉`).
    ///
    /// # Errors
    ///
    /// Propagates [`TbfError::ConeExplosion`] from extraction.
    pub fn with_shift_fn<S: FnMut(usize, i64) -> i64>(
        extractor: &ConeExtractor<'_>,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        mut shift: S,
    ) -> Result<Self, TbfError> {
        let mut max_shift = 1i64;
        let view = extractor.view();
        let starts = view.sink_starts();
        let mut policy = |m: &mut BddManager, t: &mut TimedVarTable, leaf: usize, k: i64| {
            let s = shift(leaf, k).max(1);
            max_shift = max_shift.max(s);
            let v = t.var(TimedVar::Shifted { leaf, shift: s });
            m.var(v)
        };
        let cones = extractor.extract_at(manager, table, &starts, &mut policy)?;
        let mut next_state = Vec::new();
        let mut outputs = Vec::new();
        for (sink, bdd) in view.sinks().iter().zip(cones) {
            match sink.kind {
                SinkKind::NextState { .. } => next_state.push(bdd),
                SinkKind::Output { .. } => outputs.push(bdd),
            }
        }
        Ok(DiscreteMachine {
            next_state,
            outputs,
            max_shift,
        })
    }

    /// The steady-state machine `y(n, L)`: every shift is 1.
    ///
    /// # Errors
    ///
    /// Propagates [`TbfError::ConeExplosion`] from extraction.
    pub fn steady_state(
        extractor: &ConeExtractor<'_>,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
    ) -> Result<Self, TbfError> {
        Self::with_shift_fn(extractor, manager, table, |_, _| 1)
    }

    /// The untimed (functional) machine over [`TimedVar::Shifted`] shift-0
    /// variables — used for reachability analysis, where only the Boolean
    /// next-state relation matters.
    ///
    /// # Errors
    ///
    /// Propagates [`TbfError::ConeExplosion`] from extraction.
    pub fn functional(
        extractor: &ConeExtractor<'_>,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
    ) -> Result<Self, TbfError> {
        let view = extractor.view();
        let sink_nets: Vec<NetId> = view.sinks().iter().map(|s| s.net).collect();
        let mut policy = |m: &mut BddManager, t: &mut TimedVarTable, leaf: usize, _k: i64| {
            let v = t.var(TimedVar::Shifted { leaf, shift: 0 });
            m.var(v)
        };
        let cones = extractor.extract(manager, table, &sink_nets, &mut policy)?;
        let mut next_state = Vec::new();
        let mut outputs = Vec::new();
        for (sink, bdd) in view.sinks().iter().zip(cones) {
            match sink.kind {
                SinkKind::NextState { .. } => next_state.push(bdd),
                SinkKind::Output { .. } => outputs.push(bdd),
            }
        }
        Ok(DiscreteMachine {
            next_state,
            outputs,
            max_shift: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_netlist::{Circuit, PinDelay, Time};

    fn t(v: f64) -> Time {
        Time::from_f64(v)
    }

    /// The paper's Figure-2 circuit (one flip-flop `f`, output `g`).
    fn figure2() -> Circuit {
        let mut c = Circuit::new("fig2");
        let f = c.add_dff("f", true, Time::ZERO);
        let cb = c.add_gate("c", GateKind::Buf, &[f], t(1.5));
        let d = c.add_gate("d", GateKind::Not, &[f], t(4.0));
        let e = c.add_gate("e", GateKind::Buf, &[f], t(5.0));
        let a = c.add_gate("a", GateKind::And, &[cb, d, e], Time::ZERO);
        let b = c.add_gate("b", GateKind::Not, &[f], t(2.0));
        let g = c.add_gate("g", GateKind::Or, &[a, b], Time::ZERO);
        c.connect_dff_data("f", g).unwrap();
        c.set_output(f);
        c
    }

    fn shifted(m: &mut BddManager, tbl: &mut TimedVarTable, leaf: usize, s: i64) -> Bdd {
        let v = tbl.var(TimedVar::Shifted { leaf, shift: s });
        m.var(v)
    }

    #[test]
    fn figure2_steady_state_is_inverter() {
        let c = figure2();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let machine = DiscreteMachine::steady_state(&ex, &mut m, &mut tbl).unwrap();
        // g(n, L) = x(n−1)·x̄(n−1)·x(n−1) + x̄(n−1) = x̄(n−1).
        let x1 = shifted(&mut m, &mut tbl, 0, 1);
        let expect = m.not(x1);
        assert_eq!(machine.next_state[0], expect);
        assert_eq!(machine.max_shift, 1);
    }

    #[test]
    fn figure2_at_tau_2_5_matches_paper() {
        // Shifts at τ = 2.5: 1.5→1, 4→2, 5→2, 2→1, so
        // g(n) = x(n−1)·x̄(n−2)·x(n−2) + x̄(n−1) = x̄(n−1) (the middle term
        // vanishes). The paper finds τ = 2.5 valid.
        let c = figure2();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let shifts = |_: usize, k: i64| match k {
            0 | 1500 | 2000 => 1, // 0 is the output cone reading f directly
            4000 | 5000 => 2,
            other => panic!("unexpected path delay {other}"),
        };
        let machine = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, shifts).unwrap();
        let x1 = shifted(&mut m, &mut tbl, 0, 1);
        let expect = m.not(x1);
        assert_eq!(machine.next_state[0], expect);
        assert_eq!(machine.max_shift, 2);
    }

    #[test]
    fn figure2_at_tau_2_has_long_shift() {
        // Shifts at τ = 2: 1.5→1, 4→2, 5→3, 2→1:
        // g(n) = x(n−1)·x̄(n−2)·x(n−3) + x̄(n−1), which does NOT collapse.
        let c = figure2();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let shifts = |_: usize, k: i64| (k + 1999) / 2000; // ⌈k/2⌉ in millis
        let machine = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, shifts).unwrap();
        let x1 = shifted(&mut m, &mut tbl, 0, 1);
        let x2 = shifted(&mut m, &mut tbl, 0, 2);
        let x3 = shifted(&mut m, &mut tbl, 0, 3);
        let expect = {
            let nx2 = m.not(x2);
            let t1 = m.and_all([x1, nx2, x3]);
            let nx1 = m.not(x1);
            m.or(t1, nx1)
        };
        assert_eq!(machine.next_state[0], expect);
        assert_eq!(machine.max_shift, 3);
    }

    #[test]
    fn delay_classes_of_figure2() {
        let c = figure2();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let sinks: Vec<NetId> = view.next_state_sinks().map(|s| s.net).collect();
        let classes = ex.delay_classes(&sinks).unwrap();
        let delays: Vec<i64> = classes.iter().map(|c| c.delay).collect();
        assert_eq!(delays, vec![1500, 2000, 4000, 5000]);
        // Representative paths: the 5000 class goes through e then a then g.
        let five = classes.iter().find(|c| c.delay == 5000).unwrap();
        let total: i64 = five.path.iter().map(|e| e.delay).sum();
        assert_eq!(total, 5000);
    }

    #[test]
    fn output_cone_extracted() {
        let c = figure2();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let machine = DiscreteMachine::steady_state(&ex, &mut m, &mut tbl).unwrap();
        // Output is the flip-flop itself: leaf 0 at shift 1.
        assert_eq!(machine.outputs.len(), 1);
        let x1 = shifted(&mut m, &mut tbl, 0, 1);
        assert_eq!(machine.outputs[0], x1);
    }

    #[test]
    fn rise_fall_pin_becomes_two_shifts() {
        // A single buffer with rise 2 / fall 1 between two FFs:
        // next = x(k=2000) ∧ x(k=1000) under a policy that records ks.
        let mut c = Circuit::new("rf");
        let q = c.add_dff("q", false, Time::ZERO);
        let b = c.add_gate_with_delays(
            "b",
            GateKind::Buf,
            &[q],
            vec![PinDelay::new(t(2.0), t(1.0))],
        );
        c.connect_dff_data("q", b).unwrap();
        c.set_output(b);
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let mut seen = Vec::new();
        let mut policy = |mm: &mut BddManager, tt: &mut TimedVarTable, leaf: usize, k: i64| {
            seen.push(k);
            let v = tt.var(TimedVar::Arbitrary { leaf, delay: k });
            mm.var(v)
        };
        let sinks: Vec<NetId> = view.sinks().iter().map(|s| s.net).collect();
        let cones = ex.extract(&mut m, &mut tbl, &sinks, &mut policy).unwrap();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![1000, 2000]);
        // Slow rise → conjunction of the two observations.
        let a = m.var(
            tbl.lookup(TimedVar::Arbitrary {
                leaf: 0,
                delay: 2000,
            })
            .unwrap(),
        );
        let b2 = m.var(
            tbl.lookup(TimedVar::Arbitrary {
                leaf: 0,
                delay: 1000,
            })
            .unwrap(),
        );
        let expect = m.and(a, b2);
        assert_eq!(cones[0], expect);
    }

    #[test]
    fn clock_to_q_added_at_leaf() {
        let mut c = Circuit::new("c2q");
        let q = c.add_dff("q", false, t(0.5));
        let g = c.add_gate("g", GateKind::Not, &[q], t(1.0));
        c.connect_dff_data("q", g).unwrap();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let classes = ex
            .delay_classes(&view.sinks().iter().map(|s| s.net).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].delay, 1500); // 1.0 pin + 0.5 clock-to-Q
    }

    /// Two-register ring: q0 −(NOT, 5)→ q1 −(BUF, 1)→ q0, output = q0,
    /// with q1 skewed +2.0. Both register-to-register paths land on an
    /// effective delay of 3.0 (5 − 2 and 1 + 2).
    fn skewed_ring() -> Circuit {
        let mut c = Circuit::new("skew_ring");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let q1 = c.add_dff("q1", false, Time::ZERO);
        let n1 = c.add_gate("n1", GateKind::Not, &[q0], t(5.0));
        let n0 = c.add_gate("n0", GateKind::Buf, &[q1], t(1.0));
        c.connect_dff_data("q1", n1).unwrap();
        c.connect_dff_data("q0", n0).unwrap();
        c.set_output(q0);
        let q1_id = c.lookup("q1").unwrap();
        c.set_dff_skew(q1_id, t(2.0)).unwrap();
        c
    }

    #[test]
    fn skewed_classes_carry_offsets() {
        let c = skewed_ring();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let classes = ex.delay_classes_at(&view.sink_starts()).unwrap();
        let summary: Vec<(usize, i64, i64)> = classes
            .iter()
            .map(|c| (c.leaf, c.delay, c.skew_offset))
            .collect();
        // Output cone reads q0 directly (raw 0, no skew); both feedback
        // paths become effective delay 3000 with opposite offsets.
        assert_eq!(summary, vec![(0, 0, 0), (0, 3000, -2000), (1, 3000, 2000)]);
        // Raw (unskewed) enumeration still sees 5000 and 1000.
        let sinks: Vec<NetId> = view.next_state_sinks().map(|s| s.net).collect();
        let raw = ex.delay_classes(&sinks).unwrap();
        let raw_delays: Vec<i64> = raw.iter().map(|c| c.delay).collect();
        assert_eq!(raw_delays, vec![5000, 1000]);
        assert!(raw.iter().all(|c| c.skew_offset == 0));
    }

    #[test]
    fn skewed_machine_uses_effective_delays() {
        let c = skewed_ring();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let mut seen = Vec::new();
        let machine = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, |_, k| {
            seen.push(k);
            1
        })
        .unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 3000, 3000]);
        // At shift 1 everywhere the machine is the steady-state one.
        let steady = DiscreteMachine::steady_state(&ex, &mut m, &mut tbl).unwrap();
        assert_eq!(machine.next_state, steady.next_state);
        assert_eq!(machine.outputs, steady.outputs);
    }

    #[test]
    fn zero_skew_classes_at_matches_raw() {
        let c = figure2();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let nets: Vec<NetId> = view.sinks().iter().map(|s| s.net).collect();
        let raw = ex.delay_classes(&nets).unwrap();
        let at = ex.delay_classes_at(&view.sink_starts()).unwrap();
        assert_eq!(raw, at);
    }

    #[test]
    fn node_limit_enforced() {
        // A ladder of 2-input gates with distinct pin delays produces
        // exponentially many distinct path sums.
        let mut c = Circuit::new("explode");
        let q = c.add_dff("q", false, Time::ZERO);
        let mut cur = q;
        for i in 0..24 {
            let d1 = Time::from_millis(1 << i);
            let d2 = Time::from_millis(2 << i);
            cur = c.add_gate_with_delays(
                format!("g{i}"),
                GateKind::And,
                &[cur, cur],
                vec![PinDelay::symmetric(d1), PinDelay::symmetric(d2)],
            );
        }
        c.connect_dff_data("q", cur).unwrap();
        c.set_output(cur);
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view).with_node_limit(10_000);
        let sinks: Vec<NetId> = view.sinks().iter().map(|s| s.net).collect();
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let mut policy = |mm: &mut BddManager, tt: &mut TimedVarTable, leaf: usize, k: i64| {
            let v = tt.var(TimedVar::Arbitrary { leaf, delay: k });
            mm.var(v)
        };
        let err = ex.extract(&mut m, &mut tbl, &sinks, &mut policy);
        assert!(matches!(err, Err(TbfError::ConeExplosion { .. })));
    }

    #[test]
    fn functional_machine_matches_step() {
        // The functional BDDs agree with Circuit::step on all leaf values.
        let src = "
            INPUT(a)
            OUTPUT(o)
            q0 = DFF(n0)
            q1 = DFF(n1)
            n0 = XOR(q0, a)
            n1 = NAND(q0, q1)
            o = OR(n1, a)
        ";
        let c = mct_netlist::parse_bench(src, &mct_netlist::DelayModel::Unit).unwrap();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let machine = DiscreteMachine::functional(&ex, &mut m, &mut tbl).unwrap();
        let nleaves = view.leaves().len();
        for mask in 0..(1u32 << nleaves) {
            let leaf_val = |i: usize| mask >> i & 1 == 1;
            let state: Vec<bool> = (0..view.num_state_bits()).map(leaf_val).collect();
            let inputs: Vec<bool> = (view.num_state_bits()..nleaves).map(leaf_val).collect();
            let (next, outs) = c.step(&state, &inputs);
            let assignment = |v: mct_bdd::Var| match tbl.timed_var(v) {
                Some(TimedVar::Shifted { leaf, shift: 0 }) => leaf_val(leaf),
                other => panic!("unexpected var {other:?}"),
            };
            for (j, &bdd) in machine.next_state.iter().enumerate() {
                assert_eq!(m.eval(bdd, assignment), next[j], "state {j} mask {mask:b}");
            }
            for (j, &bdd) in machine.outputs.iter().enumerate() {
                assert_eq!(m.eval(bdd, assignment), outs[j], "output {j} mask {mask:b}");
            }
        }
    }
}
