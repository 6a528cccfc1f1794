//! The image operator shared by every reachability fixpoint.

use crate::error::TbfError;
use crate::extract::{ConeExtractor, DiscreteMachine};
use crate::vars::{TimedVar, TimedVarTable};
use mct_bdd::{Bdd, BddManager, QuantMemo, Var, VarSet};

/// The image of a state set under one machine: the monolithic relation
/// `T = ∧ᵢ (nextᵢ ↔ fᵢ)`, built once, with the variables a step quantifies
/// and the rename that brings an image back to the current variables.
///
/// The relational product and the rename go through one [`QuantMemo`]
/// kept from step to step, so a fixpoint whose consecutive sets share
/// subgraphs pays mostly for what changed. The relation is the one handle
/// a caller must root across collections; nothing rewrites it after a
/// compaction, so an `Image` must not outlive one.
pub struct Image {
    relation: Bdd,
    quantified: VarSet,
    /// `(next, current)` pairs.
    rename: Vec<(Var, Var)>,
    /// The rename as a substitution, rebuilt in place at every step: a
    /// collection may move the current variables' nodes between steps.
    subst: Vec<(Var, Bdd)>,
    memo: QuantMemo,
}

impl Image {
    /// The image operator of `bits`, one `(next, f, current)` triple per
    /// state bit: the next-state variable, its function, and the current
    /// variable an image renames it back to. A step quantifies every
    /// current variable and `inputs`.
    pub fn new(manager: &mut BddManager, bits: &[(Var, Bdd, Var)], inputs: &[Var]) -> Image {
        let mut relation = manager.one();
        for &(next, f, _) in bits {
            let nv = manager.var(next);
            let bit = manager.xnor(nv, f);
            relation = manager.and(relation, bit);
        }
        Image {
            relation,
            quantified: bits
                .iter()
                .map(|b| b.2)
                .chain(inputs.iter().copied())
                .collect(),
            rename: bits.iter().map(|&(next, _, cur)| (next, cur)).collect(),
            subst: Vec::with_capacity(bits.len()),
            memo: QuantMemo::default(),
        }
    }

    /// The image operator of the circuit's functional machine, over the
    /// current variables `TimedVar::Shifted { leaf, shift: 0 }` and the
    /// next-state variables `TimedVar::Next { leaf }`.
    ///
    /// # Errors
    ///
    /// Propagates [`TbfError::ConeExplosion`] from cone extraction.
    pub fn functional(
        extractor: &ConeExtractor<'_>,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
    ) -> Result<Image, TbfError> {
        let view = extractor.view();
        let ns = view.num_state_bits();
        let machine = DiscreteMachine::functional(extractor, manager, table)?;
        let cur: Vec<Var> = (0..ns)
            .map(|leaf| table.var(TimedVar::Shifted { leaf, shift: 0 }))
            .collect();
        let bits: Vec<(Var, Bdd, Var)> = machine
            .next_state
            .iter()
            .zip(&cur)
            .enumerate()
            .map(|(leaf, (&f, &c))| (table.var(TimedVar::Next { leaf }), f, c))
            .collect();
        let inputs: Vec<Var> = (ns..view.leaves().len())
            .map(|leaf| table.var(TimedVar::Shifted { leaf, shift: 0 }))
            .collect();
        Ok(Image::new(manager, &bits, &inputs))
    }

    /// The states one step from `set`, over the current variables.
    pub fn step(&mut self, manager: &mut BddManager, set: Bdd) -> Bdd {
        let next = manager.and_exists_memo(set, self.relation, &self.quantified, &mut self.memo);
        self.subst.clear();
        self.subst
            .extend(self.rename.iter().map(|&(n, c)| (n, manager.var(c))));
        manager.vector_compose_memo(next, &self.subst, &mut self.memo)
    }

    /// The transition relation: the root a fixpoint keeps across
    /// collections.
    pub fn relation(&self) -> Bdd {
        self.relation
    }
}
