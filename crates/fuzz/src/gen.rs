//! Seeded random generation of [`ProgramSpec`]s.
//!
//! Programs are built from a per-case instruction *vocabulary*: a small pool
//! of concrete instructions the generator mostly draws from, so repeated
//! sequences exist for the dictionary compressor to find (a uniformly random
//! instruction stream would compress to nothing and leave the codeword paths
//! untested). The tree shape is drawn here; the [`Target`] draws the
//! ISA-specific leaves (fresh ops, indexed accesses, if-conditions).

use codense_codegen::Rng;

use crate::spec::{FuncSpec, Node, ProgramSpec, CALLEE_LOOP_BASE};
use crate::target::Target;

/// Size knobs for generated programs.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum functions (≥ 1; function 0 is the entry).
    pub max_funcs: usize,
    /// Maximum top-level regions per function body.
    pub max_regions: usize,
    /// Maximum straight-line instructions per block.
    pub max_block: usize,
    /// Maximum loop nesting depth (≤ 3).
    pub max_loop_depth: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig { max_funcs: 4, max_regions: 5, max_block: 8, max_loop_depth: 2 }
    }
}

struct Gen<'a> {
    target: &'a dyn Target,
    rng: &'a mut Rng,
    cfg: GenConfig,
    vocab: Vec<u32>,
}

impl Gen<'_> {
    fn data_reg(&mut self) -> u8 {
        *self.rng.pick(self.target.data_regs())
    }

    /// A run of straight-line instructions, drawn mostly from the
    /// vocabulary. Occasionally emits a bounds-masked indexed access.
    fn straight_ops(&mut self) -> Vec<u32> {
        let n = self.rng.range(1, self.cfg.max_block);
        let mut ops = Vec::with_capacity(n + 2);
        for _ in 0..n {
            if self.rng.chance(0.12) {
                let src = self.data_reg();
                let val = self.data_reg();
                let load = self.rng.chance(0.5);
                ops.extend(self.target.indexed_access(src, val, load));
            } else if !self.vocab.is_empty() && self.rng.chance(0.8) {
                ops.push(*self.rng.pick(&self.vocab));
            } else {
                let op = self.target.fresh_op(self.rng);
                self.vocab.push(op);
                ops.push(op);
            }
        }
        ops
    }

    fn region(&mut self, depth: usize, may_call: bool, funcs: usize) -> Node {
        let choices: &[u32] = &[
            40,                                                   // straight
            if depth < self.cfg.max_loop_depth { 14 } else { 0 }, // loop
            12,                                                   // if
            if depth == 0 { 6 } else { 0 },                       // dispatch
            if may_call && funcs > 1 { 8 } else { 0 },            // call
        ];
        match self.rng.weighted(choices) {
            0 => Node::Straight(self.straight_ops()),
            1 => {
                let trips = self.rng.range(1, 6) as u8;
                let body = self.body(depth + 1, may_call, funcs, 2);
                Node::Loop { trips, body }
            }
            2 => {
                let test = self.target.condition(self.rng);
                let then = self.body(depth, may_call, funcs, 2);
                Node::If { test, then }
            }
            3 => {
                let width = 1 << self.rng.range(1, 3); // 2, 4 or 8 arms
                let arms = (0..width).map(|_| self.body(depth + 1, may_call, funcs, 1)).collect();
                Node::Dispatch { index: self.data_reg(), arms }
            }
            _ => Node::Call(self.rng.range(1, funcs - 1)),
        }
    }

    fn body(
        &mut self,
        depth: usize,
        may_call: bool,
        funcs: usize,
        max_regions: usize,
    ) -> Vec<Node> {
        let n = self.rng.range(1, max_regions.max(1));
        (0..n).map(|_| self.region(depth, may_call, funcs)).collect()
    }
}

/// Generates a program spec for `target` from the RNG stream.
pub fn generate_spec(target: &dyn Target, rng: &mut Rng, cfg: &GenConfig) -> ProgramSpec {
    let funcs_n = rng.range(1, cfg.max_funcs.max(1));
    let mut g = Gen { target, rng, cfg: cfg.clone(), vocab: Vec::new() };

    let reg_init: Vec<(u8, u32)> = target
        .data_regs()
        .iter()
        .filter(|_| g.rng.chance(0.7))
        .copied()
        .collect::<Vec<_>>()
        .into_iter()
        .map(|r| (r, g.rng.next_u64() as u32))
        .collect();

    let loop_regs = target.loop_regs().len();
    let mut funcs = Vec::with_capacity(funcs_n);
    for fi in 0..funcs_n {
        let may_call = fi == 0;
        // Callees draw loop counters from the upper half of the reserved
        // bank (see `spec::CALLEE_LOOP_BASE`), so their nesting budget is
        // half the entry function's.
        g.cfg.max_loop_depth = if fi == 0 {
            cfg.max_loop_depth.min(loop_regs)
        } else {
            cfg.max_loop_depth.min(loop_regs - CALLEE_LOOP_BASE)
        };
        let regions = g.rng.range(1, g.cfg.max_regions);
        let body = (0..regions).map(|_| g.region(0, may_call, funcs_n)).collect();
        funcs.push(FuncSpec { frame: fi != 0 && g.rng.chance(0.6), body });
    }
    let result_reg = g.data_reg();
    ProgramSpec { funcs, reg_init, result_reg }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::build;
    use crate::target::{Mips, Ppc};

    const TARGETS: [&dyn Target; 2] = [&Ppc, &Mips];

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for target in TARGETS {
            let a = generate_spec(target, &mut Rng::new(42), &cfg);
            let b = generate_spec(target, &mut Rng::new(42), &cfg);
            assert_eq!(a, b);
            let c = generate_spec(target, &mut Rng::new(43), &cfg);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn generated_specs_build_and_validate() {
        let cfg = GenConfig::default();
        for target in TARGETS {
            for seed in 0..60 {
                let spec = generate_spec(target, &mut Rng::new(seed), &cfg);
                let built = build(target, &spec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                assert!(built.module.validate_with(target.isa()).is_ok(), "seed {seed}");
                assert!(!built.module.code.is_empty());
            }
        }
    }
}
