//! Test-case minimization over [`ProgramSpec`] trees.
//!
//! Shrinking operates on the structured spec, never on raw instruction
//! bytes, so every candidate is a well-formed terminating program — the
//! predicate is only ever asked about programs that build. Passes, coarse
//! to fine:
//!
//! 1. remove whole control-flow nodes (blocks first, which drops entire
//!    loops/dispatches with their subtrees),
//! 2. collapse loop trip counts to 1,
//! 3. remove single instructions inside straight-line blocks,
//! 4. remove register initializations.
//!
//! The passes run to a fixpoint. Every accepted candidate either strictly
//! reduces [`ProgramSpec::weight`] or is a one-shot normalization (trip
//! collapse), and candidates identical to the current best are never
//! re-tested, so the loop terminates.

use crate::spec::{Node, ProgramSpec};

/// Minimizes `spec` while `still_fails` holds.
///
/// `still_fails` must return `true` iff the candidate still reproduces the
/// failure of interest (and must return `false` for candidates that fail to
/// build — [`crate::spec::build`] errors are not "failures", they are
/// rejected candidates). It is called only on specs different from the
/// current best.
pub fn shrink(spec: &ProgramSpec, still_fails: &dyn Fn(&ProgramSpec) -> bool) -> ProgramSpec {
    let mut best = spec.clone();
    loop {
        let mut improved = false;
        improved |= pass(&mut best, still_fails, remove_node_candidate);
        improved |= pass(&mut best, still_fails, collapse_trips_candidate);
        improved |= pass(&mut best, still_fails, remove_insn_candidate);
        improved |= pass(&mut best, still_fails, remove_reg_init_candidate);
        if !improved {
            return best;
        }
    }
}

/// Runs one enumeration pass: `candidate(best, n)` yields the nth mutation
/// of `best` or `None` when the enumeration is exhausted. Accepted
/// candidates restart the enumeration at the same index (the tree shifted
/// under it).
fn pass(
    best: &mut ProgramSpec,
    still_fails: &dyn Fn(&ProgramSpec) -> bool,
    candidate: fn(&ProgramSpec, usize) -> Option<ProgramSpec>,
) -> bool {
    let mut improved = false;
    let mut n = 0;
    while let Some(cand) = candidate(best, n) {
        if cand != *best && still_fails(&cand) {
            *best = cand;
            improved = true;
        } else {
            n += 1;
        }
    }
    improved
}

/// Removes the nth node (pre-order across functions, descending into loop
/// bodies, if-arms, and dispatch arms).
fn remove_node_candidate(spec: &ProgramSpec, n: usize) -> Option<ProgramSpec> {
    let mut cand = spec.clone();
    let mut n = n;
    for func in &mut cand.funcs {
        if remove_nth_node(&mut func.body, &mut n) {
            return Some(cand);
        }
    }
    None
}

fn remove_nth_node(nodes: &mut Vec<Node>, n: &mut usize) -> bool {
    let mut i = 0;
    while i < nodes.len() {
        if *n == 0 {
            nodes.remove(i);
            return true;
        }
        *n -= 1;
        let removed = match &mut nodes[i] {
            Node::Loop { body, .. } => remove_nth_node(body, n),
            Node::If { then, .. } => remove_nth_node(then, n),
            Node::Dispatch { arms, .. } => arms.iter_mut().any(|arm| remove_nth_node(arm, n)),
            Node::Straight(_) | Node::Call(_) => false,
        };
        if removed {
            return true;
        }
        i += 1;
    }
    false
}

/// Sets the nth loop's trip count to 1.
fn collapse_trips_candidate(spec: &ProgramSpec, n: usize) -> Option<ProgramSpec> {
    let mut cand = spec.clone();
    let mut n = n;
    for func in &mut cand.funcs {
        if collapse_nth_loop(&mut func.body, &mut n) {
            return Some(cand);
        }
    }
    None
}

fn collapse_nth_loop(nodes: &mut [Node], n: &mut usize) -> bool {
    for node in nodes {
        match node {
            Node::Loop { trips, body } => {
                if *n == 0 {
                    *trips = 1;
                    return true;
                }
                *n -= 1;
                if collapse_nth_loop(body, n) {
                    return true;
                }
            }
            Node::If { then, .. } => {
                if collapse_nth_loop(then, n) {
                    return true;
                }
            }
            Node::Dispatch { arms, .. } => {
                if arms.iter_mut().any(|arm| collapse_nth_loop(arm, n)) {
                    return true;
                }
            }
            Node::Straight(_) | Node::Call(_) => {}
        }
    }
    false
}

/// Removes the nth instruction across all straight-line blocks.
fn remove_insn_candidate(spec: &ProgramSpec, n: usize) -> Option<ProgramSpec> {
    let mut cand = spec.clone();
    let mut n = n;
    for func in &mut cand.funcs {
        if remove_nth_insn(&mut func.body, &mut n) {
            return Some(cand);
        }
    }
    None
}

fn remove_nth_insn(nodes: &mut [Node], n: &mut usize) -> bool {
    for node in nodes {
        match node {
            Node::Straight(ops) => {
                if *n < ops.len() {
                    ops.remove(*n);
                    return true;
                }
                *n -= ops.len();
            }
            Node::Loop { body, .. } => {
                if remove_nth_insn(body, n) {
                    return true;
                }
            }
            Node::If { then, .. } => {
                if remove_nth_insn(then, n) {
                    return true;
                }
            }
            Node::Dispatch { arms, .. } => {
                if arms.iter_mut().any(|arm| remove_nth_insn(arm, n)) {
                    return true;
                }
            }
            Node::Call(_) => {}
        }
    }
    false
}

/// Removes the nth register initialization.
fn remove_reg_init_candidate(spec: &ProgramSpec, n: usize) -> Option<ProgramSpec> {
    if n >= spec.reg_init.len() {
        return None;
    }
    let mut cand = spec.clone();
    cand.reg_init.remove(n);
    Some(cand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FuncSpec;
    use codense_ppc::insn::{bo, Insn};
    use codense_ppc::reg::{Gpr, CR0, R0, R4, R5};

    fn addi(rt: Gpr, si: i16) -> u32 {
        codense_ppc::encode(&Insn::Addi { rt, ra: R0, si })
    }

    fn bulky_spec() -> ProgramSpec {
        ProgramSpec {
            funcs: vec![FuncSpec {
                frame: false,
                body: vec![
                    Node::Straight(vec![addi(R4, 1), addi(R4, 2), addi(R5, 99)]),
                    Node::Loop {
                        trips: 5,
                        body: vec![Node::Straight(vec![addi(R4, 3), addi(R5, 99)])],
                    },
                    Node::If {
                        test: vec![
                            codense_ppc::encode(&Insn::Cmpwi { bf: CR0, ra: R4, si: 0 }),
                            codense_ppc::encode(&Insn::Bc {
                                bo: bo::IF_TRUE,
                                bi: CR0.eq_bit(),
                                bd: 0,
                                aa: false,
                                lk: false,
                            }),
                        ],
                        then: vec![Node::Straight(vec![addi(R5, 99)])],
                    },
                ],
            }],
            reg_init: vec![(4, 7), (5, 9)],
            result_reg: 4,
        }
    }

    /// Predicate: the spec still contains an `addi rX, r0, 99` anywhere.
    fn contains_99(spec: &ProgramSpec) -> bool {
        fn nodes_contain(v: &[Node]) -> bool {
            v.iter().any(|n| match n {
                Node::Straight(ops) => ops
                    .iter()
                    .any(|&op| matches!(codense_ppc::decode(op), Insn::Addi { si: 99, .. })),
                Node::Loop { body, .. } => nodes_contain(body),
                Node::If { then, .. } => nodes_contain(then),
                Node::Dispatch { arms, .. } => arms.iter().any(|a| nodes_contain(a)),
                Node::Call(_) => false,
            })
        }
        spec.funcs.iter().any(|f| nodes_contain(&f.body))
    }

    #[test]
    fn shrinks_to_single_marker_instruction() {
        let spec = bulky_spec();
        let small = shrink(&spec, &contains_99);
        assert!(contains_99(&small), "shrinking must preserve the failure");
        assert!(small.weight() < spec.weight());
        // Exactly one node with exactly the marker instruction survives.
        assert_eq!(small.funcs.len(), 1);
        assert_eq!(small.reg_init.len(), 0);
        let total: usize = small
            .funcs
            .iter()
            .map(|f| {
                fn count(v: &[Node]) -> usize {
                    v.iter()
                        .map(|n| match n {
                            Node::Straight(ops) => ops.len(),
                            Node::Loop { body, .. } => count(body),
                            Node::If { then, .. } => count(then),
                            Node::Dispatch { arms, .. } => arms.iter().map(|a| count(a)).sum(),
                            Node::Call(_) => 0,
                        })
                        .sum()
                }
                count(&f.body)
            })
            .sum();
        assert_eq!(total, 1, "only the marker instruction should remain: {small:?}");
    }

    #[test]
    fn shrink_of_passing_spec_is_identity_when_predicate_always_false() {
        let spec = bulky_spec();
        let same = shrink(&spec, &|_| false);
        assert_eq!(same, spec);
    }
}
